// Benchmark entry point:
//   echoimage_perfbench --workload W --seed N --seconds S --trace 0|1
// Prints a metadata line, then the result JSON as the last line of stdout.
// Exits non-zero, printing no result, when the run cannot be made (bad
// arguments, an unoptimised build, a thrown error).
#include <iostream>
#include <stdexcept>

#include "workloads.hpp"

int main(int argc, char** argv) {
  try {
    perfbench::require_optimised_build();
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    std::string extra;
    perfbench::Result result;
    if (args.workload == "auth_paper") {
      result = perfbench::run_auth_paper(args, extra);
    } else if (args.workload == "serve_poisson") {
      result = perfbench::run_serve_poisson(args, extra);
    } else if (args.workload == "ident_churn") {
      result = perfbench::run_ident_churn(args, extra);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    perfbench::print_result(
        result, "{\"meta\": " + perfbench::metadata_json(args) +
                    (extra.empty() ? "" : ", ") + extra + "}");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
