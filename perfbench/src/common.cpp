#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "simd/isa.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

HostGauge::HostGauge() {
  char buf[64];
  for (int k = 0; k < 1000; ++k) {
    std::snprintf(buf, sizeof buf, "%a", 1.0 + k * 1e-3);
    text_.emplace_back(buf);
    expected_ += std::strtod(buf, nullptr);
  }
}

double HostGauge::sample() const {
  double best = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_s();
    double sum = 0.0;
    for (const std::string& t : text_) sum += std::strtod(t.c_str(), nullptr);
    best = std::min(best, now_s() - t0);
    if (sum != expected_) throw std::logic_error("host gauge: wrong sum");
  }
  return best;
}

void GaugedTimer::mark() {
  const double begin = now_s();
  const double g = gauge_.sample();
  marks_.push_back({begin, now_s(), g});
  all_.push_back(g);
}

std::pair<double, double> GaugedTimer::stop() {
  mark();
  double wall = 0.0, quiet = 0.0;
  for (std::size_t k = 0; k + 1 < marks_.size(); ++k) {
    const double segment = marks_[k + 1].begin - marks_[k].end;
    wall += segment;
    quiet += at_quiet_host(segment, marks_[k].gauge, marks_[k + 1].gauge);
  }
  marks_.clear();
  return {wall, quiet};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  const double hi = values[n / 2];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(values.begin(), values.begin() + n / 2);
  return 0.5 * (lo + hi);
}

std::optional<Tail> tail_percentile(std::vector<double> values) {
  const std::size_t n = values.size();
  for (const double p : kTailPercentiles) {
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it (1-based rank ceil(p n / 100)).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < 10) continue;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    return Tail{values[rank - 1], p, n};
  }
  return std::nullopt;
}

void LayerClock::add(const std::string& layer, double seconds) {
  if (enabled_) samples_[layer].push_back(seconds);
}

double LayerClock::total(const std::string& layer) const {
  const auto it = samples_.find(layer);
  if (it == samples_.end()) return 0.0;
  double sum = 0.0;
  for (const double s : it->second) sum += s;
  return sum;
}

const std::vector<double>& LayerClock::samples(const std::string& layer) const {
  static const std::vector<double> kNone;
  const auto it = samples_.find(layer);
  return it == samples_.end() ? kNone : it->second;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), name + " is not finite");
  metrics.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("peak_rss_mb: VmHWM not found in /proc/self/status");
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string metadata_json(const Args& args) {
  const char* revision = std::getenv("PERFBENCH_REVISION");
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(args.workload)
     << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"isa\": \""
     << echoimage::simd::isa_name(echoimage::simd::active_isa())
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\", \"compiler\": \"" << json_escape(__VERSION__)
     << "\", \"revision\": \""
     << json_escape(revision != nullptr ? revision : "unknown") << "\"}";
  return os.str();
}

void require_optimised_build() {
#if !defined(__OPTIMIZE__)
  throw std::runtime_error("refusing to benchmark an unoptimised build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  throw std::runtime_error("refusing to benchmark a sanitized build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  throw std::runtime_error("refusing to benchmark a sanitized build");
#endif
#endif
  const std::string flags = PERFBENCH_CXX_FLAGS;
  for (const char* bad : {"-fsanitize", "--coverage", "-fprofile-arcs", "-O0"})
    if (flags.find(bad) != std::string::npos)
      throw std::runtime_error(std::string("refusing to benchmark a build "
                                           "compiled with ") + bad);
}

void print_result(const Result& result, const std::string& extra) {
  for (const std::string& p : result.problems)
    std::cerr << "perfbench: output check failed: " << p << "\n";
  if (!extra.empty()) std::cout << extra << "\n";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : result.metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json_escape(name) << "\": {\"value\": " << vu.first
       << ", \"unit\": \"" << json_escape(vu.second) << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
