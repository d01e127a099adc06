// Shared plumbing of the end-to-end benchmark: command line, clocks,
// order statistics, layer timers and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; throws
/// std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Monotonic seconds since an arbitrary process-wide epoch.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the two middle values for even n); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// The tail rule: the highest of kTailPercentiles that leaves at least
/// ten samples above it (nearest rank). With fewer than 20 samples no
/// percentile qualifies and nothing is reported. The list stops at p99: on
/// a shared host the top tenth of a percent of sub-millisecond operations
/// are host interruptions, not the program (see README.md).
inline constexpr double kTailPercentiles[] = {99.0, 90.0, 50.0};
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> values);

/// Rule-of-succession estimate (k + 1) / (n + 2) of an acceptance
/// fraction: defined for n = 0 and never exactly 0, so a bound relative to
/// the parent's value stays meaningful when the raw fraction reaches 0.
[[nodiscard]] inline double laplace(std::size_t k, std::size_t n) {
  return (static_cast<double>(k) + 1.0) / (static_cast<double>(n) + 2.0);
}

/// Accumulates wall time per layer name, as timed from outside around
/// calls into that layer. Disabled instances record nothing and cost one
/// branch per span, so the timed loop can share code with the traced one.
class LayerClock {
 public:
  explicit LayerClock(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void add(const std::string& layer, double seconds);
  [[nodiscard]] double total(const std::string& layer) const;
  [[nodiscard]] const std::vector<double>& samples(
      const std::string& layer) const;

  /// RAII span: adds the elapsed time to `layer` when it closes.
  class Span {
   public:
    Span(LayerClock& clock, const char* layer)
        : clock_(clock), layer_(layer), start_(clock.enabled_ ? now_s() : 0) {}
    ~Span() {
      if (clock_.enabled_) clock_.add(layer_, now_s() - start_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    LayerClock& clock_;
    const char* layer_;
    double start_;
  };

 private:
  bool enabled_;
  std::map<std::string, std::vector<double>> samples_;
};

/// The host-speed gauge: a fixed kernel of the benchmark's own (hex-float
/// parsing, branchy integer work) whose time tracks how fast the calling
/// thread's core runs right now. On a shared virtual host a thread runs
/// at two speeds, about 1.5x apart, depending on whether another tenant
/// busies the physical core under it (see README.md); the program and
/// this kernel slow by the same factor. The program never runs it.
class HostGauge {
 public:
  HostGauge();
  /// The fastest of three passes over the kernel on the calling thread,
  /// in seconds (one pass takes 70-125 us). Throws std::logic_error when
  /// the kernel computes a wrong sum.
  [[nodiscard]] double sample() const;

 private:
  std::vector<std::string> text_;
  double expected_ = 0.0;
};

/// The gauge's time on a quiet core of the host the bounds were set on (a
/// 4-vCPU Xeon KVM guest; the busy level there reads 105-125 us). Times
/// corrected with it read as seconds on that host's quiet cores.
inline constexpr double kQuietGaugeS = 72e-6;

/// A wall time `t` measured between gauge samples `g0` and `g1`, scaled
/// to the quiet host.
[[nodiscard]] inline double at_quiet_host(double t, double g0, double g1) {
  return t * kQuietGaugeS / (0.5 * (g0 + g1));
}

/// Times one stretch of work in segments between host-gauge samples and
/// scales each segment to the quiet host by the samples at its two ends.
/// mark() may also be called from inside the work, e.g. from a
/// DeadlineProbe the program polls between images; the time spent
/// sampling is in no segment.
class GaugedTimer {
 public:
  explicit GaugedTimer(const HostGauge& gauge) : gauge_(gauge) {}
  /// Takes a gauge sample; the first one starts the stretch.
  void mark();
  /// Ends the stretch with a last sample and returns the work's wall time
  /// and its quiet-host time, sampling excluded from both.
  [[nodiscard]] std::pair<double, double> stop();
  /// Every gauge sample taken so far.
  [[nodiscard]] const std::vector<double>& samples() const { return all_; }

 private:
  struct Mark {
    double begin = 0.0, end = 0.0, gauge = 0.0;
  };
  const HostGauge& gauge_;
  std::vector<Mark> marks_;
  std::vector<double> all_;
};

/// The result line. `metrics` keeps insertion order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Why `correct` is false (printed to stderr, never in the JSON).
  std::vector<std::string> problems;

  void metric(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
};

/// Peak resident set of this process so far, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Host and build description printed before every result: hardware
/// threads, active SIMD ISA, build type and flags, compiler, source
/// revision (PERFBENCH_REVISION from the environment) and seed.
[[nodiscard]] std::string metadata_json(const Args& args);

/// Refuses builds whose timings would describe instrumentation: throws
/// std::runtime_error for unoptimised, sanitized or coverage builds.
void require_optimised_build();

/// Prints `extra` (an already-formatted JSON object, may be empty) and
/// the result as the last line of stdout.
void print_result(const Result& result, const std::string& extra);

/// Runs `setup` `repeats` times and returns the median wall time; the
/// last set-up's products are what the caller keeps. With a gauge, each
/// set-up is bracketed by gauge samples and scaled to the quiet host.
template <typename F>
double median_setup_s(std::size_t repeats, const HostGauge* gauge,
                      F&& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < repeats; ++i) {
    const double g0 = gauge != nullptr ? gauge->sample() : 0.0;
    const double t0 = now_s();
    setup();
    const double t = now_s() - t0;
    times.push_back(gauge != nullptr ? at_quiet_host(t, g0, gauge->sample())
                                     : t);
  }
  return median(times);
}

}  // namespace perfbench
