// Open-loop load generation against a real-clock AuthService.
//
// A generator thread submits each frame when its scheduled arrival comes
// due, stamping it with the scheduled time; the calling thread serves
// batches with AuthService::step as they queue up. Latency is timed from
// the scheduled arrival, so a stalled step delays every frame due behind
// it, and the generator's own lateness is reported separately.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "serve/service.hpp"

namespace perfbench {

struct OpenLoopFrame {
  double arrival_s = 0.0;  ///< offset from the start of the schedule
  std::uint64_t session = 0;
  Capture capture;
};

struct OpenLoopRecord {
  echoimage::serve::CompletedFrame done;
  std::size_t frame = 0;   ///< index into the schedule
  double latency_s = 0.0;  ///< completion - scheduled arrival
  /// Frame-local wait for earlier frames of its batch on the same worker:
  /// completion - dequeue - service.
  double batch_wait_s = 0.0;
};

struct OpenLoopRun {
  std::vector<OpenLoopRecord> records;  ///< completion order
  std::vector<double> generator_lag_s;  ///< submit time - scheduled arrival
  std::vector<std::size_t> batch_sizes;  ///< frames drained per busy step
  std::size_t backpressured = 0;         ///< offers ingest refused
  std::size_t duplicates = 0;            ///< completions seen more than once
  std::size_t unknown = 0;               ///< completions matching no offer
  std::size_t missing = 0;               ///< accepted offers never completed
  double wall_s = 0.0;  ///< first scheduled arrival to last completion
  /// (time, host-gauge sample) pairs, taken while the service was idle.
  std::vector<std::pair<double, double>> gauge_s;
};

/// Drives `frames` (sorted by arrival) through `service`, which must be
/// in real-clock mode. Frames are due at start + arrival_s, where start
/// is shortly after the call. With a gauge, the serving thread samples it
/// whenever the service is idle, at most every kGaugeIdleEvery seconds.
[[nodiscard]] OpenLoopRun run_open_loop(
    echoimage::serve::AuthService& service,
    const std::vector<OpenLoopFrame>& frames,
    const HostGauge* gauge = nullptr);

inline constexpr double kGaugeIdleEvery = 0.01;

/// Mean of the run's gauge samples from the last one at or before
/// `from` to the first one at or after `to`; 0 without samples.
[[nodiscard]] double mean_gauge(const OpenLoopRun& run, double from,
                                double to);

}  // namespace perfbench
