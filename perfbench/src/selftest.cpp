// The benchmark's own tests: the tail-percentile rule, open-loop latency
// timed from the scheduled arrival, host-speed scaling, and
// seed-determined inputs. Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <chrono>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "open_loop.hpp"
#include "serve/service.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

void test_tail_rule() {
  for (std::size_t n = 0; n <= 19; ++n)
    expect(!perfbench::tail_percentile(ramp(n)).has_value(),
           "no tail below 20 samples (n = " + std::to_string(n) + ")");
  const auto t20 = perfbench::tail_percentile(ramp(20));
  expect(t20 && t20->value == 10.0 && t20->percentile == 50.0 && t20->n == 20,
         "n = 20: p50, ten samples above it");
  const auto t99 = perfbench::tail_percentile(ramp(99));
  expect(t99 && t99->value == 50.0 && t99->percentile == 50.0,
         "n = 99: p90 would leave 9 above, so p50");
  const auto t100 = perfbench::tail_percentile(ramp(100));
  expect(t100 && t100->value == 90.0 && t100->percentile == 90.0,
         "n = 100: p90 by nearest rank");
  const auto t1000 = perfbench::tail_percentile(ramp(1000));
  expect(t1000 && t1000->value == 990.0 && t1000->percentile == 99.0,
         "n = 1000: p99 by nearest rank");
  const auto t100k = perfbench::tail_percentile(ramp(100000));
  expect(t100k && t100k->percentile == 99.0,
         "n = 100000: never past p99");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0 &&
             perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "median of odd and even samples");
}

void test_open_loop_stall() {
  namespace es = echoimage::serve;
  static constexpr double kStall = 0.3, kGap = 0.05, kWork = 0.002;
  es::ServiceConfig cfg;
  cfg.ingest.num_sessions = 8;
  cfg.scheduler.num_threads = 1;
  cfg.scheduler.max_batch = 1;
  cfg.default_deadline_s = 10.0;
  // The first frame stalls its step; every later one is quick.
  es::AuthService service(cfg, [](const es::CaptureFrame& f, es::ServiceMode) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        f.session_id == 0 ? kStall : kWork));
    es::FrameResult r;
    r.decision.outcome = echoimage::core::AuthOutcome::kRejected;
    return r;
  });
  const auto capture =
      std::make_shared<const echoimage::core::CaptureAttempt>();
  std::vector<perfbench::OpenLoopFrame> frames;
  for (std::uint64_t s = 0; s < 5; ++s)
    frames.push_back({kGap * static_cast<double>(s), s, capture});
  const perfbench::OpenLoopRun run =
      perfbench::run_open_loop(service, frames);
  expect(run.records.size() == frames.size() && run.missing == 0 &&
             run.duplicates == 0 && run.backpressured == 0,
         "open loop: every frame completes exactly once");
  bool timed_from_schedule = true, stall_delays = true;
  for (const perfbench::OpenLoopRecord& r : run.records) {
    const double scheduled = kGap * static_cast<double>(r.frame);
    // Frames due during the stall finish only after it: their latency
    // carries the wait, although their own service is short.
    if (r.frame > 0)
      stall_delays = stall_delays && r.latency_s >= kStall - scheduled - 0.01 &&
                     r.done.service_s < kStall / 2;
    timed_from_schedule =
        timed_from_schedule &&
        r.latency_s >= r.done.queue_wait_s + r.done.service_s - 1e-9;
  }
  expect(stall_delays, "open loop: a stalled step delays the frames behind it");
  expect(timed_from_schedule,
         "open loop: latency counts queue wait and service from the arrival");
  double max_lag = 0.0;
  for (const double l : run.generator_lag_s) max_lag = std::max(max_lag, l);
  expect(max_lag < kStall / 2,
         "open loop: the generator keeps its schedule during the stall");
}

void test_host_scaling() {
  using perfbench::kQuietGaugeS;
  expect(perfbench::at_quiet_host(1.0, kQuietGaugeS, kQuietGaugeS) == 1.0,
         "a time measured on a quiet host is unchanged");
  expect(perfbench::at_quiet_host(1.5, 1.4 * kQuietGaugeS,
                                  1.6 * kQuietGaugeS) == 1.0,
         "a time measured at 1.5x the quiet gauge is scaled by 1/1.5");
  perfbench::OpenLoopRun run;
  run.gauge_s = {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}, {4.0, 40.0}};
  expect(perfbench::mean_gauge(run, 2.5, 2.7) == 25.0,
         "an interval between two samples takes the two around it");
  expect(perfbench::mean_gauge(run, 2.0, 3.5) == 30.0,
         "an interval spanning samples takes them all");
  expect(perfbench::mean_gauge(run, 0.0, 0.5) == 10.0 &&
             perfbench::mean_gauge(run, 5.0, 6.0) == 40.0,
         "an interval outside the samples takes the nearest");
  const perfbench::HostGauge gauge;
  const double g = gauge.sample();
  expect(g > 0.0 && g < 0.1, "the host gauge runs in well under 0.1 s");
  perfbench::GaugedTimer timer(gauge);
  const double outer0 = perfbench::now_s();
  timer.mark();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  timer.mark();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto [wall, quiet] = timer.stop();
  const double outer = perfbench::now_s() - outer0;
  expect(wall >= 0.04 && wall < outer && quiet > 0.0 &&
             timer.samples().size() == 3,
         "a gauged stretch times the work between samples, not the samples");
}

void test_inputs_deterministic() {
  using perfbench::digest;
  expect(digest(perfbench::make_serve_inputs(7, 2.0)) ==
             digest(perfbench::make_serve_inputs(7, 2.0)),
         "serve_poisson: same seed, byte-identical inputs");
  expect(digest(perfbench::make_serve_inputs(7, 2.0)) !=
             digest(perfbench::make_serve_inputs(8, 2.0)),
         "serve_poisson: another seed, other inputs");
  expect(digest(perfbench::make_auth_paper_inputs(7)) ==
             digest(perfbench::make_auth_paper_inputs(7)),
         "auth_paper: same seed, byte-identical inputs");
  expect(digest(perfbench::make_auth_paper_inputs(7)) !=
             digest(perfbench::make_auth_paper_inputs(8)),
         "auth_paper: another seed, other inputs");
  const std::uint64_t ident7 = digest(perfbench::make_ident_inputs(7));
  expect(ident7 == digest(perfbench::make_ident_inputs(7)),
         "ident_churn: same seed, byte-identical inputs");
  expect(ident7 != digest(perfbench::make_ident_inputs(8)),
         "ident_churn: another seed, other inputs");
}

}  // namespace

int main() {
  test_tail_rule();
  test_open_loop_stall();
  test_host_scaling();
  test_inputs_deterministic();
  std::cout << (failures == 0 ? "all passed" : "FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
