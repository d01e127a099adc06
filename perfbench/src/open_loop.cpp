#include "open_loop.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

namespace es = echoimage::serve;

OpenLoopRun run_open_loop(es::AuthService& service,
                          const std::vector<OpenLoopFrame>& frames,
                          const HostGauge* gauge) {
  const es::Clock& clock = service.clock();
  const double start = clock.now_s() + 0.02;
  OpenLoopRun run;
  run.generator_lag_s.resize(frames.size());
  // Written by the generator, read after it has been joined.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> key(frames.size());
  std::vector<bool> accepted(frames.size(), false);
  std::atomic<std::size_t> offered{0};
  std::atomic<std::size_t> admitted{0};

  std::vector<es::CompletedFrame> done;
  done.reserve(frames.size());
  const es::CompletionSink sink = [&done](const es::CompletedFrame& c) {
    done.push_back(c);
  };
  {
    std::jthread generator([&](std::stop_token stop) {
      for (std::size_t f = 0; f < frames.size() && !stop.stop_requested();
           ++f) {
        const double due = start + frames[f].arrival_s;
        for (double left = due - clock.now_s(); left > 0.0;
             left = due - clock.now_s())
          std::this_thread::sleep_for(std::chrono::duration<double>(left));
        run.generator_lag_s[f] = clock.now_s() - due;
        key[f] = {frames[f].session, service.submitted(frames[f].session)};
        const es::OfferOutcome outcome =
            service.submit(frames[f].session, frames[f].capture, 0.0, due);
        accepted[f] = outcome == es::OfferOutcome::kAccepted ||
                      outcome == es::OfferOutcome::kReplacedOldest;
        if (accepted[f]) admitted.fetch_add(1);
        offered.fetch_add(1);
      }
    });
    double idle_since = clock.now_s();
    double gauged_at = -1.0;
    for (;;) {
      const std::size_t n = service.step(sink);
      if (n > 0) {
        run.batch_sizes.push_back(n);
        idle_since = clock.now_s();
        gauged_at = -1.0;
        continue;
      }
      if (gauge != nullptr && (gauged_at < 0.0 ||
                               clock.now_s() - gauged_at >= kGaugeIdleEvery)) {
        const double g = gauge->sample();
        gauged_at = clock.now_s();
        run.gauge_s.emplace_back(gauged_at, g);
        continue;
      }
      if (offered.load() == frames.size()) {
        if (done.size() >= admitted.load()) break;
        // Everything was offered but something never completes: stop
        // waiting and let the accounting below report it.
        if (clock.now_s() - idle_since > 5.0) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }  // joins the generator

  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> frame_of;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (accepted[f]) {
      frame_of[key[f]] = f;
    } else {
      ++run.backpressured;
    }
  }
  std::vector<bool> seen(frames.size(), false);
  double last = start;
  for (const es::CompletedFrame& c : done) {
    const auto it = frame_of.find({c.session_id, c.seq});
    if (it == frame_of.end()) {
      ++run.unknown;
      continue;
    }
    if (seen[it->second]) ++run.duplicates;
    seen[it->second] = true;
    OpenLoopRecord r;
    r.done = c;
    r.frame = it->second;
    r.latency_s = c.completion_time_s - (start + frames[r.frame].arrival_s);
    r.batch_wait_s =
        c.completion_time_s - (c.enqueue_time_s + c.queue_wait_s) - c.service_s;
    last = std::max(last, c.completion_time_s);
    run.records.push_back(std::move(r));
  }
  for (const auto& [k, f] : frame_of) run.missing += seen[f] ? 0 : 1;
  run.wall_s = last - start;
  return run;
}

double mean_gauge(const OpenLoopRun& run, double from, double to) {
  const auto& g = run.gauge_s;
  if (g.empty()) return 0.0;
  std::size_t lo = 0;
  while (lo + 1 < g.size() && g[lo + 1].first <= from) ++lo;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = lo; k < g.size(); ++k) {
    sum += g[k].second;
    ++n;
    if (g[k].first >= to) break;
  }
  return sum / static_cast<double>(n);
}

}  // namespace perfbench
