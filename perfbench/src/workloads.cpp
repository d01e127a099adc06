#include "workloads.hpp"

#include <algorithm>
#include <sstream>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"bench.inputs_s", "s"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.stage_coverage_frac", "frac"},
    {"bench.generator_lag_s", "s"},
    {"core.health_s", "s"},
    {"core.distance_s", "s"},
    {"core.imaging.cold_s", "s"},
    {"core.imaging.warm_s", "s"},
    {"dsp.frontend_s", "s"},
    {"array.sweep_s", "s"},
    {"array.weight_cache.hit_rate", "frac"},
    {"array.weight_cache.flushes", "count"},
    {"ml.cnn_s", "s"},
    {"ml.auth_s", "s"},
    {"ml.train_s", "s"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_tail_s", "s"},
    {"serve.service_p50_s", "s"},
    {"serve.batch_size", "count"},
    {"serve.reduced_frac", "frac"},
    {"serve.shed_frac", "frac"},
    {"runtime.cpu_util", "frac"},
    {"ident.prefilter_s", "s"},
    {"ident.verify_s", "s"},
    {"ident.verifier_runs", "count"},
    {"ident.verifier_cache.hit_rate", "frac"},
    {"ident.recall_at_k", "frac"},
    {"ident.refresh_s", "s"},
    {"store.commit_s", "s"},
    {"store.bytes", "bytes"},
};

void emit_layers(const LayerValues& values, Result& result) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    result.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : kLayerMetrics) known = known || m.first == name;
    result.check(known, "unlisted layer metric " + name);
  }
}

void set_recording(const echoimage::obs::Tracer& tracer, bool on) {
  // Every Tracer here lives in an Observability built non-const by
  // make_observability, so the cast is well defined.
  const_cast<echoimage::obs::Tracer&>(tracer).set_enabled(on);
}

std::map<std::string, double> drain_spans(
    const echoimage::obs::Tracer& tracer) {
  std::map<std::string, double> totals;
  for (std::size_t lane = 0; lane < tracer.num_lanes(); ++lane)
    for (const echoimage::obs::TraceEvent& e : tracer.lane_events(lane))
      totals[e.name] += static_cast<double>(e.duration_ns) * 1e-9;
  tracer.clear();
  return totals;
}

void append_unscaled(const std::vector<double>& gauge_s,
                     const std::vector<double>& latencies_s, double ops_per_s,
                     std::string& extra) {
  const std::optional<Tail> tail = tail_percentile(latencies_s);
  const auto [lo, hi] = std::minmax_element(gauge_s.begin(), gauge_s.end());
  std::ostringstream os;
  os << extra << (extra.empty() ? "" : ", ") << "\"gauge_s\": ["
     << (gauge_s.empty() ? 0.0 : *lo) << ", " << median(gauge_s) << ", "
     << (gauge_s.empty() ? 0.0 : *hi)
     << "], \"unscaled\": {\"latency_p50_s\": " << median(latencies_s)
     << ", \"latency_tail_s\": " << (tail ? tail->value : 0.0)
     << ", \"ops_per_s\": " << ops_per_s << "}";
  extra = os.str();
}

void emit_end_to_end(const std::vector<double>& latencies_s, double ops_per_s,
                     double setup_s, double genuine_accept_frac,
                     double impostor_accept_frac, Result& result,
                     std::string& extra) {
  const std::optional<Tail> tail = tail_percentile(latencies_s);
  result.check(tail.has_value(),
               "fewer than 20 operations: no tail percentile exists");
  result.metric("latency_p50_s", median(latencies_s), "s");
  result.metric("latency_tail_s", tail ? tail->value : 0.0, "s");
  result.metric("ops_per_s", ops_per_s, "1/s");
  result.metric("setup_s", setup_s, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  result.metric("genuine_accept_frac", genuine_accept_frac, "frac");
  result.metric("impostor_accept_frac", impostor_accept_frac, "frac");
  std::ostringstream os;
  os << extra << (extra.empty() ? "" : ", ")
     << "\"latency_tail\": {\"percentile\": "
     << (tail ? tail->percentile : 0.0) << ", \"n\": " << latencies_s.size()
     << "}";
  extra = os.str();
}

}  // namespace perfbench
