#include "staged.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "core/health.hpp"
#include "core/supervisor.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ec = echoimage::core;

ec::AuthDecision staged_authenticate(const ec::EchoImagePipeline& p,
                                     const ec::Authenticator& auth,
                                     const ec::CaptureAttempt& cap,
                                     LayerClock& layers, Result& result) {
  const ec::SystemConfig& cfg = p.config();
  {
    const LayerClock::Span s(layers, "core.health");
    const ec::CaptureHealth health = ec::assess_capture(cap.beeps, cfg.health);
    result.check(health.num_active == p.geometry().num_mics(),
                 "auth_paper: a probe capture lost a channel");
  }
  ec::DistanceEstimate d;
  {
    const LayerClock::Span s(layers, "core.distance");
    d = p.distance_estimator().estimate(cap.beeps, cap.noise_only);
  }
  if (!d.valid) return ec::AuthDecision{};
  const echoimage::units::Meters plane{d.user_distance_centroid_m > 0.0
                                           ? d.user_distance_centroid_m
                                           : d.user_distance_m};
  const echoimage::obs::Tracer* tracer =
      echoimage::obs::Observability::tracer_of(p.observability().get());
  std::map<int, std::size_t> votes;
  std::map<int, double> score_sums;
  for (std::size_t b = 0; b < cap.beeps.size(); ++b) {
    ec::AcousticImage image;
    {
      const LayerClock::Span s(
          layers, b == 0 ? "core.imaging.cold" : "core.imaging.warm");
      image.bands = p.imager().construct_bands(cap.beeps[b], plane,
                                               d.tau_direct_s, cap.noise_only,
                                               d.tau_echo_centroid_s);
    }
    if (tracer != nullptr && layers.enabled()) {
      const std::map<std::string, double> spans = drain_spans(*tracer);
      const auto get = [&](const char* n) {
        const auto it = spans.find(n);
        return it == spans.end() ? 0.0 : it->second;
      };
      layers.add("array.sweep", get("imaging.grid_sweep"));
      layers.add("dsp.frontend", get("imaging.prepare") + get("imaging.band") -
                                     get("imaging.grid_sweep"));
    }
    std::vector<double> f;
    {
      const LayerClock::Span s(layers, "ml.cnn");
      f = p.features(image);
    }
    ec::AuthDecision dec;
    {
      const LayerClock::Span s(layers, "ml.auth");
      dec = auth.authenticate(f);
    }
    const int id = dec.accepted ? dec.user_id : -1;
    ++votes[id];
    score_sums[id] += dec.svdd_score;
  }
  int best_id = -1;
  std::size_t best_count = 0;
  for (const auto& [id, count] : votes)
    if (count > best_count) {
      best_id = id;
      best_count = count;
    }
  ec::AuthDecision out;
  out.svdd_score = score_sums[best_id] / static_cast<double>(best_count);
  out.accepted = best_id >= 0;
  out.user_id = best_id;
  out.outcome = out.accepted ? ec::AuthOutcome::kAccepted
                             : ec::AuthOutcome::kRejected;
  return out;
}

bool same_decision(const ec::AuthDecision& a, const ec::AuthDecision& b) {
  return a.accepted == b.accepted && a.user_id == b.user_id &&
         a.outcome == b.outcome && a.svdd_score == b.svdd_score;
}

double emit_stage_layers(const LayerClock& stage,
                         const std::vector<double>& traced_s,
                         LayerValues& layers) {
  // The stages an attempt calls, in order; the front-end and sweep are
  // parts of the imaging stages.
  static const char* const kStages[] = {
      "core.health", "core.distance", "core.imaging.cold",
      "core.imaging.warm", "ml.cnn", "ml.auth"};
  double staged = 0.0;
  for (const char* name : kStages) {
    layers[std::string(name) + "_s"] = median(stage.samples(name));
    staged += stage.total(name);
  }
  for (const char* name : {"dsp.frontend", "array.sweep"})
    layers[std::string(name) + "_s"] = median(stage.samples(name));
  double total = 0.0;
  for (const double s : traced_s) total += s;
  return staged / total;
}

void emit_cache_layers(const echoimage::array::WeightCacheStats& before,
                       const echoimage::array::WeightCacheStats& after,
                       LayerValues& layers) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  layers["array.weight_cache.hit_rate"] = hits / std::max(1.0, hits + misses);
  layers["array.weight_cache.flushes"] =
      static_cast<double>(after.flushes - before.flushes);
}

}  // namespace perfbench
