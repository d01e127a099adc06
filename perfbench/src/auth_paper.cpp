// auth_paper: closed loop, one client, paper-scale 1:1 authentication.
//
// Each operation is one CaptureSupervisor::authenticate attempt on a
// 180x180 grid of 1 cm, 5 sub-bands, 3 beeps, MVDR with the attempt's own
// noise capture, one imaging thread. The traced run instead calls the
// stages one at a time (health gate, distance, per-beep imaging, CNN
// features, SVDD/SVM) so each is timed from outside.
#include <map>
#include <memory>
#include <sstream>

#include "array/geometry.hpp"
#include "core/pipeline.hpp"
#include "core/supervisor.hpp"
#include "eval/experiment.hpp"
#include "inputs.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ec = echoimage::core;

namespace {

ec::SystemConfig paper_config(bool observability) {
  ec::SystemConfig cfg = echoimage::eval::default_system_config();
  cfg.imaging.grid_size = 180;
  cfg.imaging.grid_spacing_m = 0.01;
  cfg.num_threads = 1;
  cfg.observability.enabled = observability;
  cfg.harmonize();
  return cfg;
}

struct Enrolled {
  std::unique_ptr<ec::EchoImagePipeline> pipeline;
  ec::Authenticator auth;
};

/// Set-up: pipeline construction plus enrollment (imaging, CNN features,
/// augmentation, SVDD/SVM training). `train_s` receives the training time;
/// the pipeline polls `between_images` before every image.
Enrolled set_up(const AuthPaperInputs& in, bool observability,
                double& train_s, const ec::DeadlineProbe& between_images) {
  Enrolled e;
  e.pipeline = std::make_unique<ec::EchoImagePipeline>(
      paper_config(observability), echoimage::array::make_respeaker_array());
  const ec::EchoImagePipeline& p = *e.pipeline;
  const auto features_of = [&](const echoimage::eval::CaptureBatch& b,
                               bool augment) {
    const ec::ProcessedBeeps processed =
        p.process(b.beeps, b.noise_only, between_images);
    if (!processed.gate_passed() || !processed.distance.valid)
      throw std::runtime_error("auth_paper: an enrollment capture failed");
    return p.features_batch(processed.images,
                            processed.distance.user_distance_m, augment);
  };
  std::vector<ec::EnrolledUser> users;
  for (const EnrollmentCaptures& ec_in : in.enrollment) {
    ec::EnrolledUser u;
    u.user_id = ec_in.user_id;
    for (const auto& b : ec_in.visits)
      for (auto& f : features_of(b, true)) u.features.push_back(std::move(f));
    for (const auto& b : ec_in.calibration)
      for (auto& f : features_of(b, false))
        u.calibration_features.push_back(std::move(f));
    users.push_back(std::move(u));
  }
  const double t0 = now_s();
  e.auth = p.enroll(users);
  train_s = now_s() - t0;
  return e;
}

ec::AuthDecision supervised(const ec::EchoImagePipeline& p,
                            const ec::Authenticator& auth,
                            const Capture& cap) {
  const ec::CaptureSupervisor supervisor(p);
  const ec::SharedCaptureSource source = [&cap](std::size_t) { return cap; };
  return supervisor.authenticate(source, auth);
}

}  // namespace

Result run_auth_paper(const Args& args, std::string& extra) {
  using S = AuthPaperShape;
  Result result;
  LayerValues layers;

  double t0 = now_s();
  const AuthPaperInputs in = make_auth_paper_inputs(args.seed);
  layers["bench.inputs_s"] = now_s() - t0;

  // Every set-up and timed attempt is scaled to the quiet host by gauge
  // samples taken before it, after it, and before every image it makes:
  // the pipeline polls its deadline probe there, and this one samples the
  // gauge and never fires. An image (0.4-0.7 s) is short enough for the
  // samples around it to describe it; a whole attempt is not.
  const HostGauge gauge;
  GaugedTimer timer(gauge);
  const ec::DeadlineProbe between_images = [&timer] {
    timer.mark();
    return false;
  };

  // Set-up: three times, median reported; the last one is kept. The traced
  // run sets up once (its set-up time is not reported).
  Enrolled sys;
  double train_s = 0.0;
  std::vector<double> setups;
  for (std::size_t k = 0; k < (args.trace ? 1U : 3U); ++k) {
    timer.mark();
    sys = set_up(in, args.trace, train_s, between_images);
    setups.push_back(timer.stop().second);
  }
  const double setup_s = median(setups);
  layers["ml.train_s"] = train_s;
  const ec::EchoImagePipeline& p = *sys.pipeline;
  const echoimage::array::WeightCache* cache = p.imager().weight_cache();
  const echoimage::array::WeightCacheStats cache0 = cache->stats();
  const echoimage::obs::Tracer* tracer =
      echoimage::obs::Observability::tracer_of(p.observability().get());

  // The loop: at least `seconds` and at least kMinAttempts attempts.
  std::vector<double> latencies, unscaled, traced_s, untraced_s;
  std::vector<ec::AuthDecision> decisions;
  LayerClock stage(args.trace);
  const ec::CaptureSupervisor supervisor(p);
  t0 = now_s();
  for (std::size_t i = 0;
       i < S::kMinAttempts || now_s() - t0 < args.seconds; ++i) {
    const LabeledCapture& probe = in.probes[i % in.probes.size()];
    ec::AuthDecision d;
    double latency = 0.0;
    const double start = now_s();
    ++result.attempted;
    try {
      if (!args.trace) {
        const ec::SharedCaptureSource source = [&probe](std::size_t) {
          return probe.capture;
        };
        timer.mark();
        d = supervisor.authenticate(source, sys.auth, between_images);
        const auto [wall_s, quiet_s] = timer.stop();
        unscaled.push_back(wall_s);
        latency = quiet_s;
      } else {
        // Traced run: every other attempt records no spans at all, which
        // measures what the tracing itself costs.
        const bool traced = i % 2 == 0;
        tracer->clear();
        set_recording(*tracer, traced);
        LayerClock off(false);
        d = staged_authenticate(p, sys.auth, *probe.capture,
                                traced ? stage : off, result);
        latency = now_s() - start;
        (traced ? traced_s : untraced_s).push_back(latency);
      }
    } catch (const std::exception& e) {
      result.check(false,
                   std::string("auth_paper: attempt threw: ") + e.what());
      ++result.failed;
      decisions.push_back(ec::AuthDecision::abstain());
      (void)timer.stop();
      continue;
    }
    latencies.push_back(latency);
    if (d.outcome == ec::AuthOutcome::kAbstained) ++result.failed;
    decisions.push_back(d);
  }
  const double wall = now_s() - t0;
  const echoimage::array::WeightCacheStats cache1 = cache->stats();

  // Output check: attempts replayed through the other path decide the
  // same, bit for bit. The traced run replays every attempt, the fixture
  // included, through CaptureSupervisor; the timed run replays its last
  // two staged, since a replay costs as much as an attempt.
  for (std::size_t k = args.trace || decisions.size() < 2
                           ? 0
                           : decisions.size() - 2;
       k < decisions.size(); ++k) {
    const LabeledCapture& probe = in.probes[k % in.probes.size()];
    LayerClock off(false);
    if (tracer != nullptr) set_recording(*tracer, false);
    const ec::AuthDecision replay =
        args.trace ? supervised(p, sys.auth, probe.capture)
                   : staged_authenticate(p, sys.auth, *probe.capture, off,
                                         result);
    result.check(same_decision(replay, decisions[k]),
                 "auth_paper: staged and supervised decisions differ on "
                 "attempt " + std::to_string(k));
  }

  // Accuracy on the fixture, the first kFixtureAttempts attempts.
  std::size_t genuine = 0, genuine_ok = 0, impostor = 0, impostor_in = 0;
  for (std::size_t k = 0; k < S::kFixtureAttempts && k < decisions.size();
       ++k) {
    const LabeledCapture& probe = in.probes[k % in.probes.size()];
    if (probe.true_user >= 0) {
      ++genuine;
      genuine_ok += decisions[k].accepted &&
                    decisions[k].user_id == probe.true_user;
    } else {
      ++impostor;
      impostor_in += decisions[k].accepted;
    }
  }
  std::ostringstream os;
  os << "\"attempts\": [";
  for (std::size_t k = 0; k < latencies.size(); ++k) {
    const LabeledCapture& probe = in.probes[k % in.probes.size()];
    os << (k ? ", " : "") << "[" << probe.distance_m << ", " << probe.true_user
       << ", " << decisions[k].user_id << ", " << latencies[k] << "]";
  }
  os << "], \"weight_cache_flushes\": "
     << cache1.flushes - cache0.flushes << ", \"genuine\": ["
     << genuine_ok << ", " << genuine << "], \"impostor\": [" << impostor_in
     << ", " << impostor << "]";
  extra = os.str();

  if (!args.trace) {
    double busy_q = 0.0;
    for (const double l : latencies) busy_q += l;
    const auto attempts = static_cast<double>(latencies.size());
    append_unscaled(timer.samples(), unscaled, attempts / wall, extra);
    emit_end_to_end(latencies, attempts / busy_q, setup_s,
                    laplace(genuine_ok, genuine),
                    laplace(impostor_in, impostor), result, extra);
    return result;
  }

  emit_cache_layers(cache0, cache1, layers);
  layers["bench.stage_coverage_frac"] =
      emit_stage_layers(stage, traced_s, layers);
  layers["bench.trace_overhead_frac"] =
      median(traced_s) / median(untraced_s) - 1.0;
  emit_layers(layers, result);
  return result;
}

}  // namespace perfbench
