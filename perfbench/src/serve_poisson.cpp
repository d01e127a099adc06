// serve_poisson: open loop, seeded Poisson arrivals from 8 device sessions
// (6 genuine, 2 impostor) into a real-clock AuthService with one scheduler
// worker. Frames run through make_pipeline_processor over 24x24 lanes:
// a full lane with 5 bands and a reduced lane with 2, as make_serve_lanes
// builds them. Every frame carries its own pre-rendered capture.
#include <algorithm>
#include <memory>
#include <sstream>

#include "array/geometry.hpp"
#include "core/pipeline.hpp"
#include "eval/experiment.hpp"
#include "inputs.hpp"
#include "open_loop.hpp"
#include "serve/service.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ec = echoimage::core;
namespace es = echoimage::serve;

namespace {

/// One worker: with two, the open-loop tail spread 0.29-0.74 over 10-seed
/// sets against a 0.25 bound. The scheduler finishes a batch before it
/// drains the next, so a frame also waited for its batch-mate on the other
/// worker, and the two workers shared one weight cache.
constexpr std::size_t kSchedulerWorkers = 1;
/// Frames of the traced run's serial pass through an instrumented lane.
constexpr std::size_t kStagedFrames = 24;

ec::SystemConfig lane_config(std::size_t subbands, bool observability) {
  using S = ServeShape;
  ec::SystemConfig cfg = echoimage::eval::default_system_config();
  cfg.imaging.grid_size = S::kGridSize;
  cfg.extractor.input_size = S::kGridSize;
  cfg.imaging.num_subbands = subbands;
  cfg.num_threads = 1;
  cfg.observability.enabled = observability;
  cfg.harmonize();
  return cfg;
}

struct Lanes {
  std::unique_ptr<ec::EchoImagePipeline> full, reduced;
  ec::Authenticator full_auth, reduced_auth;
};

/// make_serve_lanes' enrollment on pre-rendered captures: augmented
/// visits plus an un-augmented calibration visit, on both lanes.
Lanes set_up(const ServeInputs& in, double& train_s) {
  const auto geometry = echoimage::array::make_respeaker_array();
  Lanes l;
  l.full = std::make_unique<ec::EchoImagePipeline>(
      lane_config(5, false), geometry);
  l.reduced = std::make_unique<ec::EchoImagePipeline>(
      lane_config(ServeShape::kReducedSubbands, false), geometry);
  std::vector<ec::EnrolledUser> full_users, reduced_users;
  for (const EnrollmentCaptures& e : in.enrollment) {
    ec::EnrolledUser fu{e.user_id, {}, {}}, ru{e.user_id, {}, {}};
    const auto add = [](const ec::EchoImagePipeline& lane,
                        const echoimage::eval::CaptureBatch& b, bool augment,
                        std::vector<std::vector<double>>& into) {
      const ec::ProcessedBeeps p = lane.process(b.beeps, b.noise_only);
      if (!p.gate_passed() || p.images.empty())
        throw std::runtime_error("serve_poisson: an enrollment capture failed");
      const double d = p.distance.valid ? p.distance.user_distance_m
                                        : b.true_distance_m;
      for (auto& f : lane.features_batch(p.images, d, augment))
        into.push_back(std::move(f));
    };
    for (const auto& b : e.visits) {
      add(*l.full, b, true, fu.features);
      add(*l.reduced, b, true, ru.features);
    }
    for (const auto& b : e.calibration) {
      add(*l.full, b, false, fu.calibration_features);
      add(*l.reduced, b, false, ru.calibration_features);
    }
    full_users.push_back(std::move(fu));
    reduced_users.push_back(std::move(ru));
  }
  const double t0 = now_s();
  l.full_auth = l.full->enroll(full_users);
  l.reduced_auth = l.reduced->enroll(reduced_users);
  train_s = now_s() - t0;
  return l;
}

es::ServiceConfig service_config() {
  es::ServiceConfig cfg;
  cfg.ingest.num_sessions = ServeShape::kSessions;
  cfg.scheduler.num_threads = kSchedulerWorkers;
  cfg.deterministic = false;
  return cfg;
}

}  // namespace

Result run_serve_poisson(const Args& args, std::string& extra) {
  Result result;
  LayerValues layers;

  double t0 = now_s();
  const ServeInputs in = make_serve_inputs(
      args.seed, std::max(args.seconds, ServeShape::kMinScheduleS));
  layers["bench.inputs_s"] = now_s() - t0;
  std::vector<OpenLoopFrame> frames;
  for (std::size_t f = 0; f < in.arrivals.size(); ++f)
    frames.push_back({in.arrivals[f].time_s, in.arrivals[f].session_id,
                      in.frames[f].capture});

  const HostGauge gauge;
  Lanes lanes;
  double train_s = 0.0;
  const double setup_s = median_setup_s(args.trace ? 1 : 3, &gauge, [&] {
    lanes = set_up(in, train_s);
  });
  layers["ml.train_s"] = train_s;

  const es::ServiceConfig cfg = service_config();
  const es::PipelineLanes view{lanes.full.get(), &lanes.full_auth,
                               lanes.reduced.get(), &lanes.reduced_auth};
  es::AuthService service(cfg, [&](const es::Clock& clock) {
    return es::make_pipeline_processor(view, cfg.supervisor, clock);
  });
  const echoimage::array::WeightCache* cache =
      lanes.full->imager().weight_cache();
  const echoimage::array::WeightCacheStats cache0 = cache->stats();
  const OpenLoopRun run = run_open_loop(service, frames, &gauge);
  const echoimage::array::WeightCacheStats cache1 = cache->stats();

  // Output checks: every admitted frame completes exactly once, and a
  // backend shed is an abstain, never a reject.
  result.check(run.duplicates == 0 && run.unknown == 0 && run.missing == 0,
               "serve_poisson: a frame did not reach the sink exactly once");
  // Latency and service scaled to the quiet host by the gauge samples
  // taken while the worker was idle, from the frame's scheduled arrival
  // to its completion.
  std::vector<double> latencies, latencies_q, queue_waits, services;
  double sum_service = 0.0, sum_service_q = 0.0;
  std::size_t shed = 0, reduced = 0;
  for (const OpenLoopRecord& r : run.records) {
    const es::CompletedFrame& c = r.done;
    const bool backend_shed =
        c.mode == es::ServiceMode::kAbstain || c.deadline_missed;
    result.check(!backend_shed || c.decision.shed_by_backend(),
                 "serve_poisson: a shed frame was decided");
    result.check(c.decision.outcome != ec::AuthOutcome::kAbstained ||
                     c.decision.shed_by_backend() ||
                     c.decision.abstain_reason == ec::AbstainReason::kCapture,
                 "serve_poisson: unexpected abstain reason");
    if (c.decision.shed_by_backend() ||
        c.decision.outcome == ec::AuthOutcome::kAbstained) {
      ++shed;
      continue;
    }
    reduced += c.mode == es::ServiceMode::kReducedBand;
    const double scale =
        kQuietGaugeS / mean_gauge(run, c.completion_time_s - r.latency_s,
                                  c.completion_time_s);
    latencies.push_back(r.latency_s);
    latencies_q.push_back(r.latency_s * scale);
    queue_waits.push_back(c.queue_wait_s);
    services.push_back(c.service_s);
    sum_service += c.service_s;
    sum_service_q += c.service_s * scale;
  }
  result.attempted = frames.size();
  result.failed = run.backpressured + shed + run.missing;

  // Accuracy on the fixture captures, served one by one at full fidelity
  // through the same frame processor.
  std::size_t genuine = 0, genuine_ok = 0, impostor = 0, impostor_in = 0;
  {
    const es::SteadyClock clock;
    const es::FrameProcessor judge =
        es::make_pipeline_processor(view, cfg.supervisor, clock);
    for (const ServeInputs::SessionCapture& a : in.accuracy) {
      es::CaptureFrame frame;
      frame.session_id = a.session;
      frame.capture = a.probe.capture;
      const ec::AuthDecision d = judge(frame, es::ServiceMode::kFull).decision;
      if (a.probe.true_user >= 0) {
        ++genuine;
        genuine_ok += d.accepted && d.user_id == a.probe.true_user;
      } else {
        ++impostor;
        impostor_in += d.accepted;
      }
    }
  }

  std::ostringstream os;
  os << "\"frames\": " << frames.size() << ", \"decided\": " << latencies.size()
     << ", \"genuine\": [" << genuine_ok << ", " << genuine
     << "], \"impostor\": [" << impostor_in << ", " << impostor
     << "], \"max_generator_lag_s\": "
     << (run.generator_lag_s.empty()
             ? 0.0
             : *std::max_element(run.generator_lag_s.begin(),
                                 run.generator_lag_s.end()))
     << ", \"weight_cache_flushes\": " << cache1.flushes - cache0.flushes
     << ", \"worker_busy_frac\": "
     << sum_service / (run.wall_s * static_cast<double>(kSchedulerWorkers));
  extra = os.str();

  if (!args.trace) {
    std::vector<double> gauges;
    for (const auto& sample : run.gauge_s) gauges.push_back(sample.second);
    append_unscaled(gauges, latencies,
                    static_cast<double>(latencies.size()) * kSchedulerWorkers /
                        sum_service,
                    extra);
    // Open loop: completions per second would echo the offered rate, so
    // the throughput figure is the capacity the worker showed: frames
    // decided per second of (scaled) busy time, times the worker count.
    emit_end_to_end(latencies_q,
                    static_cast<double>(latencies_q.size()) *
                        kSchedulerWorkers / sum_service_q,
                    setup_s, laplace(genuine_ok, genuine),
                    laplace(impostor_in, impostor), result, extra);
    return result;
  }

  layers["bench.generator_lag_s"] = median(run.generator_lag_s);
  layers["serve.queue_wait_p50_s"] = median(queue_waits);
  const std::optional<Tail> qtail = tail_percentile(queue_waits);
  layers["serve.queue_wait_tail_s"] = qtail ? qtail->value : 0.0;
  layers["serve.service_p50_s"] = median(services);
  const auto share = [](double part, std::size_t whole) {
    return part / static_cast<double>(std::max<std::size_t>(1, whole));
  };
  double batch_sum = 0.0;
  for (const std::size_t b : run.batch_sizes)
    batch_sum += static_cast<double>(b);
  layers["serve.batch_size"] = share(batch_sum, run.batch_sizes.size());
  layers["serve.reduced_frac"] =
      share(static_cast<double>(reduced), latencies.size());
  layers["serve.shed_frac"] =
      share(static_cast<double>(shed), run.records.size());
  layers["runtime.cpu_util"] =
      sum_service / (run.wall_s * static_cast<double>(kSchedulerWorkers));
  emit_cache_layers(cache0, cache1, layers);

  // Serial pass over the first frames, each served twice on fresh full
  // lanes that see the same frames in the same order (so the same weight
  // cache history): once through the frame processor the service runs,
  // timed from outside, and once staged on an instrumented copy, timed
  // per stage. Coverage is the staged stages' time over the processor's
  // time for the same frames. Every other staged frame records no spans,
  // which measures what tracing costs.
  const auto geometry = echoimage::array::make_respeaker_array();
  const ec::EchoImagePipeline plain_lane(lane_config(5, false), geometry);
  const ec::EchoImagePipeline traced_lane(lane_config(5, true), geometry);
  const es::PipelineLanes plain_view{&plain_lane, &lanes.full_auth,
                                     lanes.reduced.get(), &lanes.reduced_auth};
  const es::SteadyClock clock;
  const es::FrameProcessor processor =
      es::make_pipeline_processor(plain_view, cfg.supervisor, clock);
  const echoimage::obs::Tracer& tracer = traced_lane.observability()->tracer();
  LayerClock stage(true), off(false);
  std::vector<double> processor_s, traced_s, untraced_s;
  for (std::size_t k = 0; k < kStagedFrames && k < frames.size(); ++k) {
    const bool traced = k % 2 == 0;
    es::CaptureFrame frame;
    frame.session_id = frames[k].session;
    frame.capture = frames[k].capture;
    double start = now_s();
    const ec::AuthDecision served =
        processor(frame, es::ServiceMode::kFull).decision;
    if (traced) processor_s.push_back(now_s() - start);
    tracer.clear();
    set_recording(tracer, traced);
    start = now_s();
    const ec::AuthDecision staged =
        staged_authenticate(traced_lane, lanes.full_auth, *frames[k].capture,
                            traced ? stage : off, result);
    (traced ? traced_s : untraced_s).push_back(now_s() - start);
    result.check(same_decision(staged, served),
                 "serve_poisson: staged and served decisions differ on frame " +
                     std::to_string(k));
  }
  layers["bench.stage_coverage_frac"] =
      emit_stage_layers(stage, processor_s, layers);
  layers["bench.trace_overhead_frac"] =
      median(traced_s) / median(untraced_s) - 1.0;
  emit_layers(layers, result);
  return result;
}

}  // namespace perfbench
