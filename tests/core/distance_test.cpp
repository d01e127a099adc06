#include "core/distance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "eval/dataset.hpp"
#include "eval/roster.hpp"

namespace echoimage::core {
namespace {

using echoimage::eval::CaptureBatch;
using echoimage::eval::CollectionConditions;
using echoimage::eval::DataCollector;

struct Fixture {
  echoimage::array::ArrayGeometry geometry =
      echoimage::array::make_respeaker_array();
  std::vector<echoimage::eval::SimulatedUser> users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  DataCollector collector{echoimage::sim::CaptureConfig{}, geometry, 7};

  CaptureBatch collect(std::size_t user, double distance,
                       std::size_t beeps = 6) const {
    CollectionConditions cond;
    cond.distance_m = distance;
    return collector.collect(users[user], cond, beeps);
  }
};

TEST(DistanceEstimator, ConfigValidation) {
  DistanceEstimatorConfig cfg;
  cfg.mode = SteeringMode::kSingleMic;
  cfg.single_mic_index = 99;
  EXPECT_THROW(DistanceEstimator(cfg, echoimage::array::make_respeaker_array()),
               std::invalid_argument);
}

TEST(DistanceEstimator, ThrowsOnEmptyBatch) {
  const DistanceEstimator est(DistanceEstimatorConfig{},
                              echoimage::array::make_respeaker_array());
  EXPECT_THROW((void)est.estimate({}), std::invalid_argument);
}

TEST(DistanceEstimator, EstimatesKnownDistanceWithinTolerance) {
  const Fixture f;
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  const CaptureBatch batch = f.collect(0, 0.7);
  const DistanceEstimate e = est.estimate(batch.beeps, batch.noise_only);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.user_distance_m, batch.true_distance_m, 0.15);
  EXPECT_GT(e.slant_distance_m, e.user_distance_m * 0.9);
}

TEST(DistanceEstimator, DirectPathDetectedNearZero) {
  const Fixture f;
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  const CaptureBatch batch = f.collect(1, 0.7);
  const DistanceEstimate e = est.estimate(batch.beeps, batch.noise_only);
  ASSERT_TRUE(e.valid);
  // Speaker sits ~5 cm from the mics: tau_1 must be well under 1 ms.
  EXPECT_LT(e.tau_direct_s, 0.001);
  EXPECT_GT(e.tau_echo_s, e.tau_direct_s);
}

TEST(DistanceEstimator, TracksUserAcrossDistances) {
  const Fixture f;
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  double prev = 0.0;
  for (const double d : {0.6, 0.9, 1.2}) {
    const CaptureBatch batch = f.collect(0, d);
    const DistanceEstimate e = est.estimate(batch.beeps, batch.noise_only);
    ASSERT_TRUE(e.valid) << "at distance " << d;
    EXPECT_GT(e.user_distance_m, prev);  // monotone with true distance
    prev = e.user_distance_m * 0.75;     // loose monotonicity margin
  }
}

TEST(DistanceEstimator, EnvelopeCarriesDirectAndEchoPeaks) {
  const Fixture f;
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  const CaptureBatch batch = f.collect(2, 0.7);
  const DistanceEstimate e = est.estimate(batch.beeps, batch.noise_only);
  ASSERT_TRUE(e.valid);
  ASSERT_GE(e.peaks.size(), 2u);  // tau_1 plus at least one echo peak
  EXPECT_FALSE(e.averaged_envelope.empty());
  // The direct peak towers over everything else in E(t).
  EXPECT_EQ(e.peaks.front().index,
            static_cast<std::size_t>(std::lround(
                e.tau_direct_s * 48000.0)));
}

TEST(DistanceEstimator, CentroidAnchorNearPeak) {
  const Fixture f;
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  const CaptureBatch batch = f.collect(0, 0.7);
  const DistanceEstimate e = est.estimate(batch.beeps, batch.noise_only);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.tau_echo_centroid_s, e.tau_echo_s, 0.0015);
  EXPECT_GT(e.user_distance_centroid_m, 0.0);
}

TEST(DistanceEstimator, NoUserMeansNoValidEstimate) {
  // Empty room: the echo window holds only noise; prominence gating should
  // reject it.
  const Fixture f;
  echoimage::sim::Scene scene;
  scene.geometry = f.geometry;
  scene.environment =
      echoimage::sim::make_environment(echoimage::sim::EnvironmentKind::kLab,
                                       3);
  scene.environment.clutter.clear();
  scene.environment.reverb = echoimage::sim::ReverbParams{};
  const echoimage::sim::SceneRenderer renderer(scene,
                                               echoimage::sim::CaptureConfig{});
  echoimage::sim::Rng rng(5);
  std::vector<echoimage::dsp::MultiChannelSignal> beeps;
  for (int i = 0; i < 4; ++i) beeps.push_back(renderer.render_beep({}, rng));
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  const DistanceEstimate e = est.estimate(beeps);
  EXPECT_FALSE(e.valid);
}

TEST(DistanceEstimator, SingleMicModeRuns) {
  const Fixture f;
  DistanceEstimatorConfig cfg;
  cfg.mode = SteeringMode::kSingleMic;
  cfg.single_mic_index = 2;
  const DistanceEstimator est(cfg, f.geometry);
  const CaptureBatch batch = f.collect(0, 0.7);
  const DistanceEstimate e = est.estimate(batch.beeps, batch.noise_only);
  // Single-mic estimation is the paper's strawman: it may be less accurate
  // but must run and produce a sane envelope.
  EXPECT_FALSE(e.averaged_envelope.empty());
}

TEST(DistanceEstimator, MaskOfTheWrongLengthIsRejected) {
  // The single-mic branch indexes the mask by the configured microphone:
  // a mask shorter than the capture must be refused before that read, in
  // every steering mode.
  const Fixture f;
  const CaptureBatch batch = f.collect(0, 0.7);
  const echoimage::array::ChannelMask short_mask(2, true);
  const echoimage::array::ChannelMask long_mask(7, true);
  for (const SteeringMode mode :
       {SteeringMode::kSingleMic, SteeringMode::kDelayAndSum,
        SteeringMode::kMvdr}) {
    DistanceEstimatorConfig cfg;
    cfg.mode = mode;
    cfg.single_mic_index = 4;
    const DistanceEstimator est(cfg, f.geometry);
    EXPECT_THROW((void)est.beep_envelope(batch.beeps[0], batch.noise_only,
                                         short_mask),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)est.estimate(batch.beeps, batch.noise_only, long_mask),
        std::invalid_argument);
  }
}

TEST(DistanceEstimator, DelayAndSumModeEstimates) {
  const Fixture f;
  DistanceEstimatorConfig cfg;
  cfg.mode = SteeringMode::kDelayAndSum;
  const DistanceEstimator est(cfg, f.geometry);
  const CaptureBatch batch = f.collect(0, 0.7);
  const DistanceEstimate e = est.estimate(batch.beeps, batch.noise_only);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.user_distance_m, batch.true_distance_m, 0.2);
}

TEST(DistanceEstimator, MoreBeepsStabilizeEstimate) {
  // Eq. 10's averaging: estimates from many beeps should not be *worse*
  // than from one beep for the same batch.
  const Fixture f;
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  const CaptureBatch batch = f.collect(0, 0.7, 8);
  const DistanceEstimate all = est.estimate(batch.beeps, batch.noise_only);
  const DistanceEstimate one =
      est.estimate({batch.beeps.front()}, batch.noise_only);
  ASSERT_TRUE(all.valid);
  if (one.valid) {
    const double err_all = std::abs(all.user_distance_m - batch.true_distance_m);
    EXPECT_LT(err_all, 0.25);
  }
}

TEST(DistanceEstimator, BandpassIsolatesProbingBand) {
  const Fixture f;
  const DistanceEstimator est(DistanceEstimatorConfig{}, f.geometry);
  const CaptureBatch batch = f.collect(0, 0.7, 1);
  const auto filtered = est.bandpass(batch.beeps.front());
  EXPECT_EQ(filtered.num_channels(), 6u);
  EXPECT_EQ(filtered.length(), batch.beeps.front().length());
}

}  // namespace
}  // namespace echoimage::core
