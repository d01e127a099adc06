#include "array/doa.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "array_reference.hpp"
#include "dsp/hilbert.hpp"

namespace echoimage::array {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kFs = 48000.0;
constexpr double kF0 = 2500.0;

// Analytic snapshots of a plane-wave tone from `dir` plus white noise.
std::vector<echoimage::dsp::ComplexSignal> tone_snapshots(
    const ArrayGeometry& g, const Direction& dir, std::size_t n,
    double noise_std, unsigned seed) {
  const std::vector<double> taus = reference::tdoas(g, dir);
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, noise_std);
  std::vector<echoimage::dsp::ComplexSignal> out(g.num_mics());
  for (std::size_t m = 0; m < g.num_mics(); ++m) {
    echoimage::dsp::Signal x(n);
    for (std::size_t t = 0; t < n; ++t) {
      const double time = static_cast<double>(t) / kFs - taus[m];
      x[t] = std::cos(2.0 * kPi * kF0 * time) + d(gen);
    }
    out[m] = echoimage::dsp::analytic_signal(x);
  }
  return out;
}

TEST(Doa, RejectsBadConfigs) {
  DoaConfig cfg;
  cfg.azimuth_steps = 0;
  EXPECT_THROW(DoaEstimator(cfg, make_respeaker_array()),
               std::invalid_argument);
}

TEST(Doa, RejectsChannelMismatch) {
  const DoaEstimator est(DoaConfig{}, make_respeaker_array());
  EXPECT_THROW((void)est.estimate(
                   std::vector<echoimage::dsp::ComplexSignal>(3), 0, 16),
               std::invalid_argument);
}

TEST(Doa, SrpFindsAzimuthOfCleanTone) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction src{1.0, kPi / 2.0};
  const auto snaps = tone_snapshots(g, src, 1024, 0.0, 1);
  const DoaEstimator est(DoaConfig{}, g);
  const DoaEstimate e = est.estimate(snaps, 128, 768);
  // A planar array has poor elevation resolution; check azimuth (allowing
  // wraparound) and that the peak stands out.
  double d_theta = std::abs(e.direction.theta - src.theta);
  d_theta = std::min(d_theta, 2.0 * kPi - d_theta);
  EXPECT_LT(d_theta, 0.3);
  EXPECT_GT(e.power, 1.5 * e.mean_power);
}

TEST(Doa, SrpToleratesNoise) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction src{4.0, kPi / 2.0};
  const auto snaps = tone_snapshots(g, src, 4096, 1.0, 2);
  const DoaEstimator est(DoaConfig{}, g);
  const DoaEstimate e = est.estimate(snaps, 0, 4096);
  double d_theta = std::abs(e.direction.theta - src.theta);
  d_theta = std::min(d_theta, 2.0 * kPi - d_theta);
  EXPECT_LT(d_theta, 0.4);
}

TEST(Doa, MvdrSpectrumAlsoPeaksAtSource) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction src{2.5, kPi / 2.0};
  const auto snaps = tone_snapshots(g, src, 2048, 0.3, 3);
  DoaConfig cfg;
  cfg.use_mvdr = true;
  const DoaEstimator est(cfg, g);
  const DoaEstimate e = est.estimate(snaps, 0, 2048);
  double d_theta = std::abs(e.direction.theta - src.theta);
  d_theta = std::min(d_theta, 2.0 * kPi - d_theta);
  EXPECT_LT(d_theta, 0.4);
}

TEST(Doa, SpectrumShapeMatchesScanResolution) {
  DoaConfig cfg;
  cfg.azimuth_steps = 36;
  cfg.elevation_steps = 9;
  const ArrayGeometry g = make_respeaker_array();
  const DoaEstimator est(cfg, g);
  const auto snaps = tone_snapshots(g, Direction{0.0, kPi / 2.0}, 256, 0.1, 4);
  EXPECT_EQ(est.spectrum(snaps, 0, 256).size(), 36u * 9u);
}

TEST(Doa, DirectionAtCoversScanGrid) {
  DoaConfig cfg;
  cfg.azimuth_steps = 8;
  cfg.elevation_steps = 4;
  const DoaEstimator est(cfg, make_respeaker_array());
  const Direction first = est.direction_at(0);
  EXPECT_NEAR(first.theta, 0.0, 1e-12);
  EXPECT_GT(first.phi, 0.0);
  const Direction last = est.direction_at(31);
  EXPECT_LT(last.phi, kPi);
}

}  // namespace
}  // namespace echoimage::array
