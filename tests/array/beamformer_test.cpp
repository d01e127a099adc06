#include "array/beamformer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <random>
#include <utility>

#include "array_reference.hpp"
#include "array/covariance.hpp"
#include "dsp/chirp.hpp"
#include "dsp/hilbert.hpp"
#include "sim/scene.hpp"

namespace echoimage::array {
namespace {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;
using echoimage::dsp::MultiChannelSignal;
using echoimage::dsp::Signal;

constexpr double kPi = std::numbers::pi;
constexpr double kFs = 48000.0;
constexpr units::Hertz kF0{2500.0};

// Simulate a far-field tone arriving from `dir` on the given geometry.
MultiChannelSignal plane_wave_tone(const ArrayGeometry& g, const Direction& dir,
                                   units::Hertz freq, std::size_t n,
                                   double noise_std = 0.0, unsigned seed = 1) {
  const std::vector<double> taus = reference::tdoas(g, dir);
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  MultiChannelSignal x;
  x.channels.resize(g.num_mics());
  for (std::size_t m = 0; m < g.num_mics(); ++m) {
    x.channels[m].resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      const double time = static_cast<double>(t) / kFs - taus[m];
      x.channels[m][t] = std::cos(2.0 * kPi * freq.value() * time) +
                         noise_std * d(gen);
    }
  }
  return x;
}

// Beamformer over the analytic signals of a real capture, white noise.
NarrowbandBeamformer analytic_beamformer(const MultiChannelSignal& x,
                                         const ArrayGeometry& g) {
  std::vector<ComplexSignal> chans;
  for (const Signal& c : x.channels)
    chans.push_back(echoimage::dsp::analytic_signal(c));
  return NarrowbandBeamformer(std::move(chans), kF0, g,
                              white_noise_covariance(g.num_mics()));
}

// Weight-only beamformer: `cov` is all that matters, the channels are
// placeholders.
NarrowbandBeamformer weight_beamformer(const ArrayGeometry& g,
                                       const CMatrix& cov) {
  return NarrowbandBeamformer(
      std::vector<ComplexSignal>(g.num_mics(), ComplexSignal(1)), kF0, g, cov);
}

std::vector<Complex> weights(const NarrowbandBeamformer& bf,
                             const Direction& dir, bool use_mvdr) {
  std::vector<Complex> scratch;
  std::vector<Complex> w(bf.analytic().size());
  bf.compute_weights(dir, use_mvdr, scratch, w.data());
  return w;
}

TEST(MvdrWeights, DistortionlessConstraint) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{kPi / 2.0, 1.2};
  const auto a = steering_vector_hz(g, d, kF0);
  // A directional noise field, so MVDR is not just delay-and-sum.
  CMatrix r = reference::outer(a, a);
  r.add_diagonal(0.1);
  const auto w = weights(weight_beamformer(g, r), d, true);
  // w^H a = 1 is MVDR's defining constraint (Eq. 8 denominator).
  const Complex resp = echoimage::linalg::hdot(w, a);
  EXPECT_NEAR(std::abs(resp - Complex(1.0, 0.0)), 0.0, 1e-9);
}

TEST(MvdrWeights, WhiteNoiseReducesToDelayAndSum) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.3, 1.0};
  const NarrowbandBeamformer bf =
      weight_beamformer(g, white_noise_covariance(6));
  const auto w_mvdr = weights(bf, d, true);
  const auto w_das = weights(bf, d, false);
  for (std::size_t m = 0; m < 6; ++m)
    EXPECT_NEAR(std::abs(w_mvdr[m] - w_das[m]), 0.0, 1e-9);
}

TEST(MvdrWeights, NullsDirectionalInterference) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction look{kPi / 2.0, kPi / 2.0};
  const Direction interferer{0.0, kPi / 2.0};  // 90 degrees away
  const auto a_look = steering_vector_hz(g, look, kF0);
  const auto a_int = steering_vector_hz(g, interferer, kF0);
  // Noise covariance dominated by the interferer + small white floor.
  CMatrix r = reference::outer(a_int, a_int);
  for (std::size_t i = 0; i < 6; ++i) r(i, i) += Complex(0.01, 0.0);
  const auto w = weights(weight_beamformer(g, r), look, true);
  const double gain_look =
      std::abs(echoimage::linalg::hdot(w, a_look));
  const double gain_int = std::abs(echoimage::linalg::hdot(w, a_int));
  EXPECT_NEAR(gain_look, 1.0, 1e-6);
  EXPECT_LT(gain_int, 0.05);  // interferer suppressed by > 26 dB
}

TEST(MvdrWeights, ShapeMismatchThrows) {
  // The MVDR noise covariance must match the microphone count.
  EXPECT_THROW((void)weight_beamformer(make_respeaker_array(),
                                       white_noise_covariance(4)),
               std::invalid_argument);
}

TEST(DasWeights, AverageOfSteeringPhases) {
  const auto a = std::vector<Complex>{{1.0, 0.0}, {0.0, 1.0}};
  const auto w = das_weights(a);
  EXPECT_NEAR(std::abs(w[0] - Complex(0.5, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(w[1] - Complex(0.0, 0.5)), 0.0, 1e-12);
}

TEST(ApplyWeights, SumsWeightedChannels) {
  // steer() applies compute_weights' weights: y(t) = w^H x(t).
  const ArrayGeometry g = make_respeaker_array();
  const MultiChannelSignal x =
      plane_wave_tone(g, Direction{0.4, 1.1}, kF0, 64, 0.3, 5);
  const NarrowbandBeamformer bf = analytic_beamformer(x, g);
  const Direction look{2.0, 1.0};
  for (const bool mvdr : {true, false}) {
    const auto w = weights(bf, look, mvdr);
    const ComplexSignal y = bf.steer(look, mvdr);
    ASSERT_EQ(y.size(), 64u);
    for (std::size_t t = 0; t < y.size(); ++t) {
      Complex want(0.0, 0.0);
      for (std::size_t m = 0; m < w.size(); ++m)
        want += std::conj(w[m]) * bf.analytic()[m][t];
      EXPECT_EQ(y[t], want);
    }
  }
}

TEST(NarrowbandBeamformer, SteerRecoversToneFromLookDirection) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction src{kPi / 2.0, kPi / 2.0};
  const MultiChannelSignal x = plane_wave_tone(g, src, kF0, 1024);
  const NarrowbandBeamformer bf = analytic_beamformer(x, g);
  const ComplexSignal y = bf.steer(src, true);
  // Steered output magnitude ~ tone amplitude 1.0 in steady state.
  double acc = 0.0;
  for (std::size_t t = 256; t < 768; ++t) acc += std::abs(y[t]);
  EXPECT_NEAR(acc / 512.0, 1.0, 0.05);
}

TEST(NarrowbandBeamformer, SteeredEnergyWindowed) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction src{kPi / 2.0, kPi / 2.0};
  const MultiChannelSignal x = plane_wave_tone(g, src, kF0, 1024);
  const NarrowbandBeamformer bf = analytic_beamformer(x, g);
  const std::vector<Gate> gates{{256, 768}, {5000, 5010}};
  const GateCovariances q(bf.analytic(), gates);
  const auto w_mvdr = weights(bf, src, true);
  const double e_full = q.steered_energy(0, w_mvdr.data());
  // |analytic tone|^2 = 1 per sample.
  EXPECT_NEAR(e_full, 512.0, 30.0);
  const double e_das = q.steered_energy(0, weights(bf, src, false).data());
  EXPECT_NEAR(e_das, e_full, 40.0);
  // Out-of-range window is empty.
  EXPECT_EQ(q.steered_energy(1, w_mvdr.data()), 0.0);
}

TEST(NarrowbandBeamformer, IncoherentEnergyIsDirectionFree) {
  const ArrayGeometry g = make_respeaker_array();
  const MultiChannelSignal x =
      plane_wave_tone(g, Direction{1.0, 1.3}, kF0, 512);
  const NarrowbandBeamformer bf = analytic_beamformer(x, g);
  const std::vector<Gate> gate{{128, 384}};
  const double e = GateCovariances(bf.analytic(), gate).incoherent_energy(0);
  EXPECT_NEAR(e, 256.0, 20.0);  // mean per-mic |analytic|^2 = 1
}

TEST(NarrowbandBeamformer, RejectsBadInputs) {
  const ArrayGeometry g = make_respeaker_array();
  const CMatrix white = white_noise_covariance(6);
  EXPECT_THROW(NarrowbandBeamformer(
                   std::vector<ComplexSignal>(3, ComplexSignal(64)), kF0, g,
                   white),
               std::invalid_argument);
  std::vector<ComplexSignal> ragged(6, ComplexSignal(64));
  ragged[1].resize(32);
  EXPECT_THROW(NarrowbandBeamformer(ragged, kF0, g, white),
               std::invalid_argument);
  EXPECT_THROW(
      NarrowbandBeamformer(std::vector<ComplexSignal>(6, ComplexSignal(8)),
                           kF0, g, white_noise_covariance(4)),
      std::invalid_argument);
  // Mask length mismatch, and a mask that leaves no channel.
  const std::vector<ComplexSignal> ok(6, ComplexSignal(8));
  EXPECT_THROW(NarrowbandBeamformer(ok, kF0, g, white, kSpeedOfSoundMps,
                                    ChannelMask(4, true)),
               std::invalid_argument);
  EXPECT_THROW(NarrowbandBeamformer(ok, kF0, g, white, kSpeedOfSoundMps,
                                    ChannelMask(6, false)),
               std::invalid_argument);
}


TEST(NarrowbandBeamformer, PhysicallyRenderedEchoFavoursTrueDirection) {
  // Ground truth from the acoustic renderer, not from synthetic phases: a
  // point reflector to the array's left must yield more steered energy when
  // looking left than when looking right.
  using namespace echoimage::sim;
  Scene scene;
  scene.environment = make_environment(EnvironmentKind::kLab, 1, -100.0);
  scene.environment.clutter.clear();
  scene.environment.reverb = ReverbParams{};
  CaptureConfig capture_cfg;
  capture_cfg.sensor_noise = units::Decibels{-300.0};
  const SceneRenderer renderer(scene, capture_cfg);
  const Vec3 target{-0.5, 0.5, 0.0};  // up-left of the array
  Rng rng(3);
  const auto capture =
      renderer.render_beep({WorldReflector{target, 0.1, 0.0}}, rng);
  // Remove the direct chirp (first ~3 ms), keep the echo.
  MultiChannelSignal echo;
  for (const auto& ch : capture.channels) {
    Signal c = ch;
    std::fill(c.begin(), c.begin() + 150, 0.0);
    echo.channels.push_back(std::move(c));
  }
  const NarrowbandBeamformer bf =
      analytic_beamformer(echo, echoimage::array::make_respeaker_array());
  const Direction toward = reference::direction_to_point(target);
  const Direction mirror{toward.theta + kPi, toward.phi};
  const std::vector<Gate> whole{{0, echo.length()}};
  const GateCovariances q(bf.analytic(), whole);
  const double e_toward =
      q.steered_energy(0, weights(bf, toward, false).data());
  const double e_mirror =
      q.steered_energy(0, weights(bf, mirror, false).data());
  EXPECT_GT(e_toward, 1.3 * e_mirror);
}

TEST(NoiseCovarianceOf, MatchesDirectEstimate) {
  const ArrayGeometry g = make_respeaker_array();
  std::mt19937 gen(3);
  std::normal_distribution<double> d(0.0, 1.0);
  MultiChannelSignal noise;
  noise.channels.resize(6, Signal(1024));
  for (auto& ch : noise.channels)
    for (double& v : ch) v = d(gen);
  const CMatrix r = noise_covariance_of(noise);
  EXPECT_EQ(r.rows(), 6u);
  EXPECT_NEAR(r.mean_diagonal_real(), 1.0, 1e-9);
  EXPECT_THROW((void)noise_covariance_of(MultiChannelSignal{}),
               std::invalid_argument);
}

TEST(NarrowbandBeamformer, CopiesOutliveTheSource) {
  // The beamformer owns plain value members (rule of zero): copies, copies
  // of copies and moves answer every query bit-identically after the
  // source is gone.
  const ArrayGeometry g = make_respeaker_array();
  const MultiChannelSignal x =
      plane_wave_tone(g, Direction{1.0, 1.2}, kF0, 512, 0.05);
  std::vector<ComplexSignal> chans;
  for (const Signal& c : x.channels)
    chans.push_back(echoimage::dsp::analytic_signal(c));
  auto source = std::make_unique<NarrowbandBeamformer>(
      chans, kF0, g, white_noise_covariance(g.num_mics()));
  const Direction look{1.0, 1.2};
  const auto w = weights(*source, look, true);
  const std::vector<Gate> whole{{0, 512}};
  const double want =
      GateCovariances(source->analytic(), whole).steered_energy(0, w.data());
  NarrowbandBeamformer copy = *source;
  NarrowbandBeamformer assigned = copy;
  assigned = *source;
  source.reset();  // free the original buffers
  const NarrowbandBeamformer moved = std::move(assigned);
  for (const NarrowbandBeamformer* bf :
       {static_cast<const NarrowbandBeamformer*>(&copy), &moved}) {
    EXPECT_EQ(weights(*bf, look, true), w);
    EXPECT_EQ(
        GateCovariances(bf->analytic(), whole).steered_energy(0, w.data()),
        want);
  }
}

TEST(NarrowbandBeamformer, MaskedChannelsMayBeEmpty) {
  // A masked-out channel is never read: passing it empty gives the same
  // subarray output as passing its samples.
  const ArrayGeometry g = make_respeaker_array();
  const MultiChannelSignal x =
      plane_wave_tone(g, Direction{1.0, 1.2}, kF0, 256, 0.1, 9);
  std::vector<ComplexSignal> full;
  for (const Signal& c : x.channels)
    full.push_back(echoimage::dsp::analytic_signal(c));
  std::vector<ComplexSignal> holed = full;
  holed[2].clear();
  ChannelMask mask(6, true);
  mask[2] = false;
  CMatrix cov = white_noise_covariance(6);
  cov(0, 1) = Complex(0.2, 0.1);
  cov(1, 0) = Complex(0.2, -0.1);
  const NarrowbandBeamformer a(full, kF0, g, cov, kSpeedOfSoundMps, mask);
  const NarrowbandBeamformer b(holed, kF0, g, cov, kSpeedOfSoundMps, mask);
  ASSERT_EQ(b.analytic().size(), 5u);
  const Direction look{0.5, 1.4};
  EXPECT_EQ(a.steer(look, true), b.steer(look, true));
  EXPECT_EQ(a.steer(look, false), b.steer(look, false));
}

TEST(Beampattern, PeaksAtLookDirection) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction look{kPi / 2.0, kPi / 2.0};
  const auto w =
      das_weights(steering_vector_hz(g, look, kF0));
  std::vector<Direction> dirs;
  for (double th = 0.0; th < 2.0 * kPi; th += 0.1)
    dirs.push_back(Direction{th, kPi / 2.0});
  dirs.push_back(look);  // include the exact look direction in the scan
  const std::vector<double> bp = beampattern(g, w, kF0, dirs);
  double peak = 0.0;
  std::size_t peak_i = 0;
  for (std::size_t i = 0; i < bp.size(); ++i)
    if (bp[i] > peak) {
      peak = bp[i];
      peak_i = i;
    }
  EXPECT_NEAR(dirs[peak_i].theta, look.theta, 0.15);
  EXPECT_NEAR(peak, 1.0, 1e-9);  // w^H a at look = 1 for DAS
}

}  // namespace
}  // namespace echoimage::array
