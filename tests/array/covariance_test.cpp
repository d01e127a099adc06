#include "array/covariance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace echoimage::array {
namespace {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;

std::vector<ComplexSignal> independent_noise(std::size_t mics, std::size_t n,
                                             unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  std::vector<ComplexSignal> ch(mics, ComplexSignal(n));
  for (auto& c : ch)
    for (Complex& v : c) v = Complex(d(gen), d(gen));
  return ch;
}

TEST(SpatialCovariance, RejectsEmptyInputs) {
  EXPECT_THROW((void)spatial_covariance({}, 0, 10), std::invalid_argument);
  EXPECT_THROW((void)spatial_covariance(independent_noise(2, 8, 1), 0, 0),
               std::invalid_argument);
}

TEST(SpatialCovariance, IndependentNoiseIsNearDiagonal) {
  const auto ch = independent_noise(4, 8192, 99);
  const CMatrix r = spatial_covariance(ch, 0, 8192);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r(i, i).real(), 2.0, 0.15);  // var(re) + var(im)
    for (std::size_t j = 0; j < 4; ++j)
      if (i != j) {
        EXPECT_LT(std::abs(r(i, j)), 0.15);
      }
  }
}

TEST(SpatialCovariance, CoherentSignalIsRankOne) {
  // Identical signals across mics: all entries equal.
  ComplexSignal base(256);
  std::mt19937 gen(5);
  std::normal_distribution<double> d(0.0, 1.0);
  for (Complex& v : base) v = Complex(d(gen), d(gen));
  const std::vector<ComplexSignal> ch(3, base);
  const CMatrix r = spatial_covariance(ch, 0, 256);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(std::abs(r(i, j) - r(0, 0)), 0.0, 1e-9);
}

TEST(SpatialCovariance, HermitianProperty) {
  const auto ch = independent_noise(5, 512, 3);
  const CMatrix r = spatial_covariance(ch, 0, 512);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(std::abs(r(i, j) - std::conj(r(j, i))), 0.0, 1e-12);
}

TEST(SpatialCovariance, RangeSelectsSnapshots) {
  // First half silent, second half loud: covariance over each half differs.
  std::vector<ComplexSignal> ch(2, ComplexSignal(100, Complex(0.0, 0.0)));
  for (std::size_t t = 50; t < 100; ++t) {
    ch[0][t] = Complex(2.0, 0.0);
    ch[1][t] = Complex(2.0, 0.0);
  }
  const CMatrix quiet = spatial_covariance(ch, 0, 50);
  const CMatrix loud = spatial_covariance(ch, 50, 50);
  EXPECT_NEAR(quiet(0, 0).real(), 0.0, 1e-12);
  EXPECT_NEAR(loud(0, 0).real(), 4.0, 1e-12);
}

TEST(SpatialCovariance, OutOfRangeSnapshotsAreZero) {
  const auto ch = independent_noise(2, 16, 11);
  // Range extends beyond the signal: implicit zeros shrink the average.
  const CMatrix r = spatial_covariance(ch, 0, 32);
  const CMatrix r_half = spatial_covariance(ch, 0, 16);
  EXPECT_NEAR(r(0, 0).real(), 0.5 * r_half(0, 0).real(), 1e-12);
}

TEST(NormalizedCovariance, UnitMeanDiagonal) {
  const auto ch = independent_noise(4, 2048, 21);
  const CMatrix r = normalized_covariance(ch, 0, 2048);
  EXPECT_NEAR(r.mean_diagonal_real(), 1.0, 1e-12);
}

TEST(NormalizedCovariance, AllZeroFallsBackToIdentity) {
  const std::vector<ComplexSignal> ch(3, ComplexSignal(64, Complex(0.0, 0.0)));
  const CMatrix r = normalized_covariance(ch, 0, 64);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(r(i, j), (i == j ? Complex(1.0, 0.0) : Complex(0.0, 0.0)));
}

TEST(WhiteNoiseCovariance, IsIdentity) {
  const CMatrix r = white_noise_covariance(6);
  EXPECT_EQ(r.rows(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(r(i, i), Complex(1.0, 0.0));
}

/// Direct per-sample energies over a gate clipped to the channel length:
/// sum_t |w^H x(t)|^2 and the mean per-channel sum_t |x_c(t)|^2.
double direct_steered(const std::vector<ComplexSignal>& ch,
                      const std::vector<Complex>& w, Gate g) {
  const std::size_t n = ch.front().size();
  double e = 0.0;
  for (std::size_t t = std::min(g.first, n); t < std::min(g.last, n); ++t) {
    Complex y(0.0, 0.0);
    for (std::size_t c = 0; c < ch.size(); ++c) y += std::conj(w[c]) * ch[c][t];
    e += std::norm(y);
  }
  return e;
}

double direct_incoherent(const std::vector<ComplexSignal>& ch, Gate g) {
  const std::size_t n = ch.front().size();
  double e = 0.0;
  for (const ComplexSignal& c : ch)
    for (std::size_t t = std::min(g.first, n); t < std::min(g.last, n); ++t)
      e += std::norm(c[t]);
  return e / static_cast<double>(ch.size());
}

TEST(GateCovariances, QuadraticFormsMatchDirectSums) {
  // Gates inside one block, straddling blocks, block-aligned, clipped at
  // the end, entirely past the end and empty: every energy equals the
  // direct per-sample sum up to reassociation.
  const std::vector<ComplexSignal> ch = independent_noise(6, 300, 5);
  const std::vector<Gate> gates{{0, 1},     {3, 9},     {5, 21},  {16, 48},
                                {17, 161},  {0, 300},   {250, 320}, {299, 300},
                                {400, 450}, {40, 40},   {90, 60}};
  const GateCovariances q(ch, gates);
  std::mt19937 gen(9);
  std::normal_distribution<double> d(0.0, 1.0);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Complex> w(6);
    for (Complex& v : w) v = Complex(d(gen), d(gen));
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const double want = direct_steered(ch, w, gates[g]);
      EXPECT_NEAR(q.steered_energy(g, w.data()), want, 1e-12 * want)
          << "gate " << g;
    }
  }
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const double want = direct_incoherent(ch, gates[g]);
    EXPECT_NEAR(q.incoherent_energy(g), want, 1e-12 * want) << "gate " << g;
  }
  // Empty and out-of-range gates are exactly zero.
  const std::vector<Complex> ones(6, Complex(1.0, 0.0));
  for (const std::size_t g : {8u, 9u, 10u}) {
    EXPECT_EQ(q.steered_energy(g, ones.data()), 0.0);
    EXPECT_EQ(q.incoherent_energy(g), 0.0);
  }
}

TEST(GateCovariances, RejectsEmptyOrRaggedChannels) {
  const std::vector<Gate> gate{{0, 4}};
  EXPECT_THROW(GateCovariances({}, gate), std::invalid_argument);
  std::vector<ComplexSignal> ragged = independent_noise(3, 8, 1);
  ragged[1].resize(7);
  EXPECT_THROW(GateCovariances(ragged, gate), std::invalid_argument);
}

}  // namespace
}  // namespace echoimage::array
