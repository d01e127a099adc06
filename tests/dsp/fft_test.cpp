#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#include "fft_helpers.hpp"

namespace echoimage::dsp {
namespace {

using fft_testing::forward_dft;
using fft_testing::inverse_dft;

ComplexSignal random_complex(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  ComplexSignal x(n);
  for (Complex& c : x) c = Complex(d(gen), d(gen));
  return x;
}

// Direct O(n^2) DFT as the reference implementation.
ComplexSignal reference_dft(const ComplexSignal& x) {
  const std::size_t n = x.size();
  ComplexSignal out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(ang), std::sin(ang));
    }
  return out;
}

double max_error(const ComplexSignal& a, const ComplexSignal& b) {
  EXPECT_EQ(a.size(), b.size());
  double e = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    e = std::max(e, std::abs(a[i] - b[i]));
  return e;
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Fft, Pow2RejectsNonPow2) {
  ComplexSignal x(6);
  EXPECT_THROW(fft_pow2_in_place(x, false), std::invalid_argument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  ComplexSignal x(8, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  ComplexSignal y = x;
  fft_pow2_in_place(y, false);
  for (const Complex& c : y) EXPECT_NEAR(std::abs(c - 1.0), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  ComplexSignal x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = 2.0 * std::numbers::pi * 5.0 * static_cast<double>(t) /
                       static_cast<double>(n);
    x[t] = Complex(std::cos(ang), std::sin(ang));
  }
  ComplexSignal y = x;
  fft_pow2_in_place(y, false);
  EXPECT_NEAR(std::abs(y[5]), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k)
    if (k != 5) {
      EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-9);
    }
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const ComplexSignal x = random_complex(n, 42 + static_cast<unsigned>(n));
  EXPECT_LT(max_error(forward_dft(x), reference_dft(x)),
            1e-8 * static_cast<double>(n));
}

TEST_P(FftSizeTest, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  const ComplexSignal x = random_complex(n, 7 + static_cast<unsigned>(n));
  EXPECT_LT(max_error(inverse_dft(forward_dft(x)), x),
            1e-9 * static_cast<double>(n));
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  const ComplexSignal x = random_complex(n, 3 + static_cast<unsigned>(n));
  const ComplexSignal y = forward_dft(x);
  double ex = 0.0, ey = 0.0;
  for (const Complex& c : x) ex += std::norm(c);
  for (const Complex& c : y) ey += std::norm(c);
  EXPECT_NEAR(ey / static_cast<double>(n), ex, 1e-8 * (1.0 + ex));
}

// Power-of-two sizes exercise radix-2; composite and prime sizes exercise
// fft_real's Bluestein path.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 32, 128,
                                                        3, 5, 6, 12, 17, 31,
                                                        60, 97, 100, 255));

TEST(Fft, RealFftOfCosineIsConjugateSymmetric) {
  const std::size_t n = 32;
  Signal x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::cos(2.0 * std::numbers::pi * 3.0 * static_cast<double>(t) /
                    static_cast<double>(n));
  const ComplexSignal y = fft_real(x);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(y[k] - std::conj(y[n - k])), 0.0, 1e-9);
  }
  EXPECT_NEAR(std::abs(y[3]), static_cast<double>(n) / 2.0, 1e-9);
}

TEST(Fft, BinFrequencyPositiveAndNegative) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 8, 48000.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(1, 8, 48000.0), 6000.0);
  EXPECT_DOUBLE_EQ(bin_frequency(7, 8, 48000.0), -6000.0);
  EXPECT_DOUBLE_EQ(bin_frequency(4, 8, 48000.0), 24000.0);
}

TEST(Fft, EmptyInputsProduceEmptyOutputs) {
  EXPECT_TRUE(fft_real(Signal{}).empty());
}

}  // namespace
}  // namespace echoimage::dsp
