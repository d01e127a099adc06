#include "dsp/window.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

namespace echoimage::dsp {
namespace {

// The library keeps only the Tukey taper (chirp shaping). The classical
// shapes below are test-side references: rectangular and Hann are the
// Tukey window's alpha = 0 and alpha = 1 limits, and the whole family
// shares the window properties the parameterized tests check.
enum class WindowType { kRectangular, kHann, kHamming, kBlackman, kTukey };

double window_value(WindowType type, double u, double tukey_alpha = 0.5) {
  if (type == WindowType::kTukey) return tukey_window(u, tukey_alpha);
  if (u < 0.0 || u > 1.0) return 0.0;
  constexpr double pi = std::numbers::pi;
  switch (type) {
    case WindowType::kHann:
      return 0.5 - 0.5 * std::cos(2.0 * pi * u);
    case WindowType::kHamming:
      return 0.54 - 0.46 * std::cos(2.0 * pi * u);
    case WindowType::kBlackman:
      return 0.42 - 0.5 * std::cos(2.0 * pi * u) +
             0.08 * std::cos(4.0 * pi * u);
    default:
      return 1.0;
  }
}

/// n points spanning u = 0..1 inclusive of both endpoints.
std::vector<double> sample_window(WindowType type, std::size_t n,
                                  double tukey_alpha = 0.5) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = window_value(
        type, static_cast<double>(i) / static_cast<double>(n - 1),
        tukey_alpha);
  return w;
}

class WindowTypeTest : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypeTest, ZeroOutsideUnitInterval) {
  EXPECT_DOUBLE_EQ(window_value(GetParam(), -0.1), 0.0);
  EXPECT_DOUBLE_EQ(window_value(GetParam(), 1.1), 0.0);
}

TEST_P(WindowTypeTest, UnityOrLessEverywhere) {
  for (double u = 0.0; u <= 1.0; u += 0.01) {
    const double v = window_value(GetParam(), u);
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST_P(WindowTypeTest, SymmetricAboutCenter) {
  for (double u = 0.0; u <= 0.5; u += 0.05) {
    EXPECT_NEAR(window_value(GetParam(), u),
                window_value(GetParam(), 1.0 - u), 1e-12);
  }
}

TEST_P(WindowTypeTest, MakeWindowSamplesEndpoints) {
  const std::vector<double> w = sample_window(GetParam(), 33);
  ASSERT_EQ(w.size(), 33u);
  EXPECT_NEAR(w[0], window_value(GetParam(), 0.0), 1e-12);
  EXPECT_NEAR(w[32], window_value(GetParam(), 1.0), 1e-12);
  EXPECT_NEAR(w[16], window_value(GetParam(), 0.5), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WindowTypeTest,
                         ::testing::Values(WindowType::kRectangular,
                                           WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman,
                                           WindowType::kTukey));

TEST(Window, RectangularIsAllOnes) {
  for (const double v : sample_window(WindowType::kTukey, 8, 0.0))
    EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannPeaksAtCenterAndVanishesAtEdges) {
  EXPECT_NEAR(tukey_window(0.5, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(tukey_window(0.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(tukey_window(1.0, 1.0), 0.0, 1e-12);
}

TEST(Window, HammingEdgesAreNonZero) {
  EXPECT_NEAR(window_value(WindowType::kHamming, 0.0), 0.08, 1e-12);
}

TEST(Window, TukeyZeroAlphaIsRectangular) {
  for (double u = 0.0; u <= 1.0; u += 0.1)
    EXPECT_DOUBLE_EQ(tukey_window(u, 0.0), 1.0);
}

TEST(Window, TukeyFullAlphaIsHann) {
  for (double u = 0.0; u <= 1.0; u += 0.05)
    EXPECT_NEAR(tukey_window(u, 1.0), window_value(WindowType::kHann, u),
                1e-12);
}

TEST(Window, TukeyFlatTopInMiddle) {
  EXPECT_DOUBLE_EQ(tukey_window(0.5, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(tukey_window(0.3, 0.5), 1.0);
}

TEST(Window, TukeyAlphaIsClampedToTheUnitInterval) {
  for (double u = 0.0; u <= 1.0; u += 0.05) {
    EXPECT_DOUBLE_EQ(tukey_window(u, -0.5), tukey_window(u, 0.0));
    EXPECT_DOUBLE_EQ(tukey_window(u, 1.5), tukey_window(u, 1.0));
  }
}

}  // namespace
}  // namespace echoimage::dsp
