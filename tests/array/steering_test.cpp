#include "array/steering.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "array_reference.hpp"

namespace echoimage::array {
namespace {

using namespace echoimage::units::literals;

constexpr double kPi = std::numbers::pi;

// TDOAs read back from the library's steering phases: a_m =
// exp(-j omega tau_m), so tau_m = -arg(a_m) / omega while |omega tau_m| < pi
// (true for this array below ~3 kHz; 1 kHz keeps a wide margin).
std::vector<double> steering_tdoas(const ArrayGeometry& g, const Direction& d) {
  const double f = 1000.0;
  const std::vector<Complex> a = steering_vector_hz(g, d, units::Hertz{f});
  std::vector<double> taus;
  for (const Complex& c : a) taus.push_back(-std::arg(c) / (2.0 * kPi * f));
  return taus;
}

TEST(Direction, ToPointRecoversSphericalAngles) {
  // +x axis: theta = 0, phi = pi/2.
  const Vec3 dx = line_of_sight(Direction{0.0, kPi / 2.0});
  EXPECT_NEAR(dx.x, 1.0, 1e-12);
  EXPECT_NEAR(dx.y, 0.0, 1e-12);
  EXPECT_NEAR(dx.z, 0.0, 1e-12);
  // +y axis: theta = pi/2.
  const Vec3 dy = line_of_sight(Direction{kPi / 2.0, kPi / 2.0});
  EXPECT_NEAR(dy.x, 0.0, 1e-12);
  EXPECT_NEAR(dy.y, 1.0, 1e-12);
  // +z axis: phi = 0.
  const Vec3 dz = line_of_sight(Direction{0.7, 0.0});
  EXPECT_NEAR(dz.z, 1.0, 1e-12);
  EXPECT_NEAR(std::hypot(dz.x, dz.y), 0.0, 1e-12);
}

TEST(Direction, LineOfSightRoundTrip) {
  const Vec3 p{0.3, 0.8, 0.5};
  const Direction d = reference::direction_to_point(p);
  const Vec3 los = line_of_sight(d);
  const Vec3 unit = p.normalized();
  EXPECT_NEAR(los.x, unit.x, 1e-12);
  EXPECT_NEAR(los.y, unit.y, 1e-12);
  EXPECT_NEAR(los.z, unit.z, 1e-12);
}

TEST(PropagationVector, IsNegatedLineOfSight) {
  const Direction d{0.4, 1.1};
  const Vec3 v = propagation_vector(d);
  const Vec3 los = line_of_sight(d);
  EXPECT_NEAR(v.x, -los.x, 1e-12);
  EXPECT_NEAR(v.y, -los.y, 1e-12);
  EXPECT_NEAR(v.z, -los.z, 1e-12);
  EXPECT_NEAR(v.norm(), 1.0, 1e-12);  // Eq. 5 is a unit vector
}

TEST(Tdoa, MicTowardSourceHearsFirst) {
  const ArrayGeometry g = make_respeaker_array();
  // Source along +x (theta = 0, phi = pi/2): mic 0 sits at (+0.05, 0, 0).
  const Direction d{0.0, kPi / 2.0};
  const double t0 = steering_tdoas(g, d)[0];
  EXPECT_LT(t0, 0.0);  // closer mic receives earlier than the origin
  EXPECT_NEAR(t0, -0.05 / kSpeedOfSound, 1e-12);
}

TEST(Tdoa, OppositeMicsHaveOppositeDelays) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.0, kPi / 2.0};
  // Mics 0 and 3 are diametrically opposite on the 6-mic circle.
  const auto taus = steering_tdoas(g, d);
  EXPECT_NEAR(taus[0], -taus[3], 1e-15);
}

TEST(Tdoa, BroadsideSourceGivesZeroDelays) {
  // A wave from +z (phi = 0) reaches every mic of the planar array at once.
  const ArrayGeometry g = make_respeaker_array();
  const auto taus = steering_tdoas(g, Direction{0.7, 0.0});
  for (const double t : taus) EXPECT_NEAR(t, 0.0, 1e-15);
}

TEST(Tdoa, BoundedByAperture) {
  const ArrayGeometry g = make_respeaker_array();
  const double max_tau = g.aperture() / kSpeedOfSound;
  for (double theta = 0.0; theta < 2.0 * kPi; theta += 0.37) {
    for (double phi = 0.1; phi < kPi; phi += 0.31) {
      const auto taus = steering_tdoas(g, Direction{theta, phi});
      for (const double t : taus) EXPECT_LE(std::abs(t), max_tau + 1e-12);
    }
  }
}

TEST(SteeringVector, UnitModulusEntries) {
  const ArrayGeometry g = make_respeaker_array();
  const auto a = steering_vector_hz(g, Direction{1.0, 1.2}, 2500.0_hz);
  ASSERT_EQ(a.size(), 6u);
  for (const Complex& c : a) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(SteeringVector, PhaseMatchesTdoa) {
  // a_m = exp(-j omega tau_m) (paper Eq. 7/8).
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.9, 1.3};
  const double f = 2500.0;
  const auto a = steering_vector_hz(g, d, units::Hertz{f});
  const auto taus = reference::tdoas(g, d);
  for (std::size_t m = 0; m < 6; ++m) {
    const Complex expected =
        std::polar(1.0, -2.0 * kPi * f * taus[m]);
    EXPECT_NEAR(std::abs(a[m] - expected), 0.0, 1e-10);
  }
}

TEST(SteeringVector, ZenithIsAllOnes) {
  const ArrayGeometry g = make_respeaker_array();
  const auto a = steering_vector_hz(g, Direction{0.0, 0.0}, 2500.0_hz);
  for (const Complex& c : a) EXPECT_NEAR(std::abs(c - 1.0), 0.0, 1e-12);
}

TEST(SteeringVector, FrequencyScalesPhase) {
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.0, kPi / 2.0};
  const auto a1 = steering_vector_hz(g, d, 1000.0_hz);
  const auto a2 = steering_vector_hz(g, d, 2000.0_hz);
  for (std::size_t m = 0; m < 6; ++m) {
    const double p1 = std::arg(a1[m]);
    // Doubling frequency doubles phase (mod 2 pi).
    const Complex expected = std::polar(1.0, 2.0 * p1);
    EXPECT_NEAR(std::abs(a2[m] - expected), 0.0, 1e-10);
  }
}

TEST(SteeringVector, BandedMatchesPerBandSteering) {
  // Band b of the band-shared recursion is steering_vector at omega_b up
  // to rounding; one band is exactly steering_vector.
  const ArrayGeometry g = make_respeaker_array();
  const Direction d{0.9, 1.3};
  const Vec3 los = line_of_sight(d);
  const double omega_0 = 2.0 * kPi * 2100.0, d_omega = 2.0 * kPi * 200.0;
  constexpr std::size_t kBands = 5;
  std::vector<Complex> banded(kBands * g.num_mics());
  banded_steering_into(g, los, omega_0, d_omega, kBands, kSpeedOfSoundMps,
                       banded.data());
  for (std::size_t b = 0; b < kBands; ++b) {
    const auto a = steering_vector(
        g, d, omega_0 + static_cast<double>(b) * d_omega);
    for (std::size_t m = 0; m < g.num_mics(); ++m) {
      const Complex got = banded[b * g.num_mics() + m];
      if (b == 0) {
        EXPECT_EQ(got, a[m]);
      } else {
        EXPECT_LE(std::abs(got - a[m]), 1e-14) << "band " << b;
      }
    }
  }
}

}  // namespace
}  // namespace echoimage::array
