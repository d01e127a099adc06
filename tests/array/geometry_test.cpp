#include "array/geometry.hpp"

#include "array/steering.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace echoimage::array {
namespace {

using namespace echoimage::units::literals;

TEST(Vec3, BasicOperations) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, -5.0, 6.0};
  const Vec3 s = a + b;
  EXPECT_DOUBLE_EQ(s.x, 5.0);
  EXPECT_DOUBLE_EQ(s.y, -3.0);
  EXPECT_DOUBLE_EQ(s.z, 9.0);
  const Vec3 d = a - b;
  EXPECT_DOUBLE_EQ(d.x, -3.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 12.0);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4.0);
}

TEST(Vec3, NormAndDistance) {
  const Vec3 v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.distance_to(Vec3{3.0, 0.0, 0.0}), 4.0);
}

TEST(Vec3, NormalizedUnitLength) {
  const Vec3 v{1.0, 2.0, 2.0};
  const Vec3 u = v.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_NEAR(u.x, 1.0 / 3.0, 1e-12);
}

TEST(Vec3, NormalizeZeroThrows) {
  EXPECT_THROW((void)Vec3{}.normalized(), std::domain_error);
}

TEST(ArrayGeometry, RejectsEmpty) {
  EXPECT_THROW(ArrayGeometry(std::vector<Vec3>{}), std::invalid_argument);
}

TEST(ArrayGeometry, CenterOfSymmetricArrayIsOrigin) {
  const ArrayGeometry g = make_respeaker_array();
  const Vec3 c = g.center();
  EXPECT_NEAR(c.x, 0.0, 1e-12);
  EXPECT_NEAR(c.y, 0.0, 1e-12);
  EXPECT_NEAR(c.z, 0.0, 1e-12);
}

TEST(UniformCircularArray, RespeakerSpacingIsFiveCentimeters) {
  const ArrayGeometry g = make_respeaker_array();
  ASSERT_EQ(g.num_mics(), 6u);
  // Adjacent chord distance must be exactly the requested 5 cm.
  for (std::size_t m = 0; m < 6; ++m) {
    const double d = g.mic(m).distance_to(g.mic((m + 1) % 6));
    EXPECT_NEAR(d, 0.05, 1e-12);
  }
}

TEST(UniformCircularArray, SixMicRadiusEqualsSpacing) {
  // For M = 6, chord = radius, so radius must be 5 cm.
  const ArrayGeometry g = make_respeaker_array();
  for (std::size_t m = 0; m < 6; ++m)
    EXPECT_NEAR(g.mic(m).norm(), 0.05, 1e-12);
}

TEST(UniformCircularArray, MicsLieInXyPlane) {
  const ArrayGeometry g = make_uniform_circular_array(8, 0.04_m);
  for (std::size_t m = 0; m < g.num_mics(); ++m)
    EXPECT_DOUBLE_EQ(g.mic(m).z, 0.0);
}

TEST(UniformCircularArray, InvalidParamsThrow) {
  EXPECT_THROW(make_uniform_circular_array(1, 0.05_m), std::invalid_argument);
  EXPECT_THROW(make_uniform_circular_array(6, 0.0_m), std::invalid_argument);
  EXPECT_THROW(make_uniform_circular_array(6, -1.0_m), std::invalid_argument);
}

TEST(ArrayGeometry, ApertureOfCircularArrayIsDiameter) {
  const ArrayGeometry g = make_respeaker_array();
  EXPECT_NEAR(g.aperture(), 0.10, 1e-12);
}

TEST(ArrayGeometry, MinAdjacentSpacing) {
  const ArrayGeometry g = make_respeaker_array();
  EXPECT_NEAR(g.min_adjacent_spacing(), 0.05, 1e-12);
  const ArrayGeometry single(std::vector<Vec3>{Vec3{}});
  EXPECT_DOUBLE_EQ(single.min_adjacent_spacing(), 0.0);
}

TEST(FarField, PaperExampleHolds) {
  // Paper Sec. III-A: f = 3000 Hz, array size 0.1 m -> far field at 0.18 m.
  const double l =
      far_field_min_distance(0.1_m, 3000.0_hz, 343.0_mps).value();
  EXPECT_NEAR(l, 2.0 * 0.1 * 0.1 / (343.0 / 3000.0), 1e-12);
  EXPECT_NEAR(l, 0.175, 0.01);
}

TEST(FarField, InvalidFrequencyThrows) {
  EXPECT_THROW((void)far_field_min_distance(0.1_m, 0.0_hz),
               std::invalid_argument);
}

TEST(GratingLobes, PaperFrequencyBudgetHolds) {
  // Paper Sec. V-A: 4-7 cm spacing forces the beep below ~3 kHz.
  EXPECT_NEAR(max_unambiguous_frequency(0.05_m).value(), 3430.0, 1.0);
  EXPECT_GT(max_unambiguous_frequency(0.04_m).value(), 4000.0);
  EXPECT_LT(max_unambiguous_frequency(0.07_m).value(), 2500.0);
}

TEST(GratingLobes, InvalidSpacingThrows) {
  EXPECT_THROW((void)max_unambiguous_frequency(0.0_m), std::invalid_argument);
}

TEST(GratingLobes, PaperBeepBandIsUnambiguous) {
  // The 2-3 kHz beep must stay below the ReSpeaker's grating-lobe limit.
  const ArrayGeometry g = make_respeaker_array();
  EXPECT_LT(3000.0,
            max_unambiguous_frequency(units::Meters{g.min_adjacent_spacing()})
                .value());
}

TEST(SpeedOfSound, TemperatureDependence) {
  EXPECT_NEAR(speed_of_sound_at(0.0_degc).value(), 331.3, 0.1);
  // The constant we use.
  EXPECT_NEAR(speed_of_sound_at(20.0_degc).value(), 343.2, 0.5);
  EXPECT_GT(speed_of_sound_at(35.0_degc), speed_of_sound_at(5.0_degc));
  // ~0.6 m/s per degree C around room temperature.
  EXPECT_NEAR(
      (speed_of_sound_at(21.0_degc) - speed_of_sound_at(20.0_degc)).value(),
      0.6, 0.1);
}

}  // namespace
}  // namespace echoimage::array
