#include "array/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace echoimage::array {

double Vec3::norm() const { return std::sqrt(x * x + y * y + z * z); }

Vec3 Vec3::normalized() const {
  const double n = norm();
  if (n <= 0.0) throw std::domain_error("Vec3: cannot normalize zero vector");
  return {x / n, y / n, z / n};
}

ArrayGeometry::ArrayGeometry(std::vector<Vec3> mics) : mics_(std::move(mics)) {
  if (mics_.empty())
    throw std::invalid_argument("ArrayGeometry: need at least one microphone");
}

std::size_t count_active(const ChannelMask& mask) {
  return static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
}

ArrayGeometry ArrayGeometry::subarray(const ChannelMask& mask) const {
  if (mask.empty()) return *this;
  if (mask.size() != mics_.size())
    throw std::invalid_argument("subarray: mask/mic count mismatch");
  std::vector<Vec3> kept;
  kept.reserve(mics_.size());
  for (std::size_t m = 0; m < mics_.size(); ++m)
    if (mask[m]) kept.push_back(mics_[m]);
  if (kept.empty())
    throw std::invalid_argument("subarray: mask leaves no microphone");
  return ArrayGeometry(std::move(kept));
}

Vec3 ArrayGeometry::center() const {
  Vec3 c;
  for (const Vec3& m : mics_) c = c + m;
  return c * (1.0 / static_cast<double>(mics_.size()));
}

double ArrayGeometry::aperture() const {
  double a = 0.0;
  for (std::size_t i = 0; i < mics_.size(); ++i)
    for (std::size_t j = i + 1; j < mics_.size(); ++j)
      a = std::max(a, mics_[i].distance_to(mics_[j]));
  return a;
}

double ArrayGeometry::min_adjacent_spacing() const {
  if (mics_.size() < 2) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mics_.size(); ++i) {
    double nearest = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < mics_.size(); ++j) {
      if (i == j) continue;
      nearest = std::min(nearest, mics_[i].distance_to(mics_[j]));
    }
    best = std::min(best, nearest);
  }
  return best;
}

ArrayGeometry make_uniform_circular_array(std::size_t num_mics,
                                          units::Meters adjacent_spacing) {
  if (num_mics < 2)
    throw std::invalid_argument("uniform circular array: need >= 2 mics");
  if (adjacent_spacing.value() <= 0.0)
    throw std::invalid_argument("uniform circular array: spacing must be > 0");
  // Chord length c between adjacent mics on a circle of radius r spanning
  // angle 2*pi/M: c = 2 r sin(pi / M).
  const double r = adjacent_spacing.value() /
                   (2.0 * std::sin(std::numbers::pi /
                                   static_cast<double>(num_mics)));
  std::vector<Vec3> mics;
  mics.reserve(num_mics);
  for (std::size_t m = 0; m < num_mics; ++m) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(m) /
                       static_cast<double>(num_mics);
    mics.push_back(Vec3{r * std::cos(ang), r * std::sin(ang), 0.0});
  }
  return ArrayGeometry(std::move(mics));
}

ArrayGeometry make_respeaker_array() {
  return make_uniform_circular_array(6, units::Meters{0.05});
}

units::MetersPerSecond speed_of_sound_at(units::Celsius temperature) {
  return units::MetersPerSecond{
      331.3 * std::sqrt(1.0 + temperature.value() / 273.15)};
}

units::Celsius temperature_for_speed_of_sound(
    units::MetersPerSecond speed_of_sound) {
  if (speed_of_sound.value() <= 0.0)
    throw std::invalid_argument(
        "temperature_for_speed_of_sound: speed must be > 0");
  const double r = speed_of_sound.value() / 331.3;
  return units::Celsius{273.15 * (r * r - 1.0)};
}

units::Meters far_field_min_distance(units::Meters aperture, units::Hertz freq,
                                     units::MetersPerSecond speed_of_sound) {
  if (freq.value() <= 0.0)
    throw std::invalid_argument("far_field_min_distance: freq must be > 0");
  // Dimension algebra carries the proof: (m/s) / (1/s) = m, m * m / m = m.
  const units::Meters lambda = speed_of_sound / freq;
  return 2.0 * aperture * aperture / lambda;
}

units::Hertz max_unambiguous_frequency(units::Meters spacing,
                                       units::MetersPerSecond speed_of_sound) {
  if (spacing.value() <= 0.0)
    throw std::invalid_argument(
        "max_unambiguous_frequency: spacing must be > 0");
  // spacing < lambda / 2  <=>  f < c / (2 * spacing)
  return speed_of_sound / (2.0 * spacing);
}

}  // namespace echoimage::array
