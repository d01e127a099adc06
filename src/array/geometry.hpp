// Microphone array geometry (paper Sec. III-C and V-A).
//
// The reference device is a ReSpeaker-class uniform circular array: six
// microphones on a circle with ~5 cm adjacent spacing, speaker at the array
// center. Arbitrary geometries are supported for tests and ablations.
#pragma once

#include <cstddef>
#include <vector>

#include "units/units.hpp"

namespace echoimage::array {

namespace units = echoimage::units;

/// Speed of sound used throughout the paper's formulas (m/s, ~20 C air),
/// as a raw double for inner-loop math. Public signatures take the
/// strong-typed `kSpeedOfSoundMps` below.
inline constexpr double kSpeedOfSound = 343.0;

/// Strong-typed speed of sound — the default argument of every public
/// API that is parameterized on propagation speed.
inline constexpr units::MetersPerSecond kSpeedOfSoundMps{kSpeedOfSound};

/// Speed of sound in air at a given temperature: c = 331.3 *
/// sqrt(1 + T/273.15). A 10 C room-to-room difference shifts ranges by
/// ~1.7%, i.e. ~1 cm at the paper's 0.7 m operating distance — worth
/// calibrating on devices deployed across climates.
[[nodiscard]] units::MetersPerSecond speed_of_sound_at(
    units::Celsius temperature);

/// Inverse of `speed_of_sound_at`: the air temperature implied by a
/// measured speed of sound. Lets a recalibrator report *why* the ranges
/// shifted ("the room warmed 9 C") instead of a bare correction factor.
/// Throws std::invalid_argument for a non-positive speed.
[[nodiscard]] units::Celsius temperature_for_speed_of_sound(
    units::MetersPerSecond speed_of_sound);

/// 3-D point / vector with the handful of operations array processing needs.
struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  [[nodiscard]] Vec3 operator+(const Vec3& o) const {
    return {x + o.x, y + o.y, z + o.z};
  }
  [[nodiscard]] Vec3 operator-(const Vec3& o) const {
    return {x - o.x, y - o.y, z - o.z};
  }
  [[nodiscard]] Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  [[nodiscard]] double dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  [[nodiscard]] double norm() const;
  [[nodiscard]] double distance_to(const Vec3& o) const {
    return (*this - o).norm();
  }
  /// Unit vector in the same direction; throws std::domain_error for the
  /// zero vector.
  [[nodiscard]] Vec3 normalized() const;
};

/// Per-microphone boolean mask: true = the channel is healthy and
/// participates in beamforming. An empty mask means "all active"
/// throughout the array layer.
using ChannelMask = std::vector<bool>;

/// Number of true entries of a mask.
[[nodiscard]] std::size_t count_active(const ChannelMask& mask);

/// Positions of the M microphones (paper Eq. 3-4), origin at array center.
class ArrayGeometry {
 public:
  ArrayGeometry() = default;
  explicit ArrayGeometry(std::vector<Vec3> mics);

  [[nodiscard]] std::size_t num_mics() const { return mics_.size(); }
  [[nodiscard]] const Vec3& mic(std::size_t m) const { return mics_[m]; }
  [[nodiscard]] const std::vector<Vec3>& mics() const { return mics_; }

  /// Geometry of the surviving subarray: only microphones whose mask entry
  /// is true, in the original order. Throws std::invalid_argument when the
  /// mask length mismatches or no microphone survives. An empty mask
  /// returns the full array.
  [[nodiscard]] ArrayGeometry subarray(const ChannelMask& mask) const;

  /// Centroid of the microphone positions.
  [[nodiscard]] Vec3 center() const;

  /// Largest pairwise microphone distance (the array aperture).
  [[nodiscard]] double aperture() const;

  /// Smallest adjacent-pair distance (for the grating-lobe criterion).
  [[nodiscard]] double min_adjacent_spacing() const;

 private:
  std::vector<Vec3> mics_;
};

/// Uniform circular array of `num_mics` microphones in the x-y plane
/// (z = 0), centered at the origin, with the given *adjacent* microphone
/// spacing (paper: 6 mics, ~5 cm spacing -> radius 5 cm).
[[nodiscard]] ArrayGeometry make_uniform_circular_array(
    std::size_t num_mics, units::Meters adjacent_spacing);

/// ReSpeaker-like default: 6 mics, 5 cm adjacent spacing.
[[nodiscard]] ArrayGeometry make_respeaker_array();

/// Far-field minimum distance (paper Eq. 1): L >= 2 d^2 / lambda, where d is
/// the array aperture and lambda the wavelength of `freq`.
[[nodiscard]] units::Meters far_field_min_distance(
    units::Meters aperture, units::Hertz freq,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

/// Highest frequency free of grating lobes for the given microphone spacing
/// (spacing < lambda/2, paper Sec. V-A).
[[nodiscard]] units::Hertz max_unambiguous_frequency(
    units::Meters spacing,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

}  // namespace echoimage::array
