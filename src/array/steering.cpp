#include "array/steering.hpp"

#include <cmath>
#include <numbers>

namespace echoimage::array {

Vec3 line_of_sight(const Direction& dir) {
  const double sp = std::sin(dir.phi);
  return Vec3{sp * std::cos(dir.theta), sp * std::sin(dir.theta),
              std::cos(dir.phi)};
}

Vec3 propagation_vector(const Direction& dir) {
  return line_of_sight(dir) * -1.0;
}

std::vector<Complex> steering_vector(const ArrayGeometry& geom,
                                     const Direction& dir, double omega,
                                     units::MetersPerSecond speed_of_sound) {
  std::vector<Complex> a;
  steering_vector_into(geom, dir, omega, speed_of_sound, a);
  return a;
}

std::vector<Complex> steering_vector_hz(const ArrayGeometry& geom,
                                        const Direction& dir, units::Hertz freq,
                                        units::MetersPerSecond speed_of_sound) {
  return steering_vector(geom, dir, 2.0 * std::numbers::pi * freq.value(),
                         speed_of_sound);
}

void steering_vector_into(const ArrayGeometry& geom, const Direction& dir,
                          double omega, units::MetersPerSecond speed_of_sound,
                          std::vector<Complex>& out) {
  out.resize(geom.num_mics());
  banded_steering_into(geom, line_of_sight(dir), omega, 0.0, 1,
                       speed_of_sound, out.data());
}

void banded_steering_into(const ArrayGeometry& geom, const Vec3& los,
                          double omega_0, double d_omega,
                          std::size_t num_bands,
                          units::MetersPerSecond speed_of_sound,
                          Complex* out) {
  const std::size_t m_count = geom.num_mics();
  const double k0 = omega_0 / speed_of_sound.value();
  const double dk = d_omega / speed_of_sound.value();
  for (std::size_t m = 0; m < m_count; ++m) {
    // a_m = exp(-j k^T p_m) with k = (omega / c) v(Omega) = -(omega / c) los:
    // conjugate of the arriving wave's phase so that w ~ a aligns the
    // channels.
    const double d = los.dot(geom.mic(m));
    double re = std::cos(k0 * d), im = std::sin(k0 * d);
    out[m] = Complex(re, im);
    if (num_bands < 2) continue;
    const double step_re = std::cos(dk * d), step_im = std::sin(dk * d);
    for (std::size_t b = 1; b < num_bands; ++b) {
      const double next_re = re * step_re - im * step_im;
      im = re * step_im + im * step_re;
      re = next_re;
      out[b * m_count + m] = Complex(re, im);
    }
  }
}

}  // namespace echoimage::array
