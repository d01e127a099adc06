// Test-side reference formulas for the array module, kept independent of
// the code they check: the spherical-angle round trip and the complex-
// division MVDR solve that imaging's trig-free weight fill replaced, plus
// the TDOA and outer-product helpers the library itself no longer needs.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "array/steering.hpp"
#include "linalg/matrix.hpp"

namespace echoimage::array::reference {

using echoimage::linalg::CMatrix;

/// Spherical angles of the direction from the origin toward `p` (paper
/// Fig. 1): phi from +z, theta from +x toward +y.
inline Direction direction_to_point(const Vec3& p) {
  const double r = p.norm();
  return Direction{std::atan2(p.y, p.x),
                   std::acos(std::clamp(p.z / r, -1.0, 1.0))};
}

/// TDOAs tau_m = v^T(Omega) p_m / c of every microphone relative to the
/// origin, v the propagation vector (paper Eq. 5-6, physical sign).
inline std::vector<double> tdoas(
    const ArrayGeometry& geom, const Direction& dir,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps) {
  const double sp = std::sin(dir.phi);
  const Vec3 v{-sp * std::cos(dir.theta), -sp * std::sin(dir.theta),
               -std::cos(dir.phi)};
  std::vector<double> out(geom.num_mics());
  for (std::size_t m = 0; m < geom.num_mics(); ++m)
    out[m] = v.dot(geom.mic(m)) / speed_of_sound.value();
  return out;
}

/// Outer product x y^H.
inline CMatrix outer(const std::vector<Complex>& x,
                     const std::vector<Complex>& y) {
  CMatrix m(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < y.size(); ++j)
      m(i, j) = x[i] * std::conj(y[j]);
  return m;
}

/// Textbook weights toward the point `p` at angular frequency `omega`:
/// angles by acos/atan2, the line of sight by sin/cos, a_m =
/// exp(-j omega tau_m), then MVDR w = R^-1 a / (a^H R^-1 a) in complex
/// arithmetic with a complex division (or delay-and-sum w = a / M).
/// `r_inv` is the loaded inverse over `geom`'s microphones.
inline std::vector<Complex> textbook_weights(
    const ArrayGeometry& geom, const Vec3& p, double omega,
    units::MetersPerSecond speed_of_sound, const CMatrix& r_inv,
    bool use_mvdr) {
  const std::vector<double> taus =
      tdoas(geom, direction_to_point(p), speed_of_sound);
  const std::size_t m = geom.num_mics();
  std::vector<Complex> a(m), w(m);
  for (std::size_t i = 0; i < m; ++i) a[i] = std::polar(1.0, -omega * taus[i]);
  if (!use_mvdr) {
    for (std::size_t i = 0; i < m; ++i)
      w[i] = a[i] / static_cast<double>(m);
    return w;
  }
  Complex denom(0.0, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) w[i] += r_inv(i, j) * a[j];
    denom += std::conj(a[i]) * w[i];
  }
  for (Complex& v : w) v /= denom;
  return w;
}

}  // namespace echoimage::array::reference
