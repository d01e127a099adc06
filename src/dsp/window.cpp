#include "dsp/window.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace echoimage::dsp {

double tukey_window(double u, double alpha) {
  if (u < 0.0 || u > 1.0) return 0.0;
  constexpr double pi = std::numbers::pi;
  const double a = std::clamp(alpha, 0.0, 1.0);
  if (a <= 0.0) return 1.0;
  if (u < a / 2.0) return 0.5 * (1.0 + std::cos(pi * (2.0 * u / a - 1.0)));
  if (u > 1.0 - a / 2.0)
    return 0.5 * (1.0 + std::cos(pi * (2.0 * (1.0 - u) / a - 1.0)));
  return 1.0;
}

}  // namespace echoimage::dsp
