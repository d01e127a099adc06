#include "dsp/chirp.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace echoimage::dsp {

void ChirpParams::validate() const {
  if (duration.value() <= 0.0)
    throw std::invalid_argument("ChirpParams: duration must be positive");
  if (f_start.value() < 0.0 || f_end.value() < 0.0)
    throw std::invalid_argument("ChirpParams: frequencies must be >= 0");
  if (amplitude <= 0.0)
    throw std::invalid_argument("ChirpParams: amplitude must be positive");
  if (tukey_alpha < 0.0 || tukey_alpha > 1.0)
    throw std::invalid_argument("ChirpParams: tukey_alpha must be in [0,1]");
}

Chirp::Chirp(ChirpParams params) : params_(params) {
  params_.validate();
  sweep_rate_ = params_.sweep_rate().value();
}

double Chirp::value_at(double t) const {
  if (t < 0.0 || t > params_.duration.value()) return 0.0;
  // Phase of an LFM sweep: phi(t) = 2*pi*(f_start*t + (k/2)*t^2),
  // matching paper Eq. 2 with f0 = f_start and B/T = sweep rate k.
  const double phase =
      2.0 * std::numbers::pi *
      (params_.f_start.value() * t + 0.5 * sweep_rate_ * t * t);
  const double u = t / params_.duration.value();
  return params_.amplitude * tukey_window(u, params_.tukey_alpha) *
         std::cos(phase);
}

double Chirp::frequency_at(double t) const {
  const double tc = std::clamp(t, 0.0, params_.duration.value());
  return params_.f_start.value() + sweep_rate_ * tc;
}

Signal Chirp::sample(double sample_rate) const {
  const std::size_t n =
      seconds_to_samples(params_.duration.value(), sample_rate);
  Signal out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = value_at(static_cast<double>(i) / sample_rate);
  return out;
}

Signal Chirp::render_delayed(double sample_rate, std::size_t length,
                             double delay_s, double gain) const {
  Signal out(length, 0.0);
  add_delayed(out, sample_rate, delay_s, gain);
  return out;
}

void Chirp::add_delayed(Signal& buffer, double sample_rate, double delay_s,
                        double gain, double spectral_slope) const {
  if (buffer.empty()) return;
  // Non-zero support of s(t - delay) is [delay, delay + duration].
  const double first_t = std::max(0.0, delay_s);
  const double last_t = delay_s + params_.duration.value();
  if (last_t <= 0.0) return;
  const auto first_i =
      static_cast<std::size_t>(std::max(0.0, std::floor(first_t * sample_rate)));
  const std::size_t last_i = std::min(
      buffer.size(),
      static_cast<std::size_t>(std::max(0.0, std::ceil(last_t * sample_rate))) +
          1);
  const double fc = params_.center_frequency().value();
  for (std::size_t i = first_i; i < last_i; ++i) {
    const double t = static_cast<double>(i) / sample_rate - delay_s;
    double g = gain;
    if (spectral_slope != 0.0 && t >= 0.0 && t <= params_.duration.value())
      g *= std::pow(frequency_at(t) / fc, spectral_slope);
    buffer[i] += g * value_at(t);
  }
}

}  // namespace echoimage::dsp
