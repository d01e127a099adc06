#include "array/beamformer.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/hilbert.hpp"

namespace echoimage::array {

using echoimage::dsp::ComplexSignal;
using echoimage::linalg::hdot;

std::vector<Complex> das_weights(const std::vector<Complex>& steering) {
  std::vector<Complex> w = steering;
  const double inv_m = 1.0 / static_cast<double>(steering.size());
  for (Complex& v : w) v *= inv_m;
  return w;
}

namespace {

/// Beamformer output y(t) = w^H x(t) over equal-length channels.
ComplexSignal apply_weights(const std::vector<ComplexSignal>& channels,
                            const std::vector<Complex>& w) {
  ComplexSignal y(channels.front().size(), Complex(0.0, 0.0));
  for (std::size_t m = 0; m < channels.size(); ++m) {
    const Complex wm = std::conj(w[m]);
    const ComplexSignal& x = channels[m];
    for (std::size_t t = 0; t < x.size(); ++t) y[t] += wm * x[t];
  }
  return y;
}

/// Validate an active-channel mask against the full channel count. Returns
/// true when the mask actually drops something.
bool check_mask(const ChannelMask& mask, std::size_t num_channels) {
  if (mask.empty()) return false;
  if (mask.size() != num_channels)
    throw std::invalid_argument("beamformer: mask/channel mismatch");
  const std::size_t active = count_active(mask);
  if (active == 0)
    throw std::invalid_argument("beamformer: mask leaves no channel");
  return active < num_channels;
}

}  // namespace

NarrowbandBeamformer::NarrowbandBeamformer(
    std::vector<ComplexSignal> channels, units::Hertz center_freq,
    ArrayGeometry geom, CMatrix noise_covariance,
    units::MetersPerSecond speed_of_sound, const ChannelMask& active_mask)
    : center_freq_hz_(center_freq.value()),
      speed_of_sound_(speed_of_sound.value()) {
  if (channels.size() != geom.num_mics())
    throw std::invalid_argument("NarrowbandBeamformer: channel/mic mismatch");
  if (noise_covariance.rows() != geom.num_mics() ||
      noise_covariance.cols() != geom.num_mics())
    throw std::invalid_argument(
        "NarrowbandBeamformer: covariance/mic mismatch");
  const bool reduced = check_mask(active_mask, channels.size());
  geom_ = reduced ? geom.subarray(active_mask) : std::move(geom);
  analytic_ = reduced ? select_channels(channels, active_mask)
                      : std::move(channels);
  length_ = analytic_.front().size();
  for (const ComplexSignal& c : analytic_)
    if (c.size() != length_)
      throw std::invalid_argument(
          "NarrowbandBeamformer: ragged complex channels");
  noise_cov_inv_ = loaded_inverse(noise_covariance, active_mask);
}

CMatrix loaded_inverse(const CMatrix& noise_covariance,
                       const ChannelMask& active_mask) {
  CMatrix cov = check_mask(active_mask, noise_covariance.rows())
                    ? masked_covariance(noise_covariance, active_mask)
                    : noise_covariance;
  cov.add_diagonal(1e-3);  // loading keeps the inverse well-behaved
  return echoimage::linalg::inverse(cov);
}

void solve_weights(const CMatrix& r_inv, const Complex* a, bool use_mvdr,
                   Complex* out) {
  const std::size_t m = r_inv.rows();
  if (!use_mvdr) {
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t i = 0; i < m; ++i) out[i] = a[i] * inv_m;
    return;
  }
  // y = R^-1 a, then w = y / Re(a^H y).
  double denom = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const Complex* r = &r_inv(i, 0);
    double y_re = 0.0, y_im = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      y_re += r[j].real() * a[j].real() - r[j].imag() * a[j].imag();
      y_im += r[j].real() * a[j].imag() + r[j].imag() * a[j].real();
    }
    out[i] = Complex(y_re, y_im);
    denom += a[i].real() * y_re + a[i].imag() * y_im;
  }
  const double scale = 1.0 / denom;
  for (std::size_t i = 0; i < m; ++i) out[i] *= scale;
}

CMatrix noise_covariance_of(const MultiChannelSignal& noise) {
  if (noise.num_channels() == 0 || noise.length() == 0)
    throw std::invalid_argument("noise_covariance_of: empty capture");
  std::vector<ComplexSignal> analytic;
  analytic.reserve(noise.num_channels());
  for (const echoimage::dsp::Signal& c : noise.channels)
    analytic.push_back(echoimage::dsp::analytic_signal(c));
  return normalized_covariance(analytic, 0, noise.length());
}

void NarrowbandBeamformer::compute_weights(const Direction& dir,
                                           bool use_mvdr,
                                           std::vector<Complex>& scratch,
                                           Complex* out) const {
  steering_vector_into(geom_, dir,
                       2.0 * std::numbers::pi * center_freq_hz_,
                       units::MetersPerSecond{speed_of_sound_}, scratch);
  solve_weights(noise_cov_inv_, scratch.data(), use_mvdr, out);
}

ComplexSignal NarrowbandBeamformer::steer(const Direction& dir,
                                          bool use_mvdr) const {
  std::vector<Complex> a;
  std::vector<Complex> w(analytic_.size());
  compute_weights(dir, use_mvdr, a, w.data());
  return apply_weights(analytic_, w);
}

std::vector<double> beampattern(const ArrayGeometry& geom,
                                const std::vector<Complex>& w,
                                units::Hertz freq,
                                const std::vector<Direction>& dirs,
                                units::MetersPerSecond speed_of_sound) {
  std::vector<double> out;
  out.reserve(dirs.size());
  for (const Direction& d : dirs) {
    const std::vector<Complex> a =
        steering_vector_hz(geom, d, freq, speed_of_sound);
    out.push_back(std::norm(hdot(w, a)));
  }
  return out;
}

}  // namespace echoimage::array
