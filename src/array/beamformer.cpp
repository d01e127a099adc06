#include "array/beamformer.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"

namespace echoimage::array {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;
using echoimage::linalg::hdot;
using echoimage::linalg::multiply;

std::vector<Complex> mvdr_weights(const CMatrix& noise_cov,
                                  const std::vector<Complex>& steering,
                                  double diagonal_loading) {
  const std::size_t m = steering.size();
  if (noise_cov.rows() != m || noise_cov.cols() != m)
    throw std::invalid_argument("mvdr_weights: shape mismatch");
  CMatrix loaded = noise_cov;
  loaded.add_diagonal(diagonal_loading *
                      std::max(noise_cov.mean_diagonal_real(), 1e-12));
  // R^-1 a via a Hermitian solve (no explicit inverse needed here).
  std::vector<Complex> ra =
      echoimage::linalg::solve_hermitian_loaded(loaded, steering);
  const Complex denom = hdot(steering, ra);
  if (std::abs(denom) < 1e-30)
    throw std::runtime_error("mvdr_weights: degenerate steering vector");
  for (Complex& w : ra) w /= denom;
  return ra;
}

std::vector<Complex> das_weights(const std::vector<Complex>& steering) {
  std::vector<Complex> w = steering;
  const double inv_m = 1.0 / static_cast<double>(steering.size());
  for (Complex& v : w) v *= inv_m;
  return w;
}

ComplexSignal apply_weights(const std::vector<ComplexSignal>& channels,
                            const std::vector<Complex>& w) {
  if (channels.size() != w.size())
    throw std::invalid_argument("apply_weights: channel/weight mismatch");
  std::size_t n = 0;
  for (const ComplexSignal& c : channels) n = std::max(n, c.size());
  ComplexSignal y(n, Complex(0.0, 0.0));
  for (std::size_t m = 0; m < channels.size(); ++m) {
    const Complex wm = std::conj(w[m]);
    const ComplexSignal& x = channels[m];
    for (std::size_t t = 0; t < x.size(); ++t) y[t] += wm * x[t];
  }
  return y;
}

Signal fractional_delay(std::span<const echoimage::dsp::Sample> x,
                        double sample_rate, double delay_s) {
  using namespace echoimage::dsp;
  if (x.empty()) return {};
  // Pad so the shifted signal cannot wrap around the circular FFT buffer.
  const std::size_t guard =
      static_cast<std::size_t>(std::ceil(std::abs(delay_s) * sample_rate)) + 8;
  const std::size_t m = next_pow2(x.size() + 2 * guard);
  ComplexSignal spec(m, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i)
    spec[i + guard] = Complex(x[i], 0.0);
  fft_pow2_in_place(spec, false);
  for (std::size_t k = 0; k < m; ++k) {
    const double f = bin_frequency(k, m, sample_rate);
    // Delay by tau: X(f) * exp(-j 2 pi f tau).
    spec[k] *= std::polar(1.0, -2.0 * std::numbers::pi * f * delay_s);
  }
  fft_pow2_in_place(spec, true);
  Signal out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = spec[i + guard].real();
  return out;
}

Signal beamform_das_broadband(const MultiChannelSignal& x,
                              const ArrayGeometry& geom, const Direction& dir,
                              double sample_rate,
                              units::MetersPerSecond speed_of_sound) {
  if (x.num_channels() != geom.num_mics())
    throw std::invalid_argument(
        "beamform_das_broadband: channel/mic mismatch");
  const std::vector<double> taus = tdoas(geom, dir, speed_of_sound);
  Signal acc(x.length(), 0.0);
  for (std::size_t m = 0; m < x.num_channels(); ++m) {
    // Advance each channel by its TDOA so wavefronts from `dir` align.
    const Signal shifted =
        fractional_delay(x.channels[m], sample_rate, -taus[m]);
    echoimage::dsp::add_in_place(acc, shifted);
  }
  echoimage::dsp::scale_in_place(acc,
                                 1.0 / static_cast<double>(x.num_channels()));
  return acc;
}

namespace {

/// Validate an active-channel mask against the full channel count. Returns
/// true when the mask actually drops something.
bool check_mask(const ChannelMask& mask, std::size_t num_channels) {
  if (mask.empty()) return false;
  if (mask.size() != num_channels)
    throw std::invalid_argument("NarrowbandBeamformer: mask/channel mismatch");
  const std::size_t active = count_active(mask);
  if (active == 0)
    throw std::invalid_argument(
        "NarrowbandBeamformer: mask leaves no channel");
  return active < num_channels;
}

}  // namespace

NarrowbandBeamformer::NarrowbandBeamformer(const MultiChannelSignal& bandpassed,
                                           double sample_rate,
                                           units::Hertz center_freq,
                                           ArrayGeometry geom,
                                           std::size_t noise_first,
                                           std::size_t noise_count,
                                           units::MetersPerSecond speed_of_sound,
                                           const ChannelMask& active_mask)
    : sample_rate_(sample_rate),
      center_freq_hz_(center_freq.value()),
      speed_of_sound_(speed_of_sound.value()) {
  if (bandpassed.num_channels() != geom.num_mics())
    throw std::invalid_argument(
        "NarrowbandBeamformer: channel/mic mismatch");
  if (!bandpassed.is_rectangular())
    throw std::invalid_argument(
        "NarrowbandBeamformer: ragged multichannel capture");
  const bool reduced = check_mask(active_mask, bandpassed.num_channels());
  geom_ = reduced ? geom.subarray(active_mask) : std::move(geom);
  length_ = bandpassed.length();
  analytic_.reserve(geom_.num_mics());
  for (std::size_t c = 0; c < bandpassed.num_channels(); ++c) {
    if (reduced && !active_mask[c]) continue;  // skip faulty channels
    analytic_.push_back(
        echoimage::dsp::analytic_signal(bandpassed.channels[c]));
  }
  if (noise_count > 0) {
    noise_cov_ = normalized_covariance(analytic_, noise_first, noise_count);
  } else {
    noise_cov_ = white_noise_covariance(geom_.num_mics());
  }
  noise_cov_.add_diagonal(1e-3);  // loading keeps the inverse well-behaved
  noise_cov_inv_ = echoimage::linalg::inverse(noise_cov_);
}

NarrowbandBeamformer::NarrowbandBeamformer(const MultiChannelSignal& bandpassed,
                                           double sample_rate,
                                           units::Hertz center_freq,
                                           ArrayGeometry geom,
                                           CMatrix noise_covariance,
                                           units::MetersPerSecond speed_of_sound,
                                           const ChannelMask& active_mask)
    : sample_rate_(sample_rate),
      center_freq_hz_(center_freq.value()),
      speed_of_sound_(speed_of_sound.value()) {
  if (bandpassed.num_channels() != geom.num_mics())
    throw std::invalid_argument("NarrowbandBeamformer: channel/mic mismatch");
  if (!bandpassed.is_rectangular())
    throw std::invalid_argument(
        "NarrowbandBeamformer: ragged multichannel capture");
  if (noise_covariance.rows() != geom.num_mics() ||
      noise_covariance.cols() != geom.num_mics())
    throw std::invalid_argument(
        "NarrowbandBeamformer: covariance/mic mismatch");
  const bool reduced = check_mask(active_mask, bandpassed.num_channels());
  geom_ = reduced ? geom.subarray(active_mask) : std::move(geom);
  noise_cov_ = reduced ? masked_covariance(noise_covariance, active_mask)
                       : std::move(noise_covariance);
  length_ = bandpassed.length();
  analytic_.reserve(geom_.num_mics());
  for (std::size_t c = 0; c < bandpassed.num_channels(); ++c) {
    if (reduced && !active_mask[c]) continue;
    analytic_.push_back(
        echoimage::dsp::analytic_signal(bandpassed.channels[c]));
  }
  noise_cov_.add_diagonal(1e-3);
  noise_cov_inv_ = echoimage::linalg::inverse(noise_cov_);
}

NarrowbandBeamformer::NarrowbandBeamformer(
    std::vector<ComplexSignal> channels, double sample_rate,
    units::Hertz center_freq, ArrayGeometry geom, CMatrix noise_covariance,
    units::MetersPerSecond speed_of_sound, const ChannelMask& active_mask)
    : sample_rate_(sample_rate),
      center_freq_hz_(center_freq.value()),
      speed_of_sound_(speed_of_sound.value()) {
  if (channels.size() != geom.num_mics())
    throw std::invalid_argument("NarrowbandBeamformer: channel/mic mismatch");
  if (noise_covariance.rows() != geom.num_mics() ||
      noise_covariance.cols() != geom.num_mics())
    throw std::invalid_argument(
        "NarrowbandBeamformer: covariance/mic mismatch");
  const bool reduced = check_mask(active_mask, channels.size());
  geom_ = reduced ? geom.subarray(active_mask) : std::move(geom);
  noise_cov_ = reduced ? masked_covariance(noise_covariance, active_mask)
                       : std::move(noise_covariance);
  analytic_ = reduced ? select_channels(channels, active_mask)
                      : std::move(channels);
  length_ = analytic_.front().size();
  for (const ComplexSignal& c : analytic_)
    if (c.size() != length_)
      throw std::invalid_argument(
          "NarrowbandBeamformer: ragged complex channels");
  noise_cov_.add_diagonal(1e-3);
  noise_cov_inv_ = echoimage::linalg::inverse(noise_cov_);
}

CMatrix noise_covariance_of(const MultiChannelSignal& noise) {
  if (noise.num_channels() == 0 || noise.length() == 0)
    throw std::invalid_argument("noise_covariance_of: empty capture");
  std::vector<ComplexSignal> analytic;
  analytic.reserve(noise.num_channels());
  for (const Signal& c : noise.channels)
    analytic.push_back(echoimage::dsp::analytic_signal(c));
  return normalized_covariance(analytic, 0, noise.length());
}

CMatrix noise_covariance_of(const MultiChannelSignal& noise,
                            const ChannelMask& mask) {
  if (mask.empty()) return noise_covariance_of(noise);
  if (mask.size() != noise.num_channels())
    throw std::invalid_argument("noise_covariance_of: mask/channel mismatch");
  MultiChannelSignal kept;
  kept.channels.reserve(noise.num_channels());
  for (std::size_t c = 0; c < noise.num_channels(); ++c)
    if (mask[c]) kept.channels.push_back(noise.channels[c]);
  if (kept.channels.empty())
    throw std::invalid_argument("noise_covariance_of: mask leaves no channel");
  return noise_covariance_of(kept);
}

std::vector<Complex> NarrowbandBeamformer::weights_mvdr(
    const Direction& dir) const {
  const std::vector<Complex> a =
      steering_vector_hz(geom_, dir, units::Hertz{center_freq_hz_},
                         units::MetersPerSecond{speed_of_sound_});
  std::vector<Complex> ra = multiply(noise_cov_inv_, a);
  const Complex denom = hdot(a, ra);
  for (Complex& w : ra) w /= denom;
  return ra;
}

std::vector<Complex> NarrowbandBeamformer::weights_das(
    const Direction& dir) const {
  return das_weights(
      steering_vector_hz(geom_, dir, units::Hertz{center_freq_hz_},
                         units::MetersPerSecond{speed_of_sound_}));
}

void NarrowbandBeamformer::compute_weights(const Direction& dir,
                                           bool use_mvdr,
                                           std::vector<Complex>& scratch,
                                           Complex* out) const {
  steering_vector_into(geom_, dir,
                       2.0 * std::numbers::pi * center_freq_hz_,
                       units::MetersPerSecond{speed_of_sound_}, scratch);
  const std::size_t m = scratch.size();
  if (use_mvdr) {
    // R^-1 a / (a^H R^-1 a), in the operation order of multiply + hdot.
    Complex denom(0.0, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      out[i] = Complex(0.0, 0.0);
      for (std::size_t j = 0; j < m; ++j)
        out[i] += noise_cov_inv_(i, j) * scratch[j];
      denom += std::conj(scratch[i]) * out[i];
    }
    for (std::size_t i = 0; i < m; ++i) out[i] /= denom;
  } else {
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t i = 0; i < m; ++i) out[i] = scratch[i] * inv_m;
  }
}

ComplexSignal NarrowbandBeamformer::steer(const Direction& dir) const {
  return apply_weights(analytic_, weights_mvdr(dir));
}

ComplexSignal NarrowbandBeamformer::steer_das(const Direction& dir) const {
  return apply_weights(analytic_, weights_das(dir));
}

Signal beamform_subband_mvdr(const MultiChannelSignal& x,
                             const ArrayGeometry& geom, const Direction& dir,
                             double sample_rate,
                             const echoimage::dsp::StftParams& stft_params,
                             std::size_t noise_first_frame,
                             std::size_t noise_frame_count,
                             units::MetersPerSecond speed_of_sound) {
  using echoimage::dsp::Stft;
  if (x.num_channels() != geom.num_mics())
    throw std::invalid_argument("beamform_subband_mvdr: channel/mic mismatch");
  const std::size_t m = x.num_channels();
  std::vector<Stft> specs;
  specs.reserve(m);
  for (const Signal& c : x.channels)
    specs.push_back(echoimage::dsp::stft(c, stft_params));
  const std::size_t num_frames = specs.front().num_frames();
  const std::size_t num_bins = stft_params.num_bins();

  std::vector<ComplexSignal> out_frames(num_frames,
                                        ComplexSignal(num_bins));
  std::vector<Complex> snapshot(m);
  for (std::size_t k = 0; k < num_bins; ++k) {
    const double f = specs.front().bin_frequency(k, sample_rate);
    const std::vector<Complex> a =
        steering_vector_hz(geom, dir, units::Hertz{f}, speed_of_sound);
    // Per-bin noise covariance (or white) with diagonal loading.
    CMatrix r = CMatrix::identity(m);
    if (noise_frame_count > 0) {
      r = CMatrix(m, m);
      std::size_t used = 0;
      for (std::size_t fr = noise_first_frame;
           fr < std::min(num_frames, noise_first_frame + noise_frame_count);
           ++fr) {
        for (std::size_t c = 0; c < m; ++c) snapshot[c] = specs[c].frames()[fr][k];
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < m; ++j)
            r(i, j) += snapshot[i] * std::conj(snapshot[j]);
        ++used;
      }
      if (used > 0) {
        const double inv = 1.0 / static_cast<double>(used);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < m; ++j) r(i, j) *= inv;
      }
      const double d = r.mean_diagonal_real();
      if (d <= 1e-30) {
        r = CMatrix::identity(m);
      } else {
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < m; ++j) r(i, j) /= d;
      }
    }
    std::vector<Complex> w;
    try {
      w = mvdr_weights(r, a, 1e-3);
    } catch (const std::runtime_error&) {
      w = das_weights(a);
    }
    for (std::size_t fr = 0; fr < num_frames; ++fr) {
      Complex y(0.0, 0.0);
      for (std::size_t c = 0; c < m; ++c)
        y += std::conj(w[c]) * specs[c].frames()[fr][k];
      out_frames[fr][k] = y;
    }
  }
  const Stft combined(stft_params, x.length(), std::move(out_frames));
  return echoimage::dsp::istft(combined);
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
