// Beamformer weight computation and application (paper Sec. III-D).
//
// Three engines, all steerable to an arbitrary Direction:
//  * narrowband MVDR / delay-and-sum: complex weights at the chirp's center
//    frequency applied directly to per-channel analytic signals — the cheap
//    path used for imaging (one weight vector per virtual-plane grid);
//  * broadband true-time-delay-and-sum: exact fractional-sample alignment
//    via FFT phase ramps — the baseline for ablations;
//  * subband MVDR: per-STFT-bin weights — exact for the 40%-fractional-
//    bandwidth chirp, used when narrowband error matters.
#pragma once

#include <cstddef>
#include <vector>

#include "array/covariance.hpp"
#include "array/geometry.hpp"
#include "array/steering.hpp"
#include "dsp/stft.hpp"

namespace echoimage::array {

using echoimage::dsp::MultiChannelSignal;
using echoimage::dsp::Signal;

/// MVDR weights w = R^-1 a / (a^H R^-1 a) (paper Eq. 8), with relative
/// diagonal loading for numerical robustness. Throws std::invalid_argument
/// on shape mismatch.
[[nodiscard]] std::vector<Complex> mvdr_weights(const CMatrix& noise_cov,
                                                const std::vector<Complex>& steering,
                                                double diagonal_loading = 1e-6);

/// Delay-and-sum weights w = a / M (the MVDR solution for spatially white
/// noise).
[[nodiscard]] std::vector<Complex> das_weights(
    const std::vector<Complex>& steering);

/// Beamformer output y(t) = w^H x(t) on per-channel analytic signals.
/// Channels may differ in length; the output has the maximum length with
/// missing samples treated as zero.
[[nodiscard]] echoimage::dsp::ComplexSignal apply_weights(
    const std::vector<echoimage::dsp::ComplexSignal>& channels,
    const std::vector<Complex>& w);

/// Shift a real signal by `delay_s` seconds (positive = later) with an FFT
/// phase ramp — exact fractional-sample delay, circular edges zero-suppressed
/// by internal padding.
[[nodiscard]] Signal fractional_delay(std::span<const echoimage::dsp::Sample> x,
                                      double sample_rate, double delay_s);

/// Broadband true-time-delay-and-sum toward `dir`: advances each channel by
/// its TDOA and averages.
[[nodiscard]] Signal beamform_das_broadband(
    const MultiChannelSignal& x, const ArrayGeometry& geom,
    const Direction& dir, double sample_rate,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

/// Narrowband steering engine: computes per-channel analytic signals and the
/// (loaded, inverted) noise covariance once, then steers to many directions
/// cheaply. This is the workhorse of acoustic-image construction, where one
/// capture is steered to every grid of the imaging plane.
class NarrowbandBeamformer {
 public:
  /// `bandpassed` is the band-pass-filtered capture; the noise covariance is
  /// estimated from analytic snapshots [noise_first, noise_first +
  /// noise_count) (pass noise_count = 0 for the white-noise assumption).
  /// `active_mask` (empty = all) drops faulty channels before anything else:
  /// the beamformer then operates as the surviving subarray, so one dead
  /// microphone cannot poison the covariance of Eq. 8.
  NarrowbandBeamformer(const MultiChannelSignal& bandpassed,
                       double sample_rate, units::Hertz center_freq,
                       ArrayGeometry geom, std::size_t noise_first = 0,
                       std::size_t noise_count = 0,
                       units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps,
                       const ChannelMask& active_mask = {});

  /// Variant with an externally estimated noise covariance (e.g. from a
  /// separate noise-only capture — estimating it from a prefix of the same
  /// buffer is biased: the Hilbert transform is nonlocal, so a strong chirp
  /// later in the buffer leaks coherent tails into the prefix). The
  /// covariance is full-size; the mask reduces it to the subarray.
  NarrowbandBeamformer(const MultiChannelSignal& bandpassed,
                       double sample_rate, units::Hertz center_freq,
                       ArrayGeometry geom, CMatrix noise_covariance,
                       units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps,
                       const ChannelMask& active_mask = {});

  /// Variant taking per-channel complex (analytic or pulse-compressed)
  /// signals directly.
  NarrowbandBeamformer(std::vector<echoimage::dsp::ComplexSignal> channels,
                       double sample_rate, units::Hertz center_freq,
                       ArrayGeometry geom, CMatrix noise_covariance,
                       units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps,
                       const ChannelMask& active_mask = {});

  /// Geometry of the (possibly reduced) subarray this beamformer runs on.
  [[nodiscard]] const ArrayGeometry& geometry() const { return geom_; }
  [[nodiscard]] double sample_rate() const { return sample_rate_; }
  [[nodiscard]] double center_frequency_hz() const { return center_freq_hz_; }
  [[nodiscard]] std::size_t length() const { return length_; }
  [[nodiscard]] const std::vector<echoimage::dsp::ComplexSignal>& analytic()
      const {
    return analytic_;
  }
  [[nodiscard]] const CMatrix& noise_covariance() const { return noise_cov_; }

  /// MVDR weights toward `dir` at the center frequency.
  [[nodiscard]] std::vector<Complex> weights_mvdr(const Direction& dir) const;

  /// Delay-and-sum weights toward `dir`.
  [[nodiscard]] std::vector<Complex> weights_das(const Direction& dir) const;

  /// Allocation-reusing variant for hot loops: weights toward `dir`
  /// (MVDR or delay-and-sum) written into `out[0, M)`, with `scratch`
  /// holding the steering vector. Bit-identical to the returning overloads.
  void compute_weights(const Direction& dir, bool use_mvdr,
                       std::vector<Complex>& scratch, Complex* out) const;

  /// Steered analytic output y(t) = w^H x(t) with MVDR weights.
  [[nodiscard]] echoimage::dsp::ComplexSignal steer(const Direction& dir) const;

  /// Steered analytic output with delay-and-sum weights.
  [[nodiscard]] echoimage::dsp::ComplexSignal steer_das(
      const Direction& dir) const;

 private:
  ArrayGeometry geom_;
  double sample_rate_;
  double center_freq_hz_;
  double speed_of_sound_;
  std::size_t length_ = 0;
  std::vector<echoimage::dsp::ComplexSignal> analytic_;
  CMatrix noise_cov_;      ///< normalized, loaded
  CMatrix noise_cov_inv_;  ///< cached inverse for weight computation
};

/// Normalized spatial covariance of a (band-passed) noise-only capture:
/// analytic signal per channel, sample covariance over the full length.
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise);

/// Masked variant: covariance of the surviving subarray only (empty mask =
/// all channels).
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise,
                                          const ChannelMask& mask);

/// Subband MVDR: per-bin weights from per-bin steering vectors; noise
/// covariance estimated per bin over frames [noise_first_frame,
/// noise_first_frame + noise_frame_count) (0 count = white noise).
[[nodiscard]] Signal beamform_subband_mvdr(
    const MultiChannelSignal& x, const ArrayGeometry& geom,
    const Direction& dir, double sample_rate,
    const echoimage::dsp::StftParams& stft_params,
    std::size_t noise_first_frame = 0, std::size_t noise_frame_count = 0,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

/// Power beampattern of a weight vector: |w^H a(dir)|^2 for each direction.
[[nodiscard]] std::vector<double> beampattern(
    const ArrayGeometry& geom, const std::vector<Complex>& w,
    units::Hertz freq, const std::vector<Direction>& dirs,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

}  // namespace echoimage::array
