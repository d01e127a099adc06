// Beamformer weight computation and application (paper Sec. III-D).
//
// One weight solver (solve_weights: narrowband MVDR / delay-and-sum) and
// one engine that applies its complex weights at the chirp's center
// frequency to per-channel analytic (or pulse-compressed) signals,
// steerable to an arbitrary Direction. Imaging solves one weight vector
// per virtual-plane grid and band; distance estimation steers one look
// direction.
#pragma once

#include <cstddef>
#include <vector>

#include "array/covariance.hpp"
#include "array/geometry.hpp"
#include "array/steering.hpp"

namespace echoimage::array {

using echoimage::dsp::MultiChannelSignal;

/// Delay-and-sum weights w = a / M (the MVDR solution for spatially white
/// noise).
[[nodiscard]] std::vector<Complex> das_weights(
    const std::vector<Complex>& steering);

/// Inverse of the noise covariance as the beamformer uses it: the principal
/// submatrix over `active_mask`'s channels (empty = all), diagonally loaded
/// by 1e-3 so the inverse stays well-behaved. Throws std::invalid_argument
/// on a mask length mismatch or a mask that leaves no channel.
[[nodiscard]] CMatrix loaded_inverse(const CMatrix& noise_covariance,
                                     const ChannelMask& active_mask);

/// Weights toward the steering vector `a` (M entries) into `out[0, M)`:
/// MVDR w = R^-1 a / (a^H R^-1 a) (paper Eq. 8) given the loaded inverse
/// `r_inv`, or delay-and-sum w = a / M. The MVDR denominator is real for a
/// Hermitian R^-1, so the solve scales by the reciprocal of its real part
/// (the discarded imaginary part is rounding, ~1e-16 relative); the
/// product R^-1 a runs in explicit real arithmetic. The one weight solver:
/// the imaging weight fill and NarrowbandBeamformer both call it.
void solve_weights(const CMatrix& r_inv, const Complex* a, bool use_mvdr,
                   Complex* out);

/// Narrowband steering engine: holds per-channel complex signals and the
/// (loaded, inverted) noise covariance, then steers to many directions
/// cheaply. This is the workhorse of acoustic-image construction, where one
/// capture is steered to every grid of the imaging plane.
class NarrowbandBeamformer {
 public:
  /// `channels` are per-channel complex (analytic or pulse-compressed)
  /// signals of equal length. `noise_covariance` is full-size and
  /// estimated externally, e.g. from a separate noise-only capture —
  /// estimating it from a prefix of the same buffer is biased: the Hilbert
  /// transform is nonlocal, so a strong chirp later in the buffer leaks
  /// coherent tails into the prefix. `active_mask` (empty = all) drops
  /// faulty channels before anything else: the beamformer then operates as
  /// the surviving subarray, so one dead microphone cannot poison the
  /// covariance of Eq. 8. Masked-out channels are never read and may be
  /// passed empty.
  NarrowbandBeamformer(std::vector<echoimage::dsp::ComplexSignal> channels,
                       units::Hertz center_freq, ArrayGeometry geom,
                       CMatrix noise_covariance,
                       units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps,
                       const ChannelMask& active_mask = {});

  [[nodiscard]] std::size_t length() const { return length_; }
  /// The surviving subarray's channels.
  [[nodiscard]] const std::vector<echoimage::dsp::ComplexSignal>& analytic()
      const {
    return analytic_;
  }

  /// solve_weights toward `dir` written into `out[0, M)`, with `scratch`
  /// holding the steering vector. Allocation-free for hot loops.
  void compute_weights(const Direction& dir, bool use_mvdr,
                       std::vector<Complex>& scratch, Complex* out) const;

  /// Steered output y(t) = w^H x(t) with compute_weights' weights.
  [[nodiscard]] echoimage::dsp::ComplexSignal steer(const Direction& dir,
                                                    bool use_mvdr) const;

 private:
  ArrayGeometry geom_;
  double center_freq_hz_;
  double speed_of_sound_;
  std::size_t length_ = 0;
  std::vector<echoimage::dsp::ComplexSignal> analytic_;
  CMatrix noise_cov_inv_;  ///< inverse of the normalized, loaded covariance
};

/// Normalized spatial covariance of a (band-passed) noise-only capture:
/// analytic signal per channel, sample covariance over the full length.
[[nodiscard]] CMatrix noise_covariance_of(const MultiChannelSignal& noise);

/// Power beampattern of a weight vector: |w^H a(dir)|^2 for each direction.
[[nodiscard]] std::vector<double> beampattern(
    const ArrayGeometry& geom, const std::vector<Complex>& w,
    units::Hertz freq, const std::vector<Direction>& dirs,
    units::MetersPerSecond speed_of_sound = kSpeedOfSoundMps);

}  // namespace echoimage::array
