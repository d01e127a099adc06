// Spatial covariance estimation for MVDR beamforming.
//
// The MVDR weights (paper Eq. 8) need rho_n, the normalized covariance of
// the background noise across the M microphones. We estimate it from
// noise-only snapshots (samples before the probing chirp fires) of the
// analytic signals.
#pragma once

#include <compare>
#include <cstddef>
#include <span>
#include <vector>

#include "array/geometry.hpp"
#include "linalg/matrix.hpp"

namespace echoimage::array {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;
using echoimage::linalg::CMatrix;

/// Sample covariance R = (1/N) sum_t x(t) x(t)^H over snapshots
/// t in [first, first+count) of the per-channel analytic signals. Channels
/// shorter than the range contribute zeros. Throws std::invalid_argument
/// when `channels` is empty or count == 0.
[[nodiscard]] CMatrix spatial_covariance(
    const std::vector<ComplexSignal>& channels, std::size_t first,
    std::size_t count);

/// Covariance normalized so that the mean diagonal equals 1 (the paper's
/// "normalized covariance matrix of the background noise"). Degenerate
/// (all-zero) input falls back to the identity.
[[nodiscard]] CMatrix normalized_covariance(
    const std::vector<ComplexSignal>& channels, std::size_t first,
    std::size_t count);

/// Identity covariance of size M — the spatially-white-noise assumption
/// under which MVDR reduces to delay-and-sum.
[[nodiscard]] CMatrix white_noise_covariance(std::size_t num_mics);

/// Keep only the masked channels (empty mask = all), order preserved —
/// what the surviving subarray actually sees, rather than a full-size set
/// poisoned by a dead channel's zeros or garbage. Throws
/// std::invalid_argument on a mask length mismatch or when the mask leaves
/// no channel.
[[nodiscard]] std::vector<ComplexSignal> select_channels(
    const std::vector<ComplexSignal>& channels, const ChannelMask& mask);

/// Principal submatrix of a covariance over the active channels (same
/// mask rules as select_channels).
[[nodiscard]] CMatrix masked_covariance(const CMatrix& full,
                                        const ChannelMask& mask);

/// A time gate: snapshots [first, last). Empty when last <= first.
struct Gate {
  std::size_t first = 0;
  std::size_t last = 0;

  auto operator<=>(const Gate&) const = default;
};

/// Unnormalized gate covariances Q_g = sum_{t in g} x(t) x(t)^H of one set
/// of equal-length complex channels, one M x M Hermitian matrix per gate
/// (stored as its upper triangle). They turn gated beamformer energies into
/// quadratic forms: sum_{t in g} |w^H x(t)|^2 = w^H Q_g w, so the cost of an
/// energy no longer grows with the gate length.
///
/// Numerics: each Q_g is assembled from fixed kBlock-sample block sums plus
/// the partial blocks at its two ends — additions only, never a difference
/// of running sums — so it equals the direct per-sample sum up to
/// reassociation. Gates are clipped to the channel length; an empty gate
/// gives Q = 0 and therefore exactly zero energy.
class GateCovariances {
 public:
  static constexpr std::size_t kBlock = 16;

  /// Throws std::invalid_argument when `channels` is empty or ragged.
  GateCovariances(const std::vector<ComplexSignal>& channels,
                  std::span<const Gate> gates);

  /// Re(w^H Q_g w): the energy of the steered output w^H x(t) over gate g.
  /// `w` holds num_channels() weights.
  [[nodiscard]] double steered_energy(std::size_t g, const Complex* w) const;

  /// tr(Q_g) / M: the mean per-channel energy over gate g. Direction-free —
  /// pure range information, immune to inter-channel phase flips.
  [[nodiscard]] double incoherent_energy(std::size_t g) const;

 private:
  std::size_t m_ = 0;
  std::size_t packed_ = 0;  ///< m(m+1)/2 upper-triangle entries per gate
  std::vector<Complex> q_;  ///< gate-major packed upper triangles
};

}  // namespace echoimage::array
