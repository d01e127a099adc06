// Acoustic image construction (paper Sec. V-C).
//
// Given the estimated user-array distance D_p, a virtual square imaging
// plane parallel to the x-o-z plane is placed at y = D_p and divided into
// K = G x G grids. For each grid k the array is steered to the grid's
// direction (Eq. 11-12); the pixel value is the L2 norm of the beamformed
// segment time-gated around the grid's round-trip delay 2 D_k / c, which
// isolates echoes whose path length matches the grid — echoes from clutter
// elsewhere fail the gate and are suppressed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "array/beamformer.hpp"
#include "array/weight_cache.hpp"
#include "core/distance.hpp"
#include "dsp/biquad.hpp"
#include "ml/tensor.hpp"
#include "obs/observability.hpp"
#include "runtime/thread_pool.hpp"

namespace echoimage::core {

namespace units = echoimage::units;
using echoimage::ml::Matrix2D;

struct ImagingConfig {
  double sample_rate = 48000.0;
  echoimage::dsp::ChirpParams chirp{};
  double bandpass_low_hz = 2000.0;
  double bandpass_high_hz = 3000.0;
  std::size_t bandpass_order = 4;
  /// Image resolution: grid_size x grid_size grids of grid_spacing_m
  /// (paper: 180x180 of 1 cm; default here 48x48 of 1.5 cm for tractable
  /// full-population studies — see DESIGN.md).
  std::size_t grid_size = 48;
  double grid_spacing_m = 0.015;
  /// Vertical center of the imaging plane relative to the array (m).
  double plane_center_z_m = 0.15;
  /// Time-gate slack d' on each side of the grid's round-trip delay (s).
  double gate_halfwidth_s = 0.0015;
  bool use_mvdr = true;  ///< false = delay-and-sum ablation
  /// Zero out the direct speaker->mic sound before imaging. The direct
  /// chirp is ~50 dB above body echoes and the Hilbert transform smears its
  /// analytic tails across the echo window, so self-interference removal
  /// (standard in active-sonar front ends) markedly sharpens the image.
  bool suppress_direct = true;
  double direct_guard_s = 0.0005;  ///< extra zeroed margin after the chirp
  /// Pulse compression: matched-filter each channel against the chirp
  /// before beamforming and gating (correlation and beamforming commute).
  /// Compresses each echo to ~1/bandwidth, giving ~17 cm range resolution
  /// through the gate and full processing gain against noise. Off = the
  /// naive raw-signal gating baseline for ablations.
  bool pulse_compression = true;
  /// Blend of incoherent (phase-free, per-mic) gated energy into each
  /// pixel: pixel^2 = (1-mix)*coherent + mix*incoherent. The incoherent
  /// term is a pure range profile — highly stable across small pose
  /// changes — while the coherent term carries the angular detail; mixing
  /// trades resolution for session robustness. 0 = paper's fully coherent
  /// pixel.
  double incoherent_mix = 0.85;
  /// Anchor the range gates to the measured echo time rather than to
  /// absolute round-trip delays: gate(k) = tau_echo + 2 (D_k - D_p) / c.
  /// Any constant bias in echo detection then cancels out of the image,
  /// leaving only second-order sensitivity to the distance estimate.
  bool anchor_to_echo = false;
  /// Number of spectral subbands. `construct_bands` returns one image per
  /// subband — body materials reflect 2 kHz and 3 kHz differently, so the
  /// per-band images carry an independent spectral identity channel.
  /// `construct` sums band energies instead (frequency compounding).
  /// 1 = single full-band image.
  std::size_t num_subbands = 5;
  units::MetersPerSecond speed_of_sound = echoimage::array::kSpeedOfSoundMps;
  /// Workers for the per-channel front-end and the per-row pixel sweep.
  /// 1 = the historical serial path (no pool, no synchronization); 0 = one
  /// per hardware thread. Any value produces bit-identical images: tasks
  /// write disjoint output slots and bands accumulate in a fixed order
  /// (see DESIGN.md, "Threading model").
  std::size_t num_threads = 1;
  /// Memoize steering + MVDR weight solves across beeps as one dense table
  /// per band (see array/weight_cache.hpp). Numerically free: a hit
  /// returns exactly the bits a recompute would produce.
  bool use_weight_cache = true;
  /// Plane-distance quantum of the cache key (<= 0: exact bit pattern).
  units::Meters weight_cache_quantum{1e-3};
  /// Resident weight vectors (table rows) across all cached tables.
  std::size_t weight_cache_capacity = 1u << 18;
};

/// One acoustic image: a stack of per-spectral-band grids. Single-band
/// configurations simply have bands.size() == 1.
struct AcousticImage {
  std::vector<Matrix2D> bands;
};

/// Grid geometry helper shared with the data augmenter: distance from the
/// k-th grid (row r, col c) of a plane at distance D_p to the origin.
[[nodiscard]] units::Meters grid_distance(const ImagingConfig& config,
                                          std::size_t row, std::size_t col,
                                          units::Meters plane_distance);

class AcousticImager {
 public:
  AcousticImager(ImagingConfig config, ArrayGeometry geometry);

  [[nodiscard]] const ImagingConfig& config() const { return config_; }

  /// Worker pool of the imaging loop (null on the serial path). Shared so
  /// sibling stages (e.g. the augmenter) can reuse the same workers.
  [[nodiscard]] const std::shared_ptr<echoimage::runtime::ThreadPool>& pool()
      const {
    return pool_;
  }

  /// The weight cache (null when disabled); exposes hit/miss accounting
  /// for benches and tests.
  [[nodiscard]] const echoimage::array::WeightCache* weight_cache() const {
    return weight_cache_.get();
  }

  /// Wire this imager into the system observability bundle: per-band and
  /// per-grid-row spans, image/band counters, and the weight cache's
  /// accounting rebound into `obs->metrics()`. Null (the default) keeps
  /// every site a dead branch. Call before first use.
  void attach_observability(std::shared_ptr<const obs::Observability> obs);

  /// What the MVDR solve needs from one noise-only capture, per spectral
  /// band: built once per attempt and shared by every beep imaged against
  /// it (the noise front end — full-band and sub-band filtfilt, analytic
  /// signal, normalized covariance — is the same for every beep).
  struct NoiseBand {
    /// Loaded inverse R_b^-1 over the active channels (see
    /// array::loaded_inverse).
    echoimage::array::CMatrix inverse;
    /// Weight-cache fingerprint of the full-size normalized covariance
    /// (before masking and loading).
    std::uint64_t fingerprint = 0;
  };
  struct NoiseModel {
    echoimage::array::ChannelMask active_mask;  ///< empty = all channels
    std::vector<NoiseBand> bands;               ///< one per subband
  };

  /// The per-band noise model of `noise_only` for imaging with the
  /// `active_mask` subarray (empty = all). An empty capture, or one whose
  /// channel count differs from the array's, means no noise reference: the
  /// covariance is then spatially white. Throws std::invalid_argument on a
  /// mask length mismatch or a mask that leaves no channel.
  [[nodiscard]] NoiseModel noise_model(
      const MultiChannelSignal& noise_only,
      const echoimage::array::ChannelMask& active_mask = {}) const;

  /// Per-subband images of one beep capture (the pipeline's path), so the
  /// classifier sees the body's frequency-dependent reflectivity.
  /// `tau_direct_s` anchors the time axis (emission time = direct-path
  /// arrival minus the speaker-mic flight, which is negligible at array
  /// scale); `noise` (from noise_model) feeds the MVDR noise covariance and
  /// names the active subarray the image is formed with. `tau_echo_s`
  /// (< 0 = unknown) enables echo anchoring when `anchor_to_echo` is set.
  [[nodiscard]] std::vector<Matrix2D> construct_bands(
      const MultiChannelSignal& beep, units::Meters plane_distance,
      double tau_direct_s, const NoiseModel& noise,
      double tau_echo_s = -1.0) const;

  /// One-shot forms: build noise_model(noise_only, active_mask) for this
  /// beep alone, then image with it. `noise_only` is optional; an empty
  /// `active_mask` images with every channel, otherwise the surviving
  /// subarray when the health gate has condemned channels. `construct`
  /// returns the acoustic image AI_l with the band energies compounded.
  [[nodiscard]] Matrix2D construct(
      const MultiChannelSignal& beep, units::Meters plane_distance,
      double tau_direct_s = 0.0, const MultiChannelSignal& noise_only = {},
      double tau_echo_s = -1.0,
      const echoimage::array::ChannelMask& active_mask = {}) const;
  [[nodiscard]] std::vector<Matrix2D> construct_bands(
      const MultiChannelSignal& beep, units::Meters plane_distance,
      double tau_direct_s = 0.0,
      const MultiChannelSignal& noise_only = {},
      double tau_echo_s = -1.0,
      const echoimage::array::ChannelMask& active_mask = {}) const;

  /// The cold-image weight fill of grid row `row` of the plane at
  /// `plane_distance`, against `noise`'s inverses and subarray: for each
  /// pixel, steering from its unit vector with phases shared across the
  /// bands (array::banded_steering_into), then one array::solve_weights
  /// per band into the pixel's row of `tables[b]` (null = band skipped).
  /// Band 0's sweep calls it on every row when a table missed the weight
  /// cache. Throws std::invalid_argument when `noise`, `tables` or `row`
  /// do not fit this imager.
  void fill_weight_row(
      const NoiseModel& noise, units::Meters plane_distance, std::size_t row,
      const std::vector<std::shared_ptr<echoimage::array::WeightTable>>&
          tables) const;

 private:
  /// Per-image sweep state shared by the bands: the gates and each band's
  /// weight table (defined in imaging.cpp).
  struct SweepPlan;

  /// Per-band pixel energies (before the square root) of one capture —
  /// the shared body of `construct` and `construct_bands`.
  [[nodiscard]] std::vector<Matrix2D> band_energies(
      const MultiChannelSignal& beep, units::Meters plane_distance,
      double tau_direct_s, const NoiseModel& noise, double tau_echo_s) const;
  /// Energy image of one subband, written into `image`. Band 0's sweep
  /// also fills the weight tables of every band that missed the cache.
  void image_band(std::size_t band, const MultiChannelSignal& filtered,
                  const NoiseModel& noise, double plane_distance_m,
                  double tau_direct_s, double tau_echo_s, SweepPlan& plan,
                  Matrix2D& image) const;
  /// Look up every band's weight table; allocate fresh ones for misses.
  void find_tables(const NoiseModel& noise, double plane_distance_m,
                   SweepPlan& plan) const;
  /// fill_weight_row's body, unchecked: `subarray` is the noise model's
  /// active subarray and `steering` holds num_subbands x its mics.
  void fill_row(
      const ArrayGeometry& subarray, const NoiseModel& noise,
      double plane_distance_m, std::size_t row,
      const std::vector<std::shared_ptr<echoimage::array::WeightTable>>&
          tables,
      echoimage::dsp::Complex* steering) const;
  /// Active channels of `noise`'s subarray; throws std::invalid_argument
  /// unless the model was built for this imager's bands and array.
  [[nodiscard]] std::size_t checked_channels(const NoiseModel& noise) const;
  /// Band-pass + direct-path suppression of the beep.
  [[nodiscard]] MultiChannelSignal prepare(const MultiChannelSignal& beep,
                                           double tau_direct_s) const;

  ImagingConfig config_;
  ArrayGeometry geometry_;
  /// Shared across copies of this imager: the pool serializes overlapping
  /// regions internally, and cached tables are copy-agnostic (the config,
  /// and so the keys, are identical).
  std::shared_ptr<echoimage::runtime::ThreadPool> pool_;
  std::shared_ptr<echoimage::array::WeightCache> weight_cache_;
  std::shared_ptr<const obs::Observability> obs_;
  const obs::Counter* images_counter_ = nullptr;
  const obs::Counter* bands_counter_ = nullptr;
  echoimage::dsp::SosCascade bandpass_filter_;
  std::vector<echoimage::dsp::SosCascade> subband_filters_;
  std::vector<echoimage::dsp::Signal> subband_templates_;  ///< per-band chirp
};

}  // namespace echoimage::core
