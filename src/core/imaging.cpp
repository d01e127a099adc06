#include "core/imaging.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "array/steering.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "runtime/parallel_for.hpp"

namespace echoimage::core {

using echoimage::array::Direction;
using echoimage::array::NarrowbandBeamformer;

namespace {

// Grid center in array coordinates: columns span x (lateral), rows span z
// (vertical, row 0 on top), the plane sits at y = D_p.
echoimage::array::Vec3 grid_center(const ImagingConfig& config,
                                   std::size_t row, std::size_t col,
                                   double plane_distance_m) {
  const double half =
      0.5 * static_cast<double>(config.grid_size - 1) * config.grid_spacing_m;
  const double x = static_cast<double>(col) * config.grid_spacing_m - half;
  const double z = config.plane_center_z_m + half -
                   static_cast<double>(row) * config.grid_spacing_m;
  return {x, plane_distance_m, z};
}

}  // namespace

units::Meters grid_distance(const ImagingConfig& config, std::size_t row,
                            std::size_t col, units::Meters plane_distance) {
  return units::Meters{
      grid_center(config, row, col, plane_distance.value()).norm()};
}

AcousticImager::AcousticImager(ImagingConfig config, ArrayGeometry geometry)
    : config_(std::move(config)),
      geometry_(std::move(geometry)),
      bandpass_filter_(echoimage::dsp::butterworth_bandpass(
          config_.bandpass_order, config_.bandpass_low_hz,
          config_.bandpass_high_hz, config_.sample_rate)) {
  const std::size_t threads =
      echoimage::runtime::resolve_workers(config_.num_threads);
  if (threads > 1)
    pool_ = std::make_shared<echoimage::runtime::ThreadPool>(threads);
  if (config_.use_weight_cache) {
    echoimage::array::WeightCacheConfig cache_cfg;
    cache_cfg.capacity = config_.weight_cache_capacity;
    cache_cfg.distance_quantum = config_.weight_cache_quantum;
    weight_cache_ = std::make_shared<echoimage::array::WeightCache>(cache_cfg);
  }
  if (config_.grid_size == 0)
    throw std::invalid_argument("AcousticImager: grid_size must be positive");
  if (config_.grid_spacing_m <= 0.0)
    throw std::invalid_argument("AcousticImager: grid spacing must be > 0");
  if (config_.num_subbands == 0)
    throw std::invalid_argument("AcousticImager: need at least one subband");
  // Subband filters for frequency compounding, plus the matched-filter
  // template each band compresses against.
  const echoimage::dsp::Signal full_template =
      echoimage::dsp::Chirp(config_.chirp).sample(config_.sample_rate);
  const double lo = config_.bandpass_low_hz;
  const double width = (config_.bandpass_high_hz - config_.bandpass_low_hz) /
                       static_cast<double>(config_.num_subbands);
  for (std::size_t b = 0; b < config_.num_subbands; ++b) {
    const double b_lo = lo + static_cast<double>(b) * width;
    const double b_hi = b_lo + width;
    subband_centers_.push_back(0.5 * (b_lo + b_hi));
    if (config_.num_subbands > 1) {
      subband_filters_.push_back(echoimage::dsp::butterworth_bandpass(
          2, b_lo, b_hi, config_.sample_rate));
      subband_templates_.push_back(
          subband_filters_.back().filtfilt(full_template));
    } else {
      subband_templates_.push_back(full_template);
    }
  }
}

void AcousticImager::attach_observability(
    std::shared_ptr<const obs::Observability> obs) {
  obs_ = std::move(obs);
  images_counter_ = nullptr;
  bands_counter_ = nullptr;
  if (obs_ == nullptr) return;
  images_counter_ = &obs_->metrics().counter("imaging.images");
  bands_counter_ = &obs_->metrics().counter("imaging.bands");
  if (weight_cache_ != nullptr) weight_cache_->attach_metrics(obs_->metrics());
}

void AcousticImager::prepare(const MultiChannelSignal& beep,
                             const MultiChannelSignal& noise_only,
                             double tau_direct_s,
                             MultiChannelSignal& filtered,
                             MultiChannelSignal& noise_f,
                             bool& have_noise) const {
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.prepare");
  // Band-pass all channels to the probing band, lockstepped across
  // channels (bit-identical to per-channel filtfilt).
  filtered.channels = bandpass_filter_.filtfilt_multi(beep.channels);

  // Self-interference removal: zero the direct speaker->mic chirp region
  // (it is ~50 dB above body echoes and its analytic-signal tails would
  // otherwise smear across the echo window).
  if (config_.suppress_direct) {
    const std::size_t direct_end = echoimage::dsp::seconds_to_samples(
        tau_direct_s + config_.chirp.duration.value() + config_.direct_guard_s,
        config_.sample_rate);
    for (auto& ch : filtered.channels) {
      const std::size_t n = std::min(direct_end, ch.size());
      std::fill(ch.begin(), ch.begin() + static_cast<std::ptrdiff_t>(n), 0.0);
    }
  }

  have_noise = noise_only.num_channels() == filtered.num_channels() &&
               noise_only.length() > 0;
  noise_f.channels.clear();
  if (have_noise)
    noise_f.channels = bandpass_filter_.filtfilt_multi(noise_only.channels);
}

/// Pixel -> gate map of one image plus the grid directions, shared by
/// every band: gates depend only on geometry and timing, and directions
/// are computed at most once per image (by the first band that has to
/// solve weights).
struct AcousticImager::SweepPlan {
  std::vector<echoimage::array::Gate> gates;  ///< distinct, first-seen order
  std::vector<std::uint32_t> gate_of;         ///< per pixel
  std::vector<Direction> directions;          ///< per pixel, once filled
  bool have_directions = false;

  /// Gate every pixel of an n-sample capture and collect the distinct
  /// gates. Echoes from grid k: the compressed pulse peaks at the onset
  /// 2 Dk/c; without compression the raw chirp occupies a further
  /// chirp-length of samples. With echo anchoring the gate tracks the
  /// measured echo time, cancelling constant detection bias. Gates are
  /// clipped to the capture.
  void gate_pixels(const ImagingConfig& config, double plane_distance_m,
                   double tau_direct_s, double tau_echo_s, std::size_t n) {
    // Clipped gate ends fit the 32-bit halves of the dedup key.
    if (n > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("AcousticImager: capture too long");
    const bool anchored = config.anchor_to_echo && tau_echo_s >= 0.0;
    const double speed = config.speed_of_sound.value();
    const double gate_extra =
        config.pulse_compression ? 0.0 : config.chirp.duration.value();
    const auto sample = [&](double t) {
      return std::min(n, echoimage::dsp::seconds_to_samples(
                             std::max(0.0, t), config.sample_rate));
    };
    const std::size_t grid = config.grid_size;
    std::unordered_map<std::uint64_t, std::uint32_t> ids;
    gate_of.resize(grid * grid);
    for (std::size_t k = 0; k < grid * grid; ++k) {
      const double dk =
          grid_center(config, k / grid, k % grid, plane_distance_m).norm();
      const double onset =
          anchored ? tau_echo_s + 2.0 * (dk - plane_distance_m) / speed
                   : tau_direct_s + 2.0 * dk / speed;
      const echoimage::array::Gate gate{
          sample(onset - config.gate_halfwidth_s),
          sample(onset + config.gate_halfwidth_s + gate_extra)};
      const auto [it, added] = ids.try_emplace(
          (static_cast<std::uint64_t>(gate.first) << 32) | gate.last,
          static_cast<std::uint32_t>(gates.size()));
      if (added) gates.push_back(gate);
      gate_of[k] = it->second;
    }
  }
};

void AcousticImager::image_band(
    std::size_t band, const MultiChannelSignal& filtered,
    const MultiChannelSignal& noise_f, bool have_noise,
    double plane_distance_m, double tau_direct_s, double tau_echo_s,
    const echoimage::array::ChannelMask& active_mask, SweepPlan& plan,
    Matrix2D& image) const {
  using echoimage::array::WeightTable;
  const obs::Tracer* const tracer = obs::Observability::tracer_of(obs_.get());
  EI_SPAN(tracer, "imaging.band", band);
  if (bands_counter_ != nullptr) bands_counter_->add();
  const std::size_t num_channels = filtered.num_channels();

  // Per-channel front end: subband isolation (skipped when only one band
  // is configured), the analytic signal, then (optionally) pulse
  // compression against this band's chirp template. Matched filtering
  // commutes with the linear beamformer, so compressing per channel once
  // is equivalent to compressing every steered output. The noise capture
  // takes the same isolation and analytic signal for the MVDR covariance.
  // The serial path filters the channels in lockstep; the pooled path runs
  // one task per channel (per-channel filtfilt is bit-identical to the
  // lockstep form).
  const bool split = config_.num_subbands > 1;
  const bool lockstep = split && pool_ == nullptr;
  std::vector<echoimage::dsp::Signal> beep_band, noise_band;
  if (lockstep) {
    beep_band = subband_filters_[band].filtfilt_multi(filtered.channels);
    if (have_noise)
      noise_band = subband_filters_[band].filtfilt_multi(noise_f.channels);
  }
  const auto isolate = [&](const std::vector<echoimage::dsp::Signal>& in,
                           const std::vector<echoimage::dsp::Signal>& locked,
                           std::size_t c, echoimage::dsp::Signal& own)
      -> const echoimage::dsp::Signal& {
    if (!split) return in[c];
    if (lockstep) return locked[c];
    own = subband_filters_[band].filtfilt(in[c]);
    return own;
  };
  std::vector<echoimage::dsp::ComplexSignal> channels(num_channels);
  std::vector<echoimage::dsp::ComplexSignal> noise_analytic(
      have_noise ? num_channels : 0);
  const auto front_end = [&](std::size_t c, std::size_t) {
    echoimage::dsp::Signal own_beep, own_noise;
    echoimage::dsp::ComplexSignal a = echoimage::dsp::analytic_signal(
        isolate(filtered.channels, beep_band, c, own_beep));
    if (config_.pulse_compression)
      a = echoimage::dsp::matched_filter_complex(a, subband_templates_[band]);
    channels[c] = std::move(a);
    if (have_noise)
      noise_analytic[c] = echoimage::dsp::analytic_signal(
          isolate(noise_f.channels, noise_band, c, own_noise));
  };
  if (pool_ != nullptr) {
    echoimage::runtime::parallel_for(*pool_, num_channels, front_end);
  } else {
    for (std::size_t c = 0; c < num_channels; ++c) front_end(c, 0);
  }
  const echoimage::array::CMatrix cov =
      have_noise ? echoimage::array::normalized_covariance(
                       noise_analytic, 0, noise_f.length())
                 : echoimage::array::white_noise_covariance(num_channels);
  // The fingerprint is taken before the beamformer's internal diagonal
  // loading; it only needs to identify the noise field, not mirror it.
  const std::uint64_t cov_fp = echoimage::array::WeightCache::fingerprint(cov);
  const NarrowbandBeamformer bf(std::move(channels),
                                units::Hertz{subband_centers_[band]}, geometry_,
                                cov, config_.speed_of_sound, active_mask);

  EI_SPAN_NAMED(sweep_span, tracer, "imaging.grid_sweep", band);
  const obs::SpanHandle sweep = sweep_span.handle();
  const std::size_t grid = config_.grid_size;
  const std::size_t num_pixels = grid * grid;
  if (plan.gate_of.empty())
    plan.gate_pixels(config_, plane_distance_m, tau_direct_s, tau_echo_s,
                     bf.length());
  const echoimage::array::GateCovariances q(bf.analytic(), plan.gates);

  // Weights: one table lookup per band. On a miss the row tasks solve
  // every grid's weights into a fresh table (published below), so a warm
  // sweep replays exactly the bits a cold one computes.
  const double mix = std::clamp(config_.incoherent_mix, 0.0, 1.0);
  echoimage::array::WeightCache* const cache = weight_cache_.get();
  echoimage::array::WeightKey key;
  std::shared_ptr<const WeightTable> table;
  std::shared_ptr<WeightTable> fresh;
  if (mix < 1.0) {
    if (cache != nullptr) {
      key.band = static_cast<std::uint32_t>(band);
      key.distance_q =
          cache->quantize_distance(units::Meters{plane_distance_m});
      key.speed_bits =
          std::bit_cast<std::uint64_t>(config_.speed_of_sound.value());
      key.mask_bits =
          echoimage::array::WeightCache::mask_bits(active_mask, num_channels);
      key.cov_fingerprint = cov_fp;
      key.mvdr = config_.use_mvdr;
      table = cache->find(key, num_pixels);
    }
    if (table == nullptr) {
      fresh = std::make_shared<WeightTable>(num_pixels,
                                            bf.analytic().size());
      table = fresh;
    }
  }
  const bool fill_directions = fresh != nullptr && !plan.have_directions;
  if (fill_directions) plan.directions.resize(num_pixels);

  // Pixel energy (1 - mix) Re(w^H Q_g w) + mix tr(Q_g) / M. Every grid
  // writes its own pixel, so the image is bit-identical for any worker
  // count, and with the weight cache on or off.
  echoimage::runtime::ScratchArena<std::vector<echoimage::dsp::Complex>>
      steering(pool_ != nullptr ? pool_->num_workers() : 1);
  if (fresh != nullptr)  // sized up front: the sweep itself never allocates
    for (std::size_t w = 0; w < steering.num_slots(); ++w)
      steering.local(w).resize(fresh->num_channels());
  std::vector<double>& pixels = image.data();
  // One task per grid row — a fixed grain, so the recorded
  // `imaging.grid_chunk[row]` spans are identical for every worker count
  // (the determinism contract in obs/trace.hpp).
  const auto row_task = [&](std::size_t row, std::size_t worker) {
    EI_SPAN(tracer, "imaging.grid_chunk", row, sweep);
    for (std::size_t k = row * grid; k < (row + 1) * grid; ++k) {
      const std::size_t g = plan.gate_of[k];
      double e = 0.0;
      if (mix < 1.0) {
        if (fresh != nullptr) {
          if (fill_directions)
            plan.directions[k] = echoimage::array::direction_to_point(
                grid_center(config_, row, k % grid, plane_distance_m));
          bf.compute_weights(plan.directions[k], config_.use_mvdr,
                             steering.local(worker), fresh->row(k));
        }
        e += (1.0 - mix) * q.steered_energy(g, table->row(k));
      }
      if (mix > 0.0) e += mix * q.incoherent_energy(g);
      pixels[k] = e;
    }
  };
  if (pool_ != nullptr) {
    echoimage::runtime::parallel_for(*pool_, grid, row_task);
  } else {
    for (std::size_t row = 0; row < grid; ++row) row_task(row, 0);
  }
  if (fill_directions) plan.have_directions = true;
  if (fresh != nullptr && cache != nullptr)
    (void)cache->publish(key, std::move(fresh));
}

std::vector<Matrix2D> AcousticImager::band_energies(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  if (plane_distance.value() <= 0.0)
    throw std::invalid_argument("AcousticImager: plane distance must be > 0");
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.construct");
  if (images_counter_ != nullptr) images_counter_->add();
  MultiChannelSignal filtered, noise_f;
  bool have_noise = false;
  prepare(beep, noise_only, tau_direct_s, filtered, noise_f, have_noise);

  SweepPlan plan;
  std::vector<Matrix2D> bands;
  bands.reserve(config_.num_subbands);
  for (std::size_t band = 0; band < config_.num_subbands; ++band) {
    bands.emplace_back(config_.grid_size, config_.grid_size);
    image_band(band, filtered, noise_f, have_noise, plane_distance.value(),
                    tau_direct_s, tau_echo_s, active_mask, plan, bands.back());
  }
  return bands;
}

Matrix2D AcousticImager::construct(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  const std::vector<Matrix2D> bands = band_energies(
      beep, plane_distance, tau_direct_s, noise_only, tau_echo_s, active_mask);
  // L2 norm of the gated segments: sqrt of the compounded band energies,
  // summed in band order.
  Matrix2D image(config_.grid_size, config_.grid_size);
  for (const Matrix2D& band : bands)
    for (std::size_t i = 0; i < image.size(); ++i)
      image.data()[i] += band.data()[i];
  for (double& v : image.data()) v = std::sqrt(v);
  return image;
}

std::vector<Matrix2D> AcousticImager::construct_bands(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  std::vector<Matrix2D> bands = band_energies(
      beep, plane_distance, tau_direct_s, noise_only, tau_echo_s, active_mask);
  for (Matrix2D& band : bands)
    for (double& v : band.data()) v = std::sqrt(v);
  return bands;
}

}  // namespace echoimage::core
