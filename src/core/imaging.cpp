#include "core/imaging.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dsp/butterworth.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "runtime/parallel_for.hpp"

namespace echoimage::core {

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

MultiChannelSignal AcousticImager::prepare(const MultiChannelSignal& beep,
                                           double tau_direct_s) const {
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.prepare");
  // Band-pass all channels to the probing band, lockstepped across
  // channels (bit-identical to per-channel filtfilt).
  MultiChannelSignal filtered;
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
  return filtered;
}

AcousticImager::NoiseModel AcousticImager::noise_model(
    const MultiChannelSignal& noise_only,
    const echoimage::array::ChannelMask& active_mask) const {
  const std::size_t mics = geometry_.num_mics();
  const std::size_t num_bands = config_.num_subbands;
  const bool split = num_bands > 1;
  const bool have_noise =
      noise_only.num_channels() == mics && noise_only.length() > 0;
  // Per channel: the same chain the beep takes — full-band filtfilt, the
  // band's filtfilt, the analytic signal — once per band.
  std::vector<std::vector<echoimage::dsp::ComplexSignal>> analytic(
      have_noise ? num_bands : 0,
      std::vector<echoimage::dsp::ComplexSignal>(mics));
  const auto channel = [&](std::size_t c, std::size_t) {
    const echoimage::dsp::Signal full =
        bandpass_filter_.filtfilt(noise_only.channels[c]);
    for (std::size_t b = 0; b < num_bands; ++b)
      analytic[b][c] = echoimage::dsp::analytic_signal(
          split ? subband_filters_[b].filtfilt(full) : full);
  };
  if (have_noise) {
    if (pool_ != nullptr) {
      echoimage::runtime::parallel_for(*pool_, mics, channel);
    } else {
      for (std::size_t c = 0; c < mics; ++c) channel(c, 0);
    }
  }
  NoiseModel model;
  model.active_mask = active_mask;
  model.bands.resize(num_bands);
  for (std::size_t b = 0; b < num_bands; ++b) {
    const echoimage::array::CMatrix cov =
        have_noise ? echoimage::array::normalized_covariance(
                         analytic[b], 0, noise_only.length())
                   : echoimage::array::white_noise_covariance(mics);
    // The fingerprint is taken before masking and loading; it only needs
    // to identify the noise field, not mirror it.
    model.bands[b].fingerprint =
        echoimage::array::WeightCache::fingerprint(cov);
    model.bands[b].inverse = echoimage::array::loaded_inverse(cov, active_mask);
  }
  return model;
}

std::size_t AcousticImager::checked_channels(const NoiseModel& noise) const {
  const std::size_t mics = geometry_.num_mics();
  const echoimage::array::ChannelMask& mask = noise.active_mask;
  const bool mask_fits = mask.empty() || mask.size() == mics;
  const std::size_t m =
      mask.empty() ? mics
                   : (mask_fits ? echoimage::array::count_active(mask) : 0);
  bool fits = mask_fits && m > 0 && noise.bands.size() == config_.num_subbands;
  for (const NoiseBand& b : noise.bands)
    fits = fits && b.inverse.rows() == m && b.inverse.cols() == m;
  if (!fits)
    throw std::invalid_argument(
        "AcousticImager: noise model built for another configuration");
  return m;
}

/// Per-image sweep state shared by the bands: the pixel -> gate map (gates
/// depend only on geometry and timing) and each band's weight table.
struct AcousticImager::SweepPlan {
  std::vector<echoimage::array::Gate> gates;  ///< distinct, first-seen order
  std::vector<std::uint32_t> gate_of;         ///< per pixel
  /// Per band (empty when the pixels need no weights): the table the sweep
  /// reads, and the fresh table band 0's sweep fills on a cache miss (null
  /// on a hit).
  std::vector<std::shared_ptr<const echoimage::array::WeightTable>> tables;
  std::vector<std::shared_ptr<echoimage::array::WeightTable>> fresh;
  std::vector<echoimage::array::WeightKey> keys;  ///< with the cache on
  bool any_fresh = false;

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

void AcousticImager::find_tables(const NoiseModel& noise,
                                 double plane_distance_m,
                                 SweepPlan& plan) const {
  using echoimage::array::WeightCache;
  const std::size_t num_bands = config_.num_subbands;
  const std::size_t num_pixels = config_.grid_size * config_.grid_size;
  WeightCache* const cache = weight_cache_.get();
  plan.tables.resize(num_bands);
  plan.fresh.resize(num_bands);
  if (cache != nullptr) plan.keys.resize(num_bands);
  for (std::size_t b = 0; b < num_bands; ++b) {
    if (cache != nullptr) {
      echoimage::array::WeightKey& key = plan.keys[b];
      key.band = static_cast<std::uint32_t>(b);
      key.distance_q =
          cache->quantize_distance(units::Meters{plane_distance_m});
      key.speed_bits =
          std::bit_cast<std::uint64_t>(config_.speed_of_sound.value());
      key.mask_bits =
          WeightCache::mask_bits(noise.active_mask, geometry_.num_mics());
      key.cov_fingerprint = noise.bands[b].fingerprint;
      key.mvdr = config_.use_mvdr;
      plan.tables[b] = cache->find(key, num_pixels);
    }
  }
  // Evict what the fresh tables will replace before allocating them, so
  // an attempt's tables never coexist with the full set they displace.
  const std::size_t missed = static_cast<std::size_t>(
      std::count(plan.tables.begin(), plan.tables.end(), nullptr));
  if (cache != nullptr && missed > 0) cache->make_room(missed * num_pixels);
  const std::size_t channels = checked_channels(noise);
  for (std::size_t b = 0; b < num_bands; ++b) {
    if (plan.tables[b] != nullptr) continue;
    plan.fresh[b] =
        std::make_shared<echoimage::array::WeightTable>(num_pixels, channels);
    plan.tables[b] = plan.fresh[b];
    plan.any_fresh = true;
  }
}

void AcousticImager::image_band(std::size_t band,
                                const MultiChannelSignal& filtered,
                                const NoiseModel& noise,
                                double plane_distance_m, double tau_direct_s,
                                double tau_echo_s, SweepPlan& plan,
                                Matrix2D& image) const {
  const obs::Tracer* const tracer = obs::Observability::tracer_of(obs_.get());
  EI_SPAN(tracer, "imaging.band", band);
  if (bands_counter_ != nullptr) bands_counter_->add();
  const echoimage::array::ChannelMask& mask = noise.active_mask;
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < filtered.num_channels(); ++c)
    if (mask.empty() || mask[c]) active.push_back(c);

  // Per-channel front end over the active subarray: subband isolation
  // (skipped when only one band is configured), the analytic signal, then
  // (optionally) pulse compression against this band's chirp template,
  // transformed once and shared by the channels. Matched filtering
  // commutes with the linear beamformer, so compressing per channel once
  // is equivalent to compressing every steered output. The serial path
  // filters the channels in lockstep; the pooled path runs one task per
  // channel (per-channel filtfilt is bit-identical to the lockstep form).
  const bool split = config_.num_subbands > 1;
  const bool lockstep = split && pool_ == nullptr;
  std::vector<echoimage::dsp::Signal> beep_band;
  if (lockstep)
    beep_band = subband_filters_[band].filtfilt_multi(filtered.channels);
  const echoimage::dsp::TemplateSpectrum tmpl =
      config_.pulse_compression
          ? echoimage::dsp::template_spectrum(subband_templates_[band],
                                              filtered.length())
          : echoimage::dsp::TemplateSpectrum{};
  std::vector<echoimage::dsp::ComplexSignal> channels(active.size());
  const auto front_end = [&](std::size_t i, std::size_t) {
    const std::size_t c = active[i];
    echoimage::dsp::Signal own;
    const echoimage::dsp::Signal* x = &filtered.channels[c];
    if (lockstep) {
      x = &beep_band[c];
    } else if (split) {
      own = subband_filters_[band].filtfilt(*x);
      x = &own;
    }
    echoimage::dsp::ComplexSignal a = echoimage::dsp::analytic_signal(*x);
    if (config_.pulse_compression)
      a = echoimage::dsp::matched_filter_complex(a, tmpl);
    channels[i] = std::move(a);
  };
  if (pool_ != nullptr) {
    echoimage::runtime::parallel_for(*pool_, active.size(), front_end);
  } else {
    for (std::size_t i = 0; i < active.size(); ++i) front_end(i, 0);
  }

  EI_SPAN_NAMED(sweep_span, tracer, "imaging.grid_sweep", band);
  const obs::SpanHandle sweep = sweep_span.handle();
  const std::size_t grid = config_.grid_size;
  if (plan.gate_of.empty())
    plan.gate_pixels(config_, plane_distance_m, tau_direct_s, tau_echo_s,
                     channels.front().size());
  const echoimage::array::GateCovariances q(channels, plan.gates);

  // Weights: one table per band, looked up before band 0's sweep. Band
  // 0's row tasks solve every missed band's weights (fill_row, the body of
  // fill_weight_row) into fresh tables, published below, so a warm sweep
  // replays exactly the bits a cold one computes.
  const double mix = std::clamp(config_.incoherent_mix, 0.0, 1.0);
  if (band == 0 && mix < 1.0) find_tables(noise, plane_distance_m, plan);
  const bool fill = band == 0 && plan.any_fresh;
  const ArrayGeometry subarray =
      fill ? geometry_.subarray(noise.active_mask) : ArrayGeometry{};
  echoimage::runtime::ScratchArena<std::vector<echoimage::dsp::Complex>>
      steering(pool_ != nullptr ? pool_->num_workers() : 1);
  if (fill)  // sized up front: the sweep itself never allocates
    for (std::size_t w = 0; w < steering.num_slots(); ++w)
      steering.local(w).resize(config_.num_subbands * subarray.num_mics());
  const echoimage::array::WeightTable* const table =
      mix < 1.0 ? plan.tables[band].get() : nullptr;

  // Pixel energy (1 - mix) Re(w^H Q_g w) + mix tr(Q_g) / M. Every grid
  // writes its own pixel and weight rows, so the image is bit-identical for
  // any worker count, and with the weight cache on or off.
  std::vector<double>& pixels = image.data();
  // One task per grid row — a fixed grain, so the recorded
  // `imaging.grid_chunk[row]` spans are identical for every worker count
  // (the determinism contract in obs/trace.hpp).
  const auto row_task = [&](std::size_t row, std::size_t worker) {
    EI_SPAN(tracer, "imaging.grid_chunk", row, sweep);
    if (fill)
      fill_row(subarray, noise, plane_distance_m, row, plan.fresh,
               steering.local(worker).data());
    for (std::size_t k = row * grid; k < (row + 1) * grid; ++k) {
      const std::size_t g = plan.gate_of[k];
      double e = 0.0;
      if (table != nullptr)
        e += (1.0 - mix) * q.steered_energy(g, table->row(k));
      if (mix > 0.0) e += mix * q.incoherent_energy(g);
      pixels[k] = e;
    }
  };
  if (pool_ != nullptr) {
    echoimage::runtime::parallel_for(*pool_, grid, row_task);
  } else {
    for (std::size_t row = 0; row < grid; ++row) row_task(row, 0);
  }
  if (fill && weight_cache_ != nullptr)
    for (std::size_t b = 0; b < config_.num_subbands; ++b)
      if (plan.fresh[b] != nullptr)
        (void)weight_cache_->publish(plan.keys[b], std::move(plan.fresh[b]));
}

std::vector<Matrix2D> AcousticImager::band_energies(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const NoiseModel& noise, double tau_echo_s) const {
  if (plane_distance.value() <= 0.0)
    throw std::invalid_argument("AcousticImager: plane distance must be > 0");
  if (beep.num_channels() != geometry_.num_mics())
    throw std::invalid_argument("AcousticImager: capture has " +
                                std::to_string(beep.num_channels()) +
                                " channels, array has " +
                                std::to_string(geometry_.num_mics()));
  (void)checked_channels(noise);
  EI_SPAN(obs::Observability::tracer_of(obs_.get()), "imaging.construct");
  if (images_counter_ != nullptr) images_counter_->add();
  const MultiChannelSignal filtered = prepare(beep, tau_direct_s);

  SweepPlan plan;
  std::vector<Matrix2D> bands;
  bands.reserve(config_.num_subbands);
  for (std::size_t band = 0; band < config_.num_subbands; ++band) {
    bands.emplace_back(config_.grid_size, config_.grid_size);
    image_band(band, filtered, noise, plane_distance.value(), tau_direct_s,
               tau_echo_s, plan, bands.back());
  }
  return bands;
}

std::vector<Matrix2D> AcousticImager::construct_bands(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const NoiseModel& noise, double tau_echo_s) const {
  std::vector<Matrix2D> bands =
      band_energies(beep, plane_distance, tau_direct_s, noise, tau_echo_s);
  for (Matrix2D& band : bands)
    for (double& v : band.data()) v = std::sqrt(v);
  return bands;
}

Matrix2D AcousticImager::construct(
    const MultiChannelSignal& beep, units::Meters plane_distance,
    double tau_direct_s, const MultiChannelSignal& noise_only,
    double tau_echo_s, const echoimage::array::ChannelMask& active_mask) const {
  const std::vector<Matrix2D> bands =
      band_energies(beep, plane_distance, tau_direct_s,
                    noise_model(noise_only, active_mask), tau_echo_s);
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
  return construct_bands(beep, plane_distance, tau_direct_s,
                         noise_model(noise_only, active_mask), tau_echo_s);
}

void AcousticImager::fill_weight_row(
    const NoiseModel& noise, units::Meters plane_distance, std::size_t row,
    const std::vector<std::shared_ptr<echoimage::array::WeightTable>>& tables)
    const {
  const std::size_t m = checked_channels(noise);
  const std::size_t grid = config_.grid_size;
  bool fits = plane_distance.value() > 0.0 && row < grid &&
              tables.size() == config_.num_subbands;
  for (const auto& t : tables)
    fits = fits && (t == nullptr || (t->num_rows() == grid * grid &&
                                     t->num_channels() == m));
  if (!fits)
    throw std::invalid_argument(
        "AcousticImager: plane, row or weight tables do not fit the grid");
  std::vector<echoimage::dsp::Complex> steering(config_.num_subbands * m);
  fill_row(geometry_.subarray(noise.active_mask), noise,
           plane_distance.value(), row, tables, steering.data());
}

void AcousticImager::fill_row(
    const ArrayGeometry& subarray, const NoiseModel& noise,
    double plane_distance_m, std::size_t row,
    const std::vector<std::shared_ptr<echoimage::array::WeightTable>>& tables,
    echoimage::dsp::Complex* steering) const {
  const std::size_t grid = config_.grid_size;
  const std::size_t num_bands = config_.num_subbands;
  const std::size_t m = subarray.num_mics();
  // Band b is centred at lo + (b + 1/2) width: equally spaced frequencies.
  const double d_omega = 2.0 * std::numbers::pi *
                         (config_.bandpass_high_hz - config_.bandpass_low_hz) /
                         static_cast<double>(num_bands);
  const double omega_0 =
      2.0 * std::numbers::pi * config_.bandpass_low_hz + 0.5 * d_omega;
  for (std::size_t k = row * grid; k < (row + 1) * grid; ++k) {
    // Steering from the pixel's unit vector costs two complex exponentials
    // per microphone for all the bands.
    const echoimage::array::Vec3 p =
        grid_center(config_, row, k % grid, plane_distance_m);
    const double r = p.norm();
    echoimage::array::banded_steering_into(
        subarray, {p.x / r, p.y / r, p.z / r}, omega_0, d_omega, num_bands,
        config_.speed_of_sound, steering);
    for (std::size_t b = 0; b < num_bands; ++b)
      if (tables[b] != nullptr)
        echoimage::array::solve_weights(noise.bands[b].inverse,
                                        steering + b * m, config_.use_mvdr,
                                        tables[b]->row(k));
  }
}

}  // namespace echoimage::core
