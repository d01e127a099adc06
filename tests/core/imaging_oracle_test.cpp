// Oracle for the gate-covariance pixel sweep.
//
// The imager evaluates each pixel as a quadratic form over a gate
// covariance: (1 - mix) Re(w^H Q_g w) + mix tr(Q_g) / M. This file keeps the
// definition it replaces — the direct-sum sweep, which steers and sums
// |w^H x(t)|^2 sample by sample over every pixel's gate — and pins every
// pixel of the imager to within 1e-12 relative of it, across the incoherent
// mix, MVDR and delay-and-sum, a degraded subarray, pulse compression on
// and off, echo-anchored gates, gates clipped at the capture end, and
// empty gates. Its weights come from the textbook formula, not from the
// imager's trig-free, band-shared fill, which is pinned to that formula
// on its own at 1e-13 over the paper's 180 x 180 plane. It also pins the
// determinism contract: images are bit-identical across worker counts and
// with the weight cache on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "../array/array_reference.hpp"
#include "core/imaging.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/chirp.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "eval/dataset.hpp"
#include "eval/roster.hpp"

namespace echoimage::core {
namespace {

using echoimage::array::ChannelMask;
using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;

struct Capture {
  MultiChannelSignal beep;
  MultiChannelSignal noise;
};

/// Direct-sum reference of `AcousticImager::construct_bands`: the same
/// front end and gates, the textbook weights (spherical angles, per-band
/// complex exponentials, complex division), and each pixel's energy summed
/// sample by sample.
std::vector<Matrix2D> direct_sum_bands(const ImagingConfig& cfg,
                                       const ArrayGeometry& geometry,
                                       const Capture& cap, double plane_m,
                                       double tau_direct_s, double tau_echo_s,
                                       const ChannelMask& mask) {
  const double fs = cfg.sample_rate;
  MultiChannelSignal filtered;
  filtered.channels = echoimage::dsp::butterworth_bandpass(
                          cfg.bandpass_order, cfg.bandpass_low_hz,
                          cfg.bandpass_high_hz, fs)
                          .filtfilt_multi(cap.beep.channels);
  if (cfg.suppress_direct) {
    const std::size_t end = echoimage::dsp::seconds_to_samples(
        tau_direct_s + cfg.chirp.duration.value() + cfg.direct_guard_s, fs);
    for (auto& ch : filtered.channels)
      std::fill(ch.begin(), ch.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(end, ch.size())),
                0.0);
  }
  MultiChannelSignal noise_f;
  noise_f.channels = echoimage::dsp::butterworth_bandpass(
                         cfg.bandpass_order, cfg.bandpass_low_hz,
                         cfg.bandpass_high_hz, fs)
                         .filtfilt_multi(cap.noise.channels);
  const echoimage::dsp::Signal full_template =
      echoimage::dsp::Chirp(cfg.chirp).sample(fs);
  const double width = (cfg.bandpass_high_hz - cfg.bandpass_low_hz) /
                       static_cast<double>(cfg.num_subbands);
  const double mix = std::clamp(cfg.incoherent_mix, 0.0, 1.0);
  const std::size_t grid = cfg.grid_size;
  const double half =
      0.5 * static_cast<double>(grid - 1) * cfg.grid_spacing_m;
  const double speed = cfg.speed_of_sound.value();

  std::vector<Matrix2D> bands;
  for (std::size_t b = 0; b < cfg.num_subbands; ++b) {
    const double b_lo = cfg.bandpass_low_hz + static_cast<double>(b) * width;
    const double b_hi = b_lo + width;
    MultiChannelSignal band = filtered, band_noise = noise_f;
    echoimage::dsp::Signal tmpl = full_template;
    if (cfg.num_subbands > 1) {
      const auto f = echoimage::dsp::butterworth_bandpass(2, b_lo, b_hi, fs);
      band.channels = f.filtfilt_multi(filtered.channels);
      band_noise.channels = f.filtfilt_multi(noise_f.channels);
      tmpl = f.filtfilt(full_template);
    }
    std::vector<ComplexSignal> channels;
    for (const auto& ch : band.channels) {
      ComplexSignal a = echoimage::dsp::analytic_signal(ch);
      if (cfg.pulse_compression)
        a = echoimage::dsp::matched_filter_complex(a, tmpl);
      channels.push_back(std::move(a));
    }
    // The surviving subarray's channels, geometry and loaded noise inverse.
    echoimage::array::CMatrix cov =
        echoimage::array::noise_covariance_of(band_noise);
    if (!mask.empty()) cov = echoimage::array::masked_covariance(cov, mask);
    cov.add_diagonal(1e-3);
    const echoimage::array::CMatrix r_inv = echoimage::linalg::inverse(cov);
    const std::vector<ComplexSignal> x =
        mask.empty() ? channels
                     : echoimage::array::select_channels(channels, mask);
    const ArrayGeometry sub = mask.empty() ? geometry : geometry.subarray(mask);
    const double omega = 2.0 * std::numbers::pi * 0.5 * (b_lo + b_hi);
    const std::size_t n = x.front().size();

    Matrix2D image(grid, grid);
    for (std::size_t row = 0; row < grid; ++row) {
      for (std::size_t col = 0; col < grid; ++col) {
        const echoimage::array::Vec3 p{
            static_cast<double>(col) * cfg.grid_spacing_m - half, plane_m,
            cfg.plane_center_z_m + half -
                static_cast<double>(row) * cfg.grid_spacing_m};
        const double dk = p.norm();
        const bool anchored = cfg.anchor_to_echo && tau_echo_s >= 0.0;
        const double onset =
            anchored ? tau_echo_s + 2.0 * (dk - plane_m) / speed
                     : tau_direct_s + 2.0 * dk / speed;
        const double t0 = onset - cfg.gate_halfwidth_s;
        const double t1 = onset + cfg.gate_halfwidth_s +
                          (cfg.pulse_compression ? 0.0
                                                 : cfg.chirp.duration.value());
        const std::size_t first =
            echoimage::dsp::seconds_to_samples(std::max(0.0, t0), fs);
        const std::size_t last = std::min(
            n, echoimage::dsp::seconds_to_samples(std::max(0.0, t1), fs));
        double e = 0.0;
        if (mix < 1.0) {
          const std::vector<Complex> w =
              echoimage::array::reference::textbook_weights(
                  sub, p, omega, cfg.speed_of_sound, r_inv, cfg.use_mvdr);
          double coherent = 0.0;
          for (std::size_t t = first; t < last; ++t) {
            Complex y(0.0, 0.0);
            for (std::size_t c = 0; c < x.size(); ++c)
              y += std::conj(w[c]) * x[c][t];
            coherent += std::norm(y);
          }
          e += (1.0 - mix) * coherent;
        }
        if (mix > 0.0) {
          double incoherent = 0.0;
          for (const ComplexSignal& c : x)
            for (std::size_t t = first; t < last; ++t)
              incoherent += std::norm(c[t]);
          e += mix * incoherent / static_cast<double>(x.size());
        }
        image(row, col) = std::sqrt(e);
      }
    }
    bands.push_back(std::move(image));
  }
  return bands;
}

struct Case {
  std::string name;
  ImagingConfig cfg;
  double tau_direct_s = 0.0002;
  double tau_echo_s = -1.0;
  ChannelMask mask;
  bool reaches_empty_gates = false;
};

std::vector<Case> oracle_cases(std::size_t capture_length) {
  ImagingConfig base;
  base.grid_size = 12;
  base.grid_spacing_m = 0.06;
  base.num_subbands = 2;
  std::vector<Case> cases;
  const auto add = [&](const std::string& name, auto&& tweak) {
    Case c;
    c.name = name;
    c.cfg = base;
    tweak(c);
    cases.push_back(std::move(c));
  };
  add("mix 0.85, MVDR", [](Case&) {});
  add("mix 0 (fully coherent)", [](Case& c) { c.cfg.incoherent_mix = 0.0; });
  add("mix 1 (fully incoherent)",
      [](Case& c) { c.cfg.incoherent_mix = 1.0; });
  add("delay-and-sum, mix 0", [](Case& c) {
    c.cfg.use_mvdr = false;
    c.cfg.incoherent_mix = 0.0;
  });
  add("delay-and-sum, mix 0.85", [](Case& c) { c.cfg.use_mvdr = false; });
  add("degraded subarray, mix 0", [](Case& c) {
    c.cfg.incoherent_mix = 0.0;
    c.mask = ChannelMask(6, true);
    c.mask[1] = false;
    c.mask[4] = false;
  });
  add("pulse compression off, mix 0", [](Case& c) {
    c.cfg.pulse_compression = false;
    c.cfg.incoherent_mix = 0.0;
  });
  add("pulse compression off, mix 0.85",
      [](Case& c) { c.cfg.pulse_compression = false; });
  add("anchored gates", [](Case& c) {
    c.cfg.anchor_to_echo = true;
    c.cfg.incoherent_mix = 0.0;
    c.tau_echo_s = 0.0045;
  });
  add("single band", [](Case& c) { c.cfg.num_subbands = 1; });
  // Onsets straddle the capture end: gates clipped to the length, and
  // gates entirely past it (empty).
  add("gates clipped at the capture end", [&](Case& c) {
    c.cfg.suppress_direct = false;
    c.cfg.incoherent_mix = 0.0;
    c.tau_direct_s =
        static_cast<double>(capture_length) / c.cfg.sample_rate - 0.0035;
    c.reaches_empty_gates = true;
  });
  // Onsets straddle t = 0: gates clamped to [0, 0) are empty.
  add("empty gates before the capture start", [](Case& c) {
    c.cfg.suppress_direct = false;
    c.tau_direct_s = -0.0062;
    c.reaches_empty_gates = true;
  });
  return cases;
}

Capture fixture_capture() {
  const auto geometry = echoimage::array::make_respeaker_array();
  const auto users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  const echoimage::eval::DataCollector collector(
      echoimage::sim::CaptureConfig{}, geometry, 7);
  const auto batch = collector.collect(users[0], {}, 1);
  return {batch.beeps[0], batch.noise_only};
}

void expect_bitwise_equal(const std::vector<Matrix2D>& a,
                          const std::vector<Matrix2D>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t band = 0; band < a.size(); ++band)
    for (std::size_t i = 0; i < a[band].size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[band].data()[i]),
                std::bit_cast<std::uint64_t>(b[band].data()[i]))
          << what << ": band " << band << " pixel " << i;
}

TEST(ImagingOracle, EveryPixelWithin1em12OfTheDirectSumSweep) {
  const auto geometry = echoimage::array::make_respeaker_array();
  const Capture cap = fixture_capture();
  for (const Case& c : oracle_cases(cap.beep.length())) {
    SCOPED_TRACE(c.name);
    const std::vector<Matrix2D> want =
        direct_sum_bands(c.cfg, geometry, cap, 0.7, c.tau_direct_s,
                         c.tau_echo_s, c.mask);
    const std::vector<Matrix2D> got =
        AcousticImager(c.cfg, geometry)
            .construct_bands(cap.beep, units::Meters{0.7}, c.tau_direct_s,
                             cap.noise, c.tau_echo_s, c.mask);
    ASSERT_EQ(got.size(), want.size());
    std::size_t zeros = 0, nonzeros = 0;
    for (std::size_t b = 0; b < want.size(); ++b) {
      for (std::size_t i = 0; i < want[b].size(); ++i) {
        const double w = want[b].data()[i], g = got[b].data()[i];
        ASSERT_LE(std::abs(g - w), 1e-12 * std::abs(w))
            << "band " << b << " pixel " << i << ": " << g << " vs " << w;
        (w == 0.0 ? zeros : nonzeros) += 1;
      }
    }
    EXPECT_GT(nonzeros, 0u) << "a case must image something";
    if (c.reaches_empty_gates) {
      EXPECT_GT(zeros, 0u) << "the case must reach empty gates";
    }
  }
}

TEST(ImagingOracle, WeightFillMatchesTheTextbookWeights) {
  // The imager's cold weight fill (fill_weight_row: steering from each
  // pixel's unit vector with phases shared across the bands, then
  // solve_weights) against the textbook formula (angles, per-band complex
  // exponentials, complex division) on every pixel of the paper's 180 x 180
  // plane of 1 cm grids at 0.7 m, all 5 sub-bands of 2-3 kHz: full array
  // and a one-microphone-masked subarray, MVDR and delay-and-sum. The bound
  // also pins the rounding drift of the band recursion (worst at band 4).
  const auto geometry = echoimage::array::make_respeaker_array();
  ImagingConfig cfg;
  cfg.grid_size = 180;
  cfg.grid_spacing_m = 0.01;
  cfg.num_subbands = 5;
  constexpr double kPlane = 0.7;
  const std::size_t grid = cfg.grid_size, bands = cfg.num_subbands;
  const double width = (cfg.bandpass_high_hz - cfg.bandpass_low_hz) /
                       static_cast<double>(bands);
  const auto center_hz = [&](std::size_t b) {
    return cfg.bandpass_low_hz + (static_cast<double>(b) + 0.5) * width;
  };
  ChannelMask one_masked(geometry.num_mics(), true);
  one_masked[2] = false;
  for (const ChannelMask& mask : {ChannelMask{}, one_masked}) {
    const ArrayGeometry g = geometry.subarray(mask);
    const std::size_t m = g.num_mics();
    // A directional interferer per band, so MVDR differs from DAS.
    AcousticImager::NoiseModel noise;
    noise.active_mask = mask;
    for (std::size_t b = 0; b < bands; ++b) {
      const auto a_int = echoimage::array::steering_vector_hz(
          geometry, echoimage::array::Direction{0.4, 1.1},
          units::Hertz{center_hz(b)});
      echoimage::linalg::CMatrix r =
          echoimage::array::reference::outer(a_int, a_int);
      r.add_diagonal(0.2);
      noise.bands.push_back({echoimage::array::loaded_inverse(r, mask), 0});
    }
    for (const bool mvdr : {true, false}) {
      SCOPED_TRACE(std::string(mask.empty() ? "full array" : "masked") +
                   (mvdr ? ", MVDR" : ", DAS"));
      cfg.use_mvdr = mvdr;
      const AcousticImager imager(cfg, geometry);
      std::vector<std::shared_ptr<echoimage::array::WeightTable>> tables;
      for (std::size_t b = 0; b < bands; ++b)
        tables.push_back(
            std::make_shared<echoimage::array::WeightTable>(grid * grid, m));
      for (std::size_t row = 0; row < grid; ++row)
        imager.fill_weight_row(noise, units::Meters{kPlane}, row, tables);
      std::vector<double> worst(bands, 0.0);
      const double half =
          0.5 * static_cast<double>(grid - 1) * cfg.grid_spacing_m;
      for (std::size_t k = 0; k < grid * grid; ++k) {
        const echoimage::array::Vec3 p{
            static_cast<double>(k % grid) * cfg.grid_spacing_m - half, kPlane,
            cfg.plane_center_z_m + half -
                static_cast<double>(k / grid) * cfg.grid_spacing_m};
        for (std::size_t b = 0; b < bands; ++b) {
          const std::vector<Complex> want =
              echoimage::array::reference::textbook_weights(
                  g, p, 2.0 * std::numbers::pi * center_hz(b),
                  cfg.speed_of_sound, noise.bands[b].inverse, mvdr);
          const Complex* const got = tables[b]->row(k);
          double diff = 0.0, scale = 0.0;
          for (std::size_t i = 0; i < m; ++i) {
            diff = std::max(diff, std::abs(got[i] - want[i]));
            scale = std::max(scale, std::abs(want[i]));
          }
          worst[b] = std::max(worst[b], diff / scale);
        }
      }
      for (std::size_t b = 0; b < bands; ++b)
        EXPECT_LE(worst[b], 1e-13) << "band " << b;
      // Tables, rows or planes that do not fit the grid are refused.
      EXPECT_THROW(imager.fill_weight_row(noise, units::Meters{kPlane}, grid,
                                          tables),
                   std::invalid_argument);
      EXPECT_THROW(imager.fill_weight_row(noise, units::Meters{0.0}, 0, tables),
                   std::invalid_argument);
      tables.back() =
          std::make_shared<echoimage::array::WeightTable>(grid * grid, m + 1);
      EXPECT_THROW(imager.fill_weight_row(noise, units::Meters{kPlane}, 0,
                                          tables),
                   std::invalid_argument);
      tables.pop_back();
      EXPECT_THROW(imager.fill_weight_row(noise, units::Meters{kPlane}, 0,
                                          tables),
                   std::invalid_argument);
    }
  }
}

TEST(ImagingOracle, BitIdenticalAcrossThreadsAndWeightTables) {
  const auto geometry = echoimage::array::make_respeaker_array();
  const Capture cap = fixture_capture();
  for (const Case& c : oracle_cases(cap.beep.length())) {
    SCOPED_TRACE(c.name);
    ImagingConfig cfg = c.cfg;
    cfg.num_threads = 1;
    cfg.use_weight_cache = false;
    const auto reference =
        AcousticImager(cfg, geometry)
            .construct_bands(cap.beep, units::Meters{0.7}, c.tau_direct_s,
                             cap.noise, c.tau_echo_s, c.mask);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (const bool tables : {false, true}) {
        cfg.num_threads = threads;
        cfg.use_weight_cache = tables;
        const AcousticImager imager(cfg, geometry);
        // Twice: the second render replays the published tables.
        for (int pass = 0; pass < 2; ++pass)
          expect_bitwise_equal(
              reference,
              imager.construct_bands(cap.beep, units::Meters{0.7},
                                     c.tau_direct_s, cap.noise, c.tau_echo_s,
                                     c.mask),
              "threads " + std::to_string(threads) + (tables ? " tables on"
                                                             : " tables off") +
                  " pass " + std::to_string(pass));
      }
    }
  }
}

}  // namespace
}  // namespace echoimage::core
