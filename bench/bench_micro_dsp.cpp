// Micro-benchmarks of the vectorized DSP kernels and of the per-image
// imaging stages (noise model, beep front end, cold weight fill), swept
// across every ISA lane this machine supports (forced via
// simd::ScopedIsa), with the scalar lane as the baseline. For each
// kernel x lane the harness reports ns/op and the speedup over scalar, and
// cross-checks that the lane reproduced the scalar output bit for bit — a
// benchmark that quietly measured different numbers would be worthless.
// A stage with no SIMD kernel in it (the weight fill) runs the same code in
// every lane, so it is timed once, without lanes: per-lane "speedups"
// would only be run-to-run noise.
//
// Writes BENCH_micro_dsp.json into the working directory (copied to the
// repo root by tools/run_bench_smoke.sh). `--smoke` shrinks repetitions.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/imaging.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/chirp.hpp"
#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/matched_filter.hpp"
#include "eval/table.hpp"
#include "simd/isa.hpp"

namespace {

using namespace echoimage;
using Complex = std::complex<double>;

dsp::Signal random_signal(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::normal_distribution<double> d(0.0, 1.0);
  dsp::Signal x(n);
  for (double& v : x) v = d(gen);
  return x;
}

/// One benchmarked operation: `run` executes the workload once and folds
/// a few output bits into a digest (the cross-lane bit-exactness check —
/// and a data dependency the optimizer cannot delete).
struct Kernel {
  std::string name;
  std::size_t n = 0;  ///< problem size, for the report
  std::function<std::uint64_t()> run;
  bool lane_independent = false;  ///< calls no simd::kernels()
};

std::uint64_t digest(const double* x, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= std::bit_cast<std::uint64_t>(x[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(const Complex* x, std::size_t n) {
  return digest(reinterpret_cast<const double*>(x), 2 * n);
}

/// Median-of-repeats ns per operation; each repeat runs the op enough
/// times to outlast timer noise.
double time_ns(const std::function<std::uint64_t()>& run, std::size_t inner,
               std::size_t repeats, std::uint64_t& sink) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < inner; ++i) sink ^= run();
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    samples.push_back(elapsed.count() / static_cast<double>(inner));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<Kernel> make_kernels() {
  std::vector<Kernel> kernels;

  // FFT, radix-2 path (the imaging chain's workhorse transform).
  for (const std::size_t n : {1024u, 4096u}) {
    dsp::ComplexSignal x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
    kernels.push_back({"fft_pow2", n, [x, n]() {
                         dsp::ComplexSignal y = x;
                         dsp::fft_pow2_in_place(y, false);
                         return digest(y.data(), n);
                       }});
  }

  // Zero-phase band-pass, single channel (the seed scalar path) and the
  // frame-interleaved multi-channel kernel the imaging front end uses.
  {
    const auto f = dsp::butterworth_bandpass(4, 2000.0, 3000.0, 48000.0);
    const dsp::Signal x = random_signal(2880, 1);
    kernels.push_back({"filtfilt_1ch", 2880, [f, x]() {
                         const auto y = f.filtfilt(x);
                         return digest(y.data(), y.size());
                       }});
    std::vector<dsp::Signal> chans;
    for (unsigned c = 0; c < 6; ++c)
      chans.push_back(random_signal(2880, 10 + c));
    kernels.push_back({"filtfilt_6ch", 6 * 2880, [f, chans]() {
                         const auto y = f.filtfilt_multi(chans);
                         std::uint64_t h = 0;
                         for (const auto& ch : y)
                           h ^= digest(ch.data(), ch.size());
                         return h;
                       }});
  }

  // Hilbert envelope front end.
  {
    const dsp::Signal x = random_signal(2880, 2);
    kernels.push_back({"analytic_signal", 2880, [x]() {
                         const auto y = dsp::analytic_signal(x);
                         return digest(y.data(), y.size());
                       }});
  }

  // Matched filter (pulse compression) against the chirp template.
  {
    const dsp::Signal x = random_signal(2880, 3);
    const auto a = dsp::analytic_signal(x);
    const auto tmpl = dsp::Chirp(dsp::ChirpParams{}).sample(48000.0);
    kernels.push_back({"matched_filter_envelope", 2880, [a, tmpl]() {
                         const auto y = dsp::matched_filter_envelope(a, tmpl);
                         return digest(y.data(), y.size());
                       }});
  }

  // Per-image imaging stages on a 6-channel, 2880-sample beep with a
  // 2048-sample noise capture, 5 sub-bands, 1 thread.
  {
    const auto geometry = array::make_respeaker_array();
    dsp::MultiChannelSignal beep, noise;
    for (unsigned c = 0; c < 6; ++c) {
      beep.channels.push_back(random_signal(2880, 20 + c));
      noise.channels.push_back(random_signal(2048, 30 + c));
    }
    core::ImagingConfig cfg;
    cfg.num_subbands = 5;
    cfg.num_threads = 1;
    // The attempt's noise model: noise front end, covariances, inverses.
    const auto imager = std::make_shared<core::AcousticImager>(cfg, geometry);
    kernels.push_back({"noise_model_5band", 6 * 2048, [imager, noise]() {
                         const auto model = imager->noise_model(noise);
                         const auto& inv = model.bands.back().inverse.data();
                         return digest(inv.data(), inv.size());
                       }});
    // The per-beep front end: band-pass, direct suppression, then per band
    // sub-band filter, analytic signal and matched filter on every channel.
    // A 1x1 incoherent-only grid leaves no weights and a one-pixel sweep.
    core::ImagingConfig fe_cfg = cfg;
    fe_cfg.grid_size = 1;
    fe_cfg.incoherent_mix = 1.0;
    const auto fe = std::make_shared<core::AcousticImager>(fe_cfg, geometry);
    const auto fe_noise = std::make_shared<core::AcousticImager::NoiseModel>(
        fe->noise_model(noise));
    kernels.push_back(
        {"image_frontend_5band", 6 * 2880, [fe, fe_noise, beep]() {
           const auto bands = fe->construct_bands(beep, units::Meters{0.7},
                                                  0.0002, *fe_noise);
           std::uint64_t h = 0;
           for (const auto& b : bands) h ^= digest(b.data().data(), b.size());
           return h;
         }});
    // The weight fill of one cold 180x180 paper-scale image, all 5 bands,
    // MVDR: AcousticImager::fill_weight_row over every row, as band 0's
    // sweep runs it on a cache miss, into tables allocated beforehand
    // (allocating fresh tables is first-touch page-fault bound, so it is
    // left out of this compute figure).
    core::ImagingConfig paper = cfg;
    paper.grid_size = 180;
    paper.grid_spacing_m = 0.01;
    const auto paper_imager =
        std::make_shared<core::AcousticImager>(paper, geometry);
    const auto model = std::make_shared<core::AcousticImager::NoiseModel>(
        paper_imager->noise_model(noise));
    const std::size_t pixels = paper.grid_size * paper.grid_size;
    const auto tables =
        std::make_shared<std::vector<std::shared_ptr<array::WeightTable>>>();
    for (std::size_t b = 0; b < paper.num_subbands; ++b)
      tables->push_back(std::make_shared<array::WeightTable>(
          pixels, geometry.num_mics()));
    kernels.push_back(
        {"weight_fill_180x180x5", pixels * paper.num_subbands,
         [paper_imager, model, tables]() {
           const std::size_t grid = paper_imager->config().grid_size;
           for (std::size_t row = 0; row < grid; ++row)
             paper_imager->fill_weight_row(*model, units::Meters{0.7}, row,
                                           *tables);
           std::uint64_t h = 0;
           for (const auto& t : *tables)
             h ^= digest(t->row(0), t->num_rows() * t->num_channels());
           return h;
         },
         true});
  }

  return kernels;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const std::size_t inner = smoke ? 3 : 20;
  const std::size_t repeats = smoke ? 3 : 9;

  const std::vector<simd::Isa> lanes = simd::supported_isas();
  std::cout << "== DSP kernel micro-bench: ISA lane sweep ==\n(lanes:";
  for (const simd::Isa isa : lanes) std::cout << ' ' << simd::isa_name(isa);
  std::cout << (smoke ? ", SMOKE" : "") << ")\n\n";

  struct LaneTiming {
    std::string isa;
    double ns_per_op = 0.0;
    double speedup_vs_scalar = 0.0;
    bool bit_identical = false;
  };
  struct KernelReport {
    std::string name;
    std::size_t n = 0;
    bool lane_independent = false;  ///< one timing, no lanes
    std::vector<LaneTiming> lanes;
  };

  const std::vector<Kernel> kernels = make_kernels();
  std::vector<KernelReport> reports;
  std::vector<std::vector<std::string>> rows;
  std::uint64_t sink = 0;
  bool all_bit_identical = true;

  for (const Kernel& k : kernels) {
    KernelReport report;
    report.name = k.name;
    report.n = k.n;
    report.lane_independent = k.lane_independent;
    if (k.lane_independent) {
      LaneTiming t;
      t.isa = "none";
      (void)k.run();
      t.ns_per_op = time_ns(k.run, inner, repeats, sink);
      report.lanes.push_back(t);
      rows.push_back({k.name, std::to_string(k.n), t.isa,
                      eval::fmt(t.ns_per_op), "-", "-"});
      reports.push_back(std::move(report));
      std::cerr << '.' << std::flush;
      continue;
    }
    double scalar_ns = 0.0;
    std::uint64_t scalar_digest = 0;
    for (const simd::Isa isa : lanes) {
      simd::ScopedIsa forced(isa);
      LaneTiming t;
      t.isa = simd::isa_name(isa);
      const std::uint64_t d = k.run();
      t.ns_per_op = time_ns(k.run, inner, repeats, sink);
      if (isa == simd::Isa::kScalar) {
        scalar_ns = t.ns_per_op;
        scalar_digest = d;
      }
      t.speedup_vs_scalar =
          t.ns_per_op > 0.0 ? scalar_ns / t.ns_per_op : 0.0;
      t.bit_identical = (d == scalar_digest);
      all_bit_identical &= t.bit_identical;
      report.lanes.push_back(t);
      rows.push_back({k.name, std::to_string(k.n), t.isa,
                      eval::fmt(t.ns_per_op),
                      eval::fmt(t.speedup_vs_scalar),
                      t.bit_identical ? "yes" : "NO"});
    }
    reports.push_back(std::move(report));
    std::cerr << '.' << std::flush;
  }
  std::cerr << '\n';

  eval::print_table(
      std::cout,
      {"kernel", "n", "isa", "ns/op", "speedup", "bit-identical"}, rows);
  std::cout << "\ncross-lane bit-exactness: "
            << (all_bit_identical ? "PASS" : "FAIL") << "\n(sink "
            << (sink & 0xF) << ")\n";

  std::ofstream json("BENCH_micro_dsp.json");
  json << "{\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"hardware_threads\": "
       << std::max(1u, std::thread::hardware_concurrency())
       << ",\n  \"build_type\": \"" << ECHOIMAGE_BUILD_TYPE
       << "\",\n  \"best_isa\": \"" << simd::isa_name(simd::best_isa())
       << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    json << "    {\"name\": \"" << r.name << "\", \"n\": " << r.n;
    if (r.lane_independent) {
      json << ", \"lane_independent\": true, \"ns_per_op\": "
           << r.lanes.front().ns_per_op << "}"
           << (i + 1 < reports.size() ? "," : "") << "\n";
      continue;
    }
    json << ", \"lanes\": [";
    for (std::size_t l = 0; l < r.lanes.size(); ++l) {
      const LaneTiming& t = r.lanes[l];
      json << "{\"isa\": \"" << t.isa << "\", \"ns_per_op\": " << t.ns_per_op
           << ", \"speedup_vs_scalar\": " << t.speedup_vs_scalar
           << ", \"bit_identical\": " << (t.bit_identical ? "true" : "false")
           << "}" << (l + 1 < r.lanes.size() ? ", " : "");
    }
    json << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"bit_exactness_pass\": "
       << (all_bit_identical ? "true" : "false") << "\n}\n";
  std::cout << "wrote BENCH_micro_dsp.json\n";

  return all_bit_identical ? 0 : 1;
}
