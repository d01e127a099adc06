// ident_churn: closed loop, one client, 1:N identification against a
// 10k-user gallery store (MemoryEnv, 32 shards, shortlist k = 16, verifier
// cache of 256) while enrollment churns: after every fixed number of
// probes one write commits a small upsert batch and refreshes the
// Identifier, which drops its verifier cache.
#include <ctime>
#include <memory>
#include <sstream>

#include "ident/identify.hpp"
#include "inputs.hpp"
#include "store/env.hpp"
#include "store/store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ei = echoimage::ident;
namespace st = echoimage::store;

namespace {

/// Probes re-identified on a fresh, cache-less Identifier at the end.
constexpr std::size_t kRecheckProbes = 256;

struct System {
  std::unique_ptr<st::MemoryEnv> env;
  std::unique_ptr<st::TemplateStore> store;
  std::unique_ptr<ei::Identifier> identifier;
};

st::StoreConfig store_config() {
  st::StoreConfig cfg;
  cfg.root = "gallery";
  cfg.num_shards = IdentShape::kShards;
  return cfg;
}

ei::IdentConfig ident_config(std::size_t verifier_cache) {
  ei::IdentConfig cfg;
  cfg.shortlist_k = IdentShape::kShortlist;
  cfg.verifier_cache = verifier_cache;
  cfg.num_threads = 1;
  return cfg;
}

/// Set-up: store creation, commit of the initial gallery, Identifier
/// construction and index build.
System set_up(const IdentInputs& in,
              std::shared_ptr<const echoimage::obs::Observability> obs) {
  System s;
  s.env = std::make_unique<st::MemoryEnv>();
  s.store = std::make_unique<st::TemplateStore>(
      st::TemplateStore::init(store_config(), *s.env));
  s.store->commit(in.initial);
  s.identifier = std::make_unique<ei::Identifier>(
      *s.store, ident_config(IdentShape::kVerifierCache), std::move(obs));
  s.identifier->refresh();
  return s;
}

bool same_result(const ei::IdentifyResult& a, const ei::IdentifyResult& b) {
  if (a.status != b.status || a.user_id != b.user_id ||
      a.svdd_score != b.svdd_score || a.shortlist.size() != b.shortlist.size())
    return false;
  for (std::size_t i = 0; i < a.shortlist.size(); ++i)
    if (a.shortlist[i].user_id != b.shortlist[i].user_id) return false;
  return true;
}

}  // namespace

Result run_ident_churn(const Args& args, std::string& extra) {
  using S = IdentShape;
  Result result;
  LayerValues layers;

  double t0 = now_s();
  const IdentInputs in = make_ident_inputs(args.seed);
  layers["bench.inputs_s"] = now_s() - t0;

  std::shared_ptr<const echoimage::obs::Observability> obs;
  if (args.trace) {
    echoimage::obs::ObservabilityConfig oc;
    oc.enabled = true;
    oc.workers = 1;
    obs = echoimage::obs::make_observability(oc);
  }
  const HostGauge gauge;
  System sys;
  const double setup_s = median_setup_s(args.trace ? 1 : 5, &gauge,
                                        [&] { sys = set_up(in, obs); });
  ei::Identifier& identifier = *sys.identifier;

  // Accuracy on the fixture probes, against the committed gallery, on an
  // Identifier of its own so the timed one starts with its set-up cache.
  std::size_t genuine = 0, genuine_ok = 0, impostor = 0, impostor_in = 0;
  {
    ei::Identifier judge(*sys.store, ident_config(IdentShape::kVerifierCache));
    for (const IdentInputs::Probe& probe : in.accuracy) {
      const ei::IdentifyResult r = judge.identify(probe.feature);
      const bool identified = r.status == ei::IdentifyStatus::kIdentified;
      if (probe.true_user >= 0) {
        ++genuine;
        genuine_ok += identified && r.user_id == probe.true_user;
      } else {
        ++impostor;
        impostor_in += identified;
      }
    }
  }
  const std::uint64_t hits0 = identifier.cache().hits();
  const std::uint64_t misses0 = identifier.cache().misses();

  std::vector<double> latencies, traced_s, untraced_s, prefilter_s, verify_s,
      commit_s, refresh_s, writes_q;
  // Host-gauge samples in time order, one at the start of every window of
  // kGaugeEvery probes and one after every write; `opened[k]` is the
  // sample that opened probe k's window, and the next sample closes it.
  std::vector<double> gauge_s;
  std::vector<std::size_t> opened;
  std::size_t genuine_all = 0, recalled = 0, verifier_runs = 0, writes = 0,
              next_churn = 0;
  // Thread CPU time and wall time at the start of each cycle: a cycle's
  // CPU share shows whether a slow cycle lost the processor or ran slower.
  std::vector<std::pair<double, double>> cycle_marks;
  const auto mark = [&cycle_marks] {
    timespec cpu{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    cycle_marks.emplace_back(static_cast<double>(cpu.tv_sec) +
                                 1e-9 * static_cast<double>(cpu.tv_nsec),
                             now_s());
  };
  // Probes since the last write, with their results, for the recheck.
  std::vector<std::pair<std::size_t, ei::IdentifyResult>> recent;
  t0 = now_s();
  std::size_t i = 0;
  for (; now_s() - t0 < args.seconds || i % S::kProbesPerWrite != 0;
       ++i) {
    if (i % S::kProbesPerWrite == 0) mark();
    if (i % S::kGaugeEvery == 0) gauge_s.push_back(gauge.sample());
    if (i > 0 && i % S::kProbesPerWrite == 0) {
      std::vector<st::TemplateRecord> batch;
      for (std::size_t b = 0; b < S::kUpsertBatch; ++b)
        batch.push_back(in.churn[next_churn++ % in.churn.size()]);
      ++result.attempted;
      ++writes;
      double w = now_s();
      sys.store->commit(batch);
      commit_s.push_back(now_s() - w);
      w = now_s();
      identifier.refresh();
      refresh_s.push_back(now_s() - w);
      recent.clear();
      gauge_s.push_back(gauge.sample());
      writes_q.push_back(at_quiet_host(commit_s.back() + refresh_s.back(),
                                       gauge_s[gauge_s.size() - 2],
                                       gauge_s.back()));
    }
    opened.push_back(gauge_s.size() - 1);
    const IdentInputs::Probe& probe = in.probes[i % in.probes.size()];
    const bool traced = args.trace && i % 2 == 0;
    if (obs != nullptr)
      set_recording(obs->tracer(), traced);
    ++result.attempted;
    const double start = now_s();
    const ei::IdentifyResult r = identifier.identify(probe.feature);
    const double took = now_s() - start;
    latencies.push_back(took);
    if (args.trace) {
      (traced ? traced_s : untraced_s).push_back(took);
      if (traced) {
        std::map<std::string, double> spans = drain_spans(obs->tracer());
        prefilter_s.push_back(spans["ident.prefilter"]);
        verify_s.push_back(spans["ident.verify"]);
      }
    }
    if (r.status == ei::IdentifyStatus::kAbstain) ++result.failed;
    verifier_runs += r.verifier_runs;
    if (probe.true_user >= 0) {
      ++genuine_all;
      bool listed = false;
      for (const ei::Candidate& c : r.shortlist)
        listed = listed || c.user_id == probe.true_user;
      recalled += listed;
    }
    if (recent.size() < kRecheckProbes) recent.emplace_back(i, r);
  }
  const double wall = now_s() - t0;
  const std::size_t probes = i;
  mark();
  gauge_s.push_back(gauge.sample());
  // Every timed interval scaled to the quiet host by the gauge samples
  // around it; ops_per_s counts probes over the scaled probe and write
  // time (the gauge's own time is in neither).
  std::vector<double> latencies_q(probes);
  double busy_q = 0.0;
  for (std::size_t k = 0; k < probes; ++k) {
    latencies_q[k] = at_quiet_host(latencies[k], gauge_s[opened[k]],
                                   gauge_s[opened[k] + 1]);
    busy_q += latencies_q[k];
  }
  for (const double w : writes_q) busy_q += w;

  // Output checks: the prefilter lists every genuine probe's user, and a
  // cache-less Identifier on the same store answers the same.
  result.check(recalled == genuine_all,
               "ident_churn: a genuine probe's user missed the shortlist");
  ei::Identifier fresh(*sys.store, ident_config(0));
  for (const auto& [k, r] : recent)
    result.check(
        same_result(fresh.identify(in.probes[k % in.probes.size()].feature),
                    r),
        "ident_churn: a cache-less Identifier disagrees on probe " +
            std::to_string(k));

  std::ostringstream os;
  os << "\"probes\": " << probes << ", \"writes\": " << writes
     << ", \"genuine\": [" << genuine_ok << ", " << genuine
     << "], \"impostor\": [" << impostor_in << ", " << impostor
     << "], \"rechecked\": " << recent.size() ;
  // Median probe latency of each read cycle between two writes: shows
  // whether the run's latency moved with the writes or with the host.
  os << ", \"cycle_p50_s\": [";
  for (auto c = latencies.begin();
       latencies.end() - c >= static_cast<std::ptrdiff_t>(S::kProbesPerWrite);
       c += S::kProbesPerWrite)
    os << (c == latencies.begin() ? "" : ", ")
       << median(std::vector<double>(c, c + S::kProbesPerWrite));
  os << "], \"cycle_cpu_frac\": [";
  for (std::size_t c = 1; c < cycle_marks.size(); ++c)
    os << (c == 1 ? "" : ", ")
       << (cycle_marks[c].first - cycle_marks[c - 1].first) /
              (cycle_marks[c].second - cycle_marks[c - 1].second);
  os << "]";
  // Post-write probes form their own mode: their latency, by position in
  // the cycle, against the rest.
  {
    std::vector<double> first, next9, rest;
    for (std::size_t k = 0; k < latencies.size(); ++k) {
      const std::size_t pos = k % S::kProbesPerWrite;
      (pos == 0 ? first : pos < 10 ? next9 : rest).push_back(latencies[k]);
    }
    os << ", \"post_write_p50_s\": [" << median(first) << ", " << median(next9)
       << ", " << median(rest) << "]";
  }
  extra = os.str();

  if (!args.trace) {
    append_unscaled(gauge_s, latencies, static_cast<double>(probes) / wall,
                    extra);
    emit_end_to_end(latencies_q, static_cast<double>(probes) / busy_q,
                    setup_s, laplace(genuine_ok, genuine),
                    laplace(impostor_in, impostor), result, extra);
    return result;
  }

  const double hits = static_cast<double>(identifier.cache().hits() - hits0);
  const double misses =
      static_cast<double>(identifier.cache().misses() - misses0);
  layers["ident.prefilter_s"] = median(prefilter_s);
  layers["ident.verify_s"] = median(verify_s);
  layers["ident.verifier_runs"] =
      static_cast<double>(verifier_runs) / static_cast<double>(probes);
  layers["ident.verifier_cache.hit_rate"] =
      hits / std::max(1.0, hits + misses);
  layers["ident.recall_at_k"] =
      static_cast<double>(recalled) /
      static_cast<double>(std::max<std::size_t>(1, genuine_all));
  layers["ident.refresh_s"] = median(refresh_s);
  layers["store.commit_s"] = median(commit_s);
  layers["store.bytes"] = static_cast<double>(sys.store->stats().stored_bytes);
  // Probe coverage: prefilter plus verify over the traced probes' time.
  // Writes are timed whole (commit, refresh) and left out of both sides.
  double covered = 0.0, traced_total = 0.0;
  for (const auto* v : {&prefilter_s, &verify_s})
    for (const double s : *v) covered += s;
  for (const double s : traced_s) traced_total += s;
  layers["bench.stage_coverage_frac"] = covered / traced_total;
  layers["bench.trace_overhead_frac"] =
      median(traced_s) / median(untraced_s) - 1.0;
  emit_layers(layers, result);
  return result;
}

}  // namespace perfbench
