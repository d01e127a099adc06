#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "array/geometry.hpp"
#include "eval/roster.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/random.hpp"
#include "store/record.hpp"
#include "units/units.hpp"

namespace perfbench {

namespace ee = echoimage::eval;
namespace es = echoimage::sim;

namespace {

/// Seed of the fixed evaluation fixture: the roster that enrolls and the
/// attempts the accuracy fractions are taken on (see README.md).
constexpr std::uint64_t kFixtureSeed = 0xEC401;

/// Input generation fans out over every hardware thread; outputs land in
/// index-addressed slots, so they do not depend on the worker count.
template <typename Body>
void fan_out(std::size_t n, const Body& body) {
  echoimage::runtime::ThreadPool pool(echoimage::runtime::resolve_workers(0));
  echoimage::runtime::parallel_for(
      pool, n, [&](std::size_t i, std::size_t) { body(i); });
}

Capture to_capture(ee::CaptureBatch batch) {
  return std::make_shared<const echoimage::core::CaptureAttempt>(
      echoimage::core::CaptureAttempt{std::move(batch.beeps),
                                      std::move(batch.noise_only)});
}

ee::DataCollector make_collector(std::uint64_t seed) {
  return ee::DataCollector(es::CaptureConfig{},
                           echoimage::array::make_respeaker_array(),
                           es::mix_seed(seed, 0xC011EC7));
}

/// Roster users: the bodies, and which subjects enroll and which act as
/// impostors, depend on `seed`.
struct Population {
  std::vector<ee::SimulatedUser> enrolled;
  std::vector<ee::SimulatedUser> impostors;
};

/// Seeded Fisher-Yates shuffle of [first, last).
template <typename It>
void shuffle(It first, It last, std::uint64_t seed) {
  es::Rng rng(seed);
  for (auto i = last - first; i > 1; --i)
    std::swap(first[i - 1],
              first[rng.uniform_int(0, static_cast<int>(i) - 1)]);
}

Population draw_population(std::uint64_t seed, std::size_t num_enrolled,
                           std::size_t num_impostors) {
  std::vector<ee::SimulatedUser> users =
      ee::make_users(ee::make_roster(), es::mix_seed(seed, 0xB0D1E5));
  shuffle(users.begin(), users.end(), es::mix_seed(seed, 0x5E1EC7));
  Population p;
  p.enrolled.assign(users.begin(), users.begin() + num_enrolled);
  p.impostors.assign(users.begin() + num_enrolled,
                     users.begin() + num_enrolled + num_impostors);
  return p;
}

/// Enrollment of one user: `visits` augmented visits of `beeps` beeps and
/// one calibration visit of `calib_beeps` beeps (0 = none), all at the
/// default 0.7 m stance.
EnrollmentCaptures enroll_captures(const ee::DataCollector& collector,
                                   const ee::SimulatedUser& user,
                                   std::size_t visits, std::size_t beeps,
                                   std::size_t calib_beeps) {
  EnrollmentCaptures e;
  e.user_id = user.subject.user_id;
  ee::CollectionConditions cond;
  for (std::size_t v = 0; v < visits; ++v) {
    cond.repetition = 10 + static_cast<int>(v);
    e.visits.push_back(collector.collect(user, cond, beeps));
  }
  if (calib_beeps > 0) {
    cond.repetition = 9;
    e.calibration.push_back(collector.collect(user, cond, calib_beeps));
  }
  return e;
}

// FNV-1a over raw bytes.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void doubles(const std::vector<double>& v) {
    value(v.size());
    bytes(v.data(), v.size() * sizeof(double));
  }
  void signal(const echoimage::dsp::MultiChannelSignal& s) {
    value(s.channels.size());
    for (const auto& ch : s.channels) doubles(ch);
  }
  void batch(const ee::CaptureBatch& b) {
    value(b.beeps.size());
    for (const auto& beep : b.beeps) signal(beep);
    signal(b.noise_only);
    value(b.true_distance_m);
  }
  void capture(const LabeledCapture& c) {
    value(c.true_user);
    value(c.distance_m);
    value(c.capture->beeps.size());
    for (const auto& beep : c.capture->beeps) signal(beep);
    signal(c.capture->noise_only);
  }
  void enrollment(const std::vector<EnrollmentCaptures>& all) {
    value(all.size());
    for (const EnrollmentCaptures& e : all) {
      value(e.user_id);
      for (const auto& b : e.visits) batch(b);
      for (const auto& b : e.calibration) batch(b);
    }
  }
};

/// `n` probes of the first kGalleryUsers gallery users, Zipf-skewed over
/// a seeded permutation (so a verifier cache sees a hot head and a long
/// cold tail), with a kImpostorShare of never-enrolled bodies; each probe
/// is a fresh session drawn on its own stream.
std::vector<IdentInputs::Probe> draw_probes(const ee::GalleryConfig& gallery,
                                            std::uint64_t seed,
                                            std::size_t n) {
  using S = IdentShape;
  std::vector<std::size_t> rank_to_user(S::kGalleryUsers);
  for (std::size_t i = 0; i < rank_to_user.size(); ++i) rank_to_user[i] = i;
  shuffle(rank_to_user.begin(), rank_to_user.end(),
          es::mix_seed(seed, 0x21BF));
  std::vector<double> cdf(S::kGalleryUsers);
  double total = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), S::kZipfExponent);
    cdf[r] = total;
  }
  es::Rng rng(es::mix_seed(seed, 0x9A0B));
  std::vector<std::size_t> body(n);
  std::vector<bool> genuine(n);
  for (std::size_t i = 0; i < n; ++i) {
    genuine[i] = rng.uniform(0.0, 1.0) >= S::kImpostorShare;
    if (genuine[i]) {
      const double u = rng.uniform(0.0, total);
      const auto r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      body[i] = rank_to_user[std::min(r, cdf.size() - 1)];
    } else {
      // Bodies past every enrolled and churned user: never in the store.
      body[i] = gallery.num_users +
                static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<int>(S::kImpostorBodies) - 1));
    }
  }
  std::vector<IdentInputs::Probe> probes(n);
  fan_out(n, [&](std::size_t i) {
    probes[i].true_user =
        genuine[i] ? gallery.first_user_id + static_cast<int>(body[i]) : -1;
    probes[i].feature =
        ee::make_gallery_probe(gallery, body[i], es::mix_seed(seed, i));
  });
  return probes;
}

}  // namespace

AuthPaperInputs make_auth_paper_inputs(std::uint64_t seed) {
  using S = AuthPaperShape;
  // The enrolled roster and the accuracy attempts come from the fixture;
  // the seed orders the accuracy attempts and renders the rest of the pool.
  const Population pop =
      draw_population(kFixtureSeed, S::kEnrolled, S::kImpostors);
  const ee::DataCollector fixture = make_collector(kFixtureSeed);
  const ee::DataCollector seeded = make_collector(seed);
  AuthPaperInputs in;
  in.enrollment.resize(S::kEnrolled);
  in.probes.resize(S::kPool);
  struct Plan {
    const ee::SimulatedUser* user;
    bool genuine;
    double distance;
  };
  const auto plan_pool = [&](std::uint64_t plan_seed, std::size_t n) {
    es::Rng rng(es::mix_seed(plan_seed, 0xA77E));
    std::vector<Plan> plan;
    for (std::size_t i = 0; i < n; ++i) {
      const bool genuine = i % 3 != 2;  // genuine:impostor = 2:1
      const auto& group = genuine ? pop.enrolled : pop.impostors;
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(group.size()) - 1));
      plan.push_back({&group[pick], genuine,
                      rng.uniform(S::kMinDistance, S::kMaxDistance)});
    }
    return plan;
  };
  std::vector<Plan> plan = plan_pool(kFixtureSeed, S::kFixtureAttempts);
  for (const Plan& p : plan_pool(seed, S::kPool - S::kFixtureAttempts))
    plan.push_back(p);
  fan_out(S::kEnrolled + S::kPool, [&](std::size_t i) {
    if (i < S::kEnrolled) {
      in.enrollment[i] =
          enroll_captures(fixture, pop.enrolled[i], 1, S::kEnrollBeeps, 1);
      return;
    }
    const std::size_t p = i - S::kEnrolled;
    const bool in_fixture = p < S::kFixtureAttempts;
    ee::CollectionConditions cond;
    cond.distance_m = plan[p].distance;
    cond.repetition = 100 + static_cast<int>(p);
    LabeledCapture& out = in.probes[p];
    out.true_user = plan[p].genuine ? plan[p].user->subject.user_id : -1;
    out.distance_m = plan[p].distance;
    out.capture = to_capture((in_fixture ? fixture : seeded)
                                 .collect(*plan[p].user, cond, S::kProbeBeeps));
  });
  shuffle(in.probes.begin(), in.probes.begin() + S::kFixtureAttempts,
          es::mix_seed(seed, 0x0DE4));
  return in;
}

/// Poisson arrivals from kSessions equal-rate sessions, conditioned on
/// their total count: round(kTotalRateHz x duration) arrivals at
/// independent uniform times, each from a uniformly drawn session, which
/// is what a Poisson process conditioned on its count is. A fixed count
/// keeps the weight-cache flushes per run the same: with a Poisson count
/// a run saw one or two, and the tail moved with them.
namespace {

std::vector<echoimage::serve::Arrival> fixed_count_arrivals(
    std::uint64_t seed, double duration_s) {
  using S = ServeShape;
  namespace sd = echoimage::serve::detail;
  const auto n =
      static_cast<std::size_t>(std::llround(S::kTotalRateHz * duration_s));
  std::vector<echoimage::serve::Arrival> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k].time_s = duration_s * (1.0 - sd::unit_open(seed, 0, k));
    out[k].session_id = static_cast<std::uint64_t>(std::ceil(
                            sd::unit_open(seed, 1, k) *
                            static_cast<double>(S::kSessions))) -
                        1;
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.time_s != b.time_s ? a.time_s < b.time_s
                                : a.session_id < b.session_id;
  });
  return out;
}

}  // namespace

ServeInputs make_serve_inputs(std::uint64_t seed, double duration_s) {
  using S = ServeShape;
  // Fixture roster, enrollment and accuracy captures; the seed renders
  // every served frame and draws the arrival times.
  const Population pop =
      draw_population(kFixtureSeed, S::kGenuineSessions, S::kImpostorSessions);
  const ee::DataCollector fixture = make_collector(kFixtureSeed);
  const ee::DataCollector collector = make_collector(seed);
  ServeInputs in;
  in.enrollment.resize(S::kGenuineSessions);
  std::vector<const ee::SimulatedUser*> session_body;
  for (const auto& u : pop.enrolled) {
    session_body.push_back(&u);
    in.session_user.push_back(u.subject.user_id);
  }
  for (const auto& u : pop.impostors) {
    session_body.push_back(&u);
    in.session_user.push_back(-1);
  }
  in.arrivals = fixed_count_arrivals(es::mix_seed(seed, 0xA221), duration_s);
  in.frames.resize(in.arrivals.size());
  const std::size_t num_fixture = S::kSessions * S::kFixturePerSession;
  in.accuracy.resize(num_fixture);
  fan_out(S::kGenuineSessions + num_fixture + in.arrivals.size(),
          [&](std::size_t i) {
    if (i < S::kGenuineSessions) {
      // The enrollment of make_serve_lanes: two augmented visits plus a
      // calibration visit of half as many beeps.
      in.enrollment[i] = enroll_captures(fixture, pop.enrolled[i], 2,
                                         S::kEnrollBeeps, S::kEnrollBeeps / 2);
      return;
    }
    if (i < S::kGenuineSessions + num_fixture) {
      const std::size_t k = i - S::kGenuineSessions;
      const std::size_t s = k / S::kFixturePerSession;
      ee::CollectionConditions cond;
      cond.repetition = 500 + static_cast<int>(k);
      in.accuracy[k].session = s;
      in.accuracy[k].probe.true_user = in.session_user[s];
      in.accuracy[k].probe.distance_m = cond.distance_m;
      in.accuracy[k].probe.capture = to_capture(
          fixture.collect(*session_body[s], cond, S::kFrameBeeps));
      return;
    }
    const std::size_t f = i - S::kGenuineSessions - num_fixture;
    const std::size_t s = in.arrivals[f].session_id;
    ee::CollectionConditions cond;
    cond.repetition = 1000 + static_cast<int>(f);
    LabeledCapture& out = in.frames[f];
    out.true_user = in.session_user[s];
    out.distance_m = cond.distance_m;
    out.capture = to_capture(
        collector.collect(*session_body[s], cond, S::kFrameBeeps));
  });
  return in;
}

IdentInputs make_ident_inputs(std::uint64_t seed) {
  using S = IdentShape;
  // The gallery and the accuracy probes are the fixture; the seed draws
  // the timed probes' identities, their order and their session noise.
  IdentInputs in;
  in.gallery.num_users = S::kGalleryUsers + S::kChurnUsers;
  in.gallery.seed = es::mix_seed(kFixtureSeed, 0x6A11E4);
  in.gallery.num_threads = 0;
  std::vector<echoimage::store::TemplateRecord> all =
      ee::make_gallery_records(in.gallery);
  in.churn.assign(std::make_move_iterator(all.begin() + S::kGalleryUsers),
                  std::make_move_iterator(all.end()));
  all.resize(S::kGalleryUsers);
  in.initial = std::move(all);
  in.accuracy = draw_probes(in.gallery, kFixtureSeed, S::kAccuracyProbes);
  in.probes = draw_probes(in.gallery, seed, S::kProbePool);
  return in;
}

std::uint64_t digest(const AuthPaperInputs& in) {
  Digest d;
  d.enrollment(in.enrollment);
  for (const LabeledCapture& c : in.probes) d.capture(c);
  return d.h;
}

std::uint64_t digest(const ServeInputs& in) {
  Digest d;
  d.enrollment(in.enrollment);
  for (const int u : in.session_user) d.value(u);
  for (const auto& a : in.arrivals) {
    d.value(a.time_s);
    d.value(a.session_id);
  }
  for (const LabeledCapture& c : in.frames) d.capture(c);
  for (const auto& a : in.accuracy) {
    d.value(a.session);
    d.capture(a.probe);
  }
  return d.h;
}

std::uint64_t digest(const IdentInputs& in) {
  Digest d;
  for (const auto* set : {&in.initial, &in.churn})
    for (const auto& r : *set) {
      const std::string bytes = echoimage::store::encode_record(r);
      d.value(bytes.size());
      d.bytes(bytes.data(), bytes.size());
    }
  for (const auto* set : {&in.accuracy, &in.probes})
    for (const auto& p : *set) {
      d.value(p.true_user);
      d.doubles(p.feature);
    }
  return d.h;
}

}  // namespace perfbench
