// Seeded input generation (the `sim` layer): everything a workload feeds
// the program is rendered here, before any timing starts, and is a pure
// function of the seed and the workload's fixed shape. Generation may use
// several threads; it is never timed as the program (its wall time is
// reported as `bench.inputs_s`).
//
// Part of every workload is a fixture that does not depend on the seed:
// the enrolled population and the set the accuracy fractions are taken
// on. Accuracy on a few dozen seeded attempts would swing by more than any
// bound from one seed to the next; on a fixed set it repeats exactly, so a
// changed value is a changed program. The seed draws everything else:
// which attempts are timed, in what order, at what distances and times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/supervisor.hpp"
#include "eval/dataset.hpp"
#include "eval/gallery.hpp"
#include "serve/frame.hpp"
#include "store/record.hpp"

namespace perfbench {

using Capture = std::shared_ptr<const echoimage::core::CaptureAttempt>;

/// One user's enrollment captures: `visits` are augmented training
/// batches, `calibration` a separate un-augmented visit (may be empty).
struct EnrollmentCaptures {
  int user_id = 0;
  std::vector<echoimage::eval::CaptureBatch> visits;
  std::vector<echoimage::eval::CaptureBatch> calibration;
};

/// A probe with its ground truth: `true_user` is the claimed roster id
/// for genuine probes and -1 for impostors.
struct LabeledCapture {
  int true_user = -1;
  double distance_m = 0.0;
  Capture capture;
};

// ---- auth_paper -------------------------------------------------------
struct AuthPaperShape {
  static constexpr std::size_t kEnrolled = 6;
  static constexpr std::size_t kImpostors = 8;
  /// One augmented 1-beep visit and a 1-beep calibration visit per user:
  /// a paper-scale image costs about half a second, and set-up runs three
  /// times per run.
  static constexpr std::size_t kEnrollBeeps = 1;
  static constexpr std::size_t kProbeBeeps = 3;
  /// The fixture: the attempts the accuracy fractions are taken on.
  static constexpr std::size_t kFixtureAttempts = 12;
  /// Attempts every run makes at least, enough for a tail percentile
  /// (20 samples); the first kFixtureAttempts are the fixture, the rest
  /// are seeded.
  static constexpr std::size_t kMinAttempts = 20;
  /// Distinct pre-rendered attempts; the loop cycles through them.
  static constexpr std::size_t kPool = 24;
  static constexpr double kMinDistance = 0.6;
  static constexpr double kMaxDistance = 1.5;
};

struct AuthPaperInputs {
  std::vector<EnrollmentCaptures> enrollment;
  std::vector<LabeledCapture> probes;  ///< genuine:impostor = 2:1
};

[[nodiscard]] AuthPaperInputs make_auth_paper_inputs(std::uint64_t seed);

// ---- serve_poisson ----------------------------------------------------
struct ServeShape {
  static constexpr std::size_t kGenuineSessions = 6;
  static constexpr std::size_t kImpostorSessions = 2;
  static constexpr std::size_t kSessions = kGenuineSessions + kImpostorSessions;
  /// Total offered rate over all sessions (Hz), never retuned. It keeps
  /// the one scheduler worker 0.25-0.4 busy (quiet to busy host). Nearer
  /// half busy, queueing amplified every change in service speed: 2-beep
  /// frames at 9 Hz gave a tail spread of 0.86 over six seeds.
  static constexpr double kTotalRateHz = 12.0;
  static constexpr std::size_t kGridSize = 24;
  static constexpr std::size_t kReducedSubbands = 2;
  static constexpr std::size_t kEnrollBeeps = 4;
  /// The schedule lasts at least this long, whatever --seconds asks, as
  /// auth_paper makes at least kMinAttempts: 360 frames, 36 above the
  /// tail's p90. With 180 frames the tail spread 0.34 over ten seeds.
  static constexpr double kMinScheduleS = 30.0;
  /// One beep per frame: twice the frames of 2-beep frames at the same
  /// load, so the tail percentile has more samples above it.
  static constexpr std::size_t kFrameBeeps = 1;
  /// Fixture captures per session for the accuracy pass.
  static constexpr std::size_t kFixturePerSession = 6;
};

struct ServeInputs {
  std::vector<EnrollmentCaptures> enrollment;  ///< genuine sessions only
  /// Session s claims identity session_user[s] (impostor sessions claim
  /// nothing: -1).
  std::vector<int> session_user;
  std::vector<echoimage::serve::Arrival> arrivals;  ///< time-sorted
  std::vector<LabeledCapture> frames;  ///< one distinct capture per arrival
  /// The accuracy fixture: kFixturePerSession captures of every session,
  /// the same for every seed.
  struct SessionCapture {
    std::size_t session = 0;
    LabeledCapture probe;
  };
  std::vector<SessionCapture> accuracy;
};

[[nodiscard]] ServeInputs make_serve_inputs(std::uint64_t seed,
                                            double duration_s);

// ---- ident_churn ------------------------------------------------------
struct IdentShape {
  static constexpr std::size_t kGalleryUsers = 10000;
  /// New users available to the write path (8 per write).
  static constexpr std::size_t kChurnUsers = 2048;
  static constexpr std::size_t kUpsertBatch = 8;
  /// One write (commit + refresh) after every this many probes; a run
  /// ends on a write boundary, so it holds whole read/write cycles.
  static constexpr std::size_t kProbesPerWrite = 2500;
  /// One host-gauge sample per this many probes (about 50 ms); divides
  /// kProbesPerWrite.
  static constexpr std::size_t kGaugeEvery = 250;
  static constexpr std::size_t kImpostorBodies = 2000;
  static constexpr double kImpostorShare = 0.2;
  static constexpr double kZipfExponent = 1.0;
  /// Distinct pre-generated timed probes; the loop cycles through them.
  static constexpr std::size_t kProbePool = 20000;
  /// Fixture probes of the accuracy pass.
  static constexpr std::size_t kAccuracyProbes = 5000;
  static constexpr std::size_t kShards = 32;
  static constexpr std::size_t kShortlist = 16;
  static constexpr std::size_t kVerifierCache = 256;
};

struct IdentInputs {
  echoimage::eval::GalleryConfig gallery;
  /// Committed at set-up.
  std::vector<echoimage::store::TemplateRecord> initial;
  std::vector<echoimage::store::TemplateRecord> churn;    ///< upserted later
  struct Probe {
    int true_user = -1;  ///< -1 = never-enrolled impostor body
    std::vector<double> feature;
  };
  std::vector<Probe> accuracy;  ///< the fixture, the same for every seed
  std::vector<Probe> probes;    ///< timed, drawn from the seed
};

[[nodiscard]] IdentInputs make_ident_inputs(std::uint64_t seed);

/// FNV-1a digest over every byte the workload's inputs hold (samples,
/// labels, times, features, serialized templates): equal digests mean
/// byte-identical inputs.
[[nodiscard]] std::uint64_t digest(const AuthPaperInputs& in);
[[nodiscard]] std::uint64_t digest(const ServeInputs& in);
[[nodiscard]] std::uint64_t digest(const IdentInputs& in);

}  // namespace perfbench
