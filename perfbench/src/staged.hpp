// The supervisor's authentication path, one stage at a time, so each
// stage can be timed from outside around the call into its layer.
#pragma once

#include "array/weight_cache.hpp"
#include "common.hpp"
#include "core/supervisor.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The supervisor's authentication of a clean capture, one stage at a
/// time: health gate, distance, per-beep images, features, per-beep
/// SVDD/SVM and the same majority vote. `layers` (may be disabled) times
/// each call; with observability on, the imaging spans split each image
/// into front-end and sweep.
[[nodiscard]] echoimage::core::AuthDecision staged_authenticate(
    const echoimage::core::EchoImagePipeline& p,
    const echoimage::core::Authenticator& auth,
    const echoimage::core::CaptureAttempt& cap, LayerClock& layers,
    Result& result);

/// Bit-exact equality of two decisions (outcome, user and SVDD score).
[[nodiscard]] bool same_decision(const echoimage::core::AuthDecision& a,
                                 const echoimage::core::AuthDecision& b);

/// The per-stage medians of staged attempts timed into `stage`, into
/// `layers`; returns the share of the attempts' wall time (`traced_s`)
/// the stages account for.
double emit_stage_layers(const LayerClock& stage,
                         const std::vector<double>& traced_s,
                         LayerValues& layers);

/// Hit rate and flushes of the weight cache between two snapshots.
void emit_cache_layers(const echoimage::array::WeightCacheStats& before,
                       const echoimage::array::WeightCacheStats& after,
                       LayerValues& layers);

}  // namespace perfbench
