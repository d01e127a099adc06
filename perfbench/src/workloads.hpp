// The three workloads. Each renders its inputs, sets the program up,
// measures for `args.seconds`, checks the outputs, and fills the result:
// the end-to-end metrics with `args.trace == false`, the per-layer
// metrics (see kLayerMetrics) with `args.trace == true`.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Per-layer metric names and units, in output order. A traced run prints
/// every one of them; a layer the workload never calls reads 0.
extern const std::vector<std::pair<std::string, std::string>> kLayerMetrics;

using LayerValues = std::map<std::string, double>;

/// Moves the layer values into `result` in kLayerMetrics order.
void emit_layers(const LayerValues& values, Result& result);

/// Turns span recording on or off. The bundle's tracer is handed out
/// const (recording is an observation), but flipping it between
/// operations is the traced run's own business.
void set_recording(const echoimage::obs::Tracer& tracer, bool on);

/// Total recorded duration per span name over every lane, in seconds;
/// clears the tracer.
[[nodiscard]] std::map<std::string, double> drain_spans(
    const echoimage::obs::Tracer& tracer);

/// The common end-to-end block. `extra` is a fragment of JSON members
/// ("key": value, ...) printed before the result; the tail's percentile
/// and n are appended to it.
void emit_end_to_end(const std::vector<double>& latencies_s, double ops_per_s,
                     double setup_s, double genuine_accept_frac,
                     double impostor_accept_frac, Result& result,
                     std::string& extra);

/// Appends the host-gauge samples (min, median, max) and the unscaled
/// latency median, tail and ops_per_s to `extra`, next to the scaled
/// figures of the result.
void append_unscaled(const std::vector<double>& gauge_s,
                     const std::vector<double>& latencies_s, double ops_per_s,
                     std::string& extra);

Result run_auth_paper(const Args& args, std::string& extra);
Result run_serve_poisson(const Args& args, std::string& extra);
Result run_ident_churn(const Args& args, std::string& extra);

}  // namespace perfbench
