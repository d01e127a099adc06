// Matched filtering against the probing chirp (paper Eq. 9).
//
// C_l(t) = (r_l * h)(t) with h(t) = s*(-t): correlating the received signal
// with the known beep compresses each echo into a sharp peak whose position
// encodes its round-trip delay.
#pragma once

#include <cstddef>

#include "dsp/signal.hpp"

namespace echoimage::dsp {

/// Complex matched-filter output of an analytic signal (the compressed
/// pulse train), aligned so that index i corresponds to an echo whose
/// *onset* is at sample i of `received` (the correlation lag where the
/// template starts). Output length equals `received.size()`. Beamforming
/// weights can be applied to the compressed channels directly — correlation
/// and beamforming are both linear and time-invariant, so the order is
/// interchangeable.
[[nodiscard]] ComplexSignal matched_filter_complex(
    const ComplexSignal& received, std::span<const Sample> tmpl);

/// A template transformed once for correlating many equal-length signals:
/// the spectrum of `tmpl` zero-padded to the transform size that
/// matched_filter_complex uses for `received_length`-sample inputs, so
/// sharing it gives bit-identical outputs. Empty when either length is 0.
struct TemplateSpectrum {
  std::size_t received_length = 0;
  ComplexSignal spectrum;
};
[[nodiscard]] TemplateSpectrum template_spectrum(std::span<const Sample> tmpl,
                                                 std::size_t received_length);

/// matched_filter_complex against a pre-transformed template. Throws
/// std::invalid_argument when `received` is not the length `tmpl` was
/// transformed for.
[[nodiscard]] ComplexSignal matched_filter_complex(
    const ComplexSignal& received, const TemplateSpectrum& tmpl);

/// |matched_filter_complex(received, tmpl)|: correlating the analytic
/// signal with a real template yields the analytic correlation, so the
/// magnitude is already the correlation envelope (no second Hilbert pass).
[[nodiscard]] Signal matched_filter_envelope(const ComplexSignal& received,
                                             std::span<const Sample> tmpl);

}  // namespace echoimage::dsp
