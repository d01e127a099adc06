#include "dsp/matched_filter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "simd/kernels.hpp"

namespace echoimage::dsp {

ComplexSignal matched_filter_complex(const ComplexSignal& received,
                                     std::span<const Sample> tmpl) {
  return matched_filter_complex(received,
                                template_spectrum(tmpl, received.size()));
}

TemplateSpectrum template_spectrum(std::span<const Sample> tmpl,
                                   std::size_t received_length) {
  TemplateSpectrum out;
  out.received_length = received_length;
  if (received_length == 0 || tmpl.empty()) return out;
  out.spectrum.assign(next_pow2(received_length + tmpl.size() - 1),
                      Complex(0.0, 0.0));
  for (std::size_t i = 0; i < tmpl.size(); ++i)
    out.spectrum[i] = Complex(tmpl[i], 0.0);
  fft_pow2_in_place(out.spectrum, false);
  return out;
}

ComplexSignal matched_filter_complex(const ComplexSignal& received,
                                     const TemplateSpectrum& tmpl) {
  if (received.size() != tmpl.received_length)
    throw std::invalid_argument(
        "matched_filter_complex: template transformed for another length");
  if (tmpl.spectrum.empty())
    return ComplexSignal(received.size(), Complex(0.0, 0.0));
  const std::size_t m = tmpl.spectrum.size();
  ComplexSignal fr(m, Complex(0.0, 0.0));
  std::copy(received.begin(), received.end(), fr.begin());
  fft_pow2_in_place(fr, false);
  // Correlation: IFFT(R * conj(S)); non-negative lags land at the front.
  simd::kernels().complex_conj_mul_f64(fr.data(), tmpl.spectrum.data(), m);
  fft_pow2_in_place(fr, true);
  fr.resize(received.size());
  return fr;
}

Signal matched_filter_envelope(const ComplexSignal& received,
                               std::span<const Sample> tmpl) {
  const ComplexSignal c = matched_filter_complex(received, tmpl);
  Signal out(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) out[i] = std::abs(c[i]);
  return out;
}

}  // namespace echoimage::dsp
