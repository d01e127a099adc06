#include "dsp/matched_filter.hpp"

#include <cmath>

#include "dsp/fft.hpp"
#include "simd/kernels.hpp"

namespace echoimage::dsp {

ComplexSignal matched_filter_complex(const ComplexSignal& received,
                                     std::span<const Sample> tmpl) {
  if (received.empty() || tmpl.empty())
    return ComplexSignal(received.size(), Complex(0.0, 0.0));
  const std::size_t n = received.size() + tmpl.size() - 1;
  const std::size_t m = next_pow2(n);
  ComplexSignal fr(m, Complex(0.0, 0.0));
  ComplexSignal ft(m, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < received.size(); ++i) fr[i] = received[i];
  for (std::size_t i = 0; i < tmpl.size(); ++i) ft[i] = Complex(tmpl[i], 0.0);
  fft_pow2_in_place(fr, false);
  fft_pow2_in_place(ft, false);
  // Correlation: IFFT(R * conj(S)); non-negative lags land at the front.
  simd::kernels().complex_conj_mul_f64(fr.data(), ft.data(), m);
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
