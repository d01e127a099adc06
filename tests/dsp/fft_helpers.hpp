// Complex forward/inverse DFTs of any length built from the public FFT
// entry points, for the FFT tests: the in-place radix-2 transform for
// power-of-two sizes, otherwise fft_real (Bluestein) on the real and
// imaginary parts — the DFT is linear, and the inverse is
// conj(DFT(conj(X))) / N.
#pragma once

#include <complex>

#include "dsp/fft.hpp"

namespace echoimage::dsp::fft_testing {

inline ComplexSignal forward_dft(const ComplexSignal& x) {
  ComplexSignal y = x;
  if (y.empty()) return y;
  if (is_pow2(y.size())) {
    fft_pow2_in_place(y, false);
    return y;
  }
  Signal re(x.size()), im(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  const ComplexSignal fr = fft_real(re);
  const ComplexSignal fi = fft_real(im);
  for (std::size_t k = 0; k < y.size(); ++k)
    y[k] = fr[k] + Complex(0.0, 1.0) * fi[k];
  return y;
}

inline ComplexSignal inverse_dft(const ComplexSignal& spec) {
  ComplexSignal y = spec;
  if (y.empty()) return y;
  if (is_pow2(y.size())) {
    fft_pow2_in_place(y, true);
    return y;
  }
  for (Complex& c : y) c = std::conj(c);
  y = forward_dft(y);
  const double inv_n = 1.0 / static_cast<double>(y.size());
  for (Complex& c : y) c = std::conj(c) * inv_n;
  return y;
}

}  // namespace echoimage::dsp::fft_testing
