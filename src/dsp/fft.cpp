#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "simd/fft_plan.hpp"
#include "simd/kernels.hpp"

namespace echoimage::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_pow2_in_place(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_pow2(n))
    throw std::invalid_argument("fft_pow2_in_place: size must be 2^k");
  if (n == 1) return;
  // The plan's staged kernels are bit-identical to the historical inline
  // radix-2 loop on every ISA lane (see simd/fft_plan.hpp).
  simd::FftPlan::for_size(n).execute(x.data(), inverse);
}

namespace {

// Bluestein chirp-z transform: expresses an arbitrary-N DFT as a
// convolution, evaluated with a power-of-two FFT.
ComplexSignal bluestein(const ComplexSignal& x) {
  const std::size_t n = x.size();
  const std::size_t m = next_pow2(2 * n - 1);

  // Chirp factors w[k] = exp(-i * pi * k^2 / n). k^2 mod 2n keeps the
  // angle argument bounded for large k.
  ComplexSignal w(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double ang =
        -std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n);
    w[k] = Complex(std::cos(ang), std::sin(ang));
  }

  ComplexSignal a(m, Complex(0.0, 0.0));
  ComplexSignal b(m, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * w[k];
  b[0] = std::conj(w[0]);
  for (std::size_t k = 1; k < n; ++k) b[k] = b[m - k] = std::conj(w[k]);

  fft_pow2_in_place(a, false);
  fft_pow2_in_place(b, false);
  simd::kernels().complex_mul_f64(a.data(), b.data(), m);
  fft_pow2_in_place(a, true);

  ComplexSignal out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * w[k];
  return out;
}

}  // namespace

ComplexSignal fft_real(std::span<const Sample> x) {
  ComplexSignal c(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = Complex(x[i], 0.0);
  if (c.empty()) return c;
  if (is_pow2(c.size())) {
    fft_pow2_in_place(c, false);
    return c;
  }
  return bluestein(c);
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  if (n == 0) throw std::invalid_argument("bin_frequency: n == 0");
  const double kk = (k <= n / 2) ? static_cast<double>(k)
                                 : static_cast<double>(k) - static_cast<double>(n);
  return kk * sample_rate / static_cast<double>(n);
}

}  // namespace echoimage::dsp
