#include "array/covariance.hpp"

#include <algorithm>
#include <stdexcept>

namespace echoimage::array {

CMatrix spatial_covariance(const std::vector<ComplexSignal>& channels,
                           std::size_t first, std::size_t count) {
  if (channels.empty())
    throw std::invalid_argument("spatial_covariance: no channels");
  if (count == 0)
    throw std::invalid_argument("spatial_covariance: empty snapshot range");
  const std::size_t m = channels.size();
  CMatrix r(m, m);
  std::vector<Complex> x(m);
  for (std::size_t t = first; t < first + count; ++t) {
    for (std::size_t c = 0; c < m; ++c)
      x[c] = t < channels[c].size() ? channels[c][t] : Complex(0.0, 0.0);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j)
        r(i, j) += x[i] * std::conj(x[j]);
  }
  const double inv_n = 1.0 / static_cast<double>(count);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) r(i, j) *= inv_n;
  return r;
}

CMatrix normalized_covariance(const std::vector<ComplexSignal>& channels,
                              std::size_t first, std::size_t count) {
  CMatrix r = spatial_covariance(channels, first, count);
  const double d = r.mean_diagonal_real();
  if (d <= 1e-30) return CMatrix::identity(channels.size());
  const double inv = 1.0 / d;
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j) r(i, j) *= inv;
  return r;
}

CMatrix white_noise_covariance(std::size_t num_mics) {
  return CMatrix::identity(num_mics);
}

std::vector<ComplexSignal> select_channels(
    const std::vector<ComplexSignal>& channels, const ChannelMask& mask) {
  if (mask.empty()) return channels;
  if (mask.size() != channels.size())
    throw std::invalid_argument("select_channels: mask/channel mismatch");
  std::vector<ComplexSignal> kept;
  kept.reserve(channels.size());
  for (std::size_t c = 0; c < channels.size(); ++c)
    if (mask[c]) kept.push_back(channels[c]);
  if (kept.empty())
    throw std::invalid_argument("select_channels: mask leaves no channel");
  return kept;
}

CMatrix masked_covariance(const CMatrix& full, const ChannelMask& mask) {
  if (mask.empty()) return full;
  if (mask.size() != full.rows() || full.rows() != full.cols())
    throw std::invalid_argument("masked_covariance: mask/matrix mismatch");
  std::vector<std::size_t> keep;
  keep.reserve(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i)
    if (mask[i]) keep.push_back(i);
  if (keep.empty())
    throw std::invalid_argument("masked_covariance: mask leaves no channel");
  CMatrix out(keep.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i)
    for (std::size_t j = 0; j < keep.size(); ++j)
      out(i, j) = full(keep[i], keep[j]);
  return out;
}

namespace {

/// acc[p] += x_i(t) conj(x_j(t)) over the packed upper triangle (i <= j),
/// for t in [first, last), in ascending t.
void accumulate_outer(const std::vector<ComplexSignal>& channels,
                      std::size_t first, std::size_t last, Complex* acc) {
  const std::size_t m = channels.size();
  for (std::size_t t = first; t < last; ++t) {
    std::size_t p = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double ar = channels[i][t].real();
      const double ai = channels[i][t].imag();
      for (std::size_t j = i; j < m; ++j, ++p) {
        const double br = channels[j][t].real();
        const double bi = channels[j][t].imag();
        acc[p] += Complex(ar * br + ai * bi, ai * br - ar * bi);
      }
    }
  }
}

}  // namespace

GateCovariances::GateCovariances(const std::vector<ComplexSignal>& channels,
                                 std::span<const Gate> gates)
    : m_(channels.size()), packed_(m_ * (m_ + 1) / 2) {
  if (channels.empty())
    throw std::invalid_argument("GateCovariances: no channels");
  const std::size_t n = channels.front().size();
  for (const ComplexSignal& c : channels)
    if (c.size() != n)
      throw std::invalid_argument("GateCovariances: ragged channels");
  q_.assign(gates.size() * packed_, Complex(0.0, 0.0));

  // Block sums over every full block a clipped gate can cover.
  std::size_t lo = n, hi = 0;
  for (const Gate& g : gates) {
    const std::size_t a = std::min(g.first, n), e = std::min(g.last, n);
    if (a >= e) continue;
    lo = std::min(lo, a);
    hi = std::max(hi, e);
  }
  const std::size_t b0 = (lo + kBlock - 1) / kBlock;
  const std::size_t b1 = std::max(b0, hi / kBlock);
  std::vector<Complex> blocks((b1 - b0) * packed_, Complex(0.0, 0.0));
  for (std::size_t b = b0; b < b1; ++b)
    accumulate_outer(channels, b * kBlock, (b + 1) * kBlock,
                     &blocks[(b - b0) * packed_]);

  // Each gate: head samples, then whole blocks, then tail samples.
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const std::size_t a = std::min(gates[g].first, n);
    const std::size_t e = std::min(gates[g].last, n);
    if (a >= e) continue;
    Complex* q = &q_[g * packed_];
    const std::size_t ka = (a + kBlock - 1) / kBlock, kb = e / kBlock;
    if (ka >= kb) {
      accumulate_outer(channels, a, e, q);
      continue;
    }
    accumulate_outer(channels, a, ka * kBlock, q);
    for (std::size_t b = ka; b < kb; ++b) {
      const Complex* s = &blocks[(b - b0) * packed_];
      for (std::size_t p = 0; p < packed_; ++p) q[p] += s[p];
    }
    accumulate_outer(channels, kb * kBlock, e, q);
  }
}

double GateCovariances::steered_energy(std::size_t g,
                                       const Complex* w) const {
  const Complex* q = &q_[g * packed_];
  double diag = 0.0, cross = 0.0;
  std::size_t p = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    const double wr = w[i].real(), wi = w[i].imag();
    diag += (wr * wr + wi * wi) * q[p++].real();
    for (std::size_t j = i + 1; j < m_; ++j, ++p) {
      // Re(conj(w_i) Q_ij w_j); the (j, i) term is its conjugate.
      const double qr = q[p].real(), qi = q[p].imag();
      const double vr = qr * w[j].real() - qi * w[j].imag();
      const double vi = qr * w[j].imag() + qi * w[j].real();
      cross += wr * vr + wi * vi;
    }
  }
  // Q_g is positive semidefinite; rounding must not push a null-steered
  // energy below zero (pixels take its square root).
  return std::max(0.0, diag + 2.0 * cross);
}

double GateCovariances::incoherent_energy(std::size_t g) const {
  const Complex* q = &q_[g * packed_];
  double sum = 0.0;
  for (std::size_t i = 0, p = 0; i < m_; p += m_ - i, ++i) sum += q[p].real();
  return sum / static_cast<double>(m_);
}

}  // namespace echoimage::array
