#include "ode/history_qr.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::ode::detail {

namespace {

/// Columns per pass of the blocked kernels: enough independent chains to
/// hide the add latency, few enough to stay in registers.
constexpr std::size_t kBlock = 4;
static_assert(kBlock == 4, "the remainder switches handle 1-3 columns");

/// Rows per chunk of the Givens sweep, so the chunk of every column stays
/// in L1 while all the rotations pass over it.
constexpr std::size_t kChunk = 256;

/// out[b] = dot(cols[b], r) for b < B in one pass over r, each dot
/// accumulated in index order in its own register.
template <std::size_t B>
void dots(const double* const* cols, const double* r, std::size_t n,
          double* out) {
  double acc[B] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const double ri = r[i];
    for (std::size_t b = 0; b < B; ++b) acc[b] += cols[b][i] * ri;
  }
  for (std::size_t b = 0; b < B; ++b) out[b] = acc[b];
}

/// xn[i] -= th[0] cols[0][i], then th[1] cols[1][i], ... for B columns in
/// one pass.
template <std::size_t B>
void subtract_columns(const double* const* cols, const double* th,
                      std::size_t n, double* xn) {
  for (std::size_t i = 0; i < n; ++i) {
    double v = xn[i];
    for (std::size_t b = 0; b < B; ++b) v -= th[b] * cols[b][i];
    xn[i] = v;
  }
}

}  // namespace

HistoryQr::HistoryQr(std::size_t n, std::size_t capacity)
    : m_(capacity),
      q_(capacity, State(n)),
      r_(capacity * capacity),
      rhs_(capacity),
      cos_(capacity),
      sin_(capacity) {}

// Modified Gram-Schmidt with each projection fused to the next dot: pass i
// subtracts r_ik q_i from w and, element by element, accumulates
// q_{i+1} . w from the updated entries, so every dot and every entry of w
// sees the operations of the unfused loop in the same order. The chain of
// dots, each needing the whole previous pass, is what remains: k + 2
// passes over n.
bool HistoryQr::push(const State& v) {
  LSM_ASSERT(k_ < m_);
  double* w = q_[k_].data();
  const std::size_t n = v.size();
  LSM_ASSERT(n == q_[k_].size());
  const double* next = k_ > 0 ? q_[0].data() : w;
  double sq = 0.0;    // ||v||^2
  double proj = 0.0;  // q_0 . v, or ||v||^2 again when there is no q_0
  for (std::size_t t = 0; t < n; ++t) {
    const double x = v[t];
    w[t] = x;
    sq += x * x;
    proj += next[t] * x;
  }
  const double col_norm = std::sqrt(sq);
  for (std::size_t i = 0; i < k_; ++i) {
    const double rik = proj;
    r_[i * m_ + k_] = rik;
    const double a = -rik;
    const double* qi = q_[i].data();
    next = i + 1 < k_ ? q_[i + 1].data() : w;  // last pass: ||w||^2
    double acc = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double x = w[t] + a * qi[t];
      w[t] = x;
      acc += next[t] * x;
    }
    proj = acc;
  }
  const double rkk = std::sqrt(proj);
  if (!(rkk > 1e-12 * std::max(col_norm, 1e-300))) return false;
  r_[k_ * m_ + k_] = rkk;
  const double inv = 1.0 / rkk;
  for (std::size_t t = 0; t < n; ++t) w[t] *= inv;
  ++k_;
  return true;
}

void HistoryQr::drop_oldest() {
  LSM_ASSERT(k_ > 0);
  const std::size_t k = k_;
  // Deleting column 0 leaves H(i, j) = R(i, j + 1): upper Hessenberg, its
  // subdiagonal H(j + 1, j) = R(j + 1, j + 1) > 0. Shift it into place.
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i == 0 ? 0 : i - 1; j + 1 < k; ++j) {
      r_[i * m_ + j] = r_[i * m_ + j + 1];
    }
  }
  // Rotation j acts on rows j and j + 1 and zeroes H(j + 1, j). Applied
  // to columns j and j + 1 of Q it keeps A = Q R; the last rotated column
  // leaves the span and is discarded. The rotations depend on R only, so
  // they are all formed first.
  for (std::size_t j = 0; j + 1 < k; ++j) {
    const double a = r_[j * m_ + j];
    const double b = r_[(j + 1) * m_ + j];
    const double rho = std::hypot(a, b);
    const double c = a / rho;
    const double s = b / rho;
    cos_[j] = c;
    sin_[j] = s;
    r_[j * m_ + j] = rho;
    for (std::size_t l = j + 1; l + 1 < k; ++l) {
      const double x = r_[j * m_ + l];
      const double y = r_[(j + 1) * m_ + l];
      r_[j * m_ + l] = c * x + s * y;
      r_[(j + 1) * m_ + l] = -s * x + c * y;
    }
  }
  // Each entry of Q sees rotation 0, 1, ... in turn whatever the chunking,
  // so the sweep runs chunk by chunk with every column's chunk in cache.
  const std::size_t n = q_[0].size();
  for (std::size_t t0 = 0; t0 < n; t0 += kChunk) {
    const std::size_t len = std::min(kChunk, n - t0);
    for (std::size_t j = 0; j + 1 < k; ++j) {
      const double c = cos_[j];
      const double s = sin_[j];
      double* qa = q_[j].data() + t0;
      double* qb = q_[j + 1].data() + t0;
      for (std::size_t i = 0; i < len; ++i) {
        const double x = qa[i];
        const double y = qb[i];
        qa[i] = c * x + s * y;
        qb[i] = -s * x + c * y;
      }
    }
  }
  --k_;
}

void HistoryQr::solve(const State& r, double* theta) {
  // Q^T r: the k dots are independent, so they go kBlock to a pass.
  const std::size_t n = r.size();
  const double* cols[kBlock];
  std::size_t i = 0;
  for (; i + kBlock <= k_; i += kBlock) {
    for (std::size_t b = 0; b < kBlock; ++b) cols[b] = q_[i + b].data();
    dots<kBlock>(cols, r.data(), n, rhs_.data() + i);
  }
  for (std::size_t b = 0; i + b < k_; ++b) cols[b] = q_[i + b].data();
  switch (k_ - i) {
    case 3: dots<3>(cols, r.data(), n, rhs_.data() + i); break;
    case 2: dots<2>(cols, r.data(), n, rhs_.data() + i); break;
    case 1: dots<1>(cols, r.data(), n, rhs_.data() + i); break;
    default: break;
  }
  for (std::size_t j = k_; j-- > 0;) {
    double acc = rhs_[j];
    for (std::size_t l = j + 1; l < k_; ++l) acc -= r_[j * m_ + l] * theta[l];
    theta[j] = acc / r_[j * m_ + j];
  }
}

void extrapolate(const State& x, const State& r,
                 const std::vector<State>& cols, const double* theta,
                 std::size_t k, State& xn) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) xn[i] = x[i] + r[i];
  // Gather the live columns kBlock at a time, flushing each full block.
  const double* block[kBlock];
  double th[kBlock];
  std::size_t fill = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (theta[j] == 0.0) continue;
    block[fill] = cols[j].data();
    th[fill] = theta[j];
    if (++fill == kBlock) {
      subtract_columns<kBlock>(block, th, n, xn.data());
      fill = 0;
    }
  }
  switch (fill) {
    case 3: subtract_columns<3>(block, th, n, xn.data()); break;
    case 2: subtract_columns<2>(block, th, n, xn.data()); break;
    case 1: subtract_columns<1>(block, th, n, xn.data()); break;
    default: break;
  }
}

}  // namespace lsm::ode::detail
