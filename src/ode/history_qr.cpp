#include "ode/history_qr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "util/error.hpp"

namespace lsm::ode::detail {

namespace {

/// Two doubles: one SSE2 register on baseline x86-64. The arithmetic is
/// element-wise IEEE, so a lane computes what a scalar loop would.
using V2 = double __attribute__((vector_size(16)));
/// The same at a double's alignment, for loads and stores at any entry.
/// GCC and Clang let a vector type alias its element type, so these
/// accesses are typed as doubles (a memcpy would alias everything and
/// force the pointers a pass reads to be reloaded after every store).
using V2u = double __attribute__((vector_size(16), aligned(8)));

template <class T>
T load(const double* p) {
  if constexpr (std::is_same_v<T, double>) {
    return *p;
  } else {
    return *reinterpret_cast<const V2u*>(p);
  }
}

inline void store(double* p, double x) { *p = x; }
inline void store(double* p, V2 x) { *reinterpret_cast<V2u*>(p) = x; }

/// Columns per pass of the blocked kernels: enough independent chains to
/// hide the add latency, few enough to stay in registers.
constexpr std::size_t kBlock = 4;
static_assert(kBlock == 4, "the remainder switches handle 1-3 columns");

/// Rows per chunk of the Givens sweep, so the chunk of every column stays
/// in L1 while all the rotations pass over it.
constexpr std::size_t kChunk = 256;

/// R reductions over t < n in one pass, in the order of the header:
/// step(t, acc) adds entry t's term of reduction j to acc[j], with acc
/// the pair accumulators (V2) of partials 0-1 or 2-3, or, for a last odd
/// entry, that entry's partial (double). out[j] = (s0 + s2) + (s1 + s3).
template <std::size_t R, class Step>
void reduce(std::size_t n, double* out, Step&& step) {
  V2 lo[R] = {};  // partials 0 and 1 of each reduction
  V2 hi[R] = {};  // partials 2 and 3
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    step(t, lo);
    step(t + 2, hi);
  }
  if (t + 2 <= n) {
    step(t, lo);
    t += 2;
  }
  double s[4][R];
  for (std::size_t j = 0; j < R; ++j) {
    s[0][j] = lo[j][0];
    s[1][j] = lo[j][1];
    s[2][j] = hi[j][0];
    s[3][j] = hi[j][1];
  }
  if (t < n) step(t, s[t % 4]);
  for (std::size_t j = 0; j < R; ++j) {
    out[j] = (s[0][j] + s[2][j]) + (s[1][j] + s[3][j]);
  }
}

/// out[b] = cols[b] . r for b < B in one pass over r.
template <std::size_t B>
void dots(const double* const* cols, const double* r, std::size_t n,
          double* out) {
  reduce<B>(n, out, [&](std::size_t t, auto* acc) {
    using T = std::remove_pointer_t<decltype(acc)>;
    const T y = load<T>(r + t);
    for (std::size_t b = 0; b < B; ++b) acc[b] += load<T>(cols[b] + t) * y;
  });
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
      carry_(capacity),
      carry_r_(n),
      cos_(capacity),
      sin_(capacity) {}

bool HistoryQr::push(const State& v, const State* r) {
  carried_ = false;
  return r != nullptr ? push_impl<true>(v, r->data())
                      : push_impl<false>(v, nullptr);
}

// Modified Gram-Schmidt with each projection fused to the next dot: pass i
// subtracts r_ik q_i from w and accumulates q_{i+1} . w from the updated
// entries (||w||^2 on the last pass) and, with r, q_i . r: k + 2 passes
// over n. The scaling pass adds q_k . r and keeps a copy of r.
template <bool kCarry>
bool HistoryQr::push_impl(const State& v, const double* r) {
  LSM_ASSERT(k_ < m_);
  double* w = q_[k_].data();
  const double* x = v.data();
  const std::size_t n = v.size();
  LSM_ASSERT(n == q_[k_].size());
  // ||v||^2, and q_0 . v (||v||^2 again, from the stored w, if no q_0).
  const double* next = k_ > 0 ? q_[0].data() : w;
  double sums[2];
  reduce<2>(n, sums, [&](std::size_t t, auto* acc) {
    using T = std::remove_pointer_t<decltype(acc)>;
    const T xt = load<T>(x + t);
    store(w + t, xt);
    acc[0] += xt * xt;
    acc[1] += load<T>(next + t) * xt;
  });
  const double col_norm = std::sqrt(sums[0]);
  double proj = sums[1];
  for (std::size_t i = 0; i < k_; ++i) {
    const double rik = proj;
    r_[i * m_ + k_] = rik;
    const double a = -rik;
    const double* qi = q_[i].data();
    next = i + 1 < k_ ? q_[i + 1].data() : w;
    double out[2];
    reduce<kCarry ? 2 : 1>(n, out, [&](std::size_t t, auto* acc) {
      using T = std::remove_pointer_t<decltype(acc)>;
      const T qt = load<T>(qi + t);
      const T wt = load<T>(w + t) + a * qt;
      store(w + t, wt);
      acc[0] += load<T>(next + t) * wt;  // the stored wt when next is w
      if constexpr (kCarry) acc[1] += qt * load<T>(r + t);
    });
    proj = out[0];
    if constexpr (kCarry) carry_[i] = out[1];
  }
  const double rkk = std::sqrt(proj);
  if (!(rkk > 1e-12 * std::max(col_norm, 1e-300))) return false;
  r_[k_ * m_ + k_] = rkk;
  const double inv = 1.0 / rkk;
  if constexpr (kCarry) {
    double* keep = carry_r_.data();
    reduce<1>(n, carry_.data() + k_, [&](std::size_t t, auto* acc) {
      using T = std::remove_pointer_t<decltype(acc)>;
      const T qt = load<T>(w + t) * inv;
      const T rt = load<T>(r + t);
      store(w + t, qt);
      store(keep + t, rt);
      acc[0] += qt * rt;
    });
    carried_ = true;
  } else {
    for (std::size_t t = 0; t < n; ++t) w[t] *= inv;
  }
  ++k_;
  return true;
}

void HistoryQr::drop_oldest() {
  LSM_ASSERT(k_ > 0);
  carried_ = false;
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
    // a and b are entries of R, whose squares the push's sums of squares
    // already formed, so the plain radius neither overflows nor vanishes
    // where std::hypot would not.
    const double rho = std::sqrt(a * a + b * b);
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
  const std::size_t n = r.size();
  const bool use_carry =
      carried_ &&
      std::memcmp(r.data(), carry_r_.data(), n * sizeof(double)) == 0;
  if (!use_carry) {
    // Q^T r: the k dots are independent, so they go kBlock to a pass.
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
  }
  const double* qtr = use_carry ? carry_.data() : rhs_.data();
  for (std::size_t j = k_; j-- > 0;) {
    double acc = qtr[j];
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
