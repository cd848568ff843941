#include "ode/history_qr.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::ode::detail {

namespace {

inline double dot(const State& a, const State& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace

HistoryQr::HistoryQr(std::size_t n, std::size_t capacity)
    : m_(capacity),
      q_(capacity, State(n)),
      r_(capacity * capacity),
      rhs_(capacity) {}

bool HistoryQr::push(const State& v) {
  LSM_ASSERT(k_ < m_);
  State& w = q_[k_];
  w = v;  // same size: copy without reallocation
  const double col_norm = std::sqrt(dot(w, w));
  for (std::size_t i = 0; i < k_; ++i) {
    const double rik = dot(q_[i], w);
    r_[i * m_ + k_] = rik;
    axpy(-rik, q_[i], w);
  }
  const double rkk = std::sqrt(dot(w, w));
  if (!(rkk > 1e-12 * std::max(col_norm, 1e-300))) return false;
  r_[k_ * m_ + k_] = rkk;
  const double inv = 1.0 / rkk;
  for (double& x : w) x *= inv;
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
  // leaves the span and is discarded.
  const std::size_t n = q_[0].size();
  for (std::size_t j = 0; j + 1 < k; ++j) {
    const double a = r_[j * m_ + j];
    const double b = r_[(j + 1) * m_ + j];
    const double rho = std::hypot(a, b);
    const double c = a / rho;
    const double s = b / rho;
    r_[j * m_ + j] = rho;
    for (std::size_t l = j + 1; l + 1 < k; ++l) {
      const double x = r_[j * m_ + l];
      const double y = r_[(j + 1) * m_ + l];
      r_[j * m_ + l] = c * x + s * y;
      r_[(j + 1) * m_ + l] = -s * x + c * y;
    }
    double* qa = q_[j].data();
    double* qb = q_[j + 1].data();
    for (std::size_t i = 0; i < n; ++i) {
      const double x = qa[i];
      const double y = qb[i];
      qa[i] = c * x + s * y;
      qb[i] = -s * x + c * y;
    }
  }
  --k_;
}

void HistoryQr::solve(const State& r, double* theta) {
  for (std::size_t i = 0; i < k_; ++i) rhs_[i] = dot(q_[i], r);
  for (std::size_t j = k_; j-- > 0;) {
    double acc = rhs_[j];
    for (std::size_t i = j + 1; i < k_; ++i) acc -= r_[j * m_ + i] * theta[i];
    theta[j] = acc / r_[j * m_ + j];
  }
}

}  // namespace lsm::ode::detail
