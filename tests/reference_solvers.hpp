// Test-only oracles: the banded LU, Anderson's history kernels and a
// classic Newton iteration as plain loops, one element and one column at
// a time. The banded LU keeps
// its band row by row (row i of column j at band row ku + kl + i - j, a
// stride of n doubles) behind bounds-checked accessors; HistoryQr takes
// one pass over n per dot, projection, rotation and column. The library
// runs the same arithmetic over column-major band storage and in fused,
// blocked passes; these loops are the independent reference it is
// compared against bit for bit. The Newton oracle is compared on the root
// it reaches, not on its path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "ode/linalg.hpp"
#include "ode/state.hpp"
#include "ode/system.hpp"
#include "util/error.hpp"

namespace lsm::reference {

/// n x n band with kl subdiagonals, ku superdiagonals and kl more rows of
/// pivot fill, stored band row by band row.
class RowMajorBand {
 public:
  RowMajorBand(std::size_t n, std::size_t kl, std::size_t ku)
      : n_(n), kl_(kl), ku_(ku), data_((2 * kl + ku + 1) * n, 0.0) {
    LSM_EXPECT(n >= 1, "matrix must be non-empty");
    LSM_EXPECT(kl < n && ku < n, "bandwidths must be below the dimension");
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t lower() const noexcept { return kl_; }
  [[nodiscard]] std::size_t upper() const noexcept { return ku_; }

  [[nodiscard]] double get(std::size_t i, std::size_t j) const noexcept {
    if (i >= n_ || j >= n_ || !in_storage(i, j)) return 0.0;
    return data_[index(i, j)];
  }
  void set(std::size_t i, std::size_t j, double v) {
    LSM_EXPECT(i < n_ && j < n_, "index out of range");
    LSM_EXPECT(in_storage(i, j), "entry outside the stored band");
    data_[index(i, j)] = v;
  }
  void add(std::size_t i, std::size_t j, double v) {
    LSM_EXPECT(i < n_ && j < n_, "index out of range");
    LSM_EXPECT(in_storage(i, j), "entry outside the stored band");
    data_[index(i, j)] += v;
  }

 private:
  [[nodiscard]] bool in_storage(std::size_t i, std::size_t j) const noexcept {
    const auto d =
        static_cast<std::ptrdiff_t>(j) - static_cast<std::ptrdiff_t>(i);
    return d >= -static_cast<std::ptrdiff_t>(kl_) &&
           d <= static_cast<std::ptrdiff_t>(ku_ + kl_);
  }
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const noexcept {
    return (kl_ + ku_ + i - j) * n_ + j;
  }

  std::size_t n_, kl_, ku_;
  std::vector<double> data_;
};

/// Partial-pivot band LU, row by row through the accessors.
class RowMajorBandedLu {
 public:
  explicit RowMajorBandedLu(RowMajorBand a) : lu_(std::move(a)), pivot_(lu_.size()) {
    const std::size_t n = lu_.size();
    const std::size_t kl = lu_.lower();
    const std::size_t ku_eff = lu_.upper() + kl;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pivot = k;
      double best = std::abs(lu_.get(k, k));
      const std::size_t row_max = std::min(k + kl, n - 1);
      for (std::size_t r = k + 1; r <= row_max; ++r) {
        const double v = std::abs(lu_.get(r, k));
        if (v > best) {
          best = v;
          pivot = r;
        }
      }
      if (best < 1e-300) throw util::Error("RowMajorBandedLu: singular matrix");
      pivot_[k] = pivot;
      const std::size_t col_max = std::min(k + ku_eff, n - 1);
      if (pivot != k) {
        for (std::size_t c = k; c <= col_max; ++c) {
          const double tmp = lu_.get(pivot, c);
          lu_.set(pivot, c, lu_.get(k, c));
          lu_.set(k, c, tmp);
        }
      }
      const double inv = 1.0 / lu_.get(k, k);
      for (std::size_t r = k + 1; r <= row_max; ++r) {
        const double factor = lu_.get(r, k) * inv;
        lu_.set(r, k, factor);
        if (factor != 0.0) {
          for (std::size_t c = k + 1; c <= col_max; ++c) {
            lu_.add(r, c, -factor * lu_.get(k, c));
          }
        }
      }
    }
  }

  [[nodiscard]] const RowMajorBand& factors() const noexcept { return lu_; }
  [[nodiscard]] const std::vector<std::size_t>& pivots() const noexcept {
    return pivot_;
  }

  [[nodiscard]] std::vector<double> solve(std::vector<double> x) const {
    const std::size_t n = lu_.size();
    const std::size_t kl = lu_.lower();
    const std::size_t ku_eff = lu_.upper() + kl;
    for (std::size_t k = 0; k < n; ++k) {
      if (pivot_[k] != k) std::swap(x[k], x[pivot_[k]]);
      const std::size_t row_max = std::min(k + kl, n - 1);
      for (std::size_t r = k + 1; r <= row_max; ++r) {
        x[r] -= lu_.get(r, k) * x[k];
      }
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = x[ii];
      const std::size_t col_max = std::min(ii + ku_eff, n - 1);
      for (std::size_t j = ii + 1; j <= col_max; ++j) {
        acc -= lu_.get(ii, j) * x[j];
      }
      x[ii] = acc / lu_.get(ii, ii);
    }
    return x;
  }

 private:
  RowMajorBand lu_;
  std::vector<std::size_t> pivot_;
};

/// The history's summation order: partial sum j adds the terms i = j,
/// j + 4, j + 8, ... in turn from +0.0, then (s0 + s2) + (s1 + s3).
inline double dot(const ode::State& a, const ode::State& b) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) s[i % 4] += a[i] * b[i];
  return (s[0] + s[2]) + (s[1] + s[3]);
}

/// Updating thin QR of a window of columns, one pass over n per dot (in
/// the order of dot above), projection, normalization and Givens rotation.
class HistoryQr {
 public:
  HistoryQr(std::size_t n, std::size_t capacity)
      : m_(capacity),
        q_(capacity, ode::State(n)),
        r_(capacity * capacity),
        rhs_(capacity) {}

  [[nodiscard]] std::size_t size() const noexcept { return k_; }

  bool push(const ode::State& v) {
    LSM_ASSERT(k_ < m_);
    ode::State& w = q_[k_];
    w = v;
    const double col_norm = std::sqrt(dot(w, w));
    for (std::size_t i = 0; i < k_; ++i) {
      const double rik = dot(q_[i], w);
      r_[i * m_ + k_] = rik;
      ode::axpy(-rik, q_[i], w);
    }
    const double rkk = std::sqrt(dot(w, w));
    if (!(rkk > 1e-12 * std::max(col_norm, 1e-300))) return false;
    r_[k_ * m_ + k_] = rkk;
    const double inv = 1.0 / rkk;
    for (double& x : w) x *= inv;
    ++k_;
    return true;
  }

  void drop_oldest() {
    LSM_ASSERT(k_ > 0);
    const std::size_t k = k_;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i == 0 ? 0 : i - 1; j + 1 < k; ++j) {
        r_[i * m_ + j] = r_[i * m_ + j + 1];
      }
    }
    const std::size_t n = q_[0].size();
    for (std::size_t j = 0; j + 1 < k; ++j) {
      const double a = r_[j * m_ + j];
      const double b = r_[(j + 1) * m_ + j];
      const double rho = std::sqrt(a * a + b * b);
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

  void solve(const ode::State& r, double* theta) {
    for (std::size_t i = 0; i < k_; ++i) rhs_[i] = dot(q_[i], r);
    for (std::size_t j = k_; j-- > 0;) {
      double acc = rhs_[j];
      for (std::size_t i = j + 1; i < k_; ++i) acc -= r_[j * m_ + i] * theta[i];
      theta[j] = acc / r_[j * m_ + j];
    }
  }

  [[nodiscard]] const ode::State& q(std::size_t j) const { return q_[j]; }
  [[nodiscard]] double r(std::size_t i, std::size_t j) const {
    return r_[i * m_ + j];
  }

 private:
  std::size_t m_;
  std::size_t k_ = 0;
  std::vector<ode::State> q_;
  std::vector<double> r_;
  std::vector<double> rhs_;
};

/// Anderson's step xn = x + r - sum_j theta_j dg_j over the first k
/// columns, one pass per column with a nonzero theta_j.
inline void extrapolate(const ode::State& x, const ode::State& r,
                        const std::vector<ode::State>& dg,
                        const double* theta, std::size_t k, ode::State& xn) {
  for (std::size_t i = 0; i < x.size(); ++i) xn[i] = x[i] + r[i];
  for (std::size_t j = 0; j < k; ++j) {
    const double th = theta[j];
    if (th == 0.0) continue;
    const ode::State& col = dg[j];
    for (std::size_t i = 0; i < xn.size(); ++i) xn[i] -= th * col[i];
  }
}

struct ClassicNewtonRun {
  ode::State state;
  double residual_norm = 0.0;  ///< final ||f||_inf
  std::size_t iterations = 0;
  bool converged = false;
};

/// Classic Newton for f(s) = sys.deriv(0, s) = 0: every iteration
/// differences a fresh Jacobian one column per deriv call (step
/// fd_eps max(1, |s_j|)), factors it densely, and backtracks on the
/// projected residual until it falls. Stops below `tol`, after `max_iter`
/// iterations, on a singular Jacobian, or when no step helps, returning
/// the best iterate.
inline ClassicNewtonRun classic_newton(const ode::OdeSystem& sys,
                                          ode::State s, double tol = 1e-13,
                                          std::size_t max_iter = 60,
                                          double fd_eps = 1e-7) {
  const std::size_t n = sys.dimension();
  ClassicNewtonRun res;
  ode::State f(n), fp(n), trial(n);
  sys.deriv(0.0, s, f);
  res.residual_norm = ode::norm_linf(f);
  for (; res.iterations < max_iter && res.residual_norm >= tol;
       ++res.iterations) {
    ode::Matrix jac(n, n);
    ode::State pert = s;
    for (std::size_t j = 0; j < n; ++j) {
      const double h = fd_eps * std::max(1.0, std::abs(s[j]));
      pert[j] = s[j] + h;
      sys.deriv(0.0, pert, fp);
      pert[j] = s[j];
      for (std::size_t i = 0; i < n; ++i) jac(i, j) = (fp[i] - f[i]) / h;
    }
    std::vector<double> delta(n);
    for (std::size_t i = 0; i < n; ++i) delta[i] = -f[i];
    try {
      delta = ode::LuSolver(jac).solve(std::move(delta));
    } catch (const util::Error&) {
      break;
    }
    bool improved = false;
    double alpha = 1.0;
    for (int bt = 0; bt < 30 && !improved; ++bt, alpha *= 0.5) {
      for (std::size_t i = 0; i < n; ++i) trial[i] = s[i] + alpha * delta[i];
      sys.project(trial);
      sys.deriv(0.0, trial, fp);
      const double norm = ode::norm_linf(fp);
      if (norm < res.residual_norm) {
        s.swap(trial);
        f.swap(fp);
        res.residual_norm = norm;
        improved = true;
      }
    }
    if (!improved) break;
  }
  res.converged = res.residual_norm < tol;
  res.state = std::move(s);
  return res;
}

}  // namespace lsm::reference
