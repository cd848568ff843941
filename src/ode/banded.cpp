#include "ode/banded.hpp"

#include <algorithm>
#include <cmath>

namespace lsm::ode {

namespace {

/// y[r] -= l[r] * u for r = 1 .. len: one column of the elimination's
/// rank-1 update. y and l are distinct columns of the band, so they never
/// overlap, and saying so lets the short loop vectorize without a runtime
/// overlap check.
void eliminate_column(double* __restrict y, const double* __restrict l,
                      double u, std::size_t len) {
  for (std::size_t r = 1; r <= len; ++r) y[r] -= l[r] * u;
}

/// The same for two columns in one pass, sharing each multiplier load.
void eliminate_columns(double* __restrict y, double* __restrict z,
                       const double* __restrict l, double uy, double uz,
                       std::size_t len) {
  for (std::size_t r = 1; r <= len; ++r) {
    y[r] -= l[r] * uy;
    z[r] -= l[r] * uz;
  }
}

}  // namespace

BandedMatrix::BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), ld_(2 * kl + ku + 1), data_(ld_ * n, 0.0) {
  LSM_EXPECT(n >= 1, "matrix must be non-empty");
  LSM_EXPECT(kl < n && ku < n, "bandwidths must be below the dimension");
}

double BandedMatrix::get(std::size_t i, std::size_t j) const noexcept {
  if (i >= n_ || j >= n_ || !in_storage(i, j)) return 0.0;
  return data_[index(i, j)];
}

void BandedMatrix::set(std::size_t i, std::size_t j, double v) {
  LSM_EXPECT(i < n_ && j < n_, "index out of range");
  LSM_EXPECT(in_storage(i, j), "entry outside the stored band");
  data_[index(i, j)] = v;
}

void BandedMatrix::add(std::size_t i, std::size_t j, double v) {
  LSM_EXPECT(i < n_ && j < n_, "index out of range");
  LSM_EXPECT(in_storage(i, j), "entry outside the stored band");
  data_[index(i, j)] += v;
}

BandedLuSolver::BandedLuSolver(BandedMatrix a)
    : lu_(std::move(a)), pivot_(lu_.n_) {
  factor();
}

// Right-looking elimination over the column-major band. Every entry sees
// the operations of the row-by-row textbook loop in the same order (step k
// updates each A(r, c) once, from column k and row k, neither of which it
// writes), so the factors match it bit for bit.
void BandedLuSolver::factor() {
  const std::size_t n = lu_.n_;
  const std::size_t kl = lu_.kl_;
  const std::size_t ku_eff = lu_.ku_ + kl;  // fill region counts as upper band
  const std::size_t right_step = lu_.ld_ - 1;  // A(k, c) -> A(k, c + 1)
  for (std::size_t k = 0; k < n; ++k) {
    // col[r] = A(k + r, k): the pivot column from the diagonal down.
    double* col = lu_.data_.data() + lu_.index(k, k);
    const std::size_t below = std::min(kl, n - 1 - k);
    const std::size_t right = std::min(ku_eff, n - 1 - k);
    std::size_t p = 0;
    double best = std::abs(col[0]);
    for (std::size_t r = 1; r <= below; ++r) {
      const double v = std::abs(col[r]);
      if (v > best) {
        best = v;
        p = r;
      }
    }
    if (best < 1e-300) throw util::Error("BandedLuSolver: singular matrix");
    pivot_[k] = k + p;
    if (p != 0) {
      double* row = col;  // A(k, c); A(k + p, c) is p further down
      for (std::size_t c = 0; c <= right; ++c, row += right_step) {
        std::swap(row[0], row[p]);
      }
    }
    const double inv = 1.0 / col[0];
    bool dense = true;  // every multiplier nonzero: the usual case
    for (std::size_t r = 1; r <= below; ++r) {
      col[r] *= inv;
      dense &= col[r] != 0.0;
    }
    double* cc = col + right_step;  // cc[r] = A(k + r, k + c)
    std::size_t c = 1;
    if (dense) {
      for (; c + 1 <= right; c += 2, cc += 2 * right_step) {
        double* next = cc + right_step;
        eliminate_columns(cc, next, col, cc[0], next[0], below);
      }
      if (c <= right) eliminate_column(cc, col, cc[0], below);
    } else {
      // Rows with a zero multiplier are left untouched, as the textbook
      // loop skips them.
      for (; c <= right; ++c, cc += right_step) {
        const double ukc = cc[0];
        for (std::size_t r = 1; r <= below; ++r) {
          if (col[r] != 0.0) cc[r] -= col[r] * ukc;
        }
      }
    }
  }
}

std::vector<double> BandedLuSolver::solve(std::vector<double> b) const {
  LSM_EXPECT(b.size() == lu_.n_, "rhs has wrong dimension");
  solve_into(b.data(), b.data());  // in-place: aliasing is fine here
  return b;
}

void BandedLuSolver::solve_into(const double* b, double* x) const {
  const std::size_t n = lu_.n_;
  const std::size_t kl = lu_.kl_;
  const std::size_t ku_eff = lu_.ku_ + kl;
  const std::size_t right_step = lu_.ld_ - 1;
  const double* a = lu_.data_.data();
  if (x != b) {
    for (std::size_t i = 0; i < n; ++i) x[i] = b[i];
  }
  // Forward: apply row swaps and the unit-lower multipliers, column k of L
  // being contiguous below its diagonal.
  for (std::size_t k = 0; k < n; ++k) {
    if (pivot_[k] != k) std::swap(x[k], x[pivot_[k]]);
    const double* l = a + lu_.index(k, k);
    const double xk = x[k];
    const std::size_t below = std::min(kl, n - 1 - k);
    for (std::size_t r = 1; r <= below; ++r) x[k + r] -= l[r] * xk;
  }
  // Back substitution on the upper factor, one row at a time with the
  // subtractions in column order (row i of U steps ld - 1 per column).
  for (std::size_t i = n; i-- > 0;) {
    const double* u = a + lu_.index(i, i);
    double acc = x[i];
    const std::size_t right = std::min(ku_eff, n - 1 - i);
    const double* uc = u;
    for (std::size_t c = 1; c <= right; ++c) {
      uc += right_step;
      acc -= *uc * x[i + c];
    }
    x[i] = acc / u[0];
  }
}

void banded_fd_into(const OdeSystem& sys, double t, const State& s,
                    double eps, BandedMatrix& jac, BandedFdScratch& scratch) {
  const std::size_t n = s.size();
  LSM_EXPECT(jac.size() == n, "Jacobian does not match the state");
  const std::size_t kl = jac.lower();
  const std::size_t ku = jac.upper();
  State& f0 = scratch.f0;
  f0.resize(n);
  sys.deriv(t, s, f0);
  fd_columns(sys, t, s, eps, scratch.columns,
             [&](std::size_t j, const double* fp, std::size_t stride,
                 double h) {
               const double inv_h = 1.0 / h;
               const std::size_t i_lo = j >= ku ? j - ku : 0;
               const std::size_t i_hi = std::min(j + kl, n - 1);
               double* col = jac.column_from(i_lo, j);
               for (std::size_t i = i_lo; i <= i_hi; ++i) {
                 *col++ = (fp[i * stride] - f0[i]) * inv_h;
               }
             });
}

BandedMatrix banded_fd_jacobian(const OdeSystem& sys, double t,
                                const State& s, std::size_t kl,
                                std::size_t ku, double eps) {
  LSM_EXPECT(kl < s.size() && ku < s.size(),
             "bandwidths must be below the dimension");
  BandedMatrix jac(s.size(), kl, ku);
  BandedFdScratch scratch;
  banded_fd_into(sys, t, s, eps, jac, scratch);
  return jac;
}

}  // namespace lsm::ode
