#include "ode/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lsm::ode {

LuSolver::LuSolver(Matrix a)
    : lu_(std::move(a)), perm_(lu_.rows()), first_(lu_.rows()),
      last_(lu_.rows()) {
  LSM_EXPECT(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  // Row profiles: first_[r] / last_[r] bracket the nonzeros of row r (an
  // all-zero row gets first_ = n, last_ = 0; it fails the pivot test when
  // its column comes up). Elimination only writes columns past a row's
  // first nonzero, so first_ is fixed; last_ widens with fill-in.
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = lu_.row(r);
    std::size_t lo = 0;
    while (lo < n && row[lo] == 0.0) ++lo;
    std::size_t hi = n;
    while (hi > lo && row[hi - 1] == 0.0) --hi;
    first_[r] = lo;
    last_[r] = hi == 0 ? 0 : hi - 1;
  }
  // reach[k]: the deepest row position whose column k can be nonzero at
  // step k. Rows below it have never been touched (a pivot swap only moves
  // rows within reach) and start past column k, so both the pivot search
  // and the elimination stop there. A banded matrix reaches k + kl.
  std::vector<std::size_t> reach(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    if (first_[r] < n) reach[first_[r]] = std::max(reach[first_[r]], r);
  }
  for (std::size_t k = 1; k < n; ++k) {
    reach[k] = std::max(reach[k], reach[k - 1]);
  }

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t bottom = std::max(k, reach[k]);
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r <= bottom; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) throw util::Error("LuSolver: singular matrix");
    if (pivot != k) {
      std::swap(perm_[pivot], perm_[k]);
      const std::size_t lo = std::min(first_[pivot], first_[k]);
      const std::size_t hi = std::max(last_[pivot], last_[k]);
      std::swap_ranges(lu_.row(k) + lo, lu_.row(k) + hi + 1,
                       lu_.row(pivot) + lo);
      std::swap(first_[pivot], first_[k]);
      std::swap(last_[pivot], last_[k]);
    }
    // Update only rows with a nonzero multiplier, and only across the
    // pivot row's profile: everything else would subtract exact zeros.
    const double* pivot_row = lu_.row(k);
    const std::size_t end = last_[k];
    const double inv = 1.0 / pivot_row[k];
    for (std::size_t r = k + 1; r <= bottom; ++r) {
      double* row = lu_.row(r);
      if (row[k] == 0.0) continue;
      const double factor = row[k] * inv;
      row[k] = factor;
      for (std::size_t c = k + 1; c <= end; ++c) {
        row[c] -= factor * pivot_row[c];
      }
      last_[r] = std::max(last_[r], end);
    }
  }
}

std::vector<double> LuSolver::solve(std::vector<double> b) const {
  const std::size_t n = lu_.rows();
  LSM_EXPECT(b.size() == n, "rhs has wrong dimension");
  std::vector<double> x(n);
  solve_into(b.data(), x.data());
  return x;
}

void LuSolver::solve_into(const double* b, double* x) const {
  const std::size_t n = lu_.rows();
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower triangle); row i of L starts at its
  // profile's first nonzero.
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = lu_.row(i);
    double acc = x[i];
    for (std::size_t j = first_[i]; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution; row i of U ends at its profile's last nonzero.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lu_.row(ii);
    double acc = x[ii];
    for (std::size_t j = ii + 1; j <= last_[ii]; ++j) acc -= row[j] * x[j];
    x[ii] = acc / row[ii];
  }
}

}  // namespace lsm::ode
