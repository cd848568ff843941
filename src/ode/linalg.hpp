// Small dense linear algebra: row-major matrix plus LU factorization with
// partial pivoting. The mean-field Jacobians it factors (up to ~1000
// dimensions) are a band plus a few dense columns, so the factorization
// tracks each row's nonzero profile and skips the work on exact zeros: a
// band with kl/ku below/above the diagonal costs O(n kl (kl + ku)); dense
// leading columns fill in every row below them, which raises that to
// O(n^2 (kl + ku)). The textbook algorithm costs O(n^3 / 3) either way.
// Pivots and every nonzero's arithmetic are the textbook algorithm's, so
// the factors match it bit for bit up to the sign of exact zeros.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace lsm::ode {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  double* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting; solve() reuses the factors.
/// Forward and back substitution run over the rows' profiles only.
class LuSolver {
 public:
  /// Factors `a` (copied). Throws util::Error on (numerical) singularity.
  explicit LuSolver(Matrix a);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

  /// Allocation-free solve for hot paths (the GMRES preconditioner applies
  /// one of these per Krylov iteration): reads b, writes x, both length
  /// size(); the two must not alias.
  void solve_into(const double* b, double* x) const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  // Per factored row: first and last column that can be nonzero. L's row
  // i spans [first_[i], i), U's row i spans [i, last_[i]].
  std::vector<std::size_t> first_, last_;
};

}  // namespace lsm::ode
