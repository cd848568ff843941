// Linear algebra for the solvers' finite-difference Jacobians: a row-major
// dense matrix, compressed sparse columns, and an LU factorization with
// partial pivoting that costs what the sparsity costs.
//
// The mean-field Jacobians (up to ~1000 dimensions) are a band plus a few
// dense columns; multi-segment states (phase-type service, transfer) store
// their segments one after the other, so the band shows up at offsets
// +-L as well. LuSolver therefore orders the unknowns symmetrically first:
// columns with more than n/4 nonzeros go last as a dense border, and the
// rest follow a Cuthill-McKee breadth-first order, which interleaves the
// segments into one narrow band b. Elimination then keeps each row as a
// window over the band columns plus a dense border segment: with n_b
// border columns it costs O(nnz b + n b n_b + n_b^3) and stores
// O(n (b + n_b)) numbers, against O(n^3) and n^2 for a dense LU. Pivots
// and the arithmetic on nonzeros are those of a textbook partial-pivot LU
// of P A P^T, so the factors equal it bit for bit up to the sign of exact
// zeros.
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

/// Square n x n matrix in compressed sparse columns: column j holds the
/// rows row[col_start[j]] .. row[col_start[j + 1] - 1], ascending and
/// distinct, with their values alongside. Entries not listed are zero.
struct SparseColumns {
  std::size_t n = 0;
  std::vector<std::size_t> col_start{0};
  std::vector<std::size_t> row;
  std::vector<double> value;
};

/// LU factorization with partial pivoting of P A P^T (see the file
/// comment for the ordering P); solve() reuses the factors.
class LuSolver {
 public:
  /// Factors `a`. Throws util::Error on (numerical) singularity.
  explicit LuSolver(const SparseColumns& a);
  /// Compresses `a` and factors it: the same factors as the sparse
  /// constructor on the same nonzeros.
  explicit LuSolver(const Matrix& a);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

  /// Allocation-free solve for hot paths (the GMRES preconditioner applies
  /// one of these per Krylov iteration): reads b, writes x, both length
  /// size(); the two must not alias.
  void solve_into(const double* b, double* x) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// The symmetric ordering: unknown i of the factored matrix P A P^T is
  /// unknown order()[i] of A.
  [[nodiscard]] const std::vector<std::size_t>& order() const noexcept {
    return order_;
  }

 private:
  /// Factored row i: band columns [lo, end) at band_[off]; it is row
  /// `row` of P A P^T, whose border columns sit at border_[row * (n_ - m_)]
  /// and whose right-hand side is b[order_[row]].
  struct Window {
    std::size_t off, lo, end, row;
  };

  std::size_t n_ = 0;
  std::size_t m_ = 0;  // band unknowns; the border is [m_, n_)
  std::vector<std::size_t> order_;
  std::vector<std::size_t> cycle_leaders_;  // of order_, for the output scatter
  std::vector<Window> window_;
  std::vector<double> band_;
  std::vector<double> border_;
};

}  // namespace lsm::ode
