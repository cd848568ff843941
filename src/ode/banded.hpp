// Banded dense linear algebra (LAPACK-style band storage) for the banded
// chord of Newton-GMRES (ode/krylov.hpp) above dense_precond_max_dim
// unknowns, in the polish and in the Krylov route's finish, both on the
// root system (core::newton_finish): the mean-field Jacobians are dominated
// by a narrow band (nearest-neighbor and +/- c stage coupling), so an
// O(n b^2) banded factorization replaces the O(n^3) dense one.
//
// banded_fd_jacobian differences the band of f = sys.deriv column by
// column: the exact band entries of any Jacobian, n evaluations, batched
// eight columns per pass when the system has a lane kernel. (Grouped
// Curtis-Powell-Reid differencing is exact only for truly banded
// Jacobians; the mean-field models are band + low-rank.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ode/fd_columns.hpp"
#include "ode/system.hpp"
#include "util/error.hpp"

namespace lsm::ode {

/// n x n matrix with kl subdiagonals and ku superdiagonals. Storage holds
/// kl extra superdiagonals for the fill-in produced by partial pivoting,
/// column by column (the *gbtrf layout): column j keeps rows
/// j - ku - kl .. j + kl contiguously, so a column is one pointer walk.
class BandedMatrix {
 public:
  BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t lower() const noexcept { return kl_; }
  [[nodiscard]] std::size_t upper() const noexcept { return ku_; }

  /// Access A(i, j); j must satisfy |i - j| within the declared bands
  /// (plus pivot fill for internal use). Out-of-band reads return 0.
  [[nodiscard]] double get(std::size_t i, std::size_t j) const noexcept;
  void set(std::size_t i, std::size_t j, double v);
  void add(std::size_t i, std::size_t j, double v);

  /// Pointer to A(i, j); rows i + 1 .. min(j + kl, n - 1) of column j
  /// follow it contiguously. (i, j) must lie in the stored band.
  [[nodiscard]] double* column_from(std::size_t i, std::size_t j) {
    LSM_ASSERT(i < n_ && j < n_ && in_storage(i, j));
    return data_.data() + index(i, j);
  }
  [[nodiscard]] const double* column_from(std::size_t i,
                                          std::size_t j) const {
    LSM_ASSERT(i < n_ && j < n_ && in_storage(i, j));
    return data_.data() + index(i, j);
  }

 private:
  friend class BandedLuSolver;

  [[nodiscard]] bool in_storage(std::size_t i, std::size_t j) const noexcept {
    // Stored band: j - i in [-kl, ku + kl] (fill region included).
    const auto d = static_cast<std::ptrdiff_t>(j) - static_cast<std::ptrdiff_t>(i);
    return d >= -static_cast<std::ptrdiff_t>(kl_) &&
           d <= static_cast<std::ptrdiff_t>(ku_ + kl_);
  }
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const noexcept {
    // Row i of column j sits at band row (ku + kl + i - j) of that column.
    return j * ld_ + kl_ + ku_ + i - j;
  }

  std::size_t n_, kl_, ku_;
  std::size_t ld_;  // stored rows per column: 2 kl + ku + 1
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a banded matrix.
class BandedLuSolver {
 public:
  /// Factors `a` (consumed). Throws util::Error on singularity.
  explicit BandedLuSolver(BandedMatrix a);

  /// Refactors in place: zeroes this solver's storage, lets
  /// `assemble(BandedMatrix&)` write the new matrix into it (entries only;
  /// the shape stays) and factors that. The storage is reused, so there
  /// is no heap allocation. Throws util::Error on singularity.
  template <class Assemble>
  void refactor(Assemble&& assemble) {
    std::fill(lu_.data_.begin(), lu_.data_.end(), 0.0);
    assemble(lu_);
    factor();
  }

  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

  /// Allocation-free solve for hot paths: reads b, writes x, both length
  /// size(); x == b solves in place.
  void solve_into(const double* b, double* x) const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.size(); }

  /// The factors in place of the matrix: the unit-lower multipliers below
  /// the diagonal, U on and above it (fill rows included).
  [[nodiscard]] const BandedMatrix& factors() const noexcept { return lu_; }
  /// Row swapped with row k at elimination step k.
  [[nodiscard]] const std::vector<std::size_t>& pivots() const noexcept {
    return pivot_;
  }

 private:
  void factor();

  BandedMatrix lu_;
  std::vector<std::size_t> pivot_;  // pivot row chosen at each step
};

/// Default relative step of the banded FD Jacobians.
inline constexpr double kBandedFdEps = 1e-7;

/// Buffers of the banded FD assembly, kept by callers that rebuild a
/// Jacobian of the same size repeatedly (Newton-GMRES's banded chord),
/// so that a rebuild does not touch the heap.
struct BandedFdScratch {
  State f0;           ///< the unperturbed residual
  FdScratch columns;  ///< fd_columns' buffers
};

/// Overwrites every band entry of `jac` (leaving its fill rows alone)
/// with the forward-difference Jacobian of sys.deriv(t, .) at s. Each
/// column costs one evaluation, assembled through deriv_batch in 8-lane
/// blocks when the system provides it (bit-identical entries either way).
void banded_fd_into(const OdeSystem& sys, double t, const State& s,
                    double eps, BandedMatrix& jac, BandedFdScratch& scratch);

/// Approximates the (kl, ku) band of the Jacobian of sys.deriv(t, .) at s.
BandedMatrix banded_fd_jacobian(const OdeSystem& sys, double t,
                                const State& s, std::size_t kl,
                                std::size_t ku, double eps = kBandedFdEps);

}  // namespace lsm::ode
