// Thin QR factorization of a sliding window of history columns, updated in
// place (Walker & Ni, SINUM 2011, Sec. 4). Anderson acceleration solves a
// least-squares problem over its last m residual differences every
// iteration; refactoring the window from scratch costs O(n m^2) per
// iteration. Here a new column costs one modified Gram-Schmidt pass
// against the kept Q, dropping the oldest costs one sweep of Givens
// rotations over R and Q, and the least-squares solve is Q^T r plus a
// back-substitution: O(n m) per iteration in total. The loops over n are
// fused and blocked (k + 2 passes for a push, ceil(k / 4) for Q^T r, one
// chunked sweep for a drop) with every entry seeing the operations of the
// plain loops in the same order, so the results are those loops' bits.
//
// All storage is sized in the constructor; push/drop/solve never touch the
// heap (tests/hot_loop_alloc_test.cpp checks the Anderson loop around it).
#pragma once

#include <cstddef>
#include <vector>

#include "ode/state.hpp"

namespace lsm::ode::detail {

class HistoryQr {
 public:
  /// Room for up to `capacity` columns of length n.
  HistoryQr(std::size_t n, std::size_t capacity);

  [[nodiscard]] std::size_t size() const noexcept { return k_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return m_; }
  void clear() noexcept { k_ = 0; }

  /// Appends column v as the newest (requires size() < capacity()).
  /// Returns false and leaves the factorization unchanged when v is
  /// numerically dependent on the kept columns: the part of v orthogonal
  /// to them is at most 1e-12 of ||v||.
  bool push(const State& v);

  /// Removes the oldest column (requires size() > 0).
  void drop_oldest();

  /// theta[0..size()) = argmin ||r - A theta||_2, A the window's columns
  /// oldest first.
  void solve(const State& r, double* theta);

  /// Column j of Q and entry (i, j) of R, oldest column first.
  [[nodiscard]] const State& q(std::size_t j) const { return q_[j]; }
  [[nodiscard]] double r(std::size_t i, std::size_t j) const {
    return r_[i * m_ + j];
  }

 private:
  std::size_t m_;
  std::size_t k_ = 0;
  std::vector<State> q_;    // m columns of length n; the first k_ are Q
  std::vector<double> r_;   // m x m row-major; the leading k_ x k_ is R
  std::vector<double> rhs_;  // Q^T r of the last solve
  std::vector<double> cos_, sin_;  // rotations of the last drop
};

/// Anderson's extrapolation xn = x + r - sum_j theta[j] cols[j] over the
/// first k columns, skipping those with theta[j] = 0. The columns are
/// subtracted oldest first, four per pass over n, each entry seeing the
/// subtractions in the order of one pass per column.
void extrapolate(const State& x, const State& r,
                 const std::vector<State>& cols, const double* theta,
                 std::size_t k, State& xn);

}  // namespace lsm::ode::detail
