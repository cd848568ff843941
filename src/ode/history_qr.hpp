// Thin QR factorization of a sliding window of history columns, updated in
// place (Walker & Ni, SINUM 2011, Sec. 4). Anderson acceleration solves a
// least-squares problem over its last m residual differences every
// iteration; refactoring the window from scratch costs O(n m^2) per
// iteration. Here a new column costs one modified Gram-Schmidt pass
// against the kept Q, dropping the oldest costs one sweep of Givens
// rotations over R and Q, and the least-squares solve is Q^T r plus a
// back-substitution: O(n m) per iteration in total. The loops over n are
// fused and blocked (k + 2 passes for a push, ceil(k / 4) for Q^T r, one
// chunked sweep for a drop).
//
// Summation order. Every reduction over n (the norms and projections of
// a push, each entry of Q^T r) keeps four partial sums: s_j adds the
// terms t = j, j + 4, j + 8, ... in turn, starting from +0.0, and the
// result is (s_0 + s_2) + (s_1 + s_3). The four chains are independent,
// so two 2-wide vector accumulators carry them at the throughput of the
// adds rather than their latency. Every other entry sees the operations
// of the plain loops in the same order.
//
// A push given the residual r of the next solve also accumulates Q^T r
// for the updated Q (q_i . r while projecting against q_i, q_k . r while
// scaling q_k). A solve whose r equals that r bit for bit uses the carried
// values; any other solve, and any after a clear, a drop, a rejected
// push or a push without r, forms Q^T r in the same order, so both give
// the same bits.
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
  void clear() noexcept {
    k_ = 0;
    carried_ = false;
  }

  /// Appends column v as the newest (requires size() < capacity()).
  /// Returns false and leaves the factorization unchanged when v is
  /// numerically dependent on the kept columns: the part of v orthogonal
  /// to them is at most 1e-12 of ||v||. Given r, a kept push also carries
  /// Q^T r for the next solve (see above).
  bool push(const State& v, const State* r = nullptr);

  /// Removes the oldest column (requires size() > 0).
  void drop_oldest();

  /// theta[0..size()) = argmin ||r - A theta||_2, A the window's columns
  /// oldest first.
  void solve(const State& r, double* theta);

  /// Whether the factorization holds Q^T r for the r of the last push.
  [[nodiscard]] bool carried() const noexcept { return carried_; }

  /// Column j of Q and entry (i, j) of R, oldest column first.
  [[nodiscard]] const State& q(std::size_t j) const { return q_[j]; }
  [[nodiscard]] double r(std::size_t i, std::size_t j) const {
    return r_[i * m_ + j];
  }

 private:
  template <bool kCarry>
  bool push_impl(const State& v, const double* r);

  std::size_t m_;
  std::size_t k_ = 0;
  std::vector<State> q_;    // m columns of length n; the first k_ are Q
  std::vector<double> r_;   // m x m row-major; the leading k_ x k_ is R
  std::vector<double> rhs_;  // Q^T r of the last solve
  std::vector<double> carry_;  // Q^T r for the r of the last push
  State carry_r_;              // that r
  bool carried_ = false;       // carry_ matches the current Q
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
