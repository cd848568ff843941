// Dense state vectors for the mean-field ODE systems, plus the small set of
// BLAS-1 style operations the steppers need. Free functions over
// std::vector<double> keep the steppers allocation-free on the hot path.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace lsm::ode {

using State = std::vector<double>;

/// y += a * x
inline void axpy(double a, const State& x, State& y) {
  LSM_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

/// out = s + a * x  (out is resized as needed)
inline void add_scaled(const State& s, double a, const State& x, State& out) {
  LSM_ASSERT(s.size() == x.size());
  out.resize(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i] + a * x[i];
}

inline double norm_l1(const State& x) {
  double acc = 0.0;
  for (double v : x) acc += std::abs(v);
  return acc;
}

/// Max-norm; +infinity when any entry is NaN or infinite. (A max over
/// doubles skips NaN, since max(acc, NaN) keeps acc, and would let a
/// diverged iterate pass a convergence test.) The max runs over the bit
/// patterns of |v|: for non-negative doubles they order as the values do,
/// with infinity above every finite value and NaN above infinity, so one
/// branch-free integer pass finds the largest |v| bit for bit and flags
/// any non-finite entry.
inline double norm_linf(const State& x) {
  constexpr std::uint64_t kMagnitude = 0x7fffffffffffffffULL;  // drops the sign
  constexpr std::uint64_t kInfinity = 0x7ff0000000000000ULL;
  std::uint64_t acc = 0;
  for (double v : x) {
    const std::uint64_t a = std::bit_cast<std::uint64_t>(v) & kMagnitude;
    acc = acc < a ? a : acc;
  }
  return acc < kInfinity ? std::bit_cast<double>(acc)
                         : std::numeric_limits<double>::infinity();
}

inline double norm_l2(const State& x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return std::sqrt(acc);
}

/// L1 distance between two states of equal dimension.
inline double distance_l1(const State& a, const State& b) {
  LSM_ASSERT(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

}  // namespace lsm::ode
