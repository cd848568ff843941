// Forward-difference Jacobian columns of an OdeSystem's right-hand side,
// shared by the dense (ode/newton.cpp) and banded (ode/banded.cpp)
// assemblies: eight columns per deriv_batch pass when the system has a
// lane kernel, one deriv per column otherwise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "ode/state.hpp"
#include "ode/system.hpp"
#include "util/error.hpp"

namespace lsm::ode {

/// Buffers of fd_columns. A caller that keeps one differences a system of
/// the same size again without touching the heap.
struct FdScratch {
  std::vector<double> xb, fb;  ///< 8-lane perturbed states and residuals
  State pert, fp;              ///< the one-column path's
};

/// Calls column(j, fp, stride, h) for j = 0 .. n - 1 in order, where
/// h = eps max(1, |s_j|) and fp[i * stride] is component i of
/// sys.deriv(t, s + h e_j). Either path costs n evaluations and, since a
/// lane of deriv_batch equals deriv bit for bit, gives the same values.
template <class Column>
void fd_columns(const OdeSystem& sys, double t, const State& s, double eps,
                FdScratch& scratch, Column&& column) {
  constexpr std::size_t kLanes = 8;
  const std::size_t n = s.size();
  scratch.xb.resize(n * std::min(kLanes, n));
  scratch.fb.resize(n * std::min(kLanes, n));
  double* xb = scratch.xb.data();
  std::size_t filled = 0;  // lane count the base state is laid out for
  double h_lane[kLanes];
  for (std::size_t j0 = 0; j0 < n; j0 += kLanes) {
    const std::size_t nb = std::min(kLanes, n - j0);
    if (nb != filled) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < nb; ++l) xb[i * nb + l] = s[i];
      }
      filled = nb;
    }
    for (std::size_t l = 0; l < nb; ++l) {
      const std::size_t j = j0 + l;
      h_lane[l] = eps * std::max(1.0, std::abs(s[j]));
      xb[j * nb + l] = s[j] + h_lane[l];
    }
    if (!sys.deriv_batch(t, nb, xb, scratch.fb.data())) {
      // No lane kernel, which the first pass already shows.
      LSM_ASSERT(j0 == 0);
      State& pert = scratch.pert;
      pert = s;
      scratch.fp.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        const double h = eps * std::max(1.0, std::abs(s[j]));
        pert[j] = s[j] + h;
        sys.deriv(t, pert, scratch.fp);
        pert[j] = s[j];
        column(j, scratch.fp.data(), std::size_t{1}, h);
      }
      return;
    }
    for (std::size_t l = 0; l < nb; ++l) {
      const std::size_t j = j0 + l;
      column(j, scratch.fb.data() + l, nb, h_lane[l]);
      xb[j * nb + l] = s[j];  // back to the base state
    }
  }
}

}  // namespace lsm::ode
