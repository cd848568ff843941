// Forward-difference Jacobian columns of an OdeSystem's right-hand side,
// shared by the dense (ode/krylov.cpp) and banded (ode/banded.cpp)
// assemblies: eight columns per deriv_batch pass when the system has a
// lane kernel, one deriv per column otherwise. A caller takes them a
// column at a time (fd_columns) or a whole pass at a time
// (fd_column_batches).
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

/// Lanes of one batched pass: the most columns a batch callback sees.
inline constexpr std::size_t kFdLanes = 8;

/// Calls batch(j0, nb, fb, h) for consecutive blocks of columns j0 ..
/// j0 + nb - 1 (nb <= kFdLanes) in order, where h[l] = eps max(1,
/// |s_{j0+l}|) and fb[i * nb + l] is component i of
/// sys.deriv(t, s + h[l] e_{j0+l}). Either path costs n evaluations and,
/// since a lane of deriv_batch equals deriv bit for bit, gives the same
/// values; without a lane kernel every block is one column.
template <class Batch>
void fd_column_batches(const OdeSystem& sys, double t, const State& s,
                       double eps, FdScratch& scratch, Batch&& batch) {
  const std::size_t n = s.size();
  scratch.xb.resize(n * std::min(kFdLanes, n));
  scratch.fb.resize(n * std::min(kFdLanes, n));
  double* xb = scratch.xb.data();
  std::size_t filled = 0;  // lane count the base state is laid out for
  double h_lane[kFdLanes];
  for (std::size_t j0 = 0; j0 < n; j0 += kFdLanes) {
    const std::size_t nb = std::min(kFdLanes, n - j0);
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
        batch(j, std::size_t{1}, scratch.fp.data(), &h);
      }
      return;
    }
    batch(j0, nb, scratch.fb.data(), h_lane);
    for (std::size_t l = 0; l < nb; ++l) {
      const std::size_t j = j0 + l;
      xb[j * nb + l] = s[j];  // back to the base state
    }
  }
}

/// Calls column(j, fp, stride, h) for j = 0 .. n - 1 in order, where
/// h = eps max(1, |s_j|) and fp[i * stride] is component i of
/// sys.deriv(t, s + h e_j): fd_column_batches one column at a time.
template <class Column>
void fd_columns(const OdeSystem& sys, double t, const State& s, double eps,
                FdScratch& scratch, Column&& column) {
  fd_column_batches(sys, t, s, eps, scratch,
                    [&](std::size_t j0, std::size_t nb, const double* fb,
                        const double* h) {
                      for (std::size_t l = 0; l < nb; ++l) {
                        column(j0 + l, fb + l, nb, h[l]);
                      }
                    });
}

}  // namespace lsm::ode
