#include "analysis/spectral.hpp"

#include <algorithm>
#include <cmath>

#include "core/fixed_point.hpp"
#include "ode/fd_columns.hpp"
#include "ode/linalg.hpp"
#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace lsm::analysis {

SpectralResult dominant_relaxation_mode(const core::MeanFieldModel& model,
                                        const ode::State& state, double tol,
                                        std::size_t max_iter) {
  const std::size_t n = model.dimension();
  LSM_EXPECT(state.size() == n, "state dimension mismatch");

  // Dense finite-difference Jacobian of the *root residual* (conserved
  // rows replaced by constraints, so pinned components contribute inert
  // -1 diagonal modes that cannot masquerade as the slow mode unless the
  // physical gap exceeds 1, which never happens near saturation), its
  // columns eight per batched pass through ode::fd_columns.
  ode::State f0(n);
  model.root_residual(state, f0);
  ode::Matrix jac(n, n);
  ode::FdScratch scratch;
  ode::fd_columns(core::RootSystem(model), 0.0, state, 1e-7, scratch,
                  [&](std::size_t j, const double* f1, std::size_t stride,
                      double h) {
                    const double inv_h = 1.0 / h;
                    for (std::size_t i = 0; i < n; ++i) {
                      jac(i, j) = (f1[i * stride] - f0[i]) * inv_h;
                    }
                  });

  // Phase 1 - inverse power iteration (shift 0) to land near the
  // smallest-|lambda| mode; phase 2 - Rayleigh quotient iteration, whose
  // cubic convergence handles the O(1/L^2) eigenvalue clustering of the
  // near-continuous birth-death spectrum that defeats plain inverse
  // iteration.
  util::Xoshiro256 rng(12345);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform() - 0.5;

  SpectralResult out;
  double mu = 0.0;
  {
    const ode::LuSolver lu(jac);
    for (std::size_t it = 0; it < 30; ++it) {
      ++out.iterations;
      std::vector<double> w = lu.solve(v);
      double vw = 0.0, ww = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        vw += v[i] * w[i];
        ww += w[i] * w[i];
      }
      LSM_ASSERT(ww > 0.0);
      mu = vw / ww;  // eigenvalue estimate of J (w = J^{-1} v)
      const double norm = std::sqrt(ww);
      for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
    }
  }
  for (std::size_t it = 0; it < max_iter; ++it) {
    ++out.iterations;
    ode::Matrix shifted = jac;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) -= mu;
    std::vector<double> w;
    try {
      w = ode::LuSolver(shifted).solve(v);
    } catch (const util::Error&) {
      out.converged = true;  // exactly singular: mu IS an eigenvalue
      break;
    }
    double vw = 0.0, ww = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      vw += v[i] * w[i];
      ww += w[i] * w[i];
    }
    LSM_ASSERT(ww > 0.0);
    const double mu_next = mu + vw / ww;  // Rayleigh update on J
    const double norm = std::sqrt(ww);
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
    const bool settled =
        std::abs(mu_next - mu) < tol * std::max(1.0, std::abs(mu_next));
    mu = mu_next;
    if (settled) {
      out.converged = true;
      break;
    }
  }
  out.dominant_eigenvalue = mu;
  out.spectral_gap = -out.dominant_eigenvalue;
  out.relaxation_time =
      out.spectral_gap > 0.0 ? 1.0 / out.spectral_gap : 0.0;
  return out;
}

}  // namespace lsm::analysis
