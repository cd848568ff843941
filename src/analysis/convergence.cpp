#include "analysis/convergence.hpp"

#include <algorithm>
#include <cmath>

#include "core/fixed_point.hpp"
#include "ode/integrator.hpp"
#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace lsm::analysis {

std::vector<ode::State> random_starts(const core::MeanFieldModel& model,
                                      std::size_t count, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<ode::State> starts;
  starts.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    ode::State s(model.dimension(), 0.0);
    // Random geometric tail: s_i = head * ratio^(i-1), a feasible profile
    // for single-vector tail models; project() repairs the rest.
    const double head = 0.05 + 0.9 * rng.uniform();
    const double ratio = 0.1 + 0.85 * rng.uniform();
    s[0] = 1.0;
    double v = head;
    for (std::size_t i = 1; i < s.size(); ++i) {
      s[i] = v;
      v *= ratio;
    }
    model.project(s);
    starts.push_back(std::move(s));
  }
  return starts;
}

ConvergenceReport check_convergence(const core::MeanFieldModel& model,
                                    const std::vector<ode::State>& starts,
                                    const ode::State& fixed_point,
                                    const MultiStartOptions& mopts) {
  LSM_EXPECT(!starts.empty(), "need at least one start");
  ConvergenceReport report;
  report.starts = starts.size();
  if (mopts.drive == MultiStartOptions::Drive::Solver) {
    ode::FixedPointSolveOptions sopts;
    sopts.method = mopts.method;
    sopts.label = "convergence model=" + model.name();
    const ode::NewtonKrylovOptions krylov = core::FixedPointOptions{}.krylov;
    for (const auto& start : starts) {
      const auto solved = core::solve_rung(model, start, sopts, krylov);
      report.rhs_evals += solved.rhs_evals;
      const double dist = ode::distance_l1(solved.state, fixed_point);
      if (dist < mopts.tol) ++report.converged;
      report.worst_final_distance =
          std::max(report.worst_final_distance, dist);
    }
    return report;
  }
  const ode::CountingSystem counted(model);
  ode::AdaptiveOptions opts;
  opts.dt_max = 5.0;
  for (const auto& start : starts) {
    ode::State s = start;
    double t = 0.0;
    double dist = ode::distance_l1(s, fixed_point);
    // Integrate in chunks; stop early once inside tolerance.
    while (t < mopts.t_max && dist >= mopts.tol) {
      t = ode::integrate_adaptive(counted, s, t,
                                  std::min(t + 20.0, mopts.t_max), opts);
      dist = ode::distance_l1(s, fixed_point);
    }
    if (dist < mopts.tol) ++report.converged;
    report.worst_final_distance = std::max(report.worst_final_distance, dist);
  }
  report.rhs_evals = counted.evals();
  return report;
}

}  // namespace lsm::analysis
