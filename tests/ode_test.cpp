// Unit tests for src/ode: adaptive control, steady-state relaxation, dense
// LU, and Newton-GMRES.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ode/anderson.hpp"
#include "ode/integrator.hpp"
#include "ode/krylov.hpp"
#include "ode/linalg.hpp"
#include "ode/steady_state.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;
using ode::State;

/// dy/dt = -y, y(0) = 1 -> y(t) = exp(-t).
class Decay final : public ode::OdeSystem {
 public:
  void deriv(double, const State& s, State& ds) const override {
    ds[0] = -s[0];
  }
  [[nodiscard]] std::size_t dimension() const override { return 1; }
};

/// Harmonic oscillator: x'' = -x as a first-order system.
class Oscillator final : public ode::OdeSystem {
 public:
  void deriv(double, const State& s, State& ds) const override {
    ds[0] = s[1];
    ds[1] = -s[0];
  }
  [[nodiscard]] std::size_t dimension() const override { return 2; }
};

/// Linear relaxation ds/dt = A(b - s) with fixed point b = (1, 2).
class LinearRelax final : public ode::OdeSystem {
 public:
  void deriv(double, const State& s, State& ds) const override {
    ds[0] = 2.0 * (1.0 - s[0]) + 0.5 * (2.0 - s[1]);
    ds[1] = 0.3 * (1.0 - s[0]) + 1.5 * (2.0 - s[1]);
  }
  [[nodiscard]] std::size_t dimension() const override { return 2; }
};

TEST(IntegrateAdaptive, MeetsTolerance) {
  Oscillator sys;
  State s = {1.0, 0.0};
  ode::AdaptiveOptions opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-12;
  ode::integrate_adaptive(sys, s, 0.0, 2.0 * M_PI, opts);
  EXPECT_NEAR(s[0], 1.0, 1e-7);
  EXPECT_NEAR(s[1], 0.0, 1e-7);
}

TEST(IntegrateAdaptive, LooseToleranceUsesFewerSteps) {
  Oscillator sys;
  int tight_steps = 0, loose_steps = 0;
  {
    State s = {1.0, 0.0};
    ode::AdaptiveOptions opts;
    opts.rtol = 1e-12;
    ode::integrate_adaptive(sys, s, 0.0, 10.0, opts,
                            [&](double, const State&) {
                              ++tight_steps;
                              return true;
                            });
  }
  {
    State s = {1.0, 0.0};
    ode::AdaptiveOptions opts;
    opts.rtol = 1e-4;
    ode::integrate_adaptive(sys, s, 0.0, 10.0, opts,
                            [&](double, const State&) {
                              ++loose_steps;
                              return true;
                            });
  }
  EXPECT_LT(loose_steps, tight_steps);
}

TEST(IntegrateAdaptive, ReachesExactFinalTime) {
  Decay sys;
  State s = {1.0};
  const double t = ode::integrate_adaptive(sys, s, 0.0, 3.14159, {});
  EXPECT_DOUBLE_EQ(t, 3.14159);
  EXPECT_NEAR(s[0], std::exp(-3.14159), 1e-7);
}

TEST(SteadyState, FindsLinearFixedPoint) {
  LinearRelax sys;
  auto res = ode::relax_to_fixed_point(sys, {0.0, 0.0});
  EXPECT_NEAR(res.state[0], 1.0, 1e-9);
  EXPECT_NEAR(res.state[1], 2.0, 1e-9);
  EXPECT_LT(res.deriv_norm, 1e-10);
}

TEST(SteadyState, ThrowsWhenHorizonTooShort) {
  LinearRelax sys;
  ode::SteadyStateOptions opts;
  opts.t_max = 1e-3;
  opts.deriv_tol = 1e-14;
  EXPECT_THROW(ode::relax_to_fixed_point(sys, {0.0, 0.0}, opts), util::Error);
}

// --- linalg ------------------------------------------------------------------

TEST(LuSolver, SolvesKnownSystem) {
  ode::Matrix a(3, 3);
  // A = [[2,1,0],[1,3,1],[0,1,4]], x = (1,2,3) -> b = (4, 10, 14)
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(1, 2) = 1;
  a(2, 1) = 1;
  a(2, 2) = 4;
  const ode::LuSolver lu(a);
  const auto x = lu.solve({4.0, 10.0, 14.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(LuSolver, PivotsOnZeroDiagonal) {
  ode::Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const ode::LuSolver lu(a);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolver, DetectsSingularity) {
  ode::Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(ode::LuSolver{a}, util::Error);
}

TEST(LuSolver, LargerRandomSystemRoundTrips) {
  const std::size_t n = 40;
  ode::Matrix a(n, n);
  std::vector<double> x_true(n);
  // Deterministic well-conditioned test matrix.
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = std::sin(static_cast<double>(i) + 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = (i == j) ? 10.0 : std::cos(static_cast<double>(3 * i + 7 * j));
    }
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
  }
  const auto x = ode::LuSolver(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

// --- newton ------------------------------------------------------------------

TEST(Newton, SolvesLinearSystemInOneStep) {
  LinearRelax sys;
  const auto res = ode::newton_krylov_fixed_point(sys, {5.0, -3.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.state[0], 1.0, 1e-9);
  EXPECT_NEAR(res.state[1], 2.0, 1e-9);
  EXPECT_LE(res.iterations, 3u);
}

/// f(s) = (s^2 - 4, ...): nonlinear root at s = 2.
class Quadratic final : public ode::OdeSystem {
 public:
  void deriv(double, const State& s, State& ds) const override {
    ds[0] = s[0] * s[0] - 4.0;
  }
  [[nodiscard]] std::size_t dimension() const override { return 1; }
};

TEST(Newton, SolvesNonlinearRoot) {
  Quadratic sys;
  const auto res = ode::newton_krylov_fixed_point(sys, {1.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.state[0], 2.0, 1e-9);
}

TEST(Newton, ReportsNonConvergenceGracefully) {
  Quadratic sys;
  ode::NewtonKrylovOptions opts;
  opts.max_iter = 0;
  const auto res = ode::newton_krylov_fixed_point(sys, {1.0}, opts);
  EXPECT_FALSE(res.converged);
}

// --- state ops --------------------------------------------------------------

TEST(StateOps, Norms) {
  const State x = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(ode::norm_l1(x), 7.0);
  EXPECT_DOUBLE_EQ(ode::norm_l2(x), 5.0);
  EXPECT_DOUBLE_EQ(ode::norm_linf(x), 4.0);
}

TEST(StateOps, LinfNormReportsNonFiniteEntriesAsInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ode::norm_linf({1.0, nan, 2.0}), inf);
  EXPECT_EQ(ode::norm_linf({nan}), inf);
  EXPECT_EQ(ode::norm_linf({0.5, -inf}), inf);
  EXPECT_EQ(ode::norm_linf({-0.0, 0.25, -3.0}), 3.0);
  EXPECT_EQ(ode::norm_linf({}), 0.0);
}

TEST(StateOps, AxpyAndDistance) {
  State y = {1.0, 1.0};
  ode::axpy(2.0, {1.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(ode::distance_l1({1.0, 2.0}, {4.0, 0.0}), 5.0);
}

// --- a residual with one NaN component ------------------------------------

/// ds_i = 1 - s_i, except component 2, which is NaN everywhere. At
/// s = (1, 1, 1, 1) every finite component is zero, so a max-norm that
/// skips NaN reads as converged there.
class OneNanComponent final : public ode::OdeSystem {
 public:
  void deriv(double, const State& s, State& ds) const override {
    for (std::size_t i = 0; i < s.size(); ++i) ds[i] = 1.0 - s[i];
    ds[2] = std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] std::size_t dimension() const override { return 4; }
};

/// Where the solvers start: at the finite components' fixed point and
/// away from it.
const State kNanStarts[] = {{1.0, 1.0, 1.0, 1.0}, {0.0, 0.5, 0.0, 2.0}};

TEST(NonFiniteResidual, AndersonDoesNotConverge) {
  const OneNanComponent sys;
  ode::AndersonOptions opts;
  opts.max_iter = 40;
  for (const State& s0 : kNanStarts) {
    const auto res = ode::anderson_fixed_point(sys, s0, opts);
    EXPECT_FALSE(res.converged);
    EXPECT_FALSE(std::isfinite(res.residual_norm));
  }
}

TEST(NonFiniteResidual, RelaxationReportsDivergence) {
  const OneNanComponent sys;
  ode::SteadyStateOptions opts;
  opts.throw_on_failure = false;
  for (const State& s0 : kNanStarts) {
    const auto res = ode::relax_to_fixed_point(sys, s0, opts);
    EXPECT_EQ(res.status, ode::SolveStatus::Diverged) << res.failure;
    EXPECT_FALSE(std::isfinite(res.deriv_norm));
  }
}

TEST(NonFiniteResidual, NewtonDoesNotConverge) {
  const OneNanComponent sys;
  for (const State& s0 : kNanStarts) {
    const auto res = ode::newton_krylov_fixed_point(sys, s0, {});
    EXPECT_FALSE(res.converged);
    EXPECT_FALSE(std::isfinite(res.residual_norm));
  }
}

}  // namespace
