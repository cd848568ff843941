// Trajectory-level properties of the mean-field families: quantities the
// *dynamics* must preserve at every time, not just at the fixed point.
#include <gtest/gtest.h>

#include <memory>

#include "core/composed_ws.hpp"
#include "core/erlang_ws.hpp"
#include "core/multi_class_ws.hpp"
#include "core/registry.hpp"
#include "core/staged_transfer_ws.hpp"
#include "core/threshold_ws.hpp"
#include "ode/integrator.hpp"
#include "ode/steppers.hpp"

namespace {

using namespace lsm;
using ode::State;

/// Integrates from the empty state for `duration` and applies `check`
/// at every observed instant.
template <typename Check>
void along_trajectory(const core::MeanFieldModel& model, double duration,
                      Check check) {
  State s = model.empty_state();
  ode::AdaptiveOptions opts;
  opts.dt_max = 0.25;
  ode::integrate_adaptive(model, s, 0.0, duration, opts,
                          [&](double t, const State& x) {
                            check(t, x);
                            return true;
                          });
}

TEST(Trajectory, FeasibilityPreservedForEveryRegistryModel) {
  for (const auto& name : core::model_names()) {
    const auto model = core::make_model(name, 0.9);
    along_trajectory(*model, 10.0, [&](double t, const State& x) {
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_GE(x[i], -1e-9) << name << " t=" << t << " i=" << i;
        ASSERT_LE(x[i], 1.0 + 1e-9) << name << " t=" << t << " i=" << i;
      }
    });
  }
}

TEST(Trajectory, TailMonotonicityPreserved) {
  core::ThresholdWS model(0.95, 3);
  along_trajectory(model, 20.0, [&](double t, const State& x) {
    for (std::size_t i = 1; i < x.size(); ++i) {
      ASSERT_LE(x[i], x[i - 1] + 1e-9) << "t=" << t << " i=" << i;
    }
  });
}

TEST(Trajectory, TransferClassMassConserved) {
  core::StagedTransferWS model(0.9, 0.25, 1, 4);
  along_trajectory(model, 20.0, [&](double t, const State& x) {
    ASSERT_NEAR(x[0] + x[model.w_index(1, 0)], 1.0, 1e-7) << "t=" << t;
  });
}

TEST(Trajectory, StagedTransferClassMassConserved) {
  core::StagedTransferWS model(0.9, 0.25, 3, 4);
  along_trajectory(model, 20.0, [&](double t, const State& x) {
    double mass = x[0];
    for (std::size_t m = 1; m <= 3; ++m) mass += x[model.w_index(m, 0)];
    ASSERT_NEAR(mass, 1.0, 1e-7) << "t=" << t;
  });
}

TEST(Trajectory, HeterogeneousClassMassesPinned) {
  core::MultiClassWS model(0.9, {{0.25, 2.0}, {0.75, 0.8}}, 2);
  along_trajectory(model, 20.0, [&](double t, const State& x) {
    ASSERT_NEAR(x[0], 0.25, 1e-9) << "t=" << t;
    ASSERT_NEAR(x[model.index(1, 0)], 0.75, 1e-9) << "t=" << t;
  });
}

TEST(Trajectory, WorkBalanceRateHoldsInstantaneously) {
  // d(E[N])/dt = lambda - s_1 for any instant-steal model: arrivals add
  // work at rate lambda, busy processors drain it at rate s_1, and steals
  // only move tasks around. Checked by finite differences along the path.
  core::SimpleWS model(0.9);
  State s = model.empty_state();
  ode::RungeKutta4 rk4;
  const double dt = 1e-3;
  double t = 0.0;
  for (int step = 0; step < 4000; ++step) {
    const double before = model.mean_tasks(s);
    const double busy = s[1];
    rk4.step(model, t, s, dt);
    t += dt;
    const double after = model.mean_tasks(s);
    ASSERT_NEAR((after - before) / dt, 0.9 - busy, 1e-3) << "t=" << t;
  }
}

TEST(Trajectory, SteppersAgreeOnModelTrajectory) {
  // Euler (tiny step), RK4, and the adaptive integrator all land on the
  // same state: a strong cross-check of the integration machinery on a
  // production right-hand side.
  core::ComposedWS model(0.9, {.threshold = 4, .choices = 2, .steal_count = 2});
  const double horizon = 5.0;

  State euler_s = model.empty_state();
  ode::ExplicitEuler euler;
  ode::integrate_fixed(model, euler, euler_s, 0.0, horizon, 1e-4);

  State rk4_s = model.empty_state();
  ode::RungeKutta4 rk4;
  ode::integrate_fixed(model, rk4, rk4_s, 0.0, horizon, 1e-2);

  State adaptive_s = model.empty_state();
  ode::AdaptiveOptions opts;
  opts.rtol = 1e-11;
  ode::integrate_adaptive(model, adaptive_s, 0.0, horizon, opts);

  for (std::size_t i = 0; i < model.dimension(); ++i) {
    EXPECT_NEAR(rk4_s[i], adaptive_s[i], 1e-8) << "i=" << i;
    EXPECT_NEAR(euler_s[i], adaptive_s[i], 1e-3) << "i=" << i;
  }
}

TEST(Trajectory, ErlangStageMassDrainsAtStageRate) {
  // In the stage model, total stages change at rate c*lambda (arrivals
  // carry c stages) minus c*s_1 (busy processors complete stages at c).
  core::ErlangServiceWS model(0.8, 5);
  State s = model.empty_state();
  ode::RungeKutta4 rk4;
  const double dt = 5e-4;
  double t = 0.0;
  auto stage_mass = [&](const State& x) {
    double acc = 0.0;
    for (std::size_t i = model.truncation(); i >= 1; --i) acc += x[i];
    return acc;
  };
  for (int step = 0; step < 2000; ++step) {
    const double before = stage_mass(s);
    const double busy = s[1];
    rk4.step(model, t, s, dt);
    t += dt;
    const double after = stage_mass(s);
    ASSERT_NEAR((after - before) / dt, 5.0 * (0.8 - busy), 5e-3)
        << "t=" << t;
  }
}

}  // namespace
