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

/// Integrates from the empty state for `steps` accepted steps of at most
/// `dt_max` each and applies `check(t0, before, t1, after)` to every one.
/// The observer stops the run, so no step is clipped to a horizon.
template <typename Check>
void step_by_step(const core::MeanFieldModel& model, std::size_t steps,
                  double dt_max, Check check) {
  State s = model.empty_state();
  State prev = s;
  double t_prev = 0.0;
  std::size_t taken = 0;
  ode::AdaptiveOptions opts;
  opts.dt_init = dt_max;
  opts.dt_max = dt_max;
  ode::AdaptiveIntegrator integrator;
  integrator.integrate(model, s, 0.0, 2.0 * dt_max * static_cast<double>(steps),
                       opts, [&](double t, const State& x) {
                         check(t_prev, prev, t, x);
                         prev = x;
                         t_prev = t;
                         return ++taken < steps;
                       });
  EXPECT_EQ(taken, steps);
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
  step_by_step(model, 4000, 1e-3,
               [&](double t0, const State& before, double t1,
                   const State& after) {
                 const double rate =
                     (model.mean_tasks(after) - model.mean_tasks(before)) /
                     (t1 - t0);
                 ASSERT_NEAR(rate, 0.9 - before[1], 1e-3) << "t=" << t1;
               });
}

TEST(Trajectory, SteppersAgreeOnModelTrajectory) {
  // The adaptive integrator lands on the same state at a loose and a tight
  // tolerance, and in one call or in fifty restarts of one reused driver:
  // a strong cross-check of the integration machinery on a production
  // right-hand side.
  core::ComposedWS model(0.9, {.threshold = 4, .choices = 2, .steal_count = 2});
  const double horizon = 5.0;

  State adaptive_s = model.empty_state();
  ode::AdaptiveOptions opts;
  opts.rtol = 1e-11;
  double last_t = 0.0;
  ode::integrate_adaptive(model, adaptive_s, 0.0, horizon, opts,
                          [&](double t, const State&) {
                            EXPECT_GT(t, last_t);
                            last_t = t;
                            return true;
                          });
  EXPECT_EQ(last_t, horizon);

  State restarted_s = model.empty_state();
  ode::AdaptiveIntegrator driver;
  for (int k = 0; k < 50; ++k) {
    driver.integrate(model, restarted_s, 0.1 * k, 0.1 * (k + 1), opts);
  }

  State loose_s = model.empty_state();
  ode::AdaptiveOptions loose;
  loose.rtol = 1e-5;
  loose.atol = 1e-8;
  ode::integrate_adaptive(model, loose_s, 0.0, horizon, loose);

  for (std::size_t i = 0; i < model.dimension(); ++i) {
    EXPECT_NEAR(restarted_s[i], adaptive_s[i], 1e-8) << "i=" << i;
    EXPECT_NEAR(loose_s[i], adaptive_s[i], 1e-3) << "i=" << i;
  }
}

TEST(Trajectory, ErlangStageMassDrainsAtStageRate) {
  // In the stage model, total stages change at rate c*lambda (arrivals
  // carry c stages) minus c*s_1 (busy processors complete stages at c).
  core::ErlangServiceWS model(0.8, 5);
  auto stage_mass = [&](const State& x) {
    double acc = 0.0;
    for (std::size_t i = model.truncation(); i >= 1; --i) acc += x[i];
    return acc;
  };
  step_by_step(model, 2000, 5e-4,
               [&](double t0, const State& before, double t1,
                   const State& after) {
                 ASSERT_NEAR((stage_mass(after) - stage_mass(before)) /
                                 (t1 - t0),
                             5.0 * (0.8 - before[1]), 5e-3)
                     << "t=" << t1;
               });
}

}  // namespace
