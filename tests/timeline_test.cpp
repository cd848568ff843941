// Tests for the simulator's transient timeline and its agreement with the
// mean-field ODE trajectory (the empirical content of Kurtz's theorem).
#include <gtest/gtest.h>

#include "core/general_arrival_ws.hpp"
#include "core/threshold_ws.hpp"
#include "ode/integrator.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace lsm;

TEST(Timeline, DisabledByDefault) {
  sim::SimConfig cfg;
  cfg.processors = 4;
  cfg.arrival_rate = 0.5;
  cfg.horizon = 100.0;
  cfg.warmup = 10.0;
  EXPECT_TRUE(sim::simulate(cfg).timeline.empty());
}

TEST(Timeline, SamplesAtRequestedCadence) {
  sim::SimConfig cfg;
  cfg.processors = 8;
  cfg.arrival_rate = 0.5;
  cfg.horizon = 10.0;
  cfg.warmup = 1.0;
  cfg.timeline_dt = 1.0;
  const auto res = sim::simulate(cfg);
  ASSERT_EQ(res.timeline.size(), 11u);  // t = 0..10 inclusive
  for (std::size_t i = 0; i < res.timeline.size(); ++i) {
    EXPECT_NEAR(res.timeline[i].t, static_cast<double>(i), 1e-12);
  }
}

TEST(Timeline, StartsEmptyAndFillsUp) {
  sim::SimConfig cfg;
  cfg.processors = 64;
  cfg.arrival_rate = 0.8;
  cfg.horizon = 50.0;
  cfg.warmup = 5.0;
  cfg.timeline_dt = 5.0;
  const auto res = sim::simulate(cfg);
  ASSERT_GE(res.timeline.size(), 3u);
  EXPECT_EQ(res.timeline.front().mean_tasks, 0.0);
  EXPECT_EQ(res.timeline.front().busy_fraction, 0.0);
  EXPECT_GT(res.timeline.back().mean_tasks, 0.5);
  EXPECT_GT(res.timeline.back().busy_fraction, 0.4);
}

TEST(Timeline, DrainRunsDoNotPadToHorizon) {
  sim::SimConfig cfg;
  cfg.processors = 8;
  cfg.arrival_rate = 0.0;
  cfg.initial_tasks = 4;
  cfg.loaded_count = 8;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 1e6;
  cfg.warmup = 0.0;
  cfg.timeline_dt = 1.0;
  const auto res = sim::simulate(cfg);
  EXPECT_LT(res.timeline.size(), 500u);  // not one sample per second to 1e6
  EXPECT_EQ(res.timeline.back().mean_tasks, 0.0);
}

TEST(Timeline, TransientTracksOdeFillingFromEmpty) {
  // Average 4 replications of n = 256 starting empty at lambda = 0.9 and
  // compare the busy-fraction trajectory with the ODE from the same start.
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.processors = 256;
  cfg.arrival_rate = lambda;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 30.0;
  cfg.warmup = 1.0;
  cfg.timeline_dt = 3.0;

  std::vector<double> busy(11, 0.0), tasks(11, 0.0);
  constexpr int kReps = 4;
  for (int rep = 0; rep < kReps; ++rep) {
    cfg.seed = 60 + static_cast<std::uint64_t>(rep);
    const auto res = sim::simulate(cfg);
    ASSERT_GE(res.timeline.size(), busy.size());
    for (std::size_t i = 0; i < busy.size(); ++i) {
      busy[i] += res.timeline[i].busy_fraction / kReps;
      tasks[i] += res.timeline[i].mean_tasks / kReps;
    }
  }

  core::ThresholdWS model(lambda, 2);
  ode::State s = model.empty_state();
  double t = 0.0;
  for (std::size_t i = 1; i < busy.size(); ++i) {
    t = ode::integrate_adaptive(model, s, t, static_cast<double>(i) * 3.0, {});
    // Tolerances sized to the snapshot noise: ~sqrt(Var/n/reps) with
    // queue-length std ~ 3 gives ~0.2 on tasks, ~0.02 on busy fraction.
    EXPECT_NEAR(busy[i], s[1], 0.04) << "t=" << t;
    EXPECT_NEAR(tasks[i], model.mean_tasks(s), 0.3) << "t=" << t;
  }
}

TEST(Timeline, ShockDrainTracksOde) {
  // Loaded start, no arrivals: the drain trajectory follows the ODE.
  sim::SimConfig cfg;
  cfg.processors = 256;
  cfg.arrival_rate = 0.0;
  cfg.initial_tasks = 8;
  cfg.loaded_count = 128;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 1e5;
  cfg.warmup = 0.0;
  cfg.timeline_dt = 2.0;

  std::vector<double> tasks(6, 0.0);
  constexpr int kReps = 4;
  for (int rep = 0; rep < kReps; ++rep) {
    cfg.seed = 80 + static_cast<std::uint64_t>(rep);
    const auto res = sim::simulate(cfg);
    ASSERT_GE(res.timeline.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i] += res.timeline[i].mean_tasks / kReps;
    }
  }

  auto model = core::GeneralArrivalWS::static_system(2, 64);
  ode::State s = model.loaded_state(0.5, 8);
  double t = 0.0;
  EXPECT_NEAR(tasks[0], 4.0, 1e-9);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    t = ode::integrate_adaptive(model, s, t, static_cast<double>(i) * 2.0, {});
    EXPECT_NEAR(tasks[i], model.mean_tasks(s), 0.1) << "t=" << t;
  }
}

}  // namespace
