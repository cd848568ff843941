// Tests for the K-class generalization of Section 3.5.
#include <gtest/gtest.h>

#include "core/fixed_point.hpp"
#include "core/heterogeneous_ws.hpp"
#include "core/multi_class_ws.hpp"
#include "core/threshold_ws.hpp"
#include "sim/replicate.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

TEST(MultiClass, ValidatesInput) {
  EXPECT_THROW(core::MultiClassWS(0.9, {}, 2), util::LogicError);
  EXPECT_THROW(core::MultiClassWS(0.9, {{0.5, 1.0}, {0.4, 1.0}}, 2),
               util::LogicError);  // fractions don't sum to 1
  EXPECT_THROW(core::MultiClassWS(2.0, {{1.0, 1.0}}, 2),
               util::LogicError);  // overload
  EXPECT_NO_THROW(core::MultiClassWS(0.9, {{0.3, 2.0}, {0.7, 0.8}}, 2));
}

TEST(MultiClass, TwoClassesMatchHeterogeneousWS) {
  core::MultiClassWS general(0.9, {{0.25, 2.0}, {0.75, 0.8}}, 2, 64);
  core::HeterogeneousWS special(0.9, 0.25, 2.0, 0.8, 2, 64);
  ASSERT_EQ(general.dimension(), special.dimension());
  // Same packing (class 0 then class 1), so the fields must agree.
  ode::State x = general.empty_state();
  // Populate a feasible two-class profile.
  for (std::size_t i = 1; i <= 10; ++i) {
    x[general.index(0, i)] = 0.25 * std::pow(0.6, static_cast<double>(i));
    x[general.index(1, i)] = 0.75 * std::pow(0.8, static_cast<double>(i));
  }
  ode::State da(x.size()), db(x.size());
  general.deriv(0.0, x, da);
  special.deriv(0.0, x, db);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(da[i], db[i], 1e-13) << "i=" << i;
  }
}

TEST(MultiClass, SingleUnitClassIsThresholdWS) {
  core::MultiClassWS one(0.85, {{1.0, 1.0}}, 3, 64);
  core::ThresholdWS th(0.85, 3, 64);
  const auto fp = core::solve_fixed_point(one);
  const auto pi = th.analytic_fixed_point();
  for (std::size_t i = 0; i <= 20; ++i) {
    EXPECT_NEAR(fp.state[i], pi[i], 1e-8) << "i=" << i;
  }
}

TEST(MultiClass, ThroughputBalanceAcrossThreeClasses) {
  // Moderate heterogeneity: the slow class's deficit (0.85 - 0.75) is
  // well within what stealing can shed.
  core::MultiClassWS model(0.85, {{0.2, 1.5}, {0.5, 1.0}, {0.3, 0.75}}, 2);
  const auto fp = core::solve_fixed_point(model);
  EXPECT_LT(fp.residual, 1e-9);
  double throughput = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    throughput += model.classes()[c].rate * fp.state[model.index(c, 1)];
  }
  EXPECT_NEAR(throughput, 0.85, 1e-8);
  // Class masses pinned.
  EXPECT_NEAR(fp.state[model.index(0, 0)], 0.2, 1e-12);
  EXPECT_NEAR(fp.state[model.index(2, 0)], 0.3, 1e-12);
}

TEST(MultiClass, FasterClassesRunShorterQueues) {
  core::MultiClassWS model(0.85, {{0.2, 1.5}, {0.5, 1.0}, {0.3, 0.75}}, 2);
  const auto fp = core::solve_fixed_point(model);
  const double fast = model.mean_tasks_in_class(fp.state, 0);
  const double mid = model.mean_tasks_in_class(fp.state, 1);
  const double slow = model.mean_tasks_in_class(fp.state, 2);
  EXPECT_LT(fast, mid);
  EXPECT_LT(mid, slow);
}

TEST(MultiClass, ThreeClassSimMatchesModel) {
  const double lambda = 0.85;
  sim::SimConfig cfg;
  cfg.processors = 100;
  cfg.arrival_rate = lambda;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.speed_groups = {{20, 1.5}, {50, 1.0}, {30, 0.75}};
  cfg.horizon = 12000.0;
  cfg.warmup = 1500.0;
  cfg.seed = 41;
  const auto rep = sim::replicate(cfg, {.replications = 2});

  core::MultiClassWS model(lambda, {{0.2, 1.5}, {0.5, 1.0}, {0.3, 0.75}}, 2);
  const auto fp = core::solve_fixed_point(model);
  EXPECT_NEAR(rep.sojourn.mean / model.mean_sojourn(fp.state), 1.0, 0.06);
}

TEST(MultiClass, DetectsClassOverloadBeyondStealingsReach) {
  // Aggregate capacity (1.05) exceeds lambda = 0.9, yet a slow class at
  // mu = 0.5 has a local deficit (0.4) that threshold stealing cannot
  // shed: the truncated fixed point piles mass at the boundary and loses
  // throughput -- the numerical signature of a genuinely unstable class
  // (confirmed by simulation: sojourns grow with the horizon).
  core::MultiClassWS model(0.9, {{0.2, 2.0}, {0.5, 1.0}, {0.3, 0.5}}, 2);
  const auto fp = core::solve_fixed_point(model);
  double throughput = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    throughput += model.classes()[c].rate * fp.state[model.index(c, 1)];
  }
  EXPECT_LT(throughput, 0.9 - 0.01);  // cannot carry the offered load
  // The slow-class tail is pinned against the truncation boundary.
  EXPECT_GT(fp.state[model.index(2, model.truncation())], 1e-3);
}

TEST(MultiClassSim, SpeedGroupValidation) {
  sim::SimConfig cfg;
  cfg.processors = 10;
  cfg.speed_groups = {{4, 1.0}, {4, 2.0}};  // covers only 8 of 10
  EXPECT_THROW(cfg.validate(), util::LogicError);
  cfg.speed_groups = {{4, 1.0}, {6, 2.0}};
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
