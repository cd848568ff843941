// Integration tests: for every stealing variant, a moderately sized
// simulation must agree with the corresponding mean-field fixed point
// (the paper's central claim is that the agreement is good already at
// n ~ 100). Tolerances are loose enough for short CI-speed horizons but
// tight enough to catch any structural mismatch between sim and model.
#include <gtest/gtest.h>

#include "core/composed_ws.hpp"
#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/multi_class_ws.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/rebalance_ws.hpp"
#include "core/staged_transfer_ws.hpp"
#include "core/threshold_ws.hpp"
#include "sim/replicate.hpp"

namespace {

using namespace lsm;

/// Simulates cfg (n = 96, 2 replications, 12000 s) and returns the mean
/// sojourn. Short but adequate: finite-n bias at n = 96 is ~1-3%.
double sim_sojourn(sim::SimConfig cfg, double lambda) {
  cfg.processors = 96;
  cfg.arrival_rate = lambda;
  cfg.horizon = 12000.0;
  cfg.warmup = 1500.0;
  cfg.seed = 101;
  return sim::replicate(cfg, {.replications = 2}).sojourn.mean;
}

TEST(SimVsModel, SimpleWS) {
  for (double lambda : {0.5, 0.8, 0.9}) {
    sim::SimConfig cfg;
    cfg.policy = sim::StealPolicy::on_empty(2);
    const double sim_w = sim_sojourn(cfg, lambda);
    const double model_w = core::SimpleWS(lambda).analytic_sojourn();
    EXPECT_NEAR(sim_w / model_w, 1.0, 0.05) << "lambda=" << lambda;
  }
}

TEST(SimVsModel, ThresholdT4) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::on_empty(4);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w = core::ThresholdWS(lambda, 4).analytic_sojourn();
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, Preemptive) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::preemptive(2, 4);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(
          core::ComposedWS(lambda, {.threshold = 4, .begin_steal = 2}));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, RepeatedSteals) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::with_retries(1.0, 3);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(
          core::ComposedWS(lambda, {.threshold = 3, .retry_rate = 1.0}));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, TwoChoices) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::on_empty(2, 2);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(core::ComposedWS(lambda, {.choices = 2}));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.06);
}

TEST(SimVsModel, MultiSteal) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::on_empty(6, 1, 3);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(
          core::ComposedWS(lambda, {.threshold = 6, .steal_count = 3}));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, TransferTime) {
  const double lambda = 0.8;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::with_transfer(4.0, 4);  // r = 0.25
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(core::StagedTransferWS(lambda, 0.25, 1, 4));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, ConstantTransferVsStagedModel) {
  // Simulated *constant* transfer latency against the staged transfer
  // model with c = 8 stages (Section 3.2 + 3.1 combination).
  const double lambda = 0.8;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::with_transfer(
      4.0, 4, sim::StealPolicy::Transfer::Constant);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w = core::fixed_point_sojourn(
      core::StagedTransferWS(lambda, 0.25, 8, 4));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, ConstantServiceVsErlangStages) {
  // Constant service sim vs the c = 20 stage model (Table 2's comparison).
  const double lambda = 0.8;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.service = sim::ServiceDistribution::constant(1.0);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(core::ErlangServiceWS(lambda, 20));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.06);
}

TEST(SimVsModel, ErlangServiceMatchesItsOwnModelExactly) {
  // When the sim actually uses Erlang-c service the stage model is exact
  // (not just a constant-service approximation).
  const double lambda = 0.85;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.service = sim::ServiceDistribution::erlang(5, 1.0);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(core::ErlangServiceWS(lambda, 5));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, Rebalance) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::rebalance(1.0);
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w =
      core::fixed_point_sojourn(core::RebalanceWS(lambda, 1.0));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.06);
}

TEST(SimVsModel, Heterogeneous) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.speed_groups = {{24, 2.0}, {72, 0.8}};  // of 96 -> fraction 0.25
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w = core::fixed_point_sojourn(
      core::MultiClassWS(lambda, {{0.25, 2.0}, {0.75, 0.8}}, 2));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.06);
}

TEST(SimVsModel, ComposedPolicy) {
  // Fully combined policy: preemptive B=2, T=4, 2 probes, 2-task steals,
  // retries at rate 1. The composed mean-field model must predict it.
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::composed(2, 4, 2, 2, 1.0);
  const double sim_w = sim_sojourn(cfg, lambda);
  core::ComposedWS model(lambda, {.threshold = 4,
                                  .choices = 2,
                                  .steal_count = 2,
                                  .begin_steal = 2,
                                  .retry_rate = 1.0});
  const double model_w = core::fixed_point_sojourn(model);
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, ErlangTransferVsStagedModel) {
  // Erlang-c transfer latency in the sim against the staged model with
  // the same c -- this pairing is EXACT, not an approximation.
  const double lambda = 0.8;
  sim::SimConfig cfg;
  cfg.policy = sim::StealPolicy::with_transfer(
      4.0, 4, sim::StealPolicy::Transfer::Erlang);
  cfg.policy.transfer_stages = 3;
  const double sim_w = sim_sojourn(cfg, lambda);
  const double model_w = core::fixed_point_sojourn(
      core::StagedTransferWS(lambda, 0.25, 3, 4));
  EXPECT_NEAR(sim_w / model_w, 1.0, 0.05);
}

TEST(SimVsModel, SpawningInternalArrivals) {
  // Load-dependent arrivals (Section 3.5): external 0.5 plus 0.3 while
  // busy, threshold-2 stealing.
  sim::SimConfig cfg;
  cfg.processors = 96;
  cfg.arrival_rate = 0.5;
  cfg.internal_rate = 0.3;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 12000.0;
  cfg.warmup = 1500.0;
  cfg.seed = 104;
  const auto rep = sim::replicate(cfg, {.replications = 2});

  auto model = core::GeneralArrivalWS::spawning(0.5, 0.3, 2);
  const auto fp = core::solve_fixed_point(model);
  // Little's law with the *external* rate is wrong here (internal spawns
  // add work); compare the stationary mean load instead.
  EXPECT_NEAR(rep.mean_tasks.mean / model.mean_tasks(fp.state), 1.0, 0.06);
  // And the busy fraction.
  EXPECT_NEAR(rep.tail_fraction[1], fp.state[1], 0.02);
}

TEST(SimVsModel, TailFractionsMatchFixedPoint) {
  // Beyond the scalar sojourn, the whole tail distribution must line up.
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.processors = 96;
  cfg.arrival_rate = lambda;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 12000.0;
  cfg.warmup = 1500.0;
  cfg.seed = 102;
  const auto rep = sim::replicate(cfg, {.replications = 2});
  const auto pi = core::SimpleWS(lambda).analytic_fixed_point();
  for (std::size_t i = 1; i <= 6; ++i) {
    EXPECT_NEAR(rep.tail_fraction[i], pi[i], 0.035) << "i=" << i;
  }
}

TEST(SimVsModel, PredictionImprovesWithN) {
  // The paper's Table 1 observation: relative error shrinks as n grows.
  const double lambda = 0.9;
  const double estimate = core::SimpleWS(lambda).analytic_sojourn();
  double err_small = 0.0, err_large = 0.0;
  for (std::size_t rep = 0; rep < 2; ++rep) {
    sim::SimConfig cfg;
    cfg.arrival_rate = lambda;
    cfg.policy = sim::StealPolicy::on_empty(2);
    cfg.horizon = 20000.0;
    cfg.warmup = 2000.0;
    cfg.seed = 103 + rep;
    cfg.processors = 8;
    err_small +=
        sim::replicate(cfg, {.replications = 2}).sojourn.mean - estimate;
    cfg.processors = 128;
    err_large +=
        sim::replicate(cfg, {.replications = 2}).sojourn.mean - estimate;
  }
  EXPECT_GT(err_small, 0.0);  // finite systems run slower than the limit
  EXPECT_GT(err_large, 0.0);
  EXPECT_LT(err_large, err_small);
}

}  // namespace
