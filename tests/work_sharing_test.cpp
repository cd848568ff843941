// Tests for the sender-initiated work-sharing model and policy -- the
// paper-intro contrast case ("in the work sharing paradigm overloaded
// processors attempt to pass on some of their work").
#include <gtest/gtest.h>

#include <cmath>

#include "core/fixed_point.hpp"
#include "core/metrics.hpp"
#include "core/threshold_ws.hpp"
#include "core/work_sharing.hpp"
#include "sim/replicate.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

TEST(WorkSharing, UnreachableThresholdIsNoSharing) {
  // With S far above any occupied level the system is plain M/M/1.
  core::WorkSharingWS model(0.8, 180, 200);
  const auto fp = core::solve_fixed_point(model);
  for (std::size_t i = 1; i <= 10; ++i) {
    EXPECT_NEAR(fp.state[i], std::pow(0.8, static_cast<double>(i)), 1e-8);
  }
}

TEST(WorkSharing, ThroughputBalanceAtFixedPoint) {
  for (double lambda : {0.5, 0.9}) {
    core::WorkSharingWS model(lambda, 2);
    const auto fp = core::solve_fixed_point(model);
    EXPECT_LT(fp.residual, 1e-9);
    EXPECT_NEAR(fp.state[1], lambda, 1e-8);
  }
}

TEST(WorkSharing, SharingImprovesOnNoBalancing) {
  for (double lambda : {0.7, 0.9, 0.95}) {
    core::WorkSharingWS model(lambda, 2);
    EXPECT_LT(core::fixed_point_sojourn(model), 1.0 / (1.0 - lambda))
        << "lambda=" << lambda;
  }
}

TEST(WorkSharing, TailDecaysAtLambdaPiS) {
  // Beyond S the effective arrival stream is just the forwarded one:
  // ratio lambda * pi_S.
  core::WorkSharingWS model(0.9, 3);
  const auto fp = core::solve_fixed_point(model);
  const double predicted = 0.9 * fp.state[3];
  const double measured = core::tail_decay_ratio(fp.state, 5);
  EXPECT_NEAR(measured, predicted, 1e-3);
}

TEST(WorkSharing, MessageRatesCrossOver) {
  // The intro's claim, quantified: stealing messages vanish as lambda->1
  // while sharing messages grow; at low load the ranking flips.
  auto rates = [](double lambda) {
    core::WorkSharingWS share(lambda, 2);
    core::SimpleWS steal(lambda);
    const auto fp_share = core::solve_fixed_point(share);
    const auto pi_steal = steal.analytic_fixed_point();
    return std::pair{share.message_rate(fp_share.state),
                     core::stealing_message_rate(pi_steal)};
  };
  const auto [share_low, steal_low] = rates(0.1);
  const auto [share_high, steal_high] = rates(0.98);
  EXPECT_LT(share_low, steal_low);    // sharing cheap when mostly idle
  EXPECT_GT(share_high, steal_high);  // stealing cheap when mostly busy
}

TEST(WorkSharing, StealingMessageRateVanishesAtSaturation) {
  // lambda - pi_2 -> 0 as lambda -> 1 (pi_2 -> 1): the traffic shrinks
  // monotonically past its mid-load peak.
  core::SimpleWS mid(0.9), high(0.98), near_sat(0.995);
  const double r_mid = core::stealing_message_rate(mid.analytic_fixed_point());
  const double r_high =
      core::stealing_message_rate(high.analytic_fixed_point());
  const double r_sat =
      core::stealing_message_rate(near_sat.analytic_fixed_point());
  EXPECT_GT(r_mid, r_high);
  EXPECT_GT(r_high, r_sat);
  EXPECT_LT(r_sat, 0.08);
}

TEST(WorkSharing, RejectsBadParameters) {
  EXPECT_THROW(core::WorkSharingWS(0.8, 0), util::LogicError);
  EXPECT_THROW(core::WorkSharingWS(1.1, 2), util::LogicError);
}

TEST(WorkSharingSim, MatchesMeanFieldSojourn) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.processors = 96;
  cfg.arrival_rate = lambda;
  cfg.policy = sim::StealPolicy::sharing(2);
  cfg.horizon = 12000.0;
  cfg.warmup = 1500.0;
  cfg.seed = 31;
  const auto rep = sim::replicate(cfg, {.replications = 2});
  core::WorkSharingWS model(lambda, 2);
  const double est = core::fixed_point_sojourn(model);
  EXPECT_NEAR(rep.sojourn.mean / est, 1.0, 0.05);
}

TEST(WorkSharingSim, MessageRateMatchesModel) {
  const double lambda = 0.8;
  sim::SimConfig cfg;
  cfg.processors = 64;
  cfg.arrival_rate = lambda;
  cfg.policy = sim::StealPolicy::sharing(2);
  cfg.horizon = 10000.0;
  cfg.warmup = 1000.0;
  cfg.seed = 32;
  const auto res = sim::simulate(cfg);
  // PASTA internal consistency: forwards happen exactly when an arrival
  // sees load >= S, so the measured rate is lambda * (empirical s_2).
  EXPECT_NEAR(res.message_rate(cfg.processors),
              lambda * res.tail_fraction[2], 0.01);
  // Mean-field agreement is looser: finite n biases s_2 upward (the same
  // effect as Table 1's finite-n columns).
  core::WorkSharingWS model(lambda, 2);
  const auto fp = core::solve_fixed_point(model);
  EXPECT_NEAR(res.message_rate(cfg.processors) / model.message_rate(fp.state),
              1.0, 0.15);
  EXPECT_GT(res.forwards, 0u);
}

TEST(WorkSharingSim, ForwardedTasksAreConserved) {
  sim::SimConfig cfg;
  cfg.processors = 16;
  cfg.arrival_rate = 0.9;
  cfg.policy = sim::StealPolicy::sharing(1);
  cfg.horizon = 1000.0;
  cfg.warmup = 100.0;
  const auto res = sim::simulate(cfg);
  EXPECT_EQ(res.initial_tasks + res.arrivals,
            res.completions + res.tasks_remaining);
  EXPECT_LE(res.tasks_moved, res.forwards);  // self-picks stay local
}

TEST(WorkSharingSim, StealingBeatsSharingOnResponseTimeAtHighLoad) {
  // At lambda = 0.95, receiver-initiated stealing yields shorter sojourns
  // than one-hop sender-initiated sharing at comparable thresholds.
  core::WorkSharingWS share(0.95, 2);
  core::SimpleWS steal(0.95);
  EXPECT_LT(steal.analytic_sojourn(), core::fixed_point_sojourn(share));
}

}  // namespace
