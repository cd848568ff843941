// Tests for the spectral relaxation analysis and the simulator's extended
// metrics (sojourn percentiles, heaviest observed queue).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/spectral.hpp"
#include "analysis/stability.hpp"
#include "core/composed_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/threshold_ws.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

// --- spectral ----------------------------------------------------------------

TEST(Spectral, NoStealingGapMatchesBirthDeathTheory) {
  // The truncated M/M/1 mean-field Jacobian is tridiagonal with known
  // extreme eigenvalue -(1 - sqrt(lambda))^2 (up to O(1/L) truncation).
  const double lambda = 0.5;
  core::NoStealing model(lambda, 220);
  const auto res =
      analysis::dominant_relaxation_mode(model, model.analytic_fixed_point());
  ASSERT_TRUE(res.converged);
  const double expected = (1.0 - std::sqrt(lambda)) * (1.0 - std::sqrt(lambda));
  EXPECT_NEAR(res.spectral_gap, expected, 0.01);
}

TEST(Spectral, StableModelsHavePositiveGap) {
  for (double lambda : {0.5, 0.8, 0.95}) {
    core::SimpleWS model(lambda);
    const auto res = analysis::dominant_relaxation_mode(
        model, model.analytic_fixed_point());
    ASSERT_TRUE(res.converged) << "lambda=" << lambda;
    EXPECT_GT(res.spectral_gap, 0.0) << "lambda=" << lambda;
    EXPECT_GT(res.relaxation_time, 0.0);
  }
}

TEST(Spectral, GapShrinksTowardSaturation) {
  core::SimpleWS light(0.5);
  core::SimpleWS heavy(0.95);
  const auto g_light = analysis::dominant_relaxation_mode(
      light, light.analytic_fixed_point());
  const auto g_heavy = analysis::dominant_relaxation_mode(
      heavy, heavy.analytic_fixed_point());
  EXPECT_GT(g_light.spectral_gap, g_heavy.spectral_gap);
}

TEST(Spectral, GapPredictsObservedDecayRate) {
  // D(t) ~ exp(-gap t) asymptotically: compare the fitted decay of the L1
  // distance with the spectral prediction.
  core::SimpleWS model(0.7);
  const auto pi = model.analytic_fixed_point();
  const auto spec = analysis::dominant_relaxation_mode(model, pi);
  ASSERT_TRUE(spec.converged);

  const auto trace =
      analysis::trace_l1_distance(model, model.mm1_state(), pi, 60.0, 2.0);
  // Fit the tail of log D(t): use samples in the asymptotic regime.
  const auto& s = trace.samples;
  const std::size_t a = s.size() / 2;
  const std::size_t b = s.size() - 1;
  const double rate =
      -(std::log(s[b].l1) - std::log(s[a].l1)) / (s[b].t - s[a].t);
  EXPECT_NEAR(rate, spec.spectral_gap, 0.25 * spec.spectral_gap);
}

TEST(Spectral, FasterPoliciesRelaxFaster) {
  // Two-choice stealing drains imbalance faster than plain stealing.
  core::SimpleWS one(0.9);
  core::ComposedWS two(0.9, {.choices = 2});
  const auto g1 =
      analysis::dominant_relaxation_mode(one, one.analytic_fixed_point());
  const auto g2 = analysis::dominant_relaxation_mode(
      two, core::solve_fixed_point(two).state);
  EXPECT_GT(g2.spectral_gap, g1.spectral_gap);
}

// --- sim metrics -----------------------------------------------------------------

TEST(SimMetrics, PercentilesRequireOptIn) {
  sim::SimConfig cfg;
  cfg.processors = 4;
  cfg.arrival_rate = 0.5;
  cfg.horizon = 500.0;
  cfg.warmup = 50.0;
  const auto res = sim::simulate(cfg);
  EXPECT_TRUE(res.sojourn_samples.empty());
  EXPECT_THROW((void)res.sojourn_percentile(0.5), util::LogicError);
}

TEST(SimMetrics, Mm1SojournQuantilesAreExponential) {
  // FIFO M/M/1 sojourn is Exp(1 - lambda): p50 = ln2/(1-l), p99 = ln100/(1-l).
  const double lambda = 0.6;
  sim::SimConfig cfg;
  cfg.processors = 16;
  cfg.arrival_rate = lambda;
  cfg.policy = sim::StealPolicy::none();
  cfg.horizon = 30000.0;
  cfg.warmup = 3000.0;
  cfg.collect_sojourns = true;
  cfg.seed = 5;
  const auto res = sim::simulate(cfg);
  const double scale = 1.0 / (1.0 - lambda);
  EXPECT_NEAR(res.sojourn_percentile(0.5), std::log(2.0) * scale,
              0.1 * scale);
  EXPECT_NEAR(res.sojourn_percentile(0.99), std::log(100.0) * scale,
              0.5 * scale);
}

TEST(SimMetrics, StealingCutsTheTailQuantile) {
  const double lambda = 0.9;
  sim::SimConfig cfg;
  cfg.processors = 64;
  cfg.arrival_rate = lambda;
  cfg.horizon = 8000.0;
  cfg.warmup = 800.0;
  cfg.collect_sojourns = true;
  cfg.seed = 6;
  cfg.policy = sim::StealPolicy::none();
  const auto without = sim::simulate(cfg);
  cfg.policy = sim::StealPolicy::on_empty(2);
  const auto with = sim::simulate(cfg);
  EXPECT_LT(with.sojourn_percentile(0.99), without.sojourn_percentile(0.99));
}

TEST(SimMetrics, MaxQueueGrowsWithLoad) {
  sim::SimConfig cfg;
  cfg.processors = 32;
  cfg.horizon = 5000.0;
  cfg.warmup = 500.0;
  cfg.seed = 7;
  cfg.arrival_rate = 0.5;
  const auto light = sim::simulate(cfg);
  cfg.arrival_rate = 0.95;
  const auto heavy = sim::simulate(cfg);
  EXPECT_GT(light.max_queue, 0u);
  EXPECT_GT(heavy.max_queue, light.max_queue);
}

TEST(SimMetrics, StealingShrinksHeaviestLoad) {
  // Section 2.2's geometric-tails claim, seen through the max statistic.
  sim::SimConfig cfg;
  cfg.processors = 64;
  cfg.arrival_rate = 0.95;
  cfg.horizon = 8000.0;
  cfg.warmup = 800.0;
  cfg.seed = 8;
  cfg.policy = sim::StealPolicy::none();
  const auto without = sim::simulate(cfg);
  cfg.policy = sim::StealPolicy::on_empty(2);
  const auto with = sim::simulate(cfg);
  EXPECT_LT(with.max_queue, without.max_queue);
}

TEST(SimMetrics, MeanOfSamplesMatchesRunningStat) {
  sim::SimConfig cfg;
  cfg.processors = 8;
  cfg.arrival_rate = 0.7;
  cfg.horizon = 2000.0;
  cfg.warmup = 200.0;
  cfg.collect_sojourns = true;
  const auto res = sim::simulate(cfg);
  ASSERT_EQ(res.sojourn_samples.size(), res.sojourn.count());
  double acc = 0.0;
  for (double v : res.sojourn_samples) acc += v;
  EXPECT_NEAR(acc / static_cast<double>(res.sojourn_samples.size()),
              res.mean_sojourn(), 1e-9);
}

}  // namespace
