// Tests for src/analysis: stability traces (Section 4), multi-start
// convergence, tail-ratio estimation, transients and finite-size fits.
#include <gtest/gtest.h>

#include "analysis/convergence.hpp"
#include "analysis/finite_size.hpp"
#include "analysis/stability.hpp"
#include "analysis/transient.hpp"
#include "core/composed_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "core/threshold_ws.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

TEST(Stability, L1DistanceDecreasesFromEmptyStart) {
  // Theorem 1 regime: pi_2 < 1/2 (lambda = 0.6 gives pi_2 ~ 0.23).
  core::SimpleWS model(0.6);
  const auto pi = model.analytic_fixed_point();
  ASSERT_TRUE(analysis::theorem_stability_condition(pi));
  const auto trace =
      analysis::trace_l1_distance(model, model.empty_state(), pi, 40.0);
  EXPECT_TRUE(trace.monotone_within(1e-9));
  EXPECT_LT(trace.samples.back().l1, 1e-3);
  EXPECT_GT(trace.samples.front().l1, 0.5);
}

TEST(Stability, L1DistanceDecreasesFromOverloadedStart) {
  core::SimpleWS model(0.6);
  const auto pi = model.analytic_fixed_point();
  const auto trace =
      analysis::trace_l1_distance(model, model.mm1_state(), pi, 40.0);
  EXPECT_TRUE(trace.monotone_within(1e-9));
}

TEST(Stability, HighLoadStillConvergesEmpirically) {
  // Beyond the theorem's pi_2 < 1/2 regime the paper expects (but cannot
  // prove) convergence; numerically it holds.
  core::SimpleWS model(0.95);
  const auto pi = model.analytic_fixed_point();
  EXPECT_FALSE(analysis::theorem_stability_condition(pi));
  const auto trace =
      analysis::trace_l1_distance(model, model.empty_state(), pi, 400.0);
  EXPECT_LT(trace.samples.back().l1, 1e-2);
}

TEST(Stability, TheoremConditionBoundary) {
  // pi_2 crosses 1/2 somewhere between lambda 0.76 and 0.77.
  EXPECT_TRUE(
      analysis::theorem_stability_condition({1.0, 0.7, 0.49, 0.1}));
  EXPECT_FALSE(
      analysis::theorem_stability_condition({1.0, 0.8, 0.51, 0.1}));
}

TEST(Convergence, AllRandomStartsReachFixedPoint) {
  core::SimpleWS model(0.8);
  const auto pi = model.analytic_fixed_point();
  const auto starts = analysis::random_starts(model, 8, 77);
  const auto report = analysis::check_convergence(
      model, starts, pi, {.t_max = 400.0, .tol = 1e-6});
  EXPECT_TRUE(report.all_converged())
      << "worst distance " << report.worst_final_distance;
}

TEST(Convergence, SolverDriveFinishesTheKrylovRoute) {
  // Erlang's declared band routes the Solver drive to the Krylov route,
  // whose ode half is only the Anderson warm-up: every start must still
  // end on the fixed point, so the Newton finish has to run.
  const auto model = core::make_model("erlang", 0.8, {{"c", 10}});
  ASSERT_GT(model->jacobian_bandwidth(), 0u);
  const auto fp = core::solve_fixed_point(*model);
  const auto starts = analysis::random_starts(*model, 6, 2026);
  analysis::MultiStartOptions opts;
  opts.drive = analysis::MultiStartOptions::Drive::Solver;
  const auto report = analysis::check_convergence(*model, starts, fp.state,
                                                  opts);
  EXPECT_EQ(report.starts, 6u);
  EXPECT_TRUE(report.all_converged())
      << "worst distance " << report.worst_final_distance;
  EXPECT_GT(report.rhs_evals, 0u);
}

TEST(Convergence, RandomStartsAreFeasible) {
  core::SimpleWS model(0.8);
  for (const auto& s : analysis::random_starts(model, 5, 3)) {
    EXPECT_EQ(s[0], 1.0);
    for (std::size_t i = 1; i < s.size(); ++i) {
      EXPECT_LE(s[i], s[i - 1] + 1e-12);
      EXPECT_GE(s[i], 0.0);
    }
  }
}

TEST(Convergence, ReportsFailureForTinyHorizon) {
  core::SimpleWS model(0.8);
  const auto pi = model.analytic_fixed_point();
  const auto starts = analysis::random_starts(model, 3, 5);
  const auto report = analysis::check_convergence(
      model, starts, pi, {.t_max = 0.01, .tol = 1e-9});
  EXPECT_FALSE(report.all_converged());
}

TEST(TailRatio, RecoversAnalyticRatio) {
  core::ThresholdWS model(0.9, 3);
  const auto pi = model.analytic_fixed_point();
  EXPECT_NEAR(core::tail_decay_ratio(pi, 4), model.analytic_tail_ratio(),
              1e-9);
}

// --- transient ------------------------------------------------------------------

TEST(Transient, EmptyStartSettles) {
  core::SimpleWS model(0.8);
  const auto pi = model.analytic_fixed_point();
  const auto tr =
      analysis::time_to_steady_state(model, model.empty_state(), pi, 1e-3);
  ASSERT_TRUE(tr.settled);
  EXPECT_GT(tr.settle_time, 1.0);
  EXPECT_GT(tr.initial_distance, 1.0);
}

TEST(Transient, AlreadySettledStartIsInstant) {
  core::SimpleWS model(0.8);
  const auto pi = model.analytic_fixed_point();
  const auto tr = analysis::time_to_steady_state(model, pi, pi, 1e-3);
  EXPECT_TRUE(tr.settled);
  EXPECT_EQ(tr.settle_time, 0.0);
}

TEST(Transient, TightEpsilonTakesLonger) {
  core::SimpleWS model(0.8);
  const auto pi = model.analytic_fixed_point();
  const auto loose =
      analysis::time_to_steady_state(model, model.empty_state(), pi, 1e-2);
  const auto tight =
      analysis::time_to_steady_state(model, model.empty_state(), pi, 1e-5);
  ASSERT_TRUE(loose.settled && tight.settled);
  EXPECT_GT(tight.settle_time, loose.settle_time);
}

TEST(Transient, BetterPoliciesSettleFaster) {
  const double lambda = 0.9;
  core::NoStealing slow(lambda);
  core::ComposedWS fast(lambda, {.choices = 2});
  const auto t_slow = analysis::time_to_steady_state(
      slow, slow.empty_state(), slow.analytic_fixed_point(), 1e-3);
  const auto t_fast = analysis::time_to_steady_state(
      fast, fast.empty_state(), core::solve_fixed_point(fast).state, 1e-3);
  ASSERT_TRUE(t_slow.settled && t_fast.settled);
  EXPECT_LT(t_fast.settle_time, t_slow.settle_time);
}

TEST(Transient, SpectralEstimateFormula) {
  EXPECT_NEAR(analysis::spectral_settle_estimate(1.0, 1e-3, 0.5),
              std::log(1000.0) / 0.5, 1e-12);
  EXPECT_EQ(analysis::spectral_settle_estimate(1e-4, 1e-3, 0.5), 0.0);
  EXPECT_THROW((void)analysis::spectral_settle_estimate(1.0, 1e-3, 0.0),
               util::LogicError);
}

// --- finite-size scaling -----------------------------------------------------

TEST(FiniteSize, ExactFitOnSyntheticData) {
  // y = 3 + 10/n must be recovered exactly.
  const std::vector<std::size_t> ns = {10, 20, 50, 100};
  std::vector<double> ys;
  for (std::size_t n : ns) ys.push_back(3.0 + 10.0 / static_cast<double>(n));
  const auto fit = analysis::fit_one_over_n(ns, ys);
  EXPECT_NEAR(fit.limit, 3.0, 1e-10);
  EXPECT_NEAR(fit.coefficient, 10.0, 1e-9);
  EXPECT_NEAR(fit.residual, 0.0, 1e-10);
}

TEST(FiniteSize, RejectsDegenerateInput) {
  EXPECT_THROW((void)analysis::fit_one_over_n({4}, {1.0}), util::LogicError);
  EXPECT_THROW((void)analysis::fit_one_over_n({4, 8}, {1.0}),
               util::LogicError);
}

TEST(FiniteSize, DecayExponentExactOnSyntheticData) {
  // gap = 5 * n^(-0.5) with uniform tiny errors must recover beta = 0.5.
  const std::vector<std::size_t> ns = {128, 512, 2048, 8192, 32768};
  std::vector<double> gaps, ses;
  for (std::size_t n : ns) {
    gaps.push_back(5.0 * std::pow(static_cast<double>(n), -0.5));
    ses.push_back(1e-9);
  }
  const auto fit = analysis::fit_decay_exponent(ns, gaps, ses);
  EXPECT_NEAR(fit.exponent, 0.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.log_amplitude), 5.0, 1e-6);
  EXPECT_EQ(fit.points_used, ns.size());
  EXPECT_NEAR(fit.residual, 0.0, 1e-9);
  EXPECT_LT(fit.exponent_se, 1e-6);
}

TEST(FiniteSize, DecayExponentGatesUnresolvedPoints) {
  // Last point's gap is buried in noise (|gap| < 2 se): it must be
  // dropped, leaving the clean beta = 1 decay of the rest.
  const std::vector<std::size_t> ns = {100, 1000, 10000, 100000};
  std::vector<double> gaps = {1e-1, 1e-2, 1e-3, 2e-5};
  std::vector<double> ses = {1e-4, 1e-4, 1e-4, 1e-4};
  const auto fit = analysis::fit_decay_exponent(ns, gaps, ses);
  EXPECT_EQ(fit.points_total, 4u);
  EXPECT_EQ(fit.points_used, 3u);
  EXPECT_NEAR(fit.exponent, 1.0, 1e-6);
}

TEST(FiniteSize, DecayExponentWeightsPrecisePoints) {
  // A noisy outlier with a huge SE must barely move the fit.
  const std::vector<std::size_t> ns = {100, 1000, 10000, 100000};
  std::vector<double> gaps = {1e-1, 1e-2, 1e-3, 3e-4};  // last is off-trend
  std::vector<double> ses = {1e-6, 1e-7, 1e-8, 1e-4};   // ... and noisy
  const auto fit = analysis::fit_decay_exponent(ns, gaps, ses);
  EXPECT_EQ(fit.points_used, 4u);
  EXPECT_NEAR(fit.exponent, 1.0, 0.05);
}

TEST(FiniteSize, DecayExponentRejectsDegenerateInput) {
  EXPECT_THROW(
      (void)analysis::fit_decay_exponent({4, 8}, {1.0}, {0.1}),
      util::LogicError);
  // Both points unresolved -> fewer than two survivors.
  EXPECT_THROW((void)analysis::fit_decay_exponent({4, 8}, {1e-6, 1e-6},
                                                  {1.0, 1.0}),
               util::LogicError);
}

TEST(FiniteSize, ExtrapolationRecoversMeanFieldLimit) {
  par::ThreadPool pool(2);
  sim::SimConfig base;
  base.arrival_rate = 0.8;
  base.policy = sim::StealPolicy::on_empty(2);
  base.horizon = 8000.0;
  base.warmup = 800.0;
  base.seed = 77;
  const auto fit =
      analysis::sojourn_scaling(base, {8, 16, 32, 64}, 3, pool);
  const double estimate = core::SimpleWS(0.8).analytic_sojourn();
  // The raw n = 8 simulation is several percent high; the extrapolation
  // must land much closer to the limit.
  EXPECT_GT(fit.values.front(), estimate);
  EXPECT_NEAR(fit.limit, estimate, 0.04);
  EXPECT_GT(fit.coefficient, 0.0);  // finite systems are slower
}

}  // namespace
