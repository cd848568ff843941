// Unit tests for the MeanFieldModel base and the closed-form results of
// Sections 2.2-2.3 (no stealing, simple WS, threshold WS).
#include <gtest/gtest.h>

#include <cmath>

#include "core/fixed_point.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/threshold_ws.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

TEST(ModelBase, EmptyStateShape) {
  core::SimpleWS model(0.5);
  const auto s = model.empty_state();
  ASSERT_EQ(s.size(), model.dimension());
  EXPECT_EQ(s[0], 1.0);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_EQ(s[i], 0.0);
}

TEST(ModelBase, Mm1StateIsGeometric) {
  core::SimpleWS model(0.5);
  const auto s = model.mm1_state();
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 0.5);
  EXPECT_DOUBLE_EQ(s[3], 0.125);
}

TEST(ModelBase, ProjectRestoresFeasibility) {
  core::SimpleWS model(0.5);
  ode::State s(model.dimension(), 0.0);
  s[0] = 0.7;   // must be pinned back to 1
  s[1] = 1.5;   // above 1
  s[2] = -0.1;  // below 0
  s[3] = 0.4;   // violates monotonicity vs s[2]
  model.project(s);
  EXPECT_EQ(s[0], 1.0);
  EXPECT_EQ(s[1], 1.0);
  EXPECT_EQ(s[2], 0.0);
  EXPECT_EQ(s[3], 0.0);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LE(s[i], s[i - 1]);
}

TEST(ModelBase, MeanTasksSumsTails) {
  core::SimpleWS model(0.5, 16);
  ode::State s(model.dimension(), 0.0);
  s[0] = 1.0;
  s[1] = 0.6;
  s[2] = 0.2;
  EXPECT_NEAR(model.mean_tasks(s), 0.8, 1e-12);
  EXPECT_NEAR(model.mean_sojourn(s), 1.6, 1e-12);
}

TEST(ModelBase, MeanSojournRejectsZeroLambda) {
  auto model = core::GeneralArrivalWS::static_system(2, 16);
  const auto s = model.empty_state();
  EXPECT_THROW((void)model.mean_sojourn(s), util::LogicError);
}

TEST(ModelBase, DefaultTruncationScalesWithLoad) {
  EXPECT_LT(core::default_truncation(0.5), core::default_truncation(0.99));
  EXPECT_GE(core::default_truncation(0.01), 48u);
  EXPECT_LE(core::default_truncation(0.999), 512u);
}

// --- NoStealing ---------------------------------------------------------------

TEST(NoStealing, FixedPointIsMm1Tail) {
  core::NoStealing model(0.6);
  const auto pi = model.analytic_fixed_point();
  ode::State ds(pi.size());
  model.deriv(0.0, pi, ds);
  for (double d : ds) EXPECT_NEAR(d, 0.0, 1e-12);
}

TEST(NoStealing, SojournIsMm1Formula) {
  core::NoStealing model(0.75);
  EXPECT_NEAR(model.analytic_sojourn(), 4.0, 1e-12);
  EXPECT_NEAR(model.mean_sojourn(model.analytic_fixed_point()), 4.0, 1e-9);
}

TEST(NoStealing, NumericRelaxationAgrees) {
  core::NoStealing model(0.7);
  const auto fp = core::solve_fixed_point(model);
  EXPECT_NEAR(model.mean_sojourn(fp.state), model.analytic_sojourn(), 1e-6);
}

TEST(NoStealing, RejectsUnstableLoad) {
  EXPECT_THROW(core::NoStealing(1.0), util::LogicError);
}

// --- SimpleWS (Section 2.2) ----------------------------------------------------

TEST(SimpleWS, Pi2ClosedForm) {
  // lambda = 0.5 gives the golden-ratio fixed point of Table 1.
  core::SimpleWS model(0.5);
  EXPECT_NEAR(model.analytic_pi2(), (1.5 - std::sqrt(1.25)) / 2.0, 1e-12);
  EXPECT_NEAR(model.analytic_sojourn(), 1.6180339887, 1e-8);
}

TEST(SimpleWS, DerivativeVanishesAtAnalyticFixedPoint) {
  for (double lambda : {0.3, 0.6, 0.9, 0.97}) {
    core::SimpleWS model(lambda);
    const auto pi = model.analytic_fixed_point();
    ode::State ds(pi.size());
    model.deriv(0.0, pi, ds);
    for (std::size_t i = 0; i + 4 < ds.size(); ++i) {
      EXPECT_NEAR(ds[i], 0.0, 1e-11) << "lambda=" << lambda << " i=" << i;
    }
  }
}

TEST(SimpleWS, ThroughputBalanceAtFixedPoint) {
  // Tasks complete at rate s_1 and arrive at rate lambda (Section 2.2).
  core::SimpleWS model(0.8);
  const auto pi = model.analytic_fixed_point();
  EXPECT_NEAR(pi[1], 0.8, 1e-12);
}

TEST(SimpleWS, TailsDecayGeometricallyAtClaimedRatio) {
  core::SimpleWS model(0.9);
  const auto pi = model.analytic_fixed_point();
  const double rho = model.analytic_tail_ratio();
  for (std::size_t i = 3; i < 30; ++i) {
    EXPECT_NEAR(pi[i] / pi[i - 1], rho, 1e-10);
  }
}

TEST(SimpleWS, StealingBeatsNoStealing) {
  for (double lambda : {0.5, 0.8, 0.95, 0.99}) {
    core::SimpleWS ws(lambda);
    core::NoStealing base(lambda);
    EXPECT_LT(ws.analytic_sojourn(), base.analytic_sojourn())
        << "lambda = " << lambda;
    // And the tails fall strictly faster (Section 2.2's key claim).
    EXPECT_LT(ws.analytic_tail_ratio(), lambda);
  }
}

// --- ThresholdWS (Section 2.3) ---------------------------------------------------

TEST(ThresholdWS, RequiresSaneParameters) {
  EXPECT_THROW(core::ThresholdWS(0.5, 1), util::LogicError);
  EXPECT_THROW(core::ThresholdWS(1.2, 2), util::LogicError);
  EXPECT_NO_THROW(core::ThresholdWS(0.5, 5));
}

TEST(ThresholdWS, PiTClosedFormSatisfiesQuadratic) {
  for (std::size_t T : {2u, 3u, 4u, 6u}) {
    core::ThresholdWS model(0.85, T);
    const double x = model.analytic_pi_threshold();
    const double lhs = x * x - (1.85) * x + std::pow(0.85, static_cast<double>(T));
    EXPECT_NEAR(lhs, 0.0, 1e-12) << "T=" << T;
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 0.85);
  }
}

TEST(ThresholdWS, DerivativeVanishesAtAnalyticFixedPoint) {
  for (std::size_t T : {3u, 4u, 5u}) {
    core::ThresholdWS model(0.9, T);
    const auto pi = model.analytic_fixed_point();
    ode::State ds(pi.size());
    model.deriv(0.0, pi, ds);
    for (std::size_t i = 0; i + 4 < ds.size(); ++i) {
      EXPECT_NEAR(ds[i], 0.0, 1e-11) << "T=" << T << " i=" << i;
    }
  }
}

TEST(ThresholdWS, HeadFollowsAPlusBLambdaPow) {
  core::ThresholdWS model(0.8, 5);
  const auto pi = model.analytic_fixed_point();
  // pi_{i+1} = pi_i - lambda (pi_{i-1} - pi_i) for 2 <= i <= T-1.
  for (std::size_t i = 2; i <= 4; ++i) {
    EXPECT_NEAR(pi[i + 1], pi[i] - 0.8 * (pi[i - 1] - pi[i]), 1e-12);
  }
}

TEST(ThresholdWS, TailGeometricBeyondT) {
  core::ThresholdWS model(0.9, 4);
  const auto pi = model.analytic_fixed_point();
  const double rho = model.analytic_tail_ratio();
  for (std::size_t i = 5; i < 30; ++i) {
    EXPECT_NEAR(pi[i] / pi[i - 1], rho, 1e-10);
  }
}

TEST(ThresholdWS, T2MatchesSimpleWS) {
  core::ThresholdWS t2(0.9, 2);
  core::SimpleWS simple(0.9);
  EXPECT_NEAR(t2.analytic_sojourn(), simple.analytic_sojourn(), 1e-12);
  EXPECT_NEAR(t2.analytic_pi2(), simple.analytic_pi2(), 1e-12);
}

TEST(ThresholdWS, HigherThresholdStealsLess) {
  // With a higher bar for victims, fewer steals happen; at moderate load
  // the expected time should not improve.
  core::ThresholdWS t2(0.9, 2), t6(0.9, 6);
  EXPECT_LT(t2.analytic_sojourn(), t6.analytic_sojourn());
}

TEST(ThresholdWS, SojournMatchesFixedPointSummation) {
  core::ThresholdWS model(0.9, 3);
  const auto pi = model.analytic_fixed_point();
  EXPECT_NEAR(model.mean_sojourn(pi), model.analytic_sojourn(), 1e-8);
}

}  // namespace
