// Cross-model reduction tests: parameter choices that make one model
// mathematically collapse into another must produce identical derivative
// fields and fixed points. These catch sign and boundary-region errors in
// the ODE families far more effectively than spot values.
#include <gtest/gtest.h>

#include "core/composed_ws.hpp"
#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/multi_choice_ws.hpp"
#include "core/multi_class_ws.hpp"
#include "core/multi_steal_ws.hpp"
#include "core/no_stealing.hpp"
#include "core/preemptive_ws.hpp"
#include "core/repeated_steal_ws.hpp"
#include "core/threshold_ws.hpp"
#include "core/transfer_ws.hpp"

namespace {

using namespace lsm;
using ode::State;

/// Asserts two models have identical derivative fields over a batch of
/// feasible random-ish states.
void expect_same_field(const core::MeanFieldModel& a,
                       const core::MeanFieldModel& b, double tol = 1e-13) {
  ASSERT_EQ(a.dimension(), b.dimension());
  // Probe at several deterministic feasible states.
  for (double head : {0.2, 0.5, 0.9}) {
    for (double ratio : {0.3, 0.7, 0.95}) {
      State s(a.dimension(), 0.0);
      s[0] = 1.0;
      double v = head;
      for (std::size_t i = 1; i < s.size(); ++i) {
        s[i] = v;
        v *= ratio;
      }
      State da(s.size()), db(s.size());
      a.deriv(0.0, s, da);
      b.deriv(0.0, s, db);
      for (std::size_t i = 0; i < s.size(); ++i) {
        ASSERT_NEAR(da[i], db[i], tol)
            << a.name() << " vs " << b.name() << " at i=" << i
            << " head=" << head << " ratio=" << ratio;
      }
    }
  }
}

TEST(Reduction, ThresholdT2IsSimpleWS) {
  core::SimpleWS simple(0.85, 64);
  core::ThresholdWS threshold(0.85, 2, 64);
  expect_same_field(simple, threshold);
}

TEST(Reduction, MultiChoiceD1IsThreshold) {
  for (std::size_t T : {2u, 4u}) {
    core::MultiChoiceWS mc(0.85, 1, T, 64);
    core::ThresholdWS th(0.85, T, 64);
    expect_same_field(mc, th);
  }
}

TEST(Reduction, MultiStealK1IsThreshold) {
  for (std::size_t T : {2u, 5u}) {
    core::MultiStealWS ms(0.85, 1, T, 64);
    core::ThresholdWS th(0.85, T, 64);
    expect_same_field(ms, th);
  }
}

TEST(Reduction, RepeatedStealR0IsThreshold) {
  core::RepeatedStealWS rep(0.85, 0.0, 3, 64);
  core::ThresholdWS th(0.85, 3, 64);
  expect_same_field(rep, th);
}

TEST(Reduction, PreemptiveB0IsThreshold) {
  for (std::size_t T : {2u, 4u}) {
    core::PreemptiveWS pre(0.85, 0, T, 64);
    core::ThresholdWS th(0.85, T, 64);
    expect_same_field(pre, th);
  }
}

TEST(Reduction, ErlangC1IsSimpleWS) {
  core::ErlangServiceWS erl(0.85, 1, 64);
  core::SimpleWS simple(0.85, 64);
  expect_same_field(erl, simple);
}

TEST(Reduction, SpawningWithZeroInternalIsThreshold) {
  auto gen = core::GeneralArrivalWS::spawning(0.85, 0.0, 3, 64);
  core::ThresholdWS th(0.85, 3, 64);
  expect_same_field(gen, th);
}

TEST(Reduction, HeterogeneousEqualSpeedsMatchesThresholdFixedPoint) {
  // With mu_f = mu_s = 1 the class split is irrelevant: the combined tails
  // u_i + v_i must equal the homogeneous ThresholdWS fixed point.
  core::MultiClassWS het(0.9, {{0.5, 1.0}, {0.5, 1.0}}, 2);
  core::ThresholdWS th(0.9, 2);
  const auto fph = core::solve_fixed_point(het);
  const auto pi = th.analytic_fixed_point();
  for (std::size_t i = 1; i <= 20; ++i) {
    EXPECT_NEAR(fph.state[i] + fph.state[het.index(1, i)], pi[i], 1e-7)
        << "i=" << i;
  }
}

TEST(Reduction, FastTransferApproachesInstantStealing) {
  // As r -> infinity the transfer model's sojourn approaches ThresholdWS.
  core::ThresholdWS th(0.8, 2);
  const double instant = th.analytic_sojourn();
  double prev_gap = 1e9;
  for (double r : {2.0, 8.0, 32.0}) {
    core::TransferTimeWS xfer(0.8, r, 2);
    const auto fp = core::solve_fixed_point(xfer);
    const double gap = xfer.mean_sojourn(fp.state) - instant;
    EXPECT_GT(gap, 0.0) << "transfers cost time, r=" << r;
    EXPECT_LT(gap, prev_gap) << "gap must shrink with faster transfers";
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.05);
}

// --- ComposedWS: each single parameter recovers its specialized model ---

TEST(Reduction, ComposedBaseIsThreshold) {
  for (std::size_t T : {2u, 4u}) {
    core::ComposedWS comp(0.85, {.threshold = T}, 64);
    core::ThresholdWS th(0.85, T, 64);
    expect_same_field(comp, th);
  }
}

TEST(Reduction, ComposedChoicesIsMultiChoice) {
  for (std::size_t d : {2u, 3u}) {
    core::ComposedWS comp(0.85, {.threshold = 3, .choices = d}, 64);
    core::MultiChoiceWS mc(0.85, d, 3, 64);
    expect_same_field(comp, mc);
  }
}

TEST(Reduction, ComposedStealCountIsMultiSteal) {
  for (std::size_t k : {2u, 3u}) {
    core::ComposedWS comp(0.85, {.threshold = 2 * k, .steal_count = k}, 64);
    core::MultiStealWS ms(0.85, k, 2 * k, 64);
    expect_same_field(comp, ms);
  }
}

TEST(Reduction, ComposedBeginStealIsPreemptive) {
  for (std::size_t B : {1u, 3u}) {
    core::ComposedWS comp(0.85, {.threshold = 4, .begin_steal = B}, 64);
    core::PreemptiveWS pre(0.85, B, 4, 64);
    expect_same_field(comp, pre);
  }
}

TEST(Reduction, ComposedRetryIsRepeatedSteal) {
  for (double r : {0.5, 2.0}) {
    core::ComposedWS comp(0.85, {.threshold = 3, .retry_rate = r}, 64);
    core::RepeatedStealWS rep(0.85, r, 3, 64);
    expect_same_field(comp, rep);
  }
}

TEST(Reduction, ComposedCombinationBeatsEveryIngredient) {
  // Combining the features should (at least weakly) dominate each single
  // feature at high load -- the point of composing them.
  const double lambda = 0.95;
  core::ComposedWS all(lambda, {.threshold = 4,
                                .choices = 2,
                                .steal_count = 2,
                                .begin_steal = 2,
                                .retry_rate = 1.0});
  const double w_all = core::fixed_point_sojourn(all);
  EXPECT_LT(w_all,
            core::fixed_point_sojourn(core::ThresholdWS(lambda, 4)));
  EXPECT_LT(w_all,
            core::fixed_point_sojourn(core::MultiChoiceWS(lambda, 2, 4)));
  EXPECT_LT(w_all,
            core::fixed_point_sojourn(core::MultiStealWS(lambda, 2, 4)));
  EXPECT_LT(w_all,
            core::fixed_point_sojourn(core::PreemptiveWS(lambda, 2, 4)));
  EXPECT_LT(w_all, core::fixed_point_sojourn(
                       core::RepeatedStealWS(lambda, 1.0, 4)));
}

TEST(Reduction, RepeatedStealLargeRDrivesPiTDown) {
  // Section 2.5: as r grows, pi_T -> 0 (heavy victims get drained fast).
  double prev = 1.0;
  for (double r : {0.0, 2.0, 8.0, 32.0}) {
    core::RepeatedStealWS model(0.9, r, 3);
    const auto fp = core::solve_fixed_point(model);
    const double pi_T = fp.state[3];
    EXPECT_LT(pi_T, prev) << "r=" << r;
    prev = pi_T;
  }
  EXPECT_LT(prev, 0.1);  // down from ~0.53 at r = 0
}

}  // namespace
