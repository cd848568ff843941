// Cross-model reduction tests: parameter choices that make one model
// mathematically collapse into another must produce identical derivative
// fields and fixed points. These catch sign and boundary-region errors in
// the ODE families far more effectively than spot values.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/composed_ws.hpp"
#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/multi_class_ws.hpp"
#include "core/registry.hpp"
#include "core/threshold_ws.hpp"
#include "core/staged_transfer_ws.hpp"
#include "reference_rhs.hpp"

namespace {

using namespace lsm;
using ode::State;

/// Deterministic feasible probe states (s_0 = 1, geometric tails).
std::vector<State> probe_states(std::size_t dim) {
  std::vector<State> states;
  for (double head : {0.2, 0.5, 0.9}) {
    for (double ratio : {0.3, 0.7, 0.95}) {
      State s(dim, 0.0);
      s[0] = 1.0;
      double v = head;
      for (std::size_t i = 1; i < s.size(); ++i) {
        s[i] = v;
        v *= ratio;
      }
      states.push_back(std::move(s));
    }
  }
  return states;
}

/// Asserts two models have identical derivative fields over a batch of
/// feasible random-ish states.
void expect_same_field(const core::MeanFieldModel& a,
                       const core::MeanFieldModel& b, double tol = 1e-13) {
  ASSERT_EQ(a.dimension(), b.dimension());
  for (const State& s : probe_states(a.dimension())) {
    State da(s.size()), db(s.size());
    a.deriv(0.0, s, da);
    b.deriv(0.0, s, db);
    for (std::size_t i = 0; i < s.size(); ++i) {
      ASSERT_NEAR(da[i], db[i], tol)
          << a.name() << " vs " << b.name() << " at i=" << i
          << " head=" << s[1];
    }
  }
}

/// A tail recurrence of reference_rhs.hpp bound to its parameters.
using Recurrence = std::function<void(const State&, State&)>;

template <class F, class... Args>
Recurrence bound(F f, Args... args) {
  return [=](const State& s, State& ds) { f(args..., s, ds); };
}

/// Asserts two reference recurrences agree at truncation L on the probe
/// states.
void expect_same_recurrence(const Recurrence& a, const Recurrence& b,
                            std::size_t L, const std::string& what,
                            double tol = 1e-13) {
  for (const State& s : probe_states(L + 1)) {
    State da(s.size()), db(s.size());
    a(s, da);
    b(s, db);
    for (std::size_t i = 0; i < s.size(); ++i) {
      ASSERT_NEAR(da[i], db[i], tol) << what << " at i=" << i
                                     << " head=" << s[1];
    }
  }
}

/// The stealing preset `name` at one explicit parameter set and L = 64.
std::unique_ptr<core::MeanFieldModel> preset(const std::string& name,
                                             core::ModelParams params) {
  params["L"] = 64;
  return core::make_model(name, 0.85, params);
}

TEST(Reduction, ThresholdT2IsSimpleWS) {
  core::SimpleWS simple(0.85, 64);
  core::ThresholdWS threshold(0.85, 2, 64);
  expect_same_field(simple, threshold);
}

// --- Each preset at its neutral value is the threshold model: its own
// recurrence, and the registry preset that evaluates it ---

TEST(Reduction, MultiChoiceD1IsThreshold) {
  for (std::size_t T : {2u, 4u}) {
    core::ThresholdWS th(0.85, T, 64);
    expect_same_field(*preset("multi-choice", {{"d", 1}, {"T", T}}), th);
    expect_same_recurrence(bound(reference::multi_choice, 0.85, 1, T, 64),
                           bound(reference::threshold, 0.85, T, 64), 64,
                           "multi-choice d=1");
  }
}

TEST(Reduction, MultiStealK1IsThreshold) {
  for (std::size_t T : {2u, 5u}) {
    core::ThresholdWS th(0.85, T, 64);
    expect_same_field(*preset("multi-steal", {{"k", 1}, {"T", T}}), th);
    expect_same_recurrence(bound(reference::multi_steal, 0.85, 1, T, 64),
                           bound(reference::threshold, 0.85, T, 64), 64,
                           "multi-steal k=1");
  }
}

TEST(Reduction, RepeatedStealR0IsThreshold) {
  core::ThresholdWS th(0.85, 3, 64);
  expect_same_field(*preset("repeated", {{"r", 0}, {"T", 3}}), th);
  expect_same_recurrence(bound(reference::repeated, 0.85, 0.0, 3, 64),
                         bound(reference::threshold, 0.85, 3, 64), 64,
                         "repeated r=0");
}

TEST(Reduction, PreemptiveB0IsThreshold) {
  for (std::size_t T : {2u, 4u}) {
    core::ThresholdWS th(0.85, T, 64);
    expect_same_field(*preset("preemptive", {{"B", 0}, {"T", T}}), th);
    expect_same_recurrence(bound(reference::preemptive, 0.85, 0, T, 64),
                           bound(reference::threshold, 0.85, T, 64), 64,
                           "preemptive B=0");
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
    core::StagedTransferWS xfer(0.8, r, 1, 2);
    const auto fp = core::solve_fixed_point(xfer);
    const double gap = xfer.mean_sojourn(fp.state) - instant;
    EXPECT_GT(gap, 0.0) << "transfers cost time, r=" << r;
    EXPECT_LT(gap, prev_gap) << "gap must shrink with faster transfers";
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.05);
}

// --- The composed model's general recurrence reduces to each family's own
// when it varies one dimension ---

/// Asserts reference::composed at `policy` matches `family` at L = 64.
void expect_composed_is(const core::ComposedPolicy& policy,
                        const Recurrence& family, const std::string& what) {
  expect_same_recurrence(bound(reference::composed, 0.85, policy, 64), family,
                         64, "composed vs " + what);
}

TEST(Reduction, ComposedBaseIsThreshold) {
  for (std::size_t T : {2u, 4u}) {
    expect_composed_is({.threshold = T},
                       bound(reference::threshold, 0.85, T, 64), "threshold");
  }
}

TEST(Reduction, ComposedChoicesIsMultiChoice) {
  for (std::size_t d : {2u, 3u}) {
    expect_composed_is({.threshold = 3, .choices = d},
                       bound(reference::multi_choice, 0.85, d, 3, 64),
                       "multi-choice");
  }
}

TEST(Reduction, ComposedStealCountIsMultiSteal) {
  for (std::size_t k : {2u, 3u}) {
    expect_composed_is({.threshold = 2 * k, .steal_count = k},
                       bound(reference::multi_steal, 0.85, k, 2 * k, 64),
                       "multi-steal");
  }
}

TEST(Reduction, ComposedBeginStealIsPreemptive) {
  for (std::size_t B : {1u, 3u}) {
    expect_composed_is({.threshold = 4, .begin_steal = B},
                       bound(reference::preemptive, 0.85, B, 4, 64),
                       "preemptive");
  }
}

TEST(Reduction, ComposedRetryIsRepeatedSteal) {
  for (double r : {0.5, 2.0}) {
    expect_composed_is({.threshold = 3, .retry_rate = r},
                       bound(reference::repeated, 0.85, r, 3, 64),
                       "repeated");
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
  const auto alone = [&](core::ComposedPolicy policy) {
    return core::fixed_point_sojourn(core::ComposedWS(lambda, policy));
  };
  EXPECT_LT(w_all,
            core::fixed_point_sojourn(core::ThresholdWS(lambda, 4)));
  EXPECT_LT(w_all, alone({.threshold = 4, .choices = 2}));
  EXPECT_LT(w_all, alone({.threshold = 4, .steal_count = 2}));
  EXPECT_LT(w_all, alone({.threshold = 4, .begin_steal = 2}));
  EXPECT_LT(w_all, alone({.threshold = 4, .retry_rate = 1.0}));
}

TEST(Reduction, RepeatedStealLargeRDrivesPiTDown) {
  // Section 2.5: as r grows, pi_T -> 0 (heavy victims get drained fast).
  double prev = 1.0;
  for (double r : {0.0, 2.0, 8.0, 32.0}) {
    core::ComposedWS model(0.9, {.threshold = 3, .retry_rate = r});
    const auto fp = core::solve_fixed_point(model);
    const double pi_T = fp.state[3];
    EXPECT_LT(pi_T, prev) << "r=" << r;
    prev = pi_T;
  }
  EXPECT_LT(prev, 0.1);  // down from ~0.53 at r = 0
}

}  // namespace
