// Tests for the K-class generalization of Section 3.5.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/fixed_point.hpp"
#include "core/multi_class_ws.hpp"
#include "core/registry.hpp"
#include "core/threshold_ws.hpp"
#include "reference_rhs.hpp"
#include "sim/replicate.hpp"
#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;

TEST(MultiClass, ValidatesInput) {
  EXPECT_THROW(core::MultiClassWS(0.9, {}, 2), util::LogicError);
  EXPECT_THROW(core::MultiClassWS(0.9, {{0.5, 1.0}, {0.4, 1.0}}, 2),
               util::LogicError);  // fractions don't sum to 1
  EXPECT_THROW(core::MultiClassWS(2.0, {{1.0, 1.0}}, 2),
               util::LogicError);  // overload
  EXPECT_THROW(core::MultiClassWS(0.9, {{1.0, 1.0}}, 5, 7),
               util::LogicError);  // truncation below T + 3
  EXPECT_NO_THROW(core::MultiClassWS(0.9, {{0.3, 2.0}, {0.7, 0.8}}, 2));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A random two-class state at truncation L: class tails decaying from
/// their fractions, with u_1 == u_2 forced in one class on some draws and
/// both tails zero from level T on, on others (so u_T == v_T == 0).
ode::State random_two_class_state(util::Xoshiro256& rng, double f,
                                  std::size_t T, std::size_t L,
                                  std::size_t variant) {
  ode::State x(2 * (L + 1), 0.0);
  const double head[2] = {f, 1.0 - f};
  for (std::size_t c = 0; c < 2; ++c) {
    const std::size_t base = c * (L + 1);
    x[base] = head[c];
    const std::size_t top = variant == 2 ? T - 1 : L;
    for (std::size_t i = 1; i <= top; ++i) {
      x[base + i] = x[base + i - 1] * rng.uniform();
    }
    if (variant == 1 && c == 0) x[base + 2] = x[base + 1];  // u_1 == u_2
  }
  return x;
}

TEST(MultiClass, TwoClassesMatchHeterogeneousRecurrenceBitForBit) {
  // The K-class model at K = 2 against the two-class recurrence written
  // out by hand: every derivative entry and the mean load agree to the
  // bit over many random states, shapes and rates.
  util::Xoshiro256 rng(20);
  std::size_t checked = 0;
  for (const double f : {0.25, 0.3, 0.5}) {
    for (const std::size_t T : {2u, 3u, 5u}) {
      for (std::size_t draw = 0; draw < 30; ++draw) {
        const std::size_t L = T + 3 + (draw % 7) * 5;
        const double mu_f = 1.0 + rng.uniform();
        const double mu_s = 0.2 + 0.6 * rng.uniform();
        const double lambda = 0.9 * (f * mu_f + (1.0 - f) * mu_s);
        const core::MultiClassWS model(lambda, {{f, mu_f}, {1.0 - f, mu_s}},
                                       T, L);
        const ode::State x = random_two_class_state(rng, f, T, L, draw % 3);
        ode::State got(x.size()), want(x.size());
        model.deriv(0.0, x, got);
        reference::two_class(lambda, mu_f, mu_s, T, L, x, want);
        for (std::size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[i]))
              << "f=" << f << " T=" << T << " L=" << L << " draw=" << draw
              << " i=" << i;
        }
        ASSERT_EQ(bits(model.mean_tasks(x)),
                  bits(reference::two_class_mean_tasks(L, x)))
            << "f=" << f << " T=" << T << " L=" << L << " draw=" << draw;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 270u);
}

TEST(MultiClass, HeterogeneousPresetPinsColdAnswers) {
  // The registry's "heterogeneous" preset (f = 0.25 at mu_f = 2, the rest
  // at mu_s = 0.8, T = 2) solved cold over the daemon benchmark's grid:
  // evaluation counts, truncations and sojourn bits, recorded on the
  // Krylov route (an Anderson warmup, its history in the four-partial
  // summation order of ode/history_qr.hpp, finished by Newton-GMRES on the
  // root system) and the Newton-GMRES polish (ode/krylov.hpp).
  struct Pin {
    std::size_t rhs_evals;
    std::size_t truncation;
    std::uint64_t sojourn;
  };
  const Pin pins[8] = {
      {184, 48, 0x3ffcd9b2dfc26748ULL}, {187, 48, 0x3ffeb518a2c7e7c8ULL},
      {189, 48, 0x40006f625cef13d7ULL}, {302, 51, 0x4001ba5d2d1dd2cdULL},
      {315, 56, 0x4003532f9387fdb2ULL}, {346, 62, 0x400561d54a3d7e19ULL},
      {408, 70, 0x40082fe1227f43dbULL}, {438, 81, 0x400c560e97ac3d0eULL},
  };
  for (int k = 0; k < 8; ++k) {
    const double lambda = 0.50 + (0.85 - 0.50) * k / 7;
    const auto model = core::make_model("heterogeneous", lambda);
    const auto fp = core::solve_fixed_point(*model);
    EXPECT_EQ(fp.rhs_evals, pins[k].rhs_evals) << "lambda=" << lambda;
    EXPECT_EQ(fp.final_truncation, pins[k].truncation) << "lambda=" << lambda;
    EXPECT_EQ(bits(model->mean_sojourn(fp.state)), pins[k].sojourn)
        << "lambda=" << lambda;
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
