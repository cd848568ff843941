// Registry-wide fixed-point sweep: EVERY model the library exposes, over a
// load grid, must produce a feasible fixed point with a small residual and
// a sane sojourn, and trajectories from the empty state must stay feasible.
// This is the broadest single net for structural errors in new models.
#include <gtest/gtest.h>

#include <tuple>

#include "core/fixed_point.hpp"
#include "core/multi_class_ws.hpp"
#include "core/registry.hpp"

namespace {

using namespace lsm;

class RegistrySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(RegistrySweep, FixedPointIsFeasibleAndSane) {
  const auto [name_idx, lambda] = GetParam();
  const std::string& name = core::model_names()[name_idx];
  const auto model = core::make_model(name, lambda);
  const auto fp = core::solve_fixed_point(*model);

  EXPECT_LT(fp.residual, 1e-8) << name;
  for (std::size_t i = 0; i < model->dimension(); ++i) {
    EXPECT_GE(fp.state[i], -1e-10) << name << " i=" << i;
    EXPECT_LE(fp.state[i], 1.0 + 1e-10) << name << " i=" << i;
  }
  const double sojourn = model->mean_sojourn(fp.state);
  EXPECT_GT(sojourn, 0.99) << name;   // at least one service time
  EXPECT_LT(sojourn, 500.0) << name;  // stable at lambda <= 0.9

  // Homogeneous unit-rate single-vector models must be busy exactly
  // lambda of the time (s_1 = lambda). Models with multi-vector state
  // (transfer, heterogeneous) or non-unit work (erlang stages, spawning)
  // satisfy different balances, checked in their own suites.
  if (name != "heterogeneous" && name != "erlang" && name != "spawning" &&
      name != "transfer" && name != "staged-transfer") {
    EXPECT_NEAR(fp.state[1], lambda, 1e-7) << name;
  }
}

std::string registry_sweep_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, double>>& info) {
  std::string n = core::model_names()[std::get<0>(info.param)];
  for (auto& ch : n) {
    if (ch == '-') ch = '_';
  }
  return n + "_l" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, RegistrySweep,
    ::testing::Combine(::testing::Range<std::size_t>(0, 15),
                       ::testing::Values(0.4, 0.7, 0.9)),
    registry_sweep_name);

TEST(RegistrySweep, BusyFractionIsTheOfferedWork) {
  // Work conservation at the fixed point: the busy fraction (row 1 summed
  // over every segment) equals lambda E[S] for every single-speed family,
  // also those whose state splits into classes (transfer) or phases. The
  // two-speed heterogeneous model is busy u_1 + v_1, where its service
  // capacity balances the arrivals: mu_f u_1 + mu_s v_1 = lambda.
  for (const double lambda : {0.5, 0.8}) {
    for (const auto& name : core::model_names()) {
      const auto model = core::make_model(name, lambda);
      const auto fp = core::solve_fixed_point(*model);
      const double busy = model->busy_fraction(fp.state);
      const auto* mc = dynamic_cast<const core::MultiClassWS*>(&*model);
      if (mc == nullptr) {
        EXPECT_NEAR(busy, lambda, 1e-9) << name << " lambda=" << lambda;
        continue;
      }
      const std::size_t W = model->truncation() + 1;
      const double u1 = fp.state[1];
      const double v1 = fp.state[W + 1];
      EXPECT_EQ(busy, 0.0 + u1 + v1) << name;
      EXPECT_NEAR(mc->classes()[0].rate * u1 + mc->classes()[1].rate * v1,
                  lambda, 1e-9)
          << name << " lambda=" << lambda;
    }
  }
}

TEST(RegistrySweepMeta, CoversTheWholeRegistry) {
  // If a 16th model is registered, widen the Range above.
  EXPECT_EQ(core::model_names().size(), 15u);
}

}  // namespace
