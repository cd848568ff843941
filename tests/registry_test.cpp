// Tests for the name-based model factory.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/fixed_point.hpp"
#include "core/registry.hpp"
#include "core/threshold_ws.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

TEST(Registry, EveryListedNameConstructs) {
  for (const auto& name : core::model_names()) {
    const auto model = core::make_model(name, 0.7);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_FALSE(model->name().empty()) << name;
    // The model is functional: its derivative field evaluates.
    ode::State ds(model->dimension());
    model->deriv(0.0, model->empty_state(), ds);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)core::make_model("warp-drive", 0.5), util::Error);
}

TEST(Registry, ParametersReachTheModel) {
  const auto model = core::make_model("threshold", 0.9, {{"T", 5}});
  EXPECT_NE(model->name().find("T=5"), std::string::npos);
  const auto bad = [&] { (void)core::make_model("threshold", 0.9, {{"T", 1}}); };
  EXPECT_THROW(bad(), std::invalid_argument);
}

TEST(Registry, TruncationOverride) {
  const auto small = core::make_model("simple", 0.5, {{"L", 48}});
  EXPECT_EQ(small->truncation(), 48u);
}

TEST(Registry, FactoryProducesSameFixedPointAsDirectConstruction) {
  const auto via_registry = core::make_model("threshold", 0.9, {{"T", 3}});
  core::ThresholdWS direct(0.9, 3);
  const auto fp = core::solve_fixed_point(*via_registry);
  EXPECT_NEAR(via_registry->mean_sojourn(fp.state), direct.analytic_sojourn(),
              1e-6);
}

TEST(Registry, ComposedTakesAllKnobs) {
  const auto model = core::make_model(
      "composed", 0.9, {{"T", 4}, {"d", 2}, {"k", 2}, {"B", 1}, {"r", 0.5}});
  EXPECT_EQ(model->name(), "composed-ws(T=4,d=2,k=2,B=1,r=0.5)");
  // The stealing presets name only the dimensions they vary.
  const auto name_of = [](const std::string& preset) {
    return core::make_model(preset, 0.9)->name();
  };
  EXPECT_EQ(name_of("preemptive"), "composed-ws(T=2,B=1)");
  EXPECT_EQ(name_of("repeated"), "composed-ws(T=2,r=1)");
  EXPECT_EQ(name_of("multi-choice"), "composed-ws(T=2,d=2)");
  EXPECT_EQ(name_of("multi-steal"), "composed-ws(T=4,k=2)");
  EXPECT_EQ(name_of("composed"), "composed-ws(T=2)");
}

TEST(Registry, TransferNamesPrintTheRateLosslessly) {
  // `transfer` is the one-stage staged-transfer model; every transfer
  // model prints r in shortest round-trip form, so distinct rates never
  // share a name.
  EXPECT_EQ(core::make_model("transfer", 0.9, {{"r", 4e-7}})->name(),
            "staged-transfer-ws(r=4e-07,c=1,T=2)");
  EXPECT_EQ(core::make_model("transfer", 0.9)->name(),
            "staged-transfer-ws(r=0.25,c=1,T=2)");
  EXPECT_EQ(core::make_model("staged-transfer", 0.9, {{"r", 0.1}, {"c", 3}})
                ->name(),
            "staged-transfer-ws(r=0.1,c=3,T=2)");
  EXPECT_EQ(core::make_model("transfer", 0.9,
                             {{"r", 4e-7}, {"service", "hyperexp:4"}})
                ->name()
                .rfind("staged-transfer-ws(r=4e-07,c=1,T=2,svc=", 0),
            0u);
}

TEST(Registry, MultiStealDefaultsThresholdToTwiceK) {
  // k=3 without T must not violate the k <= T/2 constraint.
  const auto model = core::make_model("multi-steal", 0.9, {{"k", 3}});
  EXPECT_NE(model->name().find("T=6"), std::string::npos);
}

TEST(Registry, RejectsNegativeCount) {
  EXPECT_THROW((void)core::make_model("threshold", 0.9, {{"T", -3}}),
               std::invalid_argument);
}

TEST(Registry, OutOfRangeParameterIsInvalidArgument) {
  // One out-of-range value per model. A constructor precondition on
  // caller-supplied values is bad input, not a library bug: make_model
  // reports it as std::invalid_argument naming the model.
  const std::map<std::string, core::ModelParams> bad = {
      {"no-stealing", {{"L", 2}}},
      {"simple", {{"L", 4}}},
      {"threshold", {{"T", 1}}},
      {"preemptive", {{"T", 1}}},
      {"repeated", {{"r", -1}}},
      {"multi-choice", {{"d", 0}}},
      {"multi-steal", {{"k", 3}, {"T", 4}}},
      {"composed", {{"k", 3}, {"T", 4}}},
      {"erlang", {{"c", 0}}},
      {"transfer", {{"r", 0}}},
      {"staged-transfer", {{"c", 0}}},
      {"rebalance", {{"r", -1}}},
      {"heterogeneous", {{"f", 1}}},
      {"spawning", {{"int", -0.1}}},
      {"sharing", {{"S", 0}}},
  };
  for (const auto& name : core::model_names()) {
    const auto it = bad.find(name);
    ASSERT_NE(it, bad.end()) << "no out-of-range case for " << name;
    try {
      (void)core::make_model(name, 0.5, it->second);
      ADD_FAILURE() << name << " accepted an out-of-range parameter";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("model " + name),
                std::string::npos)
          << e.what();
    }
  }
  // Spawning's own limits: a total offered load ext + int at capacity, and
  // an explicit L below min_truncation() = T + 3.
  const std::vector<std::pair<double, core::ModelParams>> spawning = {
      {0.95, {{"int", 0.1}}}, {0.5, {{"L", 4}}}, {0.5, {{"T", 4}, {"L", 6}}}};
  for (const auto& [lambda, params] : spawning) {
    try {
      (void)core::make_model("spawning", lambda, params);
      ADD_FAILURE() << "spawning accepted an out-of-range parameter";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("model spawning"),
                std::string::npos)
          << e.what();
    }
  }
  // A fractional count is rejected, not truncated to a valid one: one
  // case per integer parameter, each valid once rounded down.
  const std::vector<std::tuple<std::string, std::string, double>> counts = {
      {"threshold", "T", 3.9}, {"multi-choice", "d", 2.5},
      {"multi-steal", "k", 2.5}, {"preemptive", "B", 1.5},
      {"erlang", "c", 10.5},     {"sharing", "S", 2.5},
      {"simple", "L", 200.5}};
  for (const auto& [name, key, value] : counts) {
    try {
      (void)core::make_model(name, 0.5, {{key, value}});
      ADD_FAILURE() << name << " accepted " << key << " = " << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("must be a non-negative integer"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Registry, SpecsCoverEveryNameInOrder) {
  const auto& specs = core::model_specs();
  const auto names = core::model_names();
  ASSERT_EQ(specs.size(), names.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].name, names[i]);
    EXPECT_FALSE(specs[i].description.empty()) << specs[i].name;
  }
}

TEST(Registry, MakeModelAcceptsEveryDeclaredParameter) {
  // Every spec's declared parameters, at their declared fallbacks, must be
  // accepted by the factory -- the introspection and the dispatch agree.
  for (const auto& spec : core::model_specs()) {
    core::ModelParams params;
    for (const auto& p : spec.params) {
      EXPECT_TRUE(spec.accepts(p.key)) << spec.name << " " << p.key;
      EXPECT_EQ(spec.fallback(p.key), p.fallback) << spec.name << " " << p.key;
      if (p.key == "L") continue;
      if (p.kind == core::ParamSpec::Kind::Distribution) {
        params[p.key] = p.fallback_text;
      } else {
        params[p.key] = p.fallback;
      }
    }
    const auto model = core::make_model(spec.name, 0.7, params);
    ASSERT_NE(model, nullptr) << spec.name;
  }
}

TEST(Registry, RejectsUnknownParameterKey) {
  EXPECT_THROW((void)core::make_model("simple", 0.9, {{"T", 2}}), util::Error);
  EXPECT_THROW((void)core::make_model("erlang", 0.9, {{"stages", 4}}),
               util::Error);
  try {
    (void)core::make_model("threshold", 0.9, {{"zeta", 1}});
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    // The message names the offender and lists what the model does accept.
    EXPECT_NE(std::string(e.what()).find("zeta"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("T"), std::string::npos);
  }
}

TEST(Registry, SpecLookupByName) {
  EXPECT_EQ(core::model_spec("erlang").name, "erlang");
  EXPECT_TRUE(core::model_spec("erlang").accepts("c"));
  EXPECT_THROW((void)core::model_spec("warp-drive"), util::Error);
}

}  // namespace
