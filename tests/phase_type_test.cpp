// Tests for the phase-type service axis: the core::PhaseType value type
// (factories, parsing, alias-table sampling), the phase-type mean-field
// models against closed forms and their exponential/Erlang reductions,
// the simulator's ServiceDistribution wrapper, and the experiment-cache
// keys that must separate distinct fitted distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/phase_type.hpp"
#include "core/phase_type_ws.hpp"
#include "core/registry.hpp"
#include "core/staged_transfer_ws.hpp"
#include "core/threshold_ws.hpp"
#include "core/work_sharing.hpp"
#include "exp/spec.hpp"
#include "sim/distributions.hpp"
#include "sim/replicate.hpp"
#include "util/error.hpp"
#include "util/xoshiro.hpp"
#include "reference_rhs.hpp"

namespace {

using namespace lsm;

// ---------------------------------------------------------------- factories

TEST(PhaseType, FactoriesMatchRequestedMoments) {
  const auto exp1 = core::PhaseType::exponential(2.0);
  EXPECT_EQ(exp1.phases(), 1u);
  EXPECT_NEAR(exp1.mean(), 2.0, 1e-12);
  EXPECT_NEAR(exp1.scv(), 1.0, 1e-12);
  EXPECT_TRUE(exp1.is_exponential());

  const auto erl = core::PhaseType::erlang(4);
  EXPECT_EQ(erl.phases(), 4u);
  EXPECT_NEAR(erl.mean(), 1.0, 1e-12);
  EXPECT_NEAR(erl.scv(), 0.25, 1e-12);
  EXPECT_TRUE(erl.is_erlang());
  EXPECT_FALSE(erl.is_exponential());

  for (const double scv : {1.5, 4.0, 10.0}) {
    const auto h2 = core::PhaseType::hyperexp(scv, 2.0);
    EXPECT_EQ(h2.phases(), 2u);
    EXPECT_NEAR(h2.mean(), 2.0, 1e-10) << scv;
    EXPECT_NEAR(h2.scv(), scv, 1e-9) << scv;
  }

  EXPECT_NEAR(core::PhaseType::coxian(2, 0.7).scv(), 0.7, 1e-9);
  EXPECT_NEAR(core::PhaseType::coxian(3, 0.5, 2.0).mean(), 2.0, 1e-9);
  EXPECT_NEAR(core::PhaseType::coxian(3, 0.5).scv(), 0.5, 1e-9);
  EXPECT_NEAR(core::PhaseType::coxian(5, 1.0).scv(), 1.0, 1e-9);

  for (const double scv : {2.0, 10.0, 25.0}) {
    const auto ht = core::PhaseType::heavy_tail(scv);
    EXPECT_NEAR(ht.mean(), 1.0, 1e-9) << scv;
    EXPECT_NEAR(ht.scv(), scv, 1e-6 * scv) << scv;
  }
  const auto ht6 = core::PhaseType::heavy_tail(50.0, 2.0, 6);
  EXPECT_EQ(ht6.phases(), 6u);
  EXPECT_NEAR(ht6.mean(), 2.0, 1e-9);
  EXPECT_NEAR(ht6.scv(), 50.0, 1e-4);
}

TEST(PhaseType, FactoriesRejectUnreachableShapes) {
  EXPECT_THROW((void)core::PhaseType::hyperexp(0.5), util::LogicError);
  EXPECT_THROW((void)core::PhaseType::coxian(3, 0.2), util::LogicError);
  EXPECT_THROW((void)core::PhaseType::coxian(1, 2.0), util::LogicError);
  EXPECT_THROW((void)core::PhaseType::heavy_tail(1.0), util::LogicError);
  EXPECT_THROW((void)core::PhaseType::erlang(0), util::LogicError);
}

TEST(PhaseType, GeneralValidatesShape) {
  // A valid Coxian-by-hand round-trips.
  const auto ph = core::PhaseType::general({1.0, 0.0}, {-2.0, 1.0, 0.0, -1.0});
  EXPECT_NEAR(ph.mean(), 0.5 * (1.0 + 1.0), 1e-12);  // 1/2 + 1/2 of 1/1
  EXPECT_THROW((void)core::PhaseType::general({0.5, 0.4}, {-1, 0, 0, -1}),
               util::LogicError);  // alpha mass != 1
  EXPECT_THROW((void)core::PhaseType::general({1.0, 0.0}, {-1, 2, 0, -1}),
               util::LogicError);  // positive row sum
}

TEST(PhaseType, ParseServiceGrammar) {
  EXPECT_TRUE(core::parse_service("exp").is_exponential());
  const auto erl = core::parse_service("erlang:4");
  EXPECT_EQ(erl.phases(), 4u);
  EXPECT_TRUE(erl.is_erlang());
  EXPECT_NEAR(core::parse_service("hyperexp:4").scv(), 4.0, 1e-9);
  EXPECT_NEAR(core::parse_service("h2:4").scv(), 4.0, 1e-9);
  const auto cox = core::parse_service("coxian:3,0.6");
  EXPECT_EQ(cox.phases(), 3u);
  EXPECT_NEAR(cox.scv(), 0.6, 1e-9);
  EXPECT_NEAR(core::parse_service("heavytail:10").scv(), 10.0, 1e-4);
  EXPECT_EQ(core::parse_service("heavytail:10,6").phases(), 6u);
  // Every spec keeps the paper's unit mean.
  for (const char* spec :
       {"exp", "erlang:4", "hyperexp:4", "coxian:3,0.6", "heavytail:10"}) {
    EXPECT_NEAR(core::parse_service(spec).mean(), 1.0, 1e-9) << spec;
  }

  EXPECT_THROW((void)core::parse_service(""), util::Error);
  EXPECT_THROW((void)core::parse_service("bogus"), util::Error);
  EXPECT_THROW((void)core::parse_service("erlang"), util::Error);
  EXPECT_THROW((void)core::parse_service("erlang:0"), util::Error);
  EXPECT_THROW((void)core::parse_service("erlang:2.5"), util::Error);
  EXPECT_THROW((void)core::parse_service("coxian:3"), util::Error);
  EXPECT_THROW((void)core::parse_service("exp:1"), util::Error);
  // Valid grammar, invalid shape: the factory's message propagates.
  EXPECT_THROW((void)core::parse_service("hyperexp:0.5"), util::LogicError);
}

// ----------------------------------------------------------------- sampling

TEST(AliasTable, MatchesWeights) {
  const core::AliasTable t({1.0, 2.0, 3.0, 4.0});
  ASSERT_EQ(t.size(), 4u);
  double mass = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(t.probability(i), (static_cast<double>(i) + 1.0) / 10.0, 1e-12);
    mass += t.probability(i);
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);
  EXPECT_THROW(core::AliasTable({1.0, -0.5}), util::LogicError);
  EXPECT_THROW(core::AliasTable({0.0, 0.0}), util::LogicError);
}

TEST(AliasTable, SingleOutcomeConsumesNoRandomness) {
  const core::AliasTable t({7.0});
  util::Xoshiro256 a(42);
  util::Xoshiro256 b(42);
  EXPECT_EQ(t.sample(a), 0u);
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(ServiceDistribution, LegacyKindsKeepExactStreams) {
  // The exponential and Erlang sampling paths must stay bit-identical to
  // the pre-phase-type implementation: one rng.exponential per stage.
  util::Xoshiro256 a(7);
  util::Xoshiro256 b(7);
  const auto exp_d = sim::ServiceDistribution::exponential(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(exp_d.sample(a), b.exponential(1.0));
  }
  const auto erl_d = sim::ServiceDistribution::erlang(3, 1.0);
  util::Xoshiro256 c(11);
  util::Xoshiro256 d(11);
  for (int i = 0; i < 100; ++i) {
    double acc = 0.0;
    for (int s = 0; s < 3; ++s) acc += d.exponential(1.0 / 3.0);
    EXPECT_EQ(erl_d.sample(c), acc);
  }
}

TEST(ServiceDistribution, PhaseTypeCollapsesSimpleShapes) {
  const auto exp_d =
      sim::ServiceDistribution::phase_type(core::PhaseType::exponential(2.0));
  EXPECT_EQ(exp_d.kind(), sim::ServiceDistribution::Kind::Exponential);
  const auto erl_d =
      sim::ServiceDistribution::phase_type(core::PhaseType::erlang(3));
  EXPECT_EQ(erl_d.kind(), sim::ServiceDistribution::Kind::Erlang);
  EXPECT_EQ(erl_d.stages(), 3u);
  // Erlang via the phase_type factory samples the identical stream as the
  // dedicated Erlang factory.
  util::Xoshiro256 a(3);
  util::Xoshiro256 b(3);
  const auto legacy = sim::ServiceDistribution::erlang(3, 1.0);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(erl_d.sample(a), legacy.sample(b));

  const auto h2 =
      sim::ServiceDistribution::phase_type(core::PhaseType::hyperexp(4.0));
  EXPECT_EQ(h2.kind(), sim::ServiceDistribution::Kind::Phase);
  EXPECT_NEAR(h2.scv(), 4.0, 1e-9);
  EXPECT_EQ(sim::ServiceDistribution::constant(1.0).scv(), 0.0);
}

TEST(ServiceDistribution, PhaseSamplingMatchesMoments) {
  const auto ph = core::PhaseType::hyperexp(4.0);
  const auto dist = sim::ServiceDistribution::phase_type(ph);
  util::Xoshiro256 rng(1234);
  const int n = 200000;
  double m1 = 0.0;
  double m2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = dist.sample(rng);
    m1 += x;
    m2 += x * x;
  }
  m1 /= n;
  m2 /= n;
  EXPECT_NEAR(m1, ph.mean(), 0.03);
  EXPECT_NEAR(m2 / (m1 * m1) - 1.0, ph.scv(), 0.4);
}

TEST(ServiceDistribution, WrapperMatchesSampleSlowStream) {
  // Identical alias-table construction => identical randomness use.
  const auto ph = core::PhaseType::coxian(3, 0.6);
  const auto dist = sim::ServiceDistribution::phase_type(ph);
  util::Xoshiro256 a(99);
  util::Xoshiro256 b(99);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(dist.sample(a), ph.sample_slow(b));
}

// --------------------------------------------------------- mean-field models

double pk_sojourn(double lambda, const core::PhaseType& ph) {
  return ph.mean() + lambda * ph.moment2() / (2.0 * (1.0 - lambda * ph.mean()));
}

TEST(PhaseTypeModels, MPH1MatchesPollaczekKhinchine) {
  for (const auto& ph :
       {core::PhaseType::hyperexp(4.0), core::PhaseType::coxian(3, 0.6),
        core::PhaseType::erlang(4)}) {
    const core::NoStealing model(0.5, ph);
    const auto fp = core::solve_fixed_point(model);
    EXPECT_NEAR(model.mean_sojourn(fp.state), pk_sojourn(0.5, ph), 1e-10)
        << ph.label();
    EXPECT_NEAR(model.analytic_sojourn(), pk_sojourn(0.5, ph), 1e-12)
        << ph.label();
  }
  // Higher load: the truncation grows but the closed form still holds.
  const auto ph = core::PhaseType::hyperexp(4.0);
  const core::NoStealing model(0.8, ph);
  const auto fp = core::solve_fixed_point(model);
  EXPECT_NEAR(model.mean_sojourn(fp.state), pk_sojourn(0.8, ph), 1e-8);
}

/// Every observable of `b` equals `a`'s bit for bit, and `a`'s kernel and
/// root residual equal the exponential recurrences of reference_rhs.hpp,
/// at a state off the fixed point whose head s_0 is not 1.
void expect_same_model(const core::MeanFieldModel& a,
                       const core::MeanFieldModel& b, const std::string& tag) {
  EXPECT_EQ(a.name(), b.name()) << tag;
  ASSERT_EQ(a.truncation(), b.truncation()) << tag;
  EXPECT_EQ(a.truncation_explicit(), b.truncation_explicit()) << tag;
  EXPECT_EQ(a.min_truncation(), b.min_truncation()) << tag;
  ASSERT_EQ(a.dimension(), a.truncation() + 1) << tag;
  ASSERT_EQ(b.dimension(), a.dimension()) << tag;

  const std::size_t n = a.dimension();
  ode::State s = a.mm1_state();
  EXPECT_EQ(s, b.mm1_state()) << tag;
  util::Xoshiro256 rng(7);
  s[0] = 0.97;
  for (std::size_t i = 1; i < n; ++i) s[i] *= 0.9 + 0.2 * rng.uniform();
  ode::State fa(n), fb(n), want(n);
  a.deriv(0.0, s, fa);
  b.deriv(0.0, s, fb);
  reference::deriv(a, a.lambda(), s, want);
  EXPECT_EQ(fa, fb) << tag << " deriv";
  EXPECT_EQ(fa, want) << tag << " deriv vs recurrence";
  a.root_residual(s, fa);
  b.root_residual(s, fb);
  reference::root_residual(a, a.lambda(), s, want);
  EXPECT_EQ(fa, fb) << tag << " root residual";
  EXPECT_EQ(fa, want) << tag << " root residual vs recurrence";
  EXPECT_EQ(a.mean_tasks(s), b.mean_tasks(s)) << tag;

  // The default projection: s_0 pinned at 1, then clamped monotone.
  ode::State pa = s;
  pa[0] = 1.2;
  pa[2] = pa[1] + 0.1;
  pa[n - 2] = -1e-3;
  ode::State pb = pa;
  want = pa;
  want[0] = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    want[i] = std::clamp(want[i], 0.0, want[i - 1]);
  }
  a.project(pa);
  b.project(pb);
  EXPECT_EQ(pa, want) << tag << " project";
  EXPECT_EQ(pb, want) << tag << " project";

  const auto ra = core::solve_fixed_point(a);
  const auto rb = core::solve_fixed_point(b);
  EXPECT_EQ(ra.rhs_evals, rb.rhs_evals) << tag;
  EXPECT_EQ(ra.final_truncation, rb.final_truncation) << tag;
  EXPECT_EQ(a.mean_sojourn(ra.state), b.mean_sojourn(rb.state)) << tag;
}

TEST(PhaseTypeModels, UnitExponentialServiceIsTheExponentialModelBitForBit) {
  const auto exp1 = core::PhaseType::exponential();
  // No stealing's and sharing's automatic L: the M/M/1 tail ratio lambda.
  const auto mm1_truncation = [](double lambda) {
    return static_cast<std::size_t>(std::clamp(
        std::log(1e-13) / std::log(lambda) + 8.0, 48.0, 2048.0));
  };
  // A registry model at its default service, "exp" and "erlang:1".
  const auto expect_service_specs = [](const std::string& name, double lambda,
                                       core::ModelParams params) {
    const auto def = core::make_model(name, lambda, params);
    for (const char* spec : {"exp", "erlang:1"}) {
      params["service"] = spec;
      expect_same_model(*def, *core::make_model(name, lambda, params),
                        name + " --service=" + spec);
    }
  };
  for (const double lambda : {0.7, 0.95}) {
    for (const std::size_t T : {0, 2, 3, 4, 6}) {
      const std::string tag =
          "T=" + std::to_string(T) + " lambda=" + std::to_string(lambda);
      const core::ThresholdWS model(lambda, T);
      EXPECT_EQ(model.truncation(),
                T == 0 ? mm1_truncation(lambda)
                       : core::default_truncation(lambda) + T)
          << tag;
      expect_same_model(model, core::ThresholdWS(lambda, exp1, T), tag);
      if (T == 0) {
        expect_same_model(core::NoStealing(lambda),
                          core::NoStealing(lambda, exp1), tag);
        expect_service_specs("no-stealing", lambda, {});
      } else if (T == 2) {
        expect_same_model(core::SimpleWS(lambda), core::SimpleWS(lambda, exp1),
                          tag);
        expect_service_specs("simple", lambda, {});
      }
      if (T > 0) {
        expect_service_specs("threshold", lambda,
                             {{"T", static_cast<double>(T)}});
      }
    }
    for (const std::size_t S : {1, 2, 3}) {
      const std::string tag =
          "S=" + std::to_string(S) + " lambda=" + std::to_string(lambda);
      const core::WorkSharingWS model(lambda, S);
      EXPECT_EQ(model.truncation(), mm1_truncation(lambda)) << tag;
      expect_same_model(model, core::WorkSharingWS(lambda, exp1, S), tag);
      expect_service_specs("sharing", lambda, {{"S", static_cast<double>(S)}});
    }
  }
  // Transfer: the same unit service takes the same compile-time kernel.
  const core::StagedTransferWS staged(0.8, 1.0, exp1, 1, 2);
  const core::StagedTransferWS exponential(0.8, 1.0, 1, 2);
  const auto rs = core::solve_fixed_point(staged);
  const auto re = core::solve_fixed_point(exponential);
  EXPECT_EQ(staged.name(), exponential.name());
  EXPECT_EQ(rs.rhs_evals, re.rhs_evals);
  EXPECT_EQ(staged.mean_sojourn(rs.state), exponential.mean_sojourn(re.state));
}

TEST(PhaseTypeModels, ErlangServiceMatchesStageStateModel) {
  // Same dynamics, two very different state spaces: per-phase occupancy
  // (SimpleWS) vs the stage-counting ErlangServiceWS.
  const core::SimpleWS ph_model(0.9, core::PhaseType::erlang(3));
  const core::ErlangServiceWS legacy(0.9, 3);
  const auto fp = core::solve_fixed_point(ph_model);
  const auto fl = core::solve_fixed_point(legacy);
  const double a = ph_model.mean_sojourn(fp.state);
  const double b = legacy.mean_sojourn(fl.state);
  EXPECT_NEAR(a, b, 1e-6 * b);
}

TEST(PhaseTypeModels, RejectsInvalidConfigurations) {
  const auto exp1 = core::PhaseType::exponential();
  EXPECT_THROW(core::ThresholdWS(0.5, exp1, 1), util::LogicError);
  EXPECT_THROW(core::ThresholdWS(1.2, exp1, 2), util::LogicError);
  // Unstable in work even though lambda < 1 in tasks.
  EXPECT_THROW(core::ThresholdWS(0.9, core::PhaseType::exponential(1.5), 2),
               util::LogicError);
}

TEST(PhaseTypeModels, BusyFractionEqualsOfferedLoad) {
  const auto ph = core::PhaseType::hyperexp(4.0);
  const core::WorkSharingWS model(0.8, ph, 2);
  const auto fp = core::solve_fixed_point(model);
  EXPECT_NEAR(model.busy_fraction(fp.state), 0.8, 1e-9);
}

// ----------------------------------------------------------------- registry

TEST(PhaseTypeRegistry, ExponentialServiceDispatchesToLegacyClasses) {
  EXPECT_EQ(core::make_model("simple", 0.9, {{"service", "exp"}})->name(),
            core::make_model("simple", 0.9)->name());
  // erlang:1 is the unit exponential; it keeps the exponential name.
  const auto m = core::make_model("threshold", 0.9,
                                  {{"T", 3}, {"service", "erlang:1"}});
  EXPECT_NE(m->name().find("threshold-ws"), std::string::npos) << m->name();
}

TEST(PhaseTypeRegistry, NonExponentialServiceDispatchesToPhaseClasses) {
  const auto steal =
      core::make_model("simple", 0.9, {{"service", "hyperexp:4"}});
  EXPECT_NE(steal->name().find("ph-ws(T=2"), std::string::npos)
      << steal->name();
  const auto share = core::make_model(
      "sharing", 0.9, {{"S", 2}, {"service", "coxian:2,0.7"}});
  EXPECT_NE(share->name().find("ph-sharing"), std::string::npos);
  const auto queue =
      core::make_model("no-stealing", 0.9, {{"service", "hyperexp:4"}});
  EXPECT_NE(queue->name().find("ph-queue"), std::string::npos);
  const auto transfer = core::make_model(
      "transfer", 0.9, {{"r", 0.5}, {"service", "hyperexp:4"}});
  EXPECT_NE(transfer->name().find("staged-transfer-ws(r=0.5,c=1,T=2,svc="),
            std::string::npos);
  // erlang model: an Erlang spec keeps the stage-state class, anything
  // else generalizes.
  const auto erl = core::make_model("erlang", 0.9, {{"service", "erlang:4"}});
  EXPECT_NE(erl->name().find("erlang-ws(c=4)"), std::string::npos);
  const auto gen =
      core::make_model("erlang", 0.9, {{"service", "hyperexp:4"}});
  EXPECT_NE(gen->name().find("ph-ws"), std::string::npos);
}

TEST(PhaseTypeRegistry, ServiceParameterValidation) {
  // Models without a service axis reject the key outright.
  EXPECT_THROW(
      (void)core::make_model("preemptive", 0.7, {{"service", "exp"}}),
      util::Error);
  // A numeric value for service is a type error.
  EXPECT_THROW((void)core::make_model("simple", 0.7, {{"service", 4}}),
               util::Error);
  // A text value for a numeric key is a type error.
  EXPECT_THROW((void)core::make_model("threshold", 0.7, {{"T", "three"}}),
               util::Error);
  EXPECT_THROW(
      (void)core::make_model("simple", 0.7, {{"service", "warp-drive"}}),
      util::Error);
}

// -------------------------------------------------------------- cache keys

TEST(PhaseTypeCache, DistinctScvNeverShareKeys) {
  exp::Job a;
  a.label = "x";
  a.lambda = 0.8;
  a.model = "sharing";
  a.simulate = false;
  a.params = {{"S", 2}, {"service", "hyperexp:2"}};
  exp::Job b = a;
  b.params = {{"S", 2}, {"service", "hyperexp:4"}};
  EXPECT_NE(a.key(), b.key());

  // Simulated jobs hash the full fitted (alpha, S): two H2 fits with the
  // same mean but different SCVs must land in different cache entries.
  exp::Job c;
  c.label = "x";
  c.lambda = 0.8;
  c.estimate = false;
  c.config.service =
      sim::ServiceDistribution::phase_type(core::PhaseType::hyperexp(2.0));
  exp::Job d = c;
  d.config.service =
      sim::ServiceDistribution::phase_type(core::PhaseType::hyperexp(4.0));
  EXPECT_NE(c.key(), d.key());
  EXPECT_NE(a.key(), c.key());
}

// ------------------------------------------------- mean-field vs simulation

TEST(PhaseTypeSimulation, MeanFieldMatchesSimulatorUnderHighVariability) {
  // n = 128 processors, SCV = 4 service: the discrete-event system and
  // the mean-field fixed point must agree on mean sojourn within a few
  // CI half-widths (mean-field error is O(1/n) on top of the MC noise).
  const double lambda = 0.7;
  const auto ph = core::PhaseType::hyperexp(4.0);

  const core::SimpleWS model(lambda, ph);
  const auto fp = core::solve_fixed_point(model);
  const double est = model.mean_sojourn(fp.state);

  sim::SimConfig cfg;
  cfg.processors = 128;
  cfg.arrival_rate = lambda;
  cfg.service = sim::ServiceDistribution::phase_type(ph);
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 20000.0;
  cfg.warmup = 2000.0;
  cfg.seed = 20260808;
  const auto rep = sim::replicate(cfg, sim::ReplicateOptions{.replications = 3});
  const double band = std::max(rep.sojourn.half_width, 0.02 * est);
  EXPECT_NEAR(rep.sojourn.mean, est, 3.0 * band)
      << "sim " << rep.sojourn.mean << " +- " << rep.sojourn.half_width
      << " vs mean-field " << est;
}

}  // namespace
