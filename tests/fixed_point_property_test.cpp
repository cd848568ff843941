// Registry-wide metamorphic properties of the fixed-point engine, guarding
// the warm-started continuation path (core::FixedPointContinuation and the
// ode-layer cold-start safeguard):
//
//   (a) warm parity   — a λ-chained warm solve agrees with the standalone
//                       cold solve at every grid point;
//   (b) structure     — every returned state is a valid tail family
//                       (s_0 = 1, segment-monotone, entries in [0,1],
//                       neglected tail mass under tolerance), warm or cold;
//   (c) monotonicity  — mean sojourn is non-decreasing in λ;
//   (d) closed forms  — models with analytic fixed points match them;
//   (e) honest polish — a result is flagged polished exactly when its
//                       residual is within polish_tol at the discretization
//                       it is returned at, warm or cold;
//   (f) conservation  — auto, anderson and krylov answers all solve the
//                       mass-conserving root system and agree.
//   (g) no fallback   — Auto takes the Krylov route and every answer is
//                       polished, with no relaxation fallback, up to
//                       λ = 0.99.
//
// Plus targeted regressions: the bistable staged-transfer hysteresis sweep
// (a warm chain must never report a different equilibrium than the cold
// solve), the basin-escape probe in ode::solve_fixed_point, the chord
// Newton workspace reuse, and Newton-GMRES against a classic Newton
// oracle.
//
// The default grids keep the suite at tier-1 speed; LSM_PROPERTIES_FULL=1
// (the `ctest -L properties` leg of scripts/check.sh) widens the λ grids
// and runs the whole staged-transfer (c, r) grid of property (f).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/fixed_point.hpp"
#include "core/registry.hpp"
#include "core/threshold_ws.hpp"
#include "ode/krylov.hpp"
#include "ode/solve.hpp"
#include "reference_solvers.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

bool full_grids() {
  const char* v = std::getenv("LSM_PROPERTIES_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<double> property_lambdas() {
  if (full_grids()) {
    std::vector<double> ls;
    for (int j = 0; j < 10; ++j) ls.push_back(0.50 + 0.05 * j);
    return ls;  // 0.50 .. 0.95
  }
  return {0.55, 0.75, 0.92};
}

/// Property (b): `state` is a valid truncated tail family for `model`.
void expect_valid_tail_family(const core::MeanFieldModel& model,
                              const ode::State& state,
                              const std::string& context) {
  const std::size_t segs = model.tail_segments();
  ASSERT_EQ(state.size() % segs, 0u) << context;
  const std::size_t seg_len = state.size() / segs;
  // Multi-segment models pin their own heads (class fractions, in-transit
  // totals); only the plain single-tail layout guarantees s_0 = 1.
  if (segs == 1) {
    EXPECT_NEAR(state[0], 1.0, 1e-12) << context << " (s_0 must be 1)";
  }
  for (std::size_t seg = 0; seg < segs; ++seg) {
    for (std::size_t i = 0; i < seg_len; ++i) {
      const double v = state[seg * seg_len + i];
      EXPECT_GE(v, -1e-10) << context << " seg=" << seg << " i=" << i;
      EXPECT_LE(v, 1.0 + 1e-10) << context << " seg=" << seg << " i=" << i;
      if (i > 1) {
        const double prev = state[seg * seg_len + i - 1];
        EXPECT_LE(v, prev + 1e-10)
            << context << " seg=" << seg << " i=" << i << " (tail monotone)";
      }
    }
  }
  EXPECT_LE(model.tail_mass(state), 1e-9)
      << context << " (neglected tail mass)";
}

// Properties (a)-(c) over the whole registry: chain each model's λ grid
// warm through a FixedPointContinuation and compare every point against
// the standalone cold solve.
class RegistryContinuation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegistryContinuation, WarmChainMatchesColdAndIsWellFormed) {
  const std::string& name = core::model_names()[GetParam()];
  const auto lambdas = property_lambdas();

  core::FixedPointContinuation chain;
  double prev_sojourn = 0.0;
  for (std::size_t j = 0; j < lambdas.size(); ++j) {
    const double lambda = lambdas[j];
    const std::string ctx = name + " λ=" + std::to_string(lambda);

    const auto model = core::make_model(name, lambda);
    const auto warm = chain.solve(*model);
    const auto cold_model = core::make_model(name, lambda);
    const auto cold = core::solve_fixed_point(*cold_model);

    // (a) Warm parity: a warm answer the cold safeguard would reject is
    // never returned, so the two solves must describe the same fixed
    // point. Where the Newton polish ran on both sides the answers agree
    // to polish accuracy; a model/λ that fell back to relaxation (e.g.
    // staged-transfer near critical load) is only relaxation-accurate,
    // and warm-vs-cold can differ by the ladder-rung truncation gap.
    const double warm_sojourn = model->mean_sojourn(warm.state);
    const double cold_sojourn = cold_model->mean_sojourn(cold.state);
    const double tol = warm.polished && cold.polished ? 1e-9 : 1e-4;
    EXPECT_NEAR(warm_sojourn, cold_sojourn,
                tol * std::max(1.0, std::abs(cold_sojourn)))
        << ctx << " polished=" << warm.polished << "/" << cold.polished;

    // (b) Structure of both answers.
    expect_valid_tail_family(*model, warm.state, ctx + " warm");
    expect_valid_tail_family(*cold_model, cold.state, ctx + " cold");

    // (c) E[T] grows with load along the chain.
    if (j > 0) {
      EXPECT_GE(warm_sojourn, prev_sojourn - 1e-9) << ctx;
    }
    prev_sojourn = warm_sojourn;
  }
}

std::string registry_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string n = core::model_names()[info.param];
  std::replace(n.begin(), n.end(), '-', '_');
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllModels, RegistryContinuation,
                         ::testing::Range<std::size_t>(0, 15), registry_name);

// Property (e) over the whole registry, on warm chains and cold solves over
// an 8-point grid whose λ make the Auto-mode restore graft tails back onto
// the constructed truncation; the grafted tail can lift the residual there
// above polish_tol.
TEST_P(RegistryContinuation, PolishedMeansPolishTolReached) {
  const std::string& name = core::model_names()[GetParam()];
  const double polish_tol = core::FixedPointOptions{}.polish_tol;
  core::FixedPointContinuation chain;
  for (int k = 0; k < 8; ++k) {
    const double lambda = 0.50405 + 0.05 * k;
    const auto model = core::make_model(name, lambda);
    const auto warm = chain.solve(*model);
    EXPECT_EQ(warm.polished, warm.residual <= polish_tol)
        << name << " warm λ=" << lambda << " residual=" << warm.residual
        << " final L=" << warm.final_truncation
        << " returned L=" << warm.state_truncation;
    const auto cold = core::solve_fixed_point(*model);
    EXPECT_EQ(cold.polished, cold.residual <= polish_tol)
        << name << " cold λ=" << lambda << " residual=" << cold.residual
        << " final L=" << cold.final_truncation
        << " returned L=" << cold.state_truncation;
  }
}

TEST(RegistryContinuationMeta, CoversTheWholeRegistry) {
  // If a 16th model is registered, widen the Range above.
  EXPECT_EQ(core::model_names().size(), 15u);
}

// Property (d): models with closed-form fixed points. The no-stealing
// baseline is exact (pi_i = lambda^i, E[T] = 1/(1-lambda)); the simple WS
// and threshold models pin the exactly-known head probabilities pi_2 /
// pi_T from the Section 2.2/2.3 quadratics. Both warm (chained) and cold
// answers must hit them.
TEST(ClosedForms, NoStealingMatchesMm1Exactly) {
  core::FixedPointContinuation chain;
  for (const double lambda : {0.5, 0.7, 0.9, 0.95}) {
    const core::NoStealing model(lambda);
    const auto fp = chain.solve(model);
    EXPECT_NEAR(model.mean_sojourn(fp.state), 1.0 / (1.0 - lambda), 1e-10)
        << lambda;
    const auto analytic = model.analytic_fixed_point();
    ASSERT_EQ(fp.state.size(), analytic.size());
    for (std::size_t i = 0; i < analytic.size(); ++i) {
      EXPECT_NEAR(fp.state[i], analytic[i], 1e-10)
          << "lambda=" << lambda << " i=" << i;
    }
  }
}

TEST(ClosedForms, SimpleWsHeadProbabilityMatchesQuadratic) {
  core::FixedPointContinuation chain;
  for (const double lambda : {0.5, 0.7, 0.9, 0.95}) {
    const auto model = core::make_model("simple", lambda);
    const auto fp = chain.solve(*model);
    EXPECT_NEAR(fp.state[2], core::simple_ws_pi2(lambda), 1e-10) << lambda;
  }
}

TEST(ClosedForms, ThresholdHeadProbabilitiesMatchQuadratic) {
  for (const std::size_t T : {3u, 4u}) {
    core::FixedPointContinuation chain;
    for (const double lambda : {0.6, 0.9}) {
      const core::ThresholdWS model(lambda, T);
      const auto fp = chain.solve(model);
      EXPECT_NEAR(fp.state[T], model.analytic_pi_threshold(), 1e-10)
          << "T=" << T << " lambda=" << lambda;
      EXPECT_NEAR(fp.state[2], model.analytic_pi2(), 1e-10)
          << "T=" << T << " lambda=" << lambda;
    }
  }
}

// Bistable continuation regression. The truncated staged-transfer model
// with many stages (c = 8) has a spurious low-congestion equilibrium at
// high load that Anderson acceleration can land on; relaxation from the
// empty state finds the physical one. A warm chain sweeping λ up and back
// down passes near-converged high-λ states into neighbouring solves —
// exactly the setup that would parade the spurious equilibrium through
// the whole descending branch if the ode-layer safeguard (failed-warm →
// cold re-run, basin probe) did not hold. Every point must agree with the
// standalone cold solve. (This model falls back to relaxation, so parity
// is at relaxation accuracy, not polish accuracy.)
TEST(BistableContinuation, StagedTransferUpDownSweepMatchesCold) {
  std::vector<double> lambdas;
  if (full_grids()) {
    for (int j = 0; j <= 9; ++j) lambdas.push_back(0.50 + 0.05 * j);
    for (int j = 8; j >= 0; --j) lambdas.push_back(0.50 + 0.05 * j);
  } else {
    lambdas = {0.70, 0.85, 0.95, 0.85, 0.70};
  }
  const core::ModelParams params = {{"r", 0.25}, {"c", 8}, {"T", 4}};

  core::FixedPointContinuation chain;
  for (const double lambda : lambdas) {
    const auto model = core::make_model("staged-transfer", lambda, params);
    const auto warm = chain.solve(*model);
    const auto cold_model =
        core::make_model("staged-transfer", lambda, params);
    const auto cold = core::solve_fixed_point(*cold_model);
    const double ws = model->mean_sojourn(warm.state);
    const double cs = cold_model->mean_sojourn(cold.state);
    EXPECT_NEAR(ws, cs, 1e-4 * std::max(1.0, std::abs(cs)))
        << "lambda=" << lambda;
  }
}

/// 1-D cubic flow with stable equilibria at 0.2 and 0.8 and an unstable
/// one at 0.5: ds/dt = -(s - 0.2)(s - 0.5)(s - 0.8).
struct CubicFlow final : ode::OdeSystem {
  [[nodiscard]] std::size_t dimension() const override { return 1; }
  void deriv(double, const ode::State& s, ode::State& ds) const override {
    ds[0] = -(s[0] - 0.2) * (s[0] - 0.5) * (s[0] - 0.8);
  }
};

// The basin probe itself: from a warm start at 0.52, Anderson happily
// converges to the root at 0.5 — but the actual flow from 0.52 runs AWAY
// from it (0.5 is unstable), so the probe must reject the warm answer and
// the cold path from 0.1 must deliver the stable equilibrium at 0.2.
TEST(BasinProbe, RejectsFlowUnstableWarmAnswer) {
  const CubicFlow sys;
  ode::FixedPointSolveOptions opts;
  opts.method = ode::FixedPointMethod::Anderson;
  opts.cold_start = {0.1};
  opts.basin_check_dist = 1e-3;  // the move 0.52 -> 0.5 must be probed
  const auto r = ode::solve_fixed_point(sys, {0.52}, opts);
  EXPECT_TRUE(r.warm_rejected);
  EXPECT_NEAR(r.state[0], 0.2, 1e-8);

  // Without the safeguard fields the same call happily returns the
  // unstable root — the behaviour cold solves rely on staying unchanged.
  ode::FixedPointSolveOptions plain;
  plain.method = ode::FixedPointMethod::Anderson;
  const auto unguarded = ode::solve_fixed_point(sys, {0.52}, plain);
  EXPECT_FALSE(unguarded.warm_rejected);
  EXPECT_NEAR(unguarded.state[0], 0.5, 1e-8);
}

// A warm solve that stays local (moved <= basin_check_dist) skips the
// probe and keeps its answer.
TEST(BasinProbe, LocalWarmAnswerIsAcceptedWithoutProbe) {
  const CubicFlow sys;
  ode::FixedPointSolveOptions opts;
  opts.method = ode::FixedPointMethod::Anderson;
  opts.cold_start = {0.1};
  opts.basin_check_dist = 0.05;
  const auto r = ode::solve_fixed_point(sys, {0.21}, opts);
  EXPECT_FALSE(r.warm_rejected);
  EXPECT_NEAR(r.state[0], 0.2, 1e-8);
}

/// Mildly nonlinear n-D system f_i(s) = cos(s_i)/(i+2) - s_i with one
/// well-conditioned root per coordinate; Jacobian ~ -I, so a chord from a
/// nearby factorization contracts fast.
struct CosineSystem final : ode::OdeSystem {
  [[nodiscard]] std::size_t dimension() const override { return 6; }
  void deriv(double, const ode::State& s, ode::State& ds) const override {
    for (std::size_t i = 0; i < s.size(); ++i) {
      ds[i] = std::cos(s[i]) / static_cast<double>(i + 2) - s[i];
    }
  }
};

// Chord reuse: the second solve of a continuation pair must converge with
// ZERO fresh Jacobian assemblies (Newton-GMRES preconditioned by the
// previous factorization) and still land on the same root as a solve
// without the workspace.
TEST(NewtonWorkspace, SecondSolveReusesTheFactorization) {
  const CosineSystem sys;
  const ode::State start(6, 0.3);

  ode::NewtonWorkspace ws;
  const auto first = ode::newton_krylov_fixed_point(sys, start, {}, &ws);
  ASSERT_TRUE(first.converged);
  EXPECT_GE(first.jacobian_builds, 1u);
  EXPECT_NE(ws.dense_chord(6), nullptr);

  // Perturb the root slightly, as the next λ of a sweep would.
  ode::State nearby = first.state;
  for (auto& v : nearby) v += 1e-3;
  const auto second = ode::newton_krylov_fixed_point(sys, nearby, {}, &ws);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(second.jacobian_builds, 0u) << "expected the cached chord";

  const auto fresh = ode::newton_krylov_fixed_point(sys, nearby, {});
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(second.state[i], fresh.state[i], 1e-12) << i;
  }

  // A dimension change invalidates the workspace instead of misusing it.
  EXPECT_EQ(ws.dense_chord(5), nullptr);
  ws.reset();
  EXPECT_EQ(ws.dense_chord(6), nullptr);
}

// Newton-GMRES, the polish's one Newton loop, against the classic
// fresh-Jacobian Newton of reference_solvers.hpp: from the same start both
// reach the same root to 1e-12, on a toy system and on the root residuals
// of exponential, transfer and phase-type models at a fixed truncation
// (started from the unpolished engine answer, as the polish is).
TEST(NewtonOracle, NewtonGmresReachesTheClassicNewtonRoot) {
  const auto expect_same_root = [](const ode::OdeSystem& sys,
                                   const ode::State& start,
                                   const std::string& tag) {
    const auto oracle = reference::classic_newton(sys, start);
    ASSERT_TRUE(oracle.converged) << tag << " " << oracle.residual_norm;
    const auto nk = ode::newton_krylov_fixed_point(sys, start);
    ASSERT_TRUE(nk.converged) << tag << " " << nk.residual_norm;
    ASSERT_EQ(nk.state.size(), oracle.state.size()) << tag;
    for (std::size_t i = 0; i < nk.state.size(); ++i) {
      EXPECT_NEAR(nk.state[i], oracle.state[i], 1e-12) << tag << " i=" << i;
    }
  };
  expect_same_root(CosineSystem{}, ode::State(6, 0.3), "cosine");

  struct Case {
    const char* name;
    core::ModelParams params;
  };
  const Case cases[] = {{"simple", {}},
                        {"transfer", {}},
                        {"simple", {{"service", "hyperexp:4"}}}};
  for (const Case& c : cases) {
    const auto model = core::make_model(c.name, 0.9, c.params);
    core::FixedPointOptions opts;
    opts.truncation = core::TruncationMode::Fixed;
    opts.polish = false;
    const auto start = core::solve_fixed_point(*model, opts);
    expect_same_root(core::RootSystem(*model), start.state,
                     model->name() + " dim=" +
                         std::to_string(model->dimension()));
  }
}

// Metamorphic property of the phase-type service axis: at fixed mean
// service time and fixed lambda, mean sojourn is non-decreasing in the
// service SCV (Pollaczek-Khinchine for the isolated queue; preserved by
// work sharing, which only mixes the same service processes across
// processors). The SCV knob must reproduce that ordering through the
// full fixed-point stack.
TEST(PhaseTypeProperties, SojournMonotoneInServiceScvForWorkSharing) {
  const std::vector<double> lambdas =
      full_grids() ? std::vector<double>{0.6, 0.7, 0.8, 0.9}
                   : std::vector<double>{0.8};
  const std::vector<std::string> services = {"erlang:2", "exp", "hyperexp:2",
                                             "hyperexp:4"};  // scv 0.5,1,2,4
  for (const double lambda : lambdas) {
    double prev = 0.0;
    for (const auto& svc : services) {
      const auto model =
          core::make_model("sharing", lambda, {{"S", 2}, {"service", svc}});
      const auto fp = core::solve_fixed_point(*model);
      const double sojourn = model->mean_sojourn(fp.state);
      EXPECT_GT(sojourn, prev * (1.0 + 1e-9))
          << "lambda=" << lambda << " service=" << svc;
      prev = sojourn;
    }
  }
}

// (f) Conservation across solvers. Every solver route must return a fixed
// point of the mass-conserving root system: Newton on the raw derivative,
// whose Jacobian is singular along the conserved class mass, can settle on
// a mass-losing fixed point (the all-zero state is one). Under auto,
// anderson and krylov, every answer meets its family's flow identity
// (busy fraction = λ for unit-mean service at unit speed; heterogeneous
// speeds break it), the three sojourns agree, and a polished answer
// solves the root system to polish_tol at the discretization it is
// returned at.
void expect_conserving_across_solvers(const std::string& name, double lambda,
                                      const core::ModelParams& params) {
  const double polish_tol = core::FixedPointOptions{}.polish_tol;
  const bool flow_identity = name != "heterogeneous";
  double auto_sojourn = 0.0;
  for (const auto method :
       {ode::FixedPointMethod::Auto, ode::FixedPointMethod::Anderson,
        ode::FixedPointMethod::Krylov}) {
    const auto model = core::make_model(name, lambda, params);
    core::FixedPointOptions opts;
    opts.method = method;
    const auto fp = core::solve_fixed_point(*model, opts);
    const std::string ctx = model->name() + " λ=" + std::to_string(lambda) +
                            " solver=" + ode::to_string(method);
    if (flow_identity) {
      EXPECT_NEAR(model->busy_fraction(fp.state), lambda, 1e-9) << ctx;
    }
    const double sojourn = model->mean_sojourn(fp.state);
    if (method == ode::FixedPointMethod::Auto) {
      auto_sojourn = sojourn;
    } else {
      EXPECT_NEAR(sojourn, auto_sojourn,
                  1e-9 * std::max(1.0, std::abs(auto_sojourn)))
          << ctx;
    }
    if (fp.polished) {
      ode::State f(model->dimension());
      model->root_residual(fp.state, f);
      EXPECT_LE(ode::norm_linf(f), polish_tol) << ctx;
    }
  }
}

TEST_P(RegistryContinuation, ConservesMassUnderEverySolver) {
  const std::string& name = core::model_names()[GetParam()];
  for (const double lambda : {0.3, 0.5, 0.8, 0.9}) {
    expect_conserving_across_solvers(name, lambda, {});
  }
}

// The staged-transfer (c, r) grid at T = 2, where the Krylov route used to
// lose mass for c >= 2 (c = 8, r = 0.25, λ = 0.5 reported a busy fraction
// of 0.48). Tier 1 runs the c in {1, 3, 8}, r in {0.25, 4} corners.
TEST(StagedTransferConservation, ConservesMassUnderEverySolver) {
  const std::vector<int> cs =
      full_grids() ? std::vector<int>{1, 2, 3, 4, 6, 8}
                   : std::vector<int>{1, 3, 8};
  const std::vector<double> rs = full_grids()
                                     ? std::vector<double>{0.25, 1.0, 4.0}
                                     : std::vector<double>{0.25, 4.0};
  for (const int c : cs) {
    for (const double r : rs) {
      for (const double lambda : {0.3, 0.5, 0.8, 0.9}) {
        expect_conserving_across_solvers("staged-transfer", lambda,
                                         {{"c", c}, {"r", r}});
      }
    }
  }
}

// The krylov answer that used to come back all-zero, marked polished: c = 8
// stages at T = 4, λ = 0.8. It must match Auto's sojourn (4.056450792) to
// 1e-10 relative.
TEST(StagedTransferConservation, EightStagesThresholdFourKeepsItsMass) {
  expect_conserving_across_solvers("staged-transfer", 0.8,
                                   {{"c", 8}, {"T", 4}});
  const core::ModelParams params = {{"c", 8}, {"T", 4}};
  const auto auto_model = core::make_model("staged-transfer", 0.8, params);
  const double auto_sojourn =
      auto_model->mean_sojourn(core::solve_fixed_point(*auto_model).state);
  ASSERT_NEAR(auto_sojourn, 4.056450792, 1e-9);
  const auto model = core::make_model("staged-transfer", 0.8, params);
  core::FixedPointOptions opts;
  opts.method = ode::FixedPointMethod::Krylov;
  const auto fp = core::solve_fixed_point(*model, opts);
  EXPECT_NEAR(model->mean_sojourn(fp.state), auto_sojourn,
              1e-10 * auto_sojourn);
  EXPECT_NEAR(model->busy_fraction(fp.state), 0.8, 1e-9);
}

// (g) No fallback. Auto is the Krylov route at every dimension: an answer
// is the Newton finish's, polished, never a relaxation rescue, and within
// `max_evals` evaluations when that is nonzero.
void expect_no_fallback(const std::string& name, double lambda,
                        const core::ModelParams& params,
                        std::size_t max_evals = 0) {
  const auto model = core::make_model(name, lambda, params);
  const auto fp = core::solve_fixed_point(*model);
  const std::string ctx = model->name() + " λ=" + std::to_string(lambda);
  EXPECT_FALSE(fp.fellback) << ctx;
  EXPECT_TRUE(fp.polished) << ctx << " residual=" << fp.residual;
  EXPECT_EQ(fp.method, ode::FixedPointMethod::Krylov) << ctx;
  if (max_evals != 0) {
    EXPECT_LE(fp.rhs_evals, max_evals) << ctx;
  }
}

TEST_P(RegistryContinuation, AutoNeverFallsBack) {
  const std::string& name = core::model_names()[GetParam()];
  for (const double lambda : {0.5, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    expect_no_fallback(name, lambda, {});
  }
}

// Two near-critical solves that used to fall back under Auto, when it
// meant Anderson with a relaxation fallback: transfer at an explicit
// L = 1600 (703,204 evaluations) and staged transfer with c = 3, r = 4
// (1,064,875).
TEST(NoFallback, NearCriticalTransfersStayOnTheKrylovRoute) {
  expect_no_fallback("transfer", 0.99, {{"L", 1600}}, 20000);
  expect_no_fallback("staged-transfer", 0.99, {{"c", 3}, {"r", 4}}, 20000);
}

}  // namespace
