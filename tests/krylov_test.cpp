// Matrix-free Newton-Krylov acceptance tests: GMRES against dense LU on
// banded systems (including singular/stagnating ones), the directional
// finite-difference J.v against the analytic simple-WS Jacobian, parity of
// the banded-chord Krylov fixed points with the dense-chord engine across
// the registry, the Auto routing of 10^3.5+-dimensional systems, and the
// batched RHS kernels (bit-equality with the branch-form reference
// recurrences of reference_rhs.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/composed_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/general_arrival_ws.hpp"
#include "core/multi_class_ws.hpp"
#include "core/rebalance_ws.hpp"
#include "core/registry.hpp"
#include "core/staged_transfer_ws.hpp"
#include "core/threshold_ws.hpp"
#include "ode/krylov.hpp"
#include "ode/linalg.hpp"
#include "ode/solve.hpp"
#include "reference_rhs.hpp"

namespace {

using namespace lsm;

// --- GMRES vs dense LU ---------------------------------------------------

/// Dense y = A x over an ode::Matrix, for feeding synthetic systems to
/// gmres().
class MatrixOperator final : public ode::LinearOperator {
 public:
  explicit MatrixOperator(const ode::Matrix& a) : a_(a) {}
  void apply(const double* x, double* y) const override {
    const std::size_t n = a_.rows();
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += a_(i, j) * x[j];
      y[i] = acc;
    }
  }
  [[nodiscard]] std::size_t size() const override { return a_.rows(); }

 private:
  const ode::Matrix& a_;
};

/// Deterministic uniform(-1, 1) stream so the "random" systems are
/// identical on every run and platform.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  double next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state_ >> 11) /
               static_cast<double>(1ULL << 53) * 2.0 -
           1.0;
  }

 private:
  std::uint64_t state_;
};

/// Diagonally dominant banded matrix: random off-band entries within the
/// bandwidth, a dominant diagonal so the LU reference is well conditioned.
ode::Matrix random_banded(std::size_t n, std::size_t bw, Lcg& rng) {
  ode::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t lo = i > bw ? i - bw : 0;
      if (j < lo || j > i + bw || j == i) continue;
      a(i, j) = rng.next();
      row_sum += std::abs(a(i, j));
    }
    a(i, i) = row_sum + 1.0 + std::abs(rng.next());
  }
  return a;
}

TEST(Gmres, MatchesDenseLuOnRandomBandedSystems) {
  Lcg rng(42);
  for (const std::size_t n : {8UL, 33UL, 64UL}) {
    const ode::Matrix a = random_banded(n, 3, rng);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.next();

    const ode::LuSolver lu(a);
    const std::vector<double> x_ref = lu.solve(b);

    const MatrixOperator op(a);
    std::vector<double> x(n, 0.0);
    ode::GmresOptions gopts;
    gopts.tol = 1e-12;
    ode::GmresWorkspace ws;
    const ode::GmresResult r = gmres(op, b.data(), x.data(), gopts, ws);

    EXPECT_TRUE(r.converged) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-8) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Gmres, RestartCyclesReachTheLuSolution) {
  // restart = 6 on a 48-dim system forces several Arnoldi cycles; the
  // restarted iteration must still land on the direct solution.
  Lcg rng(7);
  const std::size_t n = 48;
  const ode::Matrix a = random_banded(n, 2, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.next();
  const std::vector<double> x_ref = ode::LuSolver(a).solve(b);

  const MatrixOperator op(a);
  std::vector<double> x(n, 0.0);
  ode::GmresOptions gopts;
  gopts.restart = 6;
  gopts.tol = 1e-11;
  ode::GmresWorkspace ws;
  const ode::GmresResult r = gmres(op, b.data(), x.data(), gopts, ws);

  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.restarts, 1U);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-7);
}

TEST(Gmres, RightPreconditionerPreservesTheTrueResidual) {
  // Preconditioning with A's own LU must converge essentially immediately
  // AND return the solution in the original variables (right
  // preconditioning never changes what "residual" means).
  Lcg rng(11);
  const std::size_t n = 40;
  const ode::Matrix a = random_banded(n, 3, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.next();
  const ode::LuSolver lu(a);
  const std::vector<double> x_ref = lu.solve(b);

  class LuOp final : public ode::LinearOperator {
   public:
    explicit LuOp(const ode::LuSolver& lu) : lu_(lu) {}
    void apply(const double* x, double* y) const override {
      lu_.solve_into(x, y);
    }
    [[nodiscard]] std::size_t size() const override { return lu_.size(); }

   private:
    const ode::LuSolver& lu_;
  };

  const MatrixOperator op(a);
  const LuOp pc(lu);
  std::vector<double> x(n, 0.0);
  ode::GmresOptions gopts;
  gopts.tol = 1e-12;
  ode::GmresWorkspace ws;
  const ode::GmresResult r = gmres(op, b.data(), x.data(), gopts, ws, &pc);

  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3U) << "perfect preconditioner should be ~1 step";
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(Gmres, SingularSystemStagnatesInsteadOfThrowing) {
  // Rank-deficient A with b outside the range: no solution exists. The
  // solve must report failure (stagnation), never throw or spin forever.
  const std::size_t n = 12;
  ode::Matrix a(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) a(i, i) = 1.0;  // last row zero
  std::vector<double> b(n, 0.0);
  b[n - 1] = 1.0;  // unreachable component

  const MatrixOperator op(a);
  std::vector<double> x(n, 0.0);
  ode::GmresOptions gopts;
  gopts.tol = 1e-12;
  gopts.max_iters = 100;
  ode::GmresWorkspace ws;
  const ode::GmresResult r = gmres(op, b.data(), x.data(), gopts, ws);

  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.stagnated || r.iterations >= gopts.max_iters);
}

// --- Directional-difference J.v vs the analytic simple-WS Jacobian -------

/// Analytic Jacobian of the simple-WS (threshold T = 2) right-hand side
///   ds_1 = l(s_0 - s_1) - (s_1 - s_2)(1 - s_2)
///   ds_i = l(s_{i-1} - s_i) - (s_i - s_next)(1 + s_1 - s_2),  i >= 2
/// (row 0 is identically zero; s_next = 0 at the truncation edge).
ode::Matrix simple_ws_jacobian(const core::SimpleWS& model,
                               const ode::State& s) {
  const std::size_t L = model.truncation();
  const double l = model.lambda();
  ode::Matrix j(L + 1, L + 1);
  j(1, 0) = l;
  j(1, 1) = -l - (1.0 - s[2]);
  j(1, 2) = (1.0 - s[2]) + (s[1] - s[2]);
  const double steal = s[1] - s[2];
  for (std::size_t i = 2; i <= L; ++i) {
    const double s_next = (i < L) ? s[i + 1] : 0.0;
    const double w = s[i] - s_next;
    j(i, i - 1) += l;
    j(i, i) += -l - (1.0 + steal);
    if (i < L) j(i, i + 1) += 1.0 + steal;
    j(i, 1) += -w;
    j(i, 2) += w;
  }
  return j;
}

TEST(JacobianOperator, DirectionalDifferenceMatchesAnalyticJacobian) {
  core::SimpleWS model(0.9, 24);
  const std::size_t n = model.dimension();

  // A smooth interior point (not the fixed point, so J.v is nontrivial).
  ode::State s(n);
  s[0] = 1.0;
  for (std::size_t i = 1; i < n; ++i) s[i] = 0.8 * s[i - 1];
  ode::State f(n);
  model.deriv(0.0, s, f);

  ode::JacobianOperator jac(model);
  jac.rebase(s, f);
  const ode::Matrix j = simple_ws_jacobian(model, s);

  Lcg rng(3);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> v(n), jv(n);
    for (auto& c : v) c = rng.next();
    jac.apply(v.data(), jv.data());
    for (std::size_t i = 0; i < n; ++i) {
      double exact = 0.0;
      for (std::size_t k = 0; k < n; ++k) exact += j(i, k) * v[k];
      // One-sided difference of a quadratic RHS: error is O(h) with
      // h ~ fd_eps, so 1e-5 absolute has two orders of headroom.
      EXPECT_NEAR(jv[i], exact, 1e-5) << "trial=" << trial << " row=" << i;
    }
  }
}

// --- Banded-vs-dense chord parity across the registry --------------------

// std::string, not const char*: gtest prints a const char* parameter with
// its address, which would put a per-run value into every case's name.
class KrylovParity
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(KrylovParity, SojournMatchesDenseNewtonEngine) {
  const auto [name, lambda] = GetParam();

  const auto dense_model = core::make_model(name, lambda);
  const auto dense = core::solve_fixed_point(*dense_model);

  const auto krylov_model = core::make_model(name, lambda);
  core::FixedPointOptions kopts;
  kopts.method = ode::FixedPointMethod::Krylov;
  // Force the banded chord at any size, in the polish as on the path.
  kopts.krylov.dense_precond_max_dim = 4;
  const auto krylov = core::solve_fixed_point(*krylov_model, kopts);

  EXPECT_LE(krylov.residual, 1e-10);
  EXPECT_NEAR(krylov_model->mean_sojourn(krylov.state),
              dense_model->mean_sojourn(dense.state), 1e-9)
      << name << " lambda=" << lambda;
}

INSTANTIATE_TEST_SUITE_P(
    RegistryTimesLambda, KrylovParity,
    ::testing::Combine(::testing::Values("simple", "threshold", "multi-choice",
                                         "multi-steal", "transfer", "sharing"),
                       ::testing::Values(0.7, 0.95)));

TEST(KrylovDispatch, AutoTakesTheKrylovRouteAtEveryDimension) {
  // Auto has no size threshold: a 24-unknown system and a 5000-unknown
  // near-critical one both take the Krylov route. The no-stealing model
  // doubles as an accuracy pin (M/M/1: E[T] = 1/(1-l)).
  const auto small = core::make_model("simple", 0.7, {{"L", 23}});
  ASSERT_EQ(small->dimension(), 24u);
  const auto small_fp = core::solve_fixed_point(*small);
  EXPECT_EQ(small_fp.method, ode::FixedPointMethod::Krylov);
  EXPECT_TRUE(small_fp.polished);

  const auto model = core::make_model("no-stealing", 0.99, {{"L", 4999}});
  ASSERT_EQ(model->dimension(), 5000u);
  const auto fp = core::solve_fixed_point(*model);
  EXPECT_EQ(fp.method, ode::FixedPointMethod::Krylov);
  EXPECT_LE(fp.residual, 1e-10);
  EXPECT_NEAR(model->mean_sojourn(fp.state), 100.0, 1e-3);
}

TEST(KrylovDispatch, PolishAboveDensePrecondMaxDimUsesTheBandedChord) {
  // Too large for the dense chord: the polish preconditions with the
  // banded one and still reaches polish accuracy.
  const auto model = core::make_model("no-stealing", 0.9, {{"L", 1999}});
  core::FixedPointOptions opts;
  opts.truncation = core::TruncationMode::Fixed;
  ASSERT_GT(model->dimension(), opts.krylov.dense_precond_max_dim);

  const auto polished = core::solve_fixed_point(*model, opts);
  EXPECT_TRUE(polished.polished);
  EXPECT_LE(polished.residual, 1e-10);

  // A Krylov solve can reach polish_tol before the polish runs, which then
  // cannot lower the residual further: `polished` still means the
  // returned residual is within polish_tol.
  opts.method = ode::FixedPointMethod::Krylov;
  const auto krylov = core::solve_fixed_point(*model, opts);
  EXPECT_LE(krylov.residual, opts.polish_tol);
  EXPECT_TRUE(krylov.polished) << "residual " << krylov.residual;
}

// --- Batched RHS kernels -------------------------------------------------

/// Checks `model`'s lane kernel and root-residual kernel at `nb` lanes
/// against the one-lane pass and the reference recurrences of
/// reference_rhs.hpp (within `tol`, or bit for bit at tol = 0).
void expect_kernel_matches_reference(const core::MeanFieldModel& model,
                                     std::size_t nb, double tol) {
  const double lambda = model.lambda();
  const std::string tag = model.name() + " lambda=" + std::to_string(lambda) +
                          " nb=" + std::to_string(nb);
  const std::size_t dim = model.dimension();
  const auto expect_reference = [&](double got, double want,
                                    const std::string& where) {
    if (tol == 0.0) {
      EXPECT_EQ(got, want) << tag << " " << where;
    } else {
      EXPECT_NEAR(got, want, tol) << tag << " " << where;
    }
  };

  // Distinct smooth state per lane so a lane mix-up cannot cancel out.
  std::vector<double> x(dim * nb), dx(dim * nb);
  ode::State lane_s(dim), lane_f(dim), ref_f(dim);
  for (std::size_t l = 0; l < nb; ++l) {
    const double decay = 0.6 + 0.04 * static_cast<double>(l);
    x[0 * nb + l] = 1.0;
    for (std::size_t i = 1; i < dim; ++i) {
      x[i * nb + l] = x[(i - 1) * nb + l] * decay;
    }
  }

  // Agreement with the branch-form reference recurrences, so solver
  // trajectories are identical whichever path runs: the nb-lane kernel,
  // its one-lane form deriv(), and the root-residual map in scalar and
  // batched form. A lane always equals the one-lane pass bit for bit.
  ASSERT_TRUE(model.rhs_batch(nb, x.data(), dx.data()));
  for (std::size_t l = 0; l < nb; ++l) {
    for (std::size_t i = 0; i < dim; ++i) lane_s[i] = x[i * nb + l];
    reference::deriv(model, lambda, lane_s, ref_f);
    model.deriv(0.0, lane_s, lane_f);
    for (std::size_t i = 0; i < dim; ++i) {
      const std::string where =
          "lane=" + std::to_string(l) + " i=" + std::to_string(i);
      EXPECT_EQ(dx[i * nb + l], lane_f[i]) << tag << " rhs_batch " << where;
      expect_reference(lane_f[i], ref_f[i], "deriv " + where);
    }
  }

  ASSERT_TRUE(model.root_residual_batch(nb, x.data(), dx.data()));
  for (std::size_t l = 0; l < nb; ++l) {
    for (std::size_t i = 0; i < dim; ++i) lane_s[i] = x[i * nb + l];
    reference::root_residual(model, lambda, lane_s, ref_f);
    model.root_residual(lane_s, lane_f);
    for (std::size_t i = 0; i < dim; ++i) {
      const std::string where =
          "lane=" + std::to_string(l) + " i=" + std::to_string(i);
      EXPECT_EQ(dx[i * nb + l], lane_f[i])
          << tag << " root_residual_batch " << where;
      expect_reference(lane_f[i], ref_f[i], "root_residual " + where);
    }
  }
}

TEST(BatchedRhs, BitEqualToReferenceKernel) {
  // Every registry model, at its defaults and at a second parameter set
  // that moves every range split of its kernel, at 1 and 8 lanes. The
  // stealing presets match their own family's recurrence bit for bit;
  // composed policies that vary several dimensions match the general
  // recurrence to rounding, re-balancing (which sums its interaction in
  // another order than the pairwise scatter) to 1e-14, and phase-type
  // transfer (the staged-transfer kernel's operation order, not the
  // per-class order of the oracle) to 1e-13, the states' largest entry
  // being 1.
  const std::vector<std::pair<std::string, core::ModelParams>> cases = {
      {"no-stealing", {}},
      {"no-stealing", {{"service", "hyperexp:4"}, {"L", 60}}},
      {"simple", {}},
      {"simple", {{"service", "hyperexp:4"}, {"L", 60}}},
      {"simple", {{"service", "erlang:3"}, {"L", 40}}},
      {"threshold", {}},
      {"threshold", {{"T", 5}}},
      {"threshold", {{"T", 4}, {"service", "heavytail:10"}, {"L", 50}}},
      {"preemptive", {}},
      {"preemptive", {{"B", 3}, {"T", 4}}},
      {"repeated", {}},
      {"repeated", {{"r", 0.5}, {"T", 4}}},
      {"multi-choice", {}},
      {"multi-choice", {{"d", 3}, {"T", 4}}},
      {"multi-steal", {}},
      {"multi-steal", {{"k", 3}, {"T", 7}}},
      {"composed", {}},
      {"composed", {{"d", 2}, {"r", 0.5}}},
      {"composed", {{"T", 4}, {"d", 2}, {"k", 2}, {"B", 1}}},
      {"composed", {{"T", 6}, {"k", 3}, {"B", 2}, {"r", 1}}},
      {"composed", {{"T", 5}, {"d", 3}, {"k", 2}, {"B", 3}, {"r", 2}}},
      {"erlang", {}},
      {"erlang", {{"c", 1}}},
      {"erlang", {{"c", 3}, {"L", 11}}},
      {"erlang", {{"service", "coxian:3,0.6"}, {"L", 40}}},
      {"transfer", {}},
      {"transfer", {{"T", 4}}},
      {"transfer", {{"service", "hyperexp:4"}, {"L", 60}}},
      {"transfer", {{"T", 3}, {"service", "erlang:3"}, {"L", 30}}},
      {"staged-transfer", {}},
      {"staged-transfer", {{"c", 1}, {"T", 4}, {"r", 2}}},
      {"rebalance", {}},
      {"rebalance", {{"r", 0.5}, {"L", 33}}},
      {"heterogeneous", {}},
      {"heterogeneous", {{"T", 4}, {"f", 0.5}}},
      {"spawning", {}},
      {"spawning", {{"int", 0.05}, {"T", 4}}},
      {"sharing", {}},
      {"sharing", {{"S", 1}}},
      {"sharing", {{"service", "hyperexp:4"}, {"L", 60}}},
      {"sharing", {{"S", 3}, {"service", "erlang:3"}, {"L", 40}}},
  };
  for (const auto& [name, params] : cases) {
    for (const double lambda : {0.5, 0.7, 0.8, 0.9}) {
      const auto model = core::make_model(name, lambda, params);
      const auto* composed = dynamic_cast<const core::ComposedWS*>(&*model);
      double tol = 0.0;
      if (composed != nullptr &&
          !reference::single_dimension(composed->policy())) {
        tol = 1e-15;
      } else if (dynamic_cast<const core::RebalanceWS*>(&*model) != nullptr) {
        tol = 1e-14;
      } else if (const auto* st =
                     dynamic_cast<const core::StagedTransferWS*>(&*model);
                 st != nullptr && st->service().phases() > 1) {
        tol = 1e-13;
      }
      for (const std::size_t nb : {std::size_t{1}, std::size_t{8}}) {
        expect_kernel_matches_reference(*model, nb, tol);
      }
    }
  }
  // Three classes (the registry's heterogeneous model has two), and an
  // arrival rate and a re-balancing rate that vary with the load at every
  // level (the registry's are constant past load 0).
  const core::MultiClassWS three(
      0.9, {{0.2, 3.0}, {0.3, 1.0}, {0.5, 0.6}}, 3, 40);
  const core::GeneralArrivalWS ramp(
      [](std::size_t j) { return 0.3 + 0.01 * static_cast<double>(j); }, 0.5,
      3, 40);
  const core::RebalanceWS picky(
      0.8,
      [](std::size_t j) { return j >= 3 ? 0.5 * static_cast<double>(j) : 0.0; },
      48);
  for (const std::size_t nb : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    expect_kernel_matches_reference(three, nb, 0.0);
    expect_kernel_matches_reference(ramp, nb, 0.0);
    expect_kernel_matches_reference(picky, nb, 1e-14);
  }
}

}  // namespace
