// Counting-allocator enforcement of the allocation-free hot loops: once an
// AdaptiveIntegrator is warm, further integration performs zero heap
// allocations, an Anderson run's allocation count is a function of the
// problem size only, never of the iteration count, and so is a Newton-GMRES
// polish's on a warm NewtonWorkspace, a factored LuSolver or BandedLuSolver
// solves without touching the heap, neither does any registry model's
// lane-kernel RHS evaluation (one lane or a batch), and a rebuild of the
// Krylov path's banded chord reuses the storage of the first build.
//
// The counter hooks the global operator new/delete for this test binary.
// Only allocation DELTAS measured around the hot region are asserted, so
// gtest's own bookkeeping outside those windows cannot interfere.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/registry.hpp"
#include "core/threshold_ws.hpp"
#include "ode/anderson.hpp"
#include "ode/banded.hpp"
#include "ode/integrator.hpp"
#include "ode/krylov.hpp"
#include "ode/linalg.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The replacements stay out of line, so that GCC does not pair an inlined
// malloc() or free() with the other operator and warn of a mismatch
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace lsm;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(HotLoopAlloc, AdaptiveIntegratorIsAllocationFreeOnceWarm) {
  core::SimpleWS model(0.9, 96);
  ode::State s = model.empty_state();
  ode::AdaptiveIntegrator integrator;
  // First call sizes the proposal buffer and the Cash-Karp stage vectors.
  double t = integrator.integrate(model, s, 0.0, 5.0);
  const std::size_t warm = allocations();
  t = integrator.integrate(model, s, t, 50.0);
  EXPECT_EQ(allocations(), warm)
      << "steady-state adaptive integration must not touch the heap";
  EXPECT_DOUBLE_EQ(t, 50.0);
}

TEST(HotLoopAlloc, AndersonAllocationsIndependentOfIterationCount) {
  // The whole AA workspace (iterates, m-deep difference history, QR
  // factors) is sized on entry; iterating longer must not allocate more.
  core::SimpleWS model(0.9, 96);
  const ode::State s0 = model.empty_state();

  ode::AndersonOptions opts;
  opts.depth = 10;

  opts.max_iter = 5;
  std::size_t before = allocations();
  auto short_run = ode::anderson_fixed_point(model, s0, opts);
  const std::size_t short_allocs = allocations() - before;

  opts.max_iter = 500;
  before = allocations();
  auto long_run = ode::anderson_fixed_point(model, s0, opts);
  const std::size_t long_allocs = allocations() - before;

  EXPECT_FALSE(short_run.converged);
  EXPECT_TRUE(long_run.converged);
  EXPECT_GT(long_run.iterations, 10 * short_run.iterations);
  EXPECT_EQ(long_allocs, short_allocs)
      << "per-iteration heap traffic in the Anderson loop";
}

TEST(HotLoopAlloc, GmresIterationsAllocationFree) {
  // The GmresWorkspace owns every buffer the Krylov iteration touches;
  // after the first (sizing) solve, repeated solves of the same shape must
  // not allocate, no matter how many Arnoldi steps or restarts they take.
  const std::size_t n = 64;
  class Tridiag final : public ode::LinearOperator {
   public:
    explicit Tridiag(std::size_t n) : n_(n) {}
    void apply(const double* x, double* y) const override {
      for (std::size_t i = 0; i < n_; ++i) {
        double acc = 4.0 * x[i];
        if (i > 0) acc -= x[i - 1];
        if (i + 1 < n_) acc -= x[i + 1];
        y[i] = acc;
      }
    }
    [[nodiscard]] std::size_t size() const override { return n_; }

   private:
    std::size_t n_;
  };
  const Tridiag op(n);
  std::vector<double> b(n, 1.0), x(n, 0.0);
  ode::GmresOptions gopts;
  gopts.restart = 10;  // forces restart cycles: the restart path too
  gopts.tol = 1e-12;
  ode::GmresWorkspace ws;
  auto warmup = gmres(op, b.data(), x.data(), gopts, ws);
  ASSERT_TRUE(warmup.converged);

  const std::size_t warm = allocations();
  for (int rep = 0; rep < 3; ++rep) {
    std::fill(x.begin(), x.end(), 0.0);
    auto r = gmres(op, b.data(), x.data(), gopts, ws);
    ASSERT_TRUE(r.converged);
  }
  EXPECT_EQ(allocations(), warm)
      << "warm GMRES solves must reuse the workspace buffers";
}

TEST(HotLoopAlloc, LuSolveIntoAllocationFree) {
  // The Krylov path's dense-chord preconditioner calls solve_into on every
  // GMRES iteration. Two coupled segments plus two dense columns exercise
  // the reordering, the border block and the in-place output scatter.
  const std::size_t len = 48, n = 2 * len;
  ode::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 4.0;
    if (i % len > 0) a(i, i - 1) = -1.0;
    if (i % len + 1 < len) a(i, i + 1) = -1.0;
    if (i < len) {
      a(i, i + len) = 0.5;
    } else {
      a(i, i - len) = 0.25;
    }
    a(i, 1) += 0.1;
    a(i, len + 2) += 0.2;
  }
  const ode::LuSolver lu(a);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < n; ++i) moved += lu.order()[i] != i ? 1 : 0;
  ASSERT_GT(moved, 0U);
  std::vector<double> b(n, 1.0), x(n);

  const std::size_t before = allocations();
  for (int rep = 0; rep < 4; ++rep) lu.solve_into(b.data(), x.data());
  EXPECT_EQ(allocations(), before)
      << "LuSolver::solve_into must not touch the heap";
}

TEST(HotLoopAlloc, BandedLuSolveIntoAllocationFree) {
  const std::size_t n = 64;
  ode::BandedMatrix a(n, 2, 3);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, i, 0.5);
    if (i + 2 < n) a.set(i + 2, i, 1.0);  // below the diagonal: row swaps
    if (i + 3 < n) a.set(i, i + 3, -0.25);
  }
  const ode::BandedLuSolver lu(std::move(a));
  std::vector<double> b(n, 1.0), x(n);

  const std::size_t before = allocations();
  for (int rep = 0; rep < 4; ++rep) lu.solve_into(b.data(), x.data());
  lu.solve_into(x.data(), x.data());
  EXPECT_EQ(allocations(), before)
      << "BandedLuSolver::solve_into must not touch the heap";
}

TEST(HotLoopAlloc, LaneKernelsAllocationFree) {
  // deriv() is the one-lane kernel call; deriv_batch and the Newton
  // polish's RootSystem::deriv_batch run the same kernel over 4 lanes.
  // None of them may touch the heap once the caller's buffers exist, for
  // any registry model (phase-type service included).
  std::vector<std::pair<std::string, core::ModelParams>> cases;
  for (const auto& name : core::model_names()) cases.push_back({name, {}});
  cases.push_back({"simple", {{"service", "hyperexp:4"}}});
  cases.push_back({"transfer", {{"service", "erlang:3"}}});
  cases.push_back({"sharing", {{"service", "hyperexp:4"}}});
  for (const auto& [name, params] : cases) {
    const auto model = core::make_model(name, 0.9, params);
    const core::RootSystem root(*model);
    constexpr std::size_t nb = 4;
    const std::size_t dim = model->dimension();
    ode::State s(dim), ds(dim);
    std::vector<double> x(dim * nb), dx(dim * nb);
    for (std::size_t l = 0; l < nb; ++l) {
      const double decay = 0.7 + 0.05 * static_cast<double>(l);
      x[l] = 1.0;
      for (std::size_t i = 1; i < dim; ++i) {
        x[i * nb + l] = x[(i - 1) * nb + l] * decay;
      }
    }
    for (std::size_t i = 0; i < dim; ++i) s[i] = x[i * nb];
    model->deriv(0.0, s, ds);  // warm any lazy paths

    const std::size_t warm = allocations();
    for (int rep = 0; rep < 4; ++rep) {
      model->deriv(0.0, s, ds);
      ASSERT_TRUE(model->deriv_batch(0.0, nb, x.data(), dx.data()));
      ASSERT_TRUE(root.deriv_batch(0.0, nb, x.data(), dx.data()));
    }
    EXPECT_EQ(allocations(), warm)
        << model->name() << ": lane-kernel RHS evaluation must not touch "
        << "the heap";
  }
}

TEST(HotLoopAlloc, BandedChordRebuildReusesItsStorage) {
  // The Krylov path rebuilds its banded chord after a reset (a stale
  // chord) or on a new continuation point. The first build sizes the
  // band, the factorization and the FD buffers; a rebuild at the same
  // shape refactors them in place.
  const core::ErlangServiceWS model(0.85, 10, 620);
  const ode::State s = model.mm1_state();
  ode::NewtonWorkspace ws;
  const ode::BandedLuSolver* first =
      &ws.build_banded_chord(model, s, 10, 1e-7);
  ws.reset();
  EXPECT_EQ(ws.banded_chord(s.size()), nullptr);

  const std::size_t before = allocations();
  const ode::BandedLuSolver* second =
      &ws.build_banded_chord(model, s, 10, 1e-7);
  EXPECT_EQ(allocations(), before)
      << "a same-shape banded chord rebuild must not touch the heap";
  EXPECT_EQ(second, first);
  EXPECT_EQ(ws.banded_chord(s.size()), second);
}

TEST(HotLoopAlloc, RepeatedPolishAllocationsIndependentOfGmresIterations) {
  // A continuation chain polishes on one NewtonWorkspace, which keeps the
  // Krylov basis: once it is sized, a polish allocates the same whether
  // GMRES takes few steps or many, and less than on a fresh workspace,
  // which sizes the basis again. Unpreconditioned, so that no chord build
  // enters the count; the forcing term sets the GMRES step count.
  core::SimpleWS model(0.9, 96);
  const core::RootSystem root(model);
  core::FixedPointOptions fp;
  fp.truncation = core::TruncationMode::Fixed;
  fp.polish = false;
  ode::State start = core::solve_fixed_point(model, fp).state;
  for (std::size_t i = 1; i < start.size(); ++i) start[i] *= 1.0 + 1e-4;

  ode::NewtonKrylovOptions loose;
  loose.dense_precond_max_dim = 0;
  loose.banded_precond_bandwidth = 0;
  loose.max_iter = 4;
  loose.forcing_max = loose.forcing_min = 1e-1;
  ode::NewtonKrylovOptions tight = loose;
  tight.forcing_max = tight.forcing_min = 1e-10;

  ode::NewtonWorkspace ws;
  (void)ode::newton_krylov_fixed_point(root, start, loose, &ws);  // sizes it
  const auto polish = [&](const ode::NewtonKrylovOptions& opts,
                          ode::NewtonWorkspace& on, std::size_t& inner) {
    const std::size_t before = allocations();
    const auto res = ode::newton_krylov_fixed_point(root, start, opts, &on);
    const std::size_t made = allocations() - before;
    inner = res.inner_iterations;
    return made;
  };
  std::size_t few = 0;
  std::size_t many = 0;
  std::size_t fresh_inner = 0;
  const std::size_t loose_allocs = polish(loose, ws, few);
  const std::size_t tight_allocs = polish(tight, ws, many);
  ASSERT_GT(many, 2 * few) << "the forcing term must move the step count";
  EXPECT_EQ(tight_allocs, loose_allocs)
      << few << " vs " << many << " GMRES steps";

  ode::NewtonWorkspace fresh;
  EXPECT_LT(loose_allocs, polish(loose, fresh, fresh_inner))
      << "a warm workspace must not size the Krylov basis again";
}

}  // namespace
