// Microbenchmarks (google-benchmark) for the numeric kernels and the
// discrete-event simulator: derivative evaluation cost by model and
// truncation, stepper cost, fixed-point solve latency, the solver layer's
// linear algebra (LU of real Jacobians, alone and with their
// finite-difference assembly; Anderson's per-iteration overhead and its
// least-squares window step), event throughput.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/registry.hpp"
#include "core/rebalance_ws.hpp"
#include "core/staged_transfer_ws.hpp"
#include "core/threshold_ws.hpp"
#include "ode/anderson.hpp"
#include "ode/banded.hpp"
#include "ode/history_qr.hpp"
#include "ode/krylov.hpp"
#include "ode/linalg.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;

void BM_Xoshiro(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_ExponentialSample(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(1.0));
  }
}
BENCHMARK(BM_ExponentialSample);

void BM_SimpleWSDeriv(benchmark::State& state) {
  core::SimpleWS model(0.9, static_cast<std::size_t>(state.range(0)));
  const auto s = model.mm1_state();
  ode::State ds(s.size());
  for (auto _ : state) {
    model.deriv(0.0, s, ds);
    benchmark::DoNotOptimize(ds.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_SimpleWSDeriv)->Arg(64)->Arg(256)->Arg(1024);

void BM_RebalanceDeriv(benchmark::State& state) {
  // O(L^2) interaction kernel; the heaviest derivative in the library.
  core::RebalanceWS model(0.9, 1.0, static_cast<std::size_t>(state.range(0)));
  const auto s = model.mm1_state();
  ode::State ds(s.size());
  for (auto _ : state) {
    model.deriv(0.0, s, ds);
    benchmark::DoNotOptimize(ds.data());
  }
}
BENCHMARK(BM_RebalanceDeriv)->Arg(64)->Arg(128);

/// The stealing kernels at L = 200 and lambda = 0.85: the section 2
/// families (no stealing, simple, threshold T = 4 and the sharing foil at
/// S = 2), the four single-extension presets of ComposedWS at their
/// serve_solve parameters, and the composed policy serve_solve runs
/// (d = 2, r = 0.5).
struct StealingCase {
  const char* model;
  core::ModelParams params;
};
const StealingCase kStealingCases[] = {
    {"no-stealing", {}},
    {"simple", {}},
    {"threshold", {{"T", 4}}},
    {"sharing", {{"S", 2}}},
    {"preemptive", {{"B", 1}, {"T", 2}}},
    {"repeated", {{"r", 1}}},
    {"multi-choice", {{"d", 2}}},
    {"multi-steal", {{"k", 2}}},
    {"composed", {{"d", 2}, {"r", 0.5}}},
};

/// Times `model` at its M/M/1 state: lanes = 1 times deriv(), lanes = 8
/// one rhs_batch pass over the Newton Jacobian's batch width. The
/// s_per_eval counter is the time per lane evaluation.
void time_lane_kernel(benchmark::State& state,
                      const core::MeanFieldModel& model, std::size_t lanes) {
  const ode::State s = model.mm1_state();
  const std::size_t n = s.size();
  ode::State ds(n);
  std::vector<double> x(n * lanes), dx(n * lanes);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) x[i * lanes + l] = s[i];
  }
  state.SetLabel(model.name() + " dim=" + std::to_string(n) +
                 " lanes=" + std::to_string(lanes));
  for (auto _ : state) {
    if (lanes == 1) {
      model.deriv(0.0, s, ds);
      benchmark::DoNotOptimize(ds.data());
    } else {
      benchmark::DoNotOptimize(model.rhs_batch(lanes, x.data(), dx.data()));
      benchmark::DoNotOptimize(dx.data());
    }
    benchmark::ClobberMemory();
  }
  state.counters["s_per_eval"] = benchmark::Counter(
      static_cast<double>(lanes),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

/// Args (case, lanes).
void BM_StealingPresetDeriv(benchmark::State& state) {
  const StealingCase& c = kStealingCases[state.range(0)];
  core::ModelParams params = c.params;
  params["L"] = 200;
  const auto model = core::make_model(c.model, 0.85, params);
  time_lane_kernel(state, *model, static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_StealingPresetDeriv)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 8, 1), {1, 8}});

/// The kernels of the section 3 variants and the phase-type service axis,
/// auto-sized at lambda = 0.85: phase-type stealing, sharing and transfer
/// (H2 service, SCV 4), staged transfer, Erlang stages, two processor
/// classes, spawning and re-balancing.
const StealingCase kVariantCases[] = {
    {"simple", {{"service", "hyperexp:4"}}},
    {"sharing", {{"service", "hyperexp:4"}}},
    {"transfer", {{"service", "hyperexp:4"}}},
    {"staged-transfer", {{"c", 3}}},
    {"erlang", {{"c", 10}}},
    {"heterogeneous", {}},
    {"spawning", {{"int", 0.1}}},
    {"rebalance", {}},
};

/// Args (case, lanes), as BM_StealingPresetDeriv.
void BM_VariantKernelDeriv(benchmark::State& state) {
  const StealingCase& c = kVariantCases[state.range(0)];
  const auto model = core::make_model(c.model, 0.85, c.params);
  time_lane_kernel(state, *model, static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_VariantKernelDeriv)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 7, 1), {1, 8}});

void BM_FixedPointSolve(benchmark::State& state) {
  for (auto _ : state) {
    core::SimpleWS model(0.9);
    auto fp = core::solve_fixed_point(model);
    benchmark::DoNotOptimize(fp.residual);
  }
}
BENCHMARK(BM_FixedPointSolve)->Unit(benchmark::kMillisecond);

void BM_TransferFixedPointSolve(benchmark::State& state) {
  for (auto _ : state) {
    core::StagedTransferWS model(0.9, 0.25, 1, 4);  // registry `transfer`
    auto fp = core::solve_fixed_point(model);
    benchmark::DoNotOptimize(fp.residual);
  }
}
BENCHMARK(BM_TransferFixedPointSolve)->Unit(benchmark::kMillisecond);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ode::Matrix a(n, n);
  util::Xoshiro256 rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = (i == j) ? 4.0 : rng.uniform() * 0.1;
    }
  }
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    ode::LuSolver lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

/// A registry model at an explicit truncation, solved there; the LU and
/// Anderson benchmarks below run on its real Jacobian and RHS.
struct Rung {
  const char* model;
  core::ModelParams params;
  std::size_t truncation;
};

/// The serve_solve classes whose Newton polish factors the largest
/// Jacobians, at the truncations they reach near lambda = 0.85: 193, 400,
/// 621 and 988 dimensions.
const Rung kRungs[] = {
    {"no-stealing", {}, 192},
    {"transfer", {}, 199},
    {"erlang", {{"c", 10}}, 620},
    {"simple", {{"service", "hyperexp:4"}}, 493},
};

std::unique_ptr<core::MeanFieldModel> rung_model(const Rung& r) {
  core::ModelParams params = r.params;
  params["L"] = static_cast<double>(r.truncation);
  return core::make_model(r.model, 0.85, params);
}

/// The model's unpolished fixed point: where the Newton polish starts.
ode::State rung_state(const core::MeanFieldModel& model) {
  core::FixedPointOptions opts;
  opts.truncation = core::TruncationMode::Fixed;
  opts.polish = false;
  return core::solve_fixed_point(model, opts).state;
}

/// Forward-difference Jacobian of the root residual at the model's fixed
/// point, compressed.
ode::SparseColumns rung_jacobian(const core::MeanFieldModel& model) {
  const ode::State s = rung_state(model);
  const std::size_t n = s.size();
  const double fd_eps = ode::NewtonKrylovOptions{}.fd_eps;
  ode::State f(n), fp(n), pert = s;
  model.root_residual(s, f);
  ode::SparseColumns jac;
  jac.n = n;
  for (std::size_t j = 0; j < n; ++j) {
    const double h = fd_eps * std::max(1.0, std::abs(s[j]));
    pert[j] = s[j] + h;
    model.root_residual(pert, fp);
    pert[j] = s[j];
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (fp[i] - f[i]) / h;
      if (d == 0.0) continue;
      jac.row.push_back(i);
      jac.value.push_back(d);
    }
    jac.col_start.push_back(jac.row.size());
  }
  return jac;
}

void BM_LuFactor(benchmark::State& state) {
  const Rung& rung = kRungs[state.range(0)];
  const auto model = rung_model(rung);
  const ode::SparseColumns jac = rung_jacobian(*model);
  for (auto _ : state) {
    ode::LuSolver lu(jac);
    benchmark::DoNotOptimize(lu.size());
  }
  state.SetLabel(std::string(rung.model) + " n=" + std::to_string(jac.n));
}
BENCHMARK(BM_LuFactor)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_FdJacobianFactor(benchmark::State& state) {
  // The Newton polish's hot path end to end: n finite-difference residual
  // evaluations (batched where the model has a kernel), the sparse
  // assembly and the factorization.
  const Rung& rung = kRungs[state.range(0)];
  const auto model = rung_model(rung);
  const core::RootSystem root(*model);
  const ode::State s = rung_state(*model);
  ode::State f(s.size());
  model->root_residual(s, f);
  const double fd_eps = ode::NewtonKrylovOptions{}.fd_eps;
  for (auto _ : state) {
    const auto lu = ode::detail::factor_fd_jacobian(root, s, f, fd_eps);
    benchmark::DoNotOptimize(lu->size());
  }
  state.SetLabel(std::string(rung.model) + " n=" + std::to_string(s.size()));
}
BENCHMARK(BM_FdJacobianFactor)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_AndersonIteration(benchmark::State& state) {
  // AA(10) from the empty state for a fixed 200 iterations (the tolerance
  // is out of reach), timed as a whole; the same number of RHS evaluations,
  // at the start state, is timed on its own and subtracted, leaving the
  // accelerator's own cost per iteration: history update, least squares,
  // extrapolation, projection.
  const Rung& rung = kRungs[state.range(0)];
  const auto model = rung_model(rung);
  ode::AndersonOptions opts;
  opts.depth = 10;
  opts.tol = 0.0;
  opts.max_iter = 200;
  opts.stall_patience = opts.max_iter;
  using clock = std::chrono::steady_clock;
  double aa_ns = 0.0;
  std::size_t iterations = 0, evals = 0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    const auto out = ode::anderson_fixed_point(*model, model->empty_state(),
                                               opts);
    aa_ns += std::chrono::duration<double, std::nano>(clock::now() - t0)
                 .count();
    iterations += out.iterations;
    evals += out.rhs_evals;
    benchmark::DoNotOptimize(out.residual_norm);
  }
  const ode::State s = model->empty_state();
  ode::State ds(s.size());
  const auto t0 = clock::now();
  for (std::size_t k = 0; k < evals; ++k) {
    model->deriv(0.0, s, ds);
    benchmark::DoNotOptimize(ds.data());
  }
  const double rhs_ns =
      std::chrono::duration<double, std::nano>(clock::now() - t0).count();
  const auto per = [](double ns, std::size_t count) {
    return ns / static_cast<double>(std::max<std::size_t>(1, count));
  };
  state.counters["overhead_ns_per_iter"] = per(aa_ns - rhs_ns, iterations);
  state.counters["rhs_ns_per_eval"] = per(rhs_ns, evals);
  state.SetLabel(std::string(rung.model) + " n=" +
                 std::to_string(model->dimension()));
}
BENCHMARK(BM_AndersonIteration)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void BM_HistoryQrStep(benchmark::State& state) {
  // One steady-state step of AA(10)'s least squares with a full window:
  // solve (from the Q^T r the last push carried), extrapolate, drop the
  // oldest column, push the newest with the next residual. Columns and
  // residuals cycle through 32 random vectors, so each pushed column is
  // independent of the window. n = 193 and 481 are serve_solve's L = 192
  // single-segment rung and its erlang c = 10 rung.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDepth = 10;
  constexpr std::size_t kRing = 32;
  util::Xoshiro256 rng(193);
  const auto random_vector = [&] {
    ode::State v(n);
    for (double& x : v) x = 2.0 * rng.uniform() - 1.0;
    return v;
  };
  std::vector<ode::State> cols, res, dg;
  for (std::size_t j = 0; j < kRing; ++j) {
    cols.push_back(random_vector());
    res.push_back(random_vector());
  }
  for (std::size_t j = 0; j < kDepth; ++j) dg.push_back(random_vector());
  const ode::State x = random_vector();
  ode::State xn(n);
  std::vector<double> theta(kDepth);
  ode::detail::HistoryQr qr(n, kDepth);
  std::size_t step = 0;
  for (; step < kDepth; ++step) qr.push(cols[step], &res[step + 1]);
  for (auto _ : state) {
    const ode::State& r = res[step % kRing];
    qr.solve(r, theta.data());
    ode::detail::extrapolate(x, r, dg, theta.data(), qr.size(), xn);
    qr.drop_oldest();
    qr.push(cols[step % kRing], &res[(step + 1) % kRing]);
    benchmark::DoNotOptimize(xn.data());
    ++step;
  }
  state.SetLabel("depth 10, n=" + std::to_string(n));
}
BENCHMARK(BM_HistoryQrStep)->Arg(193)->Arg(481)->Unit(benchmark::kMicrosecond);

/// I - h J at the erlang c = 10 rung (n = 621, kl = ku = 10): the FD
/// Jacobian band at the rung's fixed point, shifted with h = 100, a band
/// with the stage models' coupling pattern.
ode::BandedMatrix erlang_iteration_matrix() {
  const auto model = rung_model(kRungs[2]);
  const ode::State s = rung_state(*model);
  const std::size_t n = s.size();
  const std::size_t band = 10;
  const auto jac = ode::banded_fd_jacobian(*model, 0.0, s, band, band);
  const double h = 100.0;
  ode::BandedMatrix m(n, band, band);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j_lo = i >= band ? i - band : 0;
    const std::size_t j_hi = std::min(i + band, n - 1);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      m.set(i, j, (i == j ? 1.0 : 0.0) - h * jac.get(i, j));
    }
  }
  return m;
}

void BM_BandedLuFactor(benchmark::State& state) {
  const ode::BandedMatrix a = erlang_iteration_matrix();
  for (auto _ : state) {
    ode::BandedLuSolver lu(a);
    benchmark::DoNotOptimize(lu.size());
  }
  state.SetLabel("erlang c=10 n=" + std::to_string(a.size()));
}
BENCHMARK(BM_BandedLuFactor)->Unit(benchmark::kMicrosecond);

void BM_BandedLuSolveInto(benchmark::State& state) {
  const ode::BandedLuSolver lu(erlang_iteration_matrix());
  const std::size_t n = lu.size();
  std::vector<double> b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 / static_cast<double>(i + 1);
  }
  for (auto _ : state) {
    lu.solve_into(b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("erlang c=10 n=" + std::to_string(n));
}
BENCHMARK(BM_BandedLuSolveInto)->Unit(benchmark::kMicrosecond);

void BM_ErlangFixedPoint(benchmark::State& state) {
  // Full Auto solve of the c = 10 stage model at lambda = 0.9: truncation
  // ladder, Anderson warmup and Newton-Krylov with the banded chord.
  for (auto _ : state) {
    core::ErlangServiceWS model(0.9, 10);
    auto fp = core::solve_fixed_point(model);
    benchmark::DoNotOptimize(fp.residual);
  }
}
BENCHMARK(BM_ErlangFixedPoint)->Unit(benchmark::kMillisecond);

void BM_BandedFdJacobian(benchmark::State& state) {
  core::ErlangServiceWS model(0.9, 10);
  const auto s = model.empty_state();
  for (auto _ : state) {
    auto jac = ode::banded_fd_jacobian(model, 0.0, s, 10, 10);
    benchmark::DoNotOptimize(jac.get(5, 5));
  }
}
BENCHMARK(BM_BandedFdJacobian)->Unit(benchmark::kMillisecond);

void BM_EventQueue(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  for (auto _ : state) {
    sim::EventQueue<int> q;
    for (int i = 0; i < 1000; ++i) q.push(rng.uniform(), i);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().payload);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventQueue);

void BM_SimulatorThroughput(benchmark::State& state) {
  sim::SimConfig cfg;
  cfg.processors = 64;
  cfg.arrival_rate = 0.9;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 500.0;
  cfg.warmup = 50.0;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    const auto res = sim::simulate(cfg);
    // Arrivals + completions + steal attempts ~ total dispatched events.
    events += res.arrivals + res.completions + res.steal_attempts;
    benchmark::DoNotOptimize(res.completions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulated events");
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
