// Fault-tolerance suite: the deterministic fault injector itself, solver
// budgets (eval + wall) through core::solve_fixed_point, injected solver
// divergence, and the end-to-end acceptance scenarios — a 30-job run
// under injected faults that isolates exactly the predicted jobs, retries
// with backoff, stays bit-identical to a clean run on the non-faulted
// jobs and resumes from cache; crash-safe artifact emission degrading to
// a warning; and a λ-sweep whose chain cold-restarts after an injected
// divergence.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/fixed_point.hpp"
#include "core/registry.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "util/failure.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

namespace {

using namespace lsm;
namespace fs = std::filesystem;

/// Disarms the process-wide injector on scope exit, so a failing
/// assertion can never leak an armed injector into later tests.
struct InjectorGuard {
  InjectorGuard() = default;
  ~InjectorGuard() { util::FaultInjector::instance().disarm(); }
};

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("lsm-fault-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

util::FaultProfile profile_with(util::FaultSite site, double p,
                                std::string only = "") {
  util::FaultProfile prof;
  prof.probability[static_cast<std::size_t>(site)] = p;
  prof.only = std::move(only);
  return prof;
}

// --- the injector itself ------------------------------------------------

TEST(FaultProfile, ParsesSlugsGroupsAndRejectsJunk) {
  const auto p = util::FaultProfile::parse("io=0.25,job=0.5,solver=1,slow=2");
  using S = util::FaultSite;
  const auto at = [&](S s) {
    return p.probability[static_cast<std::size_t>(s)];
  };
  EXPECT_DOUBLE_EQ(at(S::CacheLoad), 0.25);   // "io" covers all three
  EXPECT_DOUBLE_EQ(at(S::CacheStore), 0.25);
  EXPECT_DOUBLE_EQ(at(S::ArtifactWrite), 0.25);
  EXPECT_DOUBLE_EQ(at(S::JobFault), 0.5);
  EXPECT_DOUBLE_EQ(at(S::SolverDiverge), 1.0);
  EXPECT_DOUBLE_EQ(at(S::SlowJob), 1.0);  // clamped to [0, 1]

  const auto q = util::FaultProfile::parse("cache-load=0.1,artifact=0.2");
  EXPECT_DOUBLE_EQ(q.probability[static_cast<std::size_t>(S::CacheLoad)], 0.1);
  EXPECT_DOUBLE_EQ(
      q.probability[static_cast<std::size_t>(S::ArtifactWrite)], 0.2);
  EXPECT_DOUBLE_EQ(q.probability[static_cast<std::size_t>(S::CacheStore)], 0.0);

  EXPECT_THROW((void)util::FaultProfile::parse("bogus=1"), util::FailureError);
  EXPECT_THROW((void)util::FaultProfile::parse("job=nope"),
               util::FailureError);
  try {
    (void)util::FaultProfile::parse("job=");
    FAIL() << "expected a parse failure";
  } catch (const util::FailureError& e) {
    EXPECT_EQ(e.failure().kind, util::FailureKind::InvalidArgument);
  }
}

TEST(FaultInjector, DecisionsAreDeterministicSeedAndContextSensitive) {
  const InjectorGuard guard;
  auto& inj = util::FaultInjector::instance();
  using S = util::FaultSite;

  inj.configure(99, profile_with(S::JobFault, 0.5));
  ASSERT_TRUE(inj.armed());
  std::vector<bool> first;
  int hits = 0;
  for (int i = 0; i < 128; ++i) {
    const bool f = inj.should_fail(S::JobFault, "ctx-" + std::to_string(i));
    first.push_back(f);
    hits += f ? 1 : 0;
  }
  // Roughly half the contexts fault at p = 0.5...
  EXPECT_GT(hits, 32);
  EXPECT_LT(hits, 96);
  // ...and asking again gives the identical answers: no hidden RNG state.
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(inj.should_fail(S::JobFault, "ctx-" + std::to_string(i)),
              first[i])
        << i;
  }
  // The attempt number reshuffles the decision for at least some contexts.
  bool attempt_matters = false;
  for (int i = 0; i < 128 && !attempt_matters; ++i) {
    attempt_matters = inj.should_fail(S::JobFault, "ctx-" + std::to_string(i),
                                      2) != first[i];
  }
  EXPECT_TRUE(attempt_matters);

  // A different seed flips at least one decision.
  inj.configure(100, profile_with(S::JobFault, 0.5));
  bool seed_matters = false;
  for (int i = 0; i < 128 && !seed_matters; ++i) {
    seed_matters =
        inj.should_fail(S::JobFault, "ctx-" + std::to_string(i)) != first[i];
  }
  EXPECT_TRUE(seed_matters);
}

TEST(FaultInjector, OnlyFilterRestrictsContextsAndDisarmSilences) {
  const InjectorGuard guard;
  auto& inj = util::FaultInjector::instance();
  using S = util::FaultSite;

  inj.configure(5, profile_with(S::JobFault, 1.0, "alpha"));
  const auto before = inj.fired();
  EXPECT_TRUE(inj.should_fail(S::JobFault, "job alpha-3"));
  EXPECT_FALSE(inj.should_fail(S::JobFault, "job beta-3"));
  EXPECT_EQ(inj.fired(), before + 1);  // only the hit bumped the counter

  inj.disarm();
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.should_fail(S::JobFault, "job alpha-3"));
}

TEST(FaultInjector, SlowJobDelayIsDeterministicAndBounded) {
  const InjectorGuard guard;
  auto& inj = util::FaultInjector::instance();
  inj.configure(11, profile_with(util::FaultSite::SlowJob, 0.5));
  bool any = false;
  for (int i = 0; i < 64; ++i) {
    const std::string ctx = "slow-" + std::to_string(i);
    const double d = inj.injected_delay(ctx);
    EXPECT_EQ(d, inj.injected_delay(ctx));  // pure in (seed, context)
    if (d > 0.0) {
      any = true;
      EXPECT_GE(d, 0.001);
      EXPECT_LE(d, 0.021);
    }
  }
  EXPECT_TRUE(any);
}

// --- solver budgets -----------------------------------------------------

TEST(SolverBudget, EvalBudgetFailsInsteadOfLooping) {
  const auto model = core::make_model("simple", 0.95, {});
  core::FixedPointOptions opts;
  opts.max_rhs_evals = 20;  // a real solve needs hundreds
  opts.throw_on_failure = false;
  const auto r = core::solve_fixed_point(*model, opts);
  EXPECT_EQ(r.status, ode::SolveStatus::BudgetExhausted);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_FALSE(r.state.empty());  // best iterate is still returned

  opts.throw_on_failure = true;
  try {
    (void)core::solve_fixed_point(*model, opts);
    FAIL() << "expected util::FailureError";
  } catch (const util::FailureError& e) {
    EXPECT_EQ(e.failure().kind, util::FailureKind::SolverBudget);
    // The solve label prints λ losslessly.
    EXPECT_NE(e.failure().context.find(" lambda=0.95 "), std::string::npos)
        << e.failure().context;
  }
}

// The Krylov route carries the budget into its Newton finish: the Anderson
// warm-up spends it (a near-critical 5000-unknown system needs far more),
// and the finish stops after its one residual evaluation instead of
// running Newton to convergence. `model_cli no-stealing --L=4999
// --lambda=0.99 --solver=krylov --max-evals=500` checks the same contract.
TEST(SolverBudget, KrylovRouteFinishCarriesTheBudget) {
  const auto model = core::make_model("no-stealing", 0.99, {{"L", 4999}});
  core::FixedPointOptions opts;
  opts.method = ode::FixedPointMethod::Krylov;
  opts.max_rhs_evals = 500;
  opts.throw_on_failure = false;
  const auto r = core::solve_fixed_point(*model, opts);
  EXPECT_EQ(r.status, ode::SolveStatus::BudgetExhausted);
  EXPECT_EQ(r.method, ode::FixedPointMethod::Krylov);
  EXPECT_GE(r.rhs_evals, 500u);
  EXPECT_LE(r.rhs_evals, 505u);
  EXPECT_NE(r.failure.find("budget exhausted before convergence"),
            std::string::npos)
      << r.failure;

  opts.throw_on_failure = true;
  try {
    (void)core::solve_fixed_point(*model, opts);
    FAIL() << "expected util::FailureError";
  } catch (const util::FailureError& e) {
    EXPECT_EQ(e.failure().kind, util::FailureKind::SolverBudget);
  }
}

TEST(SolverBudget, WallBudgetFailsInsteadOfLooping) {
  const auto model = core::make_model("simple", 0.9, {});
  core::FixedPointOptions opts;
  opts.method = ode::FixedPointMethod::Relax;
  opts.max_wall_seconds = 1e-9;  // exhausted by the first interval
  opts.throw_on_failure = false;
  const auto r = core::solve_fixed_point(*model, opts);
  EXPECT_EQ(r.status, ode::SolveStatus::BudgetExhausted);
}

TEST(SolverBudget, UnlimitedDefaultsStillConverge) {
  const auto model = core::make_model("simple", 0.9, {});
  const auto r = core::solve_fixed_point(*model);
  EXPECT_EQ(r.status, ode::SolveStatus::Converged);
  EXPECT_TRUE(r.failure.empty());
}

TEST(SolverBudget, InjectedDivergenceThrowsReportsAndDisarms) {
  const InjectorGuard guard;
  const auto model = core::make_model("simple", 0.9, {});
  const std::string ctx =
      "model=" + model->name() +
      " lambda=" + util::Json::number_to_string(model->lambda());
  auto& inj = util::FaultInjector::instance();
  inj.configure(7, profile_with(util::FaultSite::SolverDiverge, 1.0, ctx));

  try {
    (void)core::solve_fixed_point(*model);
    FAIL() << "expected util::FailureError";
  } catch (const util::FailureError& e) {
    EXPECT_EQ(e.failure().kind, util::FailureKind::SolverDiverged);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }

  core::FixedPointOptions no_throw;
  no_throw.throw_on_failure = false;
  const auto r = core::solve_fixed_point(*model, no_throw);
  EXPECT_EQ(r.status, ode::SolveStatus::Diverged);

  inj.disarm();
  EXPECT_NO_THROW((void)core::solve_fixed_point(*model));
}

// --- 30-job acceptance run ----------------------------------------------

/// 3 entries x 10 λ = 30 jobs, tiny fidelity so the grid runs in well
/// under a second.
exp::ExperimentSpec acceptance_spec() {
  exp::ExperimentSpec spec;
  spec.name = "fault_acceptance";
  for (int i = 0; i < 10; ++i) spec.lambdas.push_back(0.3 + 0.05 * i);
  spec.fidelity = {1, 200.0, 20.0, "test"};
  {
    exp::GridEntry e;
    e.label = "sim-a";
    e.model = "simple";
    e.config.processors = 8;
    spec.add(std::move(e));
  }
  {
    exp::GridEntry e;
    e.label = "sim-b";
    e.model = "simple";
    e.config.processors = 16;
    e.estimate = false;
    spec.add(std::move(e));
  }
  {
    exp::GridEntry e;
    e.label = "est";
    e.model = "threshold";
    e.params = {{"T", 4.0}};
    e.simulate = false;
    spec.add(std::move(e));
  }
  return spec;
}

exp::RunnerOptions fault_options(const TempDir& cache) {
  exp::RunnerOptions opts;
  opts.threads = 4;
  opts.cache_dir = cache.path.string();
  opts.artifact_dir = "";
  // Cold solves: a failed point would cold-restart the rest of a warm
  // chain, while these tests pin every unfaulted job to the clean run.
  opts.warm = false;
  // Short backoffs keep the retried jobs from dominating test wall time.
  opts.retry = {3, 0.001, 2.0, 0.01};
  return opts;
}

/// Predicted attempt count for a job under the injector: the attempt at
/// which JobFault first declines to fire, or max_attempts if every
/// attempt faults (in which case the job ends Failed).
std::uint32_t predicted_attempts(const exp::Job& job, std::size_t max_attempts,
                                 bool& fails) {
  const auto& inj = util::FaultInjector::instance();
  const std::string ctx = job.fault_context();
  for (std::size_t a = 1; a <= max_attempts; ++a) {
    if (!inj.should_fail(util::FaultSite::JobFault, ctx, a)) {
      fails = false;
      return static_cast<std::uint32_t>(a);
    }
  }
  fails = true;
  return static_cast<std::uint32_t>(max_attempts);
}

TEST(FaultRunner, IsolatesPredictedJobsRetriesAndResumes) {
  const InjectorGuard guard;
  const auto spec = acceptance_spec();

  // Clean reference, injector disarmed.
  const TempDir ref_cache("accept-ref");
  exp::Runner ref_runner(fault_options(ref_cache));
  const auto reference = ref_runner.run(spec);
  ASSERT_EQ(reference.results.size(), 30u);
  ASSERT_EQ(reference.failed_jobs, 0u);

  // Faulted run: job faults with retries, plus injected slowdowns (which
  // must perturb nothing but wall time).
  auto& inj = util::FaultInjector::instance();
  inj.configure(1234, util::FaultProfile::parse("job=0.5,slow=0.25"));

  const TempDir cache("accept-faulted");
  const TempDir artifacts("accept-artifacts");
  auto opts = fault_options(cache);
  opts.artifact_dir = artifacts.path.string();
  opts.on_failure = exp::OnFailure::Report;
  exp::Runner runner(opts);
  const auto report = runner.run(spec);

  // should_fail() is pure, so the test can predict the outcome of every
  // job before looking at the report.
  const auto jobs = spec.expand();
  std::size_t predicted_failed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bool fails = false;
    const auto attempts =
        predicted_attempts(jobs[i], opts.retry.max_attempts, fails);
    const auto& r = report.results[i];
    if (fails) {
      ++predicted_failed;
      EXPECT_EQ(r.status, exp::JobStatus::Failed) << jobs[i].fault_context();
      EXPECT_NE(r.error.find("injected job fault"), std::string::npos);
      EXPECT_EQ(r.error_kind, "job-fault");
      EXPECT_EQ(r.attempts, attempts);
      EXPECT_FALSE(r.has_estimate);
      EXPECT_FALSE(r.has_sim);
    } else {
      EXPECT_EQ(r.status, exp::JobStatus::Ok) << jobs[i].fault_context();
      EXPECT_EQ(r.attempts, attempts);
      // Bit-identical to the clean run: faults touched only faulted jobs.
      const auto& c = reference.results[i];
      EXPECT_EQ(r.est_sojourn, c.est_sojourn) << i;
      EXPECT_EQ(r.sim_sojourn.mean, c.sim_sojourn.mean) << i;
      EXPECT_EQ(r.events, c.events) << i;
      EXPECT_EQ(r.est_tail, c.est_tail) << i;
      EXPECT_EQ(r.sim_tail, c.sim_tail) << i;
    }
  }
  // The chosen seed must exercise both outcomes and at least one retry.
  ASSERT_GT(predicted_failed, 0u);
  ASSERT_LT(predicted_failed, jobs.size());
  bool any_retry = false;
  for (const auto& r : report.results) any_retry |= r.attempts > 1;
  EXPECT_TRUE(any_retry);

  EXPECT_EQ(report.failed_jobs, predicted_failed);
  EXPECT_EQ(report.failed().size(), predicted_failed);
  EXPECT_EQ(report.cache_hits + report.cache_misses + report.failed_jobs,
            30u);
  EXPECT_NE(report.summary().find(std::to_string(predicted_failed) +
                                  " failed"),
            std::string::npos);

  // Failed jobs are visible in the manifest and the CSV.
  ASSERT_FALSE(report.manifest_path.empty());
  std::ifstream mf(report.manifest_path);
  const std::string manifest((std::istreambuf_iterator<char>(mf)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(manifest.find("\"kind\": \"job-fault\""), std::string::npos);
  EXPECT_NE(manifest.find("injected job fault"), std::string::npos);
  EXPECT_NE(manifest.find("\"failed\": " + std::to_string(predicted_failed)),
            std::string::npos);
  std::ifstream cf(report.csv_path);
  const std::string csv((std::istreambuf_iterator<char>(cf)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(csv.find("failed"), std::string::npos);
  EXPECT_NE(csv.find("job-fault"), std::string::npos);

  // Degraded lookups: NaN for the failed jobs, exact values elsewhere.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (report.results[i].status == exp::JobStatus::Failed &&
        jobs[i].simulate) {
      EXPECT_TRUE(std::isnan(report.sim(jobs[i].label, jobs[i].lambda)));
    }
  }

  // Disarmed re-run over the SAME cache: the ok jobs replay from cache,
  // the failed ones (never cached) recompute cleanly, and everything is
  // bit-identical to the reference.
  inj.disarm();
  exp::Runner resume_runner(fault_options(cache));
  const auto resumed = resume_runner.run(spec);
  EXPECT_EQ(resumed.failed_jobs, 0u);
  EXPECT_EQ(resumed.cache_hits, 30u - predicted_failed);
  EXPECT_EQ(resumed.cache_misses, predicted_failed);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& r = resumed.results[i];
    const auto& c = reference.results[i];
    EXPECT_EQ(r.status, exp::JobStatus::Ok) << i;
    EXPECT_EQ(r.est_sojourn, c.est_sojourn) << i;
    EXPECT_EQ(r.sim_sojourn.mean, c.sim_sojourn.mean) << i;
    EXPECT_EQ(r.sim_tail, c.sim_tail) << i;
  }
}

TEST(FaultRunner, AbortModeThrowsWithJobContext) {
  const InjectorGuard guard;
  auto& inj = util::FaultInjector::instance();
  inj.configure(1234, util::FaultProfile::parse("job=0.5"));

  const TempDir cache("accept-abort");
  auto opts = fault_options(cache);
  opts.on_failure = exp::OnFailure::Abort;
  exp::Runner runner(opts);
  try {
    (void)runner.run(acceptance_spec());
    FAIL() << "expected util::FailureError";
  } catch (const util::FailureError& e) {
    EXPECT_EQ(e.failure().kind, util::FailureKind::JobFault);
    const std::string what = e.what();
    EXPECT_NE(what.find("job "), std::string::npos);
    EXPECT_NE(what.find("attempt"), std::string::npos);
  }
}

// --- crash-safe artifacts -----------------------------------------------

TEST(FaultRunner, ArtifactFaultDegradesToWarningAndLeavesNoPartialFiles) {
  const InjectorGuard guard;
  auto& inj = util::FaultInjector::instance();
  inj.configure(3, util::FaultProfile::parse("artifact=1"));

  const TempDir cache("artifact-fault");
  const TempDir artifacts("artifact-fault-dir");
  exp::ExperimentSpec spec = acceptance_spec();
  spec.lambdas = {0.4, 0.5};  // 6 jobs is plenty here
  auto opts = fault_options(cache);
  opts.artifact_dir = artifacts.path.string();
  opts.on_failure = exp::OnFailure::Report;
  exp::Runner runner(opts);
  const auto report = runner.run(spec);

  // The compute finished and the failure is a recorded degrade, not a
  // throw; nothing partial (no manifest, no CSV, no tmp litter) remains.
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_FALSE(report.artifact_error.empty());
  EXPECT_NE(report.artifact_error.find("injected"), std::string::npos);
  EXPECT_TRUE(report.manifest_path.empty());
  EXPECT_TRUE(report.csv_path.empty());
  std::size_t files = 0;
  if (fs::exists(artifacts.path)) {
    for (const auto& entry : fs::directory_iterator(artifacts.path)) {
      (void)entry;
      ++files;
    }
  }
  EXPECT_EQ(files, 0u);
}

TEST(FaultRunner, UnwritableArtifactDirDegradesToWarning) {
  const TempDir cache("artifact-unwritable");
  const TempDir scratch("artifact-file");
  // artifact_dir pointing at an existing FILE: create_directories fails.
  fs::create_directories(scratch.path);
  const auto blocker = scratch.path / "not-a-dir";
  std::ofstream(blocker) << "x";

  exp::ExperimentSpec spec = acceptance_spec();
  spec.lambdas = {0.4};
  auto opts = fault_options(cache);
  opts.artifact_dir = blocker.string();
  exp::Runner runner(opts);
  const auto report = runner.run(spec);
  EXPECT_FALSE(report.artifact_error.empty());
  EXPECT_TRUE(report.manifest_path.empty());
  EXPECT_EQ(report.failed_jobs, 0u);
}

// --- sweep chain break --------------------------------------------------

exp::ExperimentSpec chain_spec() {
  exp::ExperimentSpec spec;
  spec.name = "fault_chain";
  spec.lambdas = {0.5, 0.65, 0.8, 0.9};
  spec.fidelity = {1, 200.0, 20.0, "test"};
  spec.outputs.simulate = false;
  exp::GridEntry e;
  e.label = "simple";
  e.model = "simple";
  e.simulate = false;
  spec.add(std::move(e));
  return spec;
}

TEST(FaultSweep, ChainBreakColdRestartsTheRemainder) {
  const InjectorGuard guard;
  const auto spec = chain_spec();

  // Clean warm reference.
  const TempDir ref_cache("chain-ref");
  exp::RunnerOptions ref_opts;
  ref_opts.threads = 2;
  ref_opts.cache_dir = ref_cache.path.string();
  ref_opts.artifact_dir = "";
  exp::Runner ref_runner(ref_opts);
  const auto reference = ref_runner.run(spec);
  ASSERT_EQ(reference.failed_jobs, 0u);

  // Diverge exactly the λ = 0.8 solve of this model.
  const auto model = core::make_model("simple", 0.8, {});
  const std::string ctx =
      "model=" + model->name() +
      " lambda=" + util::Json::number_to_string(model->lambda());
  auto& inj = util::FaultInjector::instance();
  inj.configure(7, profile_with(util::FaultSite::SolverDiverge, 1.0, ctx));

  const TempDir cache("chain-faulted");
  exp::RunnerOptions opts = ref_opts;
  opts.cache_dir = cache.path.string();
  opts.on_failure = exp::OnFailure::Report;
  opts.retry = {3, 0.001, 2.0, 0.01};
  exp::Runner runner(opts);
  const auto report = runner.run(spec);

  // Only the faulted point failed — and divergence is not retryable.
  ASSERT_EQ(report.failed_jobs, 1u);
  EXPECT_EQ(report.results[2].status, exp::JobStatus::Failed);
  EXPECT_EQ(report.results[2].error_kind, "solver-diverged");
  EXPECT_EQ(report.results[2].attempts, 1u);

  // Points before the break ran the same warm chain: bit-identical.
  for (const std::size_t i : {0u, 1u}) {
    EXPECT_EQ(report.results[i].status, exp::JobStatus::Ok) << i;
    EXPECT_EQ(report.results[i].est_sojourn,
              reference.results[i].est_sojourn)
        << i;
  }

  // The point after the break completed — cold-restarted, so keyed and
  // annotated as a cold solve, agreeing with the warm reference only to
  // solver tolerance.
  EXPECT_EQ(report.results[3].status, exp::JobStatus::Ok);
  EXPECT_EQ(report.jobs[3].solver, "cold");
  EXPECT_TRUE(report.jobs[3].warm_chain.empty());
  EXPECT_EQ(reference.jobs[3].solver, "warm");
  EXPECT_NEAR(report.results[3].est_sojourn,
              reference.results[3].est_sojourn, 1e-9);
  EXPECT_NE(report.results[3].key, reference.results[3].key);

  // Abort mode propagates the divergence instead.
  const TempDir abort_cache("chain-abort");
  exp::RunnerOptions abort_opts = opts;
  abort_opts.cache_dir = abort_cache.path.string();
  abort_opts.on_failure = exp::OnFailure::Abort;
  exp::Runner abort_runner(abort_opts);
  EXPECT_THROW((void)abort_runner.run(spec), util::FailureError);
}

}  // namespace
