// Tests for the experiment-runner subsystem: grid expansion, content
// hashing, determinism across pool widths, the disk result cache, and
// warm-chained λ sweeps (solver-aware keys, state round-trips, warm
// resume, warm-vs-cold agreement, the cold reference mode).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "core/fixed_point.hpp"
#include "exp/cache.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "sim/replicate.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace lsm;
namespace fs = std::filesystem;

/// Fresh temp directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("lsm-exp-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

/// A small but non-trivial spec: two entries (one sim+est, one est-only)
/// over two arrival rates, short horizon so the whole grid runs in tens of
/// milliseconds.
exp::ExperimentSpec small_spec() {
  exp::ExperimentSpec spec;
  spec.name = "exp_runner_test";
  spec.lambdas = {0.5, 0.8};
  spec.fidelity = {2, 400.0, 50.0, "test"};
  spec.outputs.tail_limit = 6;
  {
    exp::GridEntry e;
    e.label = "steal";
    e.model = "simple";
    e.config.processors = 16;
    e.config.policy = sim::StealPolicy::on_empty(2);
    spec.add(std::move(e));
  }
  {
    exp::GridEntry e;
    e.label = "t4";
    e.model = "threshold";
    e.params = {{"T", 4.0}};
    e.simulate = false;
    spec.add(std::move(e));
  }
  return spec;
}

exp::RunnerOptions options(const TempDir& cache, unsigned threads,
                           bool warm = true) {
  exp::RunnerOptions opts;
  opts.threads = threads;
  opts.cache_dir = cache.path.string();
  opts.artifact_dir = "";  // no artifacts unless a test asks for them
  opts.warm = warm;
  return opts;
}

TEST(ExperimentSpec, ExpandCrossesEntriesWithLambdas) {
  const auto jobs = small_spec().expand();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].label, "steal");
  EXPECT_DOUBLE_EQ(jobs[0].lambda, 0.5);
  EXPECT_DOUBLE_EQ(jobs[0].config.arrival_rate, 0.5);
  EXPECT_EQ(jobs[0].config.seed, 42u);
  EXPECT_EQ(jobs[0].replications, 2u);
  EXPECT_TRUE(jobs[0].simulate);
  EXPECT_FALSE(jobs[3].simulate);
  EXPECT_TRUE(jobs[3].estimate);
}

TEST(ExperimentSpec, RejectsDuplicateLabelsAndBadModels) {
  auto dup = small_spec();
  dup.entries[1].label = "steal";
  EXPECT_THROW((void)dup.expand(), util::Error);

  auto unknown = small_spec();
  unknown.entries[0].model = "warp-drive";
  EXPECT_THROW((void)unknown.expand(), util::Error);

  auto bad_param = small_spec();
  bad_param.entries[0].params["zeta"] = 1.0;
  EXPECT_THROW((void)bad_param.expand(), util::Error);
}

TEST(ExperimentSpec, KeyIsStableAndConfigSensitive) {
  const auto jobs = small_spec().expand();
  EXPECT_EQ(jobs[0].key(), jobs[0].key());
  EXPECT_NE(jobs[0].key(), jobs[1].key());  // different lambda
  auto tweaked = small_spec();
  tweaked.seed = 43;
  const auto jobs2 = tweaked.expand();
  EXPECT_NE(jobs[0].key(), jobs2[0].key());       // sim job: seed matters
  EXPECT_EQ(jobs[3].key(), jobs2[3].key());       // estimate-only: it doesn't
}

TEST(Runner, ManifestIsIdenticalAcrossPoolWidths) {
  std::string reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const TempDir cache("det" + std::to_string(threads));
    exp::Runner runner(options(cache, threads));
    const auto report = runner.run(small_spec());
    EXPECT_EQ(report.cache_misses, 4u);
    const std::string manifest =
        report.manifest(/*include_timing=*/false).dump(2);
    if (reference.empty()) {
      reference = manifest;
    } else {
      EXPECT_EQ(manifest, reference) << "threads=" << threads;
    }
  }
  EXPECT_NE(reference.find("\"cache_hit\": false"), std::string::npos);
}

/// Three simulated entries, five replications each (more than a 1- or
/// 2-wide pool holds at once): stealing with an estimate side, sharing
/// (forwards) and preemptive stealing, with tails.
exp::ExperimentSpec replication_spec() {
  exp::ExperimentSpec spec;
  spec.name = "";
  spec.lambdas = {0.6, 0.85};
  spec.fidelity = {5, 300.0, 30.0, "test"};
  spec.outputs.tail_limit = 5;
  {
    exp::GridEntry e;
    e.label = "steal";
    e.model = "simple";
    e.config.processors = 16;
    e.config.policy = sim::StealPolicy::on_empty(2);
    spec.add(std::move(e));
  }
  {
    exp::GridEntry e;
    e.label = "share";
    e.config.processors = 16;
    e.config.policy = sim::StealPolicy::sharing(2);
    e.estimate = false;
    spec.add(std::move(e));
  }
  {
    exp::GridEntry e;
    e.label = "preempt";
    e.config.processors = 32;
    e.config.policy = sim::StealPolicy::preemptive(1, 2);
    e.estimate = false;
    spec.add(std::move(e));
  }
  return spec;
}

/// Every simulation output of `r` equals a serial sim::replicate of the
/// job's configuration, bit for bit.
void expect_matches_serial_replicate(const exp::Job& job,
                                     const exp::JobResult& r) {
  SCOPED_TRACE(job.fault_context());
  ASSERT_TRUE(job.simulate);
  ASSERT_EQ(r.status, exp::JobStatus::Ok) << r.error;
  ASSERT_TRUE(r.has_sim);
  const auto rep =
      sim::replicate(job.config, {.replications = job.replications});
  EXPECT_EQ(r.sim_sojourn.mean, rep.sojourn.mean);
  EXPECT_EQ(r.sim_sojourn.half_width, rep.sojourn.half_width);
  EXPECT_EQ(r.sim_sojourn.stddev, rep.sojourn.stddev);
  EXPECT_EQ(r.sim_sojourn.n, rep.sojourn.n);
  EXPECT_EQ(r.sim_mean_tasks.mean, rep.mean_tasks.mean);
  EXPECT_EQ(r.sim_mean_tasks.half_width, rep.mean_tasks.half_width);
  EXPECT_EQ(r.sim_mean_tasks.stddev, rep.mean_tasks.stddev);
  EXPECT_EQ(r.sim_mean_tasks.n, rep.mean_tasks.n);
  const std::size_t tail =
      std::min(job.outputs.tail_limit + 1, rep.tail_fraction.size());
  EXPECT_EQ(r.sim_tail, std::vector<double>(rep.tail_fraction.begin(),
                                            rep.tail_fraction.begin() +
                                                static_cast<long>(tail)));
  std::uint64_t attempts = 0, successes = 0, moved = 0, forwards = 0,
                events = 0;
  double rate = 0.0;
  for (const auto& run : rep.replications) {
    attempts += run.steal_attempts;
    successes += run.steal_successes;
    moved += run.tasks_moved;
    forwards += run.forwards;
    events += run.arrivals + run.completions + run.steal_attempts +
              run.forwards;
    rate += run.message_rate(job.config.processors);
  }
  EXPECT_EQ(r.steal_attempts, attempts);
  EXPECT_EQ(r.steal_successes, successes);
  EXPECT_EQ(r.tasks_moved, moved);
  EXPECT_EQ(r.forwards, forwards);
  EXPECT_EQ(r.events, events);
  EXPECT_EQ(r.message_rate,
            rate / static_cast<double>(rep.replications.size()));
}

TEST(Runner, ReplicationUnitsMatchSerialReplicate) {
  const auto spec = replication_spec();
  const auto jobs = spec.expand();
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::mutex mutex;
    std::vector<int> sim_points(jobs.size(), 0);
    exp::RunnerOptions opts;
    opts.threads = threads;
    opts.cache_dir = "";
    opts.artifact_dir = "";
    opts.on_point = [&](std::size_t index, const exp::JobResult& partial) {
      if (!partial.has_sim) return;
      const std::scoped_lock lock(mutex);
      ++sim_points[index];
    };
    const auto report = exp::Runner(opts).run(spec);
    ASSERT_EQ(report.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_matches_serial_replicate(jobs[i], report.results[i]);
      EXPECT_EQ(report.results[i].has_estimate, jobs[i].estimate);
      EXPECT_EQ(sim_points[i], 1) << "on_point for sim point " << i;
    }
    // The counters compared above must not all be zero.
    EXPECT_GT(report.at("share", 0.85).forwards, 0u);
    EXPECT_GT(report.at("preempt", 0.85).steal_successes, 0u);
  }
}

TEST(Runner, JobWallNeverExceedsRunWall) {
  // One job of four replications: at width >= 2 they overlap, so the sum
  // of their times exceeds the run's wall time, while the job's own wall
  // time (first replication's start to its result) cannot.
  exp::ExperimentSpec spec;
  spec.name = "";
  spec.lambdas = {0.9};
  spec.fidelity = {4, 2000.0, 50.0, "test"};
  exp::GridEntry e;
  e.label = "steal";
  e.model = "simple";
  e.config.processors = 64;
  e.config.policy = sim::StealPolicy::on_empty(2);
  spec.add(std::move(e));
  for (const unsigned threads : {2u, 4u}) {
    exp::RunnerOptions opts;
    opts.threads = threads;
    opts.cache_dir = "";
    opts.artifact_dir = "";
    const auto report = exp::Runner(opts).run(spec);
    for (const auto& r : report.results) {
      EXPECT_GT(r.wall_seconds, 0.0);
      EXPECT_LE(r.wall_seconds, report.wall_seconds)
          << "threads=" << threads;
    }
  }
}

TEST(Runner, SecondRunIsAllCacheHitsAndSimulatesNothing) {
  const TempDir cache("roundtrip");
  const auto spec = small_spec();

  exp::Runner first(options(cache, 2));
  const auto cold = first.run(spec);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 4u);
  EXPECT_GT(cold.events_simulated, 0u);

  exp::Runner second(options(cache, 2));
  const auto warm = second.run(spec);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.events_simulated, 0u);  // zero events re-simulated

  // The cached results reproduce the computed ones bit-for-bit, so the
  // deterministic manifests agree except for cache provenance.
  for (std::size_t i = 0; i < cold.results.size(); ++i) {
    const auto& a = cold.results[i];
    const auto& b = warm.results[i];
    EXPECT_TRUE(b.cache_hit);
    EXPECT_EQ(a.sim_sojourn.mean, b.sim_sojourn.mean) << i;
    EXPECT_EQ(a.est_sojourn, b.est_sojourn) << i;
    EXPECT_EQ(a.events, b.events) << i;
    EXPECT_EQ(a.sim_tail, b.sim_tail) << i;
    EXPECT_EQ(a.est_tail, b.est_tail) << i;
  }
}

TEST(Runner, WritesManifestAndCsvArtifacts) {
  const TempDir cache("art-cache");
  const TempDir artifacts("artifacts");
  auto opts = options(cache, 2);
  opts.artifact_dir = artifacts.path.string();
  exp::Runner runner(opts);
  const auto report = runner.run(small_spec());

  ASSERT_FALSE(report.manifest_path.empty());
  ASSERT_FALSE(report.csv_path.empty());
  std::ifstream mf(report.manifest_path);
  ASSERT_TRUE(mf.good());
  std::string manifest((std::istreambuf_iterator<char>(mf)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"exp_runner_test\""), std::string::npos);
  EXPECT_NE(manifest.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(manifest.find("\"events_simulated\""), std::string::npos);
  std::ifstream cf(report.csv_path);
  ASSERT_TRUE(cf.good());
  std::string line;
  ASSERT_TRUE(std::getline(cf, line));
  EXPECT_NE(line.find("est_sojourn"), std::string::npos);
}

TEST(Runner, ReportLookupAndOutputs) {
  const TempDir cache("lookup");
  exp::Runner runner(options(cache, 2));
  const auto report = runner.run(small_spec());

  // Simulated and estimated sojourns are close for the simple model.
  const double sim = report.sim("steal", 0.5);
  const double est = report.estimate("steal", 0.5);
  EXPECT_NEAR(sim, est, 0.25);
  // Estimate-only entry has no sim side.
  EXPECT_THROW((void)report.sim("t4", 0.5), util::LogicError);
  EXPECT_THROW((void)report.at("nope", 0.5), util::Error);

  const auto& steal = report.at("steal", 0.8);
  EXPECT_TRUE(steal.has_sim);
  EXPECT_GT(steal.steal_attempts, 0u);
  EXPECT_GE(steal.steal_attempts, steal.steal_successes);
  EXPECT_GT(steal.events, 0u);
  ASSERT_EQ(steal.est_tail.size(), 7u);  // s_0..s_6
  EXPECT_DOUBLE_EQ(steal.est_tail[0], 1.0);
  ASSERT_EQ(steal.sim_tail.size(), 7u);
  EXPECT_NEAR(steal.sim_tail[1], 0.8, 0.05);  // busy fraction ~ lambda
}

TEST(Runner, ExternalPoolIsUsable) {
  const TempDir cache("extpool");
  par::ThreadPool pool(3);
  exp::RunnerOptions opts;
  opts.pool = &pool;
  opts.cache_dir = cache.path.string();
  opts.artifact_dir = "";
  exp::Runner runner(opts);
  const auto report = runner.run(small_spec());
  EXPECT_EQ(report.threads, 3u);
  EXPECT_EQ(report.results.size(), 4u);
}

TEST(ResultCache, CorruptEntryIsAMiss) {
  const TempDir dir("corrupt");
  const exp::ResultCache cache(dir.path.string());
  exp::JobResult r;
  r.has_estimate = true;
  r.est_sojourn = 1.5;
  cache.store("deadbeefdeadbeef", r);

  exp::JobResult loaded;
  EXPECT_TRUE(cache.load("deadbeefdeadbeef", loaded));
  EXPECT_EQ(loaded.est_sojourn, 1.5);

  // Truncate the magic line: the entry must be treated as a miss.
  std::ofstream f(dir.path / "deadbeefdeadbeef.job", std::ios::trunc);
  f << "garbage\n";
  f.close();
  exp::JobResult again;
  EXPECT_FALSE(cache.load("deadbeefdeadbeef", again));
}

TEST(ResultCache, TruncatedEntryIsQuarantinedAndRepairable) {
  const TempDir dir("truncated");
  const exp::ResultCache cache(dir.path.string());
  exp::JobResult r;
  r.has_estimate = true;
  r.est_sojourn = 2.25;
  cache.store("cafebabecafebabe", r);
  const auto path = dir.path / "cafebabecafebabe.job";

  // Cut the file mid-way, as a crash between write and rename never can
  // but a torn copy / disk fault could: the integrity footer is gone.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(content.size(), 10u);
  std::ofstream(path, std::ios::trunc | std::ios::binary)
      << content.substr(0, content.size() / 2);

  exp::JobResult loaded;
  EXPECT_FALSE(cache.load("cafebabecafebabe", loaded));
  EXPECT_EQ(cache.quarantined(), 1u);
  // The corrupt file was renamed aside for inspection, not left in place.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(dir.path / "cafebabecafebabe.job.quarantined"));

  // The slot is usable again: store + load round-trips.
  cache.store("cafebabecafebabe", r);
  EXPECT_TRUE(cache.load("cafebabecafebabe", loaded));
  EXPECT_EQ(loaded.est_sojourn, 2.25);
}

TEST(ResultCache, TamperedValueFailsTheFooter) {
  const TempDir dir("tampered");
  const exp::ResultCache cache(dir.path.string());
  exp::JobResult r;
  r.has_estimate = true;
  r.est_sojourn = 1.5;
  cache.store("0123456789abcdef", r);
  const auto path = dir.path / "0123456789abcdef.job";

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const auto pos = content.find("est_sojourn 1.5");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 15, "est_sojourn 9.5");
  std::ofstream(path, std::ios::trunc | std::ios::binary) << content;

  exp::JobResult loaded;
  EXPECT_FALSE(cache.load("0123456789abcdef", loaded));
  EXPECT_EQ(cache.quarantined(), 1u);
}

TEST(ResultCache, OlderFormatVersionIsAPlainMissNotQuarantine) {
  const TempDir dir("oldver");
  const exp::ResultCache cache(dir.path.string());
  const auto path = dir.path / "feedface01234567.job";
  fs::create_directories(dir.path);
  std::ofstream(path) << "lsm-job 2\nhas_estimate 1\nest_sojourn 1.5\n";

  // A stale-but-well-formed header is an ordinary miss: the entry is from
  // another format generation, not corrupt, so it is left alone.
  exp::JobResult loaded;
  EXPECT_FALSE(cache.load("feedface01234567", loaded));
  EXPECT_EQ(cache.quarantined(), 0u);
  EXPECT_TRUE(fs::exists(path));
}

TEST(ResultCache, DisabledCacheNeverHits) {
  const exp::ResultCache cache("");
  exp::JobResult r;
  cache.store("0123456789abcdef", r);  // no-op
  EXPECT_FALSE(cache.load("0123456789abcdef", r));
}

TEST(ResultCache, InjectedFaultsDegradeLoadAndFailStore) {
  struct InjectorGuard {
    ~InjectorGuard() { util::FaultInjector::instance().disarm(); }
  } guard;
  const TempDir dir("cache-faults");
  const exp::ResultCache cache(dir.path.string());
  exp::JobResult r;
  r.has_estimate = true;
  r.est_sojourn = 3.0;
  cache.store("abcdefabcdefabcd", r);

  auto& inj = util::FaultInjector::instance();
  // A load fault is a forced miss: the intact file stays on disk and is
  // readable again the moment the injector disarms.
  inj.configure(1, util::FaultProfile::parse("cache-load=1"));
  exp::JobResult loaded;
  EXPECT_FALSE(cache.load("abcdefabcdefabcd", loaded));
  EXPECT_TRUE(fs::exists(dir.path / "abcdefabcdefabcd.job"));
  EXPECT_EQ(cache.quarantined(), 0u);

  // A store fault throws the structured retryable Io failure.
  inj.configure(1, util::FaultProfile::parse("cache-store=1"));
  try {
    cache.store("abcdefabcdefabcd", r);
    FAIL() << "expected util::FailureError";
  } catch (const util::FailureError& e) {
    EXPECT_EQ(e.failure().kind, util::FailureKind::Io);
    EXPECT_TRUE(e.failure().retryable);
  }

  inj.disarm();
  EXPECT_TRUE(cache.load("abcdefabcdefabcd", loaded));
  EXPECT_EQ(loaded.est_sojourn, 3.0);
}

TEST(RunReport, LookupToleratesGridArithmeticLambdas) {
  exp::RunReport report;
  report.spec_name = "ulp";
  exp::JobResult r;
  r.label = "x";
  // The way λ grids are actually built: accumulated steps. Nine 0.1
  // increments land one ulp BELOW the 0.9 literal a caller passes.
  r.lambda = 0.0;
  for (int i = 0; i < 9; ++i) r.lambda += 0.1;
  r.has_estimate = true;
  r.est_sojourn = 1.25;
  report.results.push_back(r);
  ASSERT_NE(r.lambda, 0.9);  // the literal the caller will pass

  // Exact-equality lookup would throw here; the ulp-tolerant one finds it
  // from either representation.
  EXPECT_EQ(report.at("x", 0.9).est_sojourn, 1.25);
  EXPECT_EQ(report.at("x", r.lambda).est_sojourn, 1.25);
  EXPECT_EQ(report.estimate("x", 0.9), 1.25);
  // Distinct grid points still never alias.
  EXPECT_THROW((void)report.at("x", 0.8), util::Error);
  EXPECT_THROW((void)report.at("y", 0.9), util::Error);
}

// --- warm-chained λ sweeps ----------------------------------------------

/// Estimate-only spec over an ascending λ grid: the pure continuation
/// case the runner chains.
exp::ExperimentSpec est_sweep_spec() {
  exp::ExperimentSpec spec;
  spec.name = "exp_sweep_test";
  spec.lambdas = {0.5, 0.65, 0.8, 0.9};
  spec.fidelity = {2, 400.0, 50.0, "test"};
  spec.outputs.simulate = false;
  {
    exp::GridEntry e;
    e.label = "simple";
    e.model = "simple";
    e.simulate = false;
    spec.add(std::move(e));
  }
  {
    exp::GridEntry e;
    e.label = "t4";
    e.model = "threshold";
    e.params = {{"T", 4.0}};
    e.simulate = false;
    spec.add(std::move(e));
  }
  return spec;
}

TEST(ExperimentSpec, SolverIdentityIsPartOfTheKey) {
  const auto jobs = small_spec().expand();
  const auto& cold = jobs[3];  // estimate-only job
  ASSERT_TRUE(cold.estimate);

  auto warm = cold;
  warm.solver = "warm";
  warm.warm_chain = {0.5};
  EXPECT_NE(warm.key(), cold.key());

  // The whole chain prefix is hashed: different paths to the same λ must
  // never share a warm entry.
  auto longer = warm;
  longer.warm_chain = {0.4, 0.5};
  EXPECT_NE(longer.key(), warm.key());

  // Storing the converged state is part of the result's identity too.
  auto stateful = cold;
  stateful.outputs.store_state = true;
  EXPECT_NE(stateful.key(), cold.key());

  // Sim-only jobs have no solver, so solver fields must not perturb them.
  auto sim_only = jobs[0];
  sim_only.estimate = false;
  auto sim_warm = sim_only;
  sim_warm.solver = "warm";
  sim_warm.warm_chain = {0.5};
  EXPECT_EQ(sim_warm.key(), sim_only.key());
}

TEST(ResultCache, StateRoundTripsBitExact) {
  const TempDir dir("state");
  const exp::ResultCache cache(dir.path.string());
  exp::JobResult r;
  r.has_estimate = true;
  r.est_sojourn = 2.5;
  r.est_rhs_evals = 123;
  r.est_state = {1.0, 1.0 / 3.0, 0.1, 5.42101086242752217e-20, 1e-13};
  r.est_state_truncation = 48;
  cache.store("feedfacefeedface", r);

  exp::JobResult loaded;
  ASSERT_TRUE(cache.load("feedfacefeedface", loaded));
  EXPECT_EQ(loaded.est_state, r.est_state);  // bit-exact, not approximate
  EXPECT_EQ(loaded.est_state_truncation, 48u);
  EXPECT_EQ(loaded.est_rhs_evals, 123u);
}

TEST(Runner, ChecksMonotoneGridsOnlyWhereChainingApplies) {
  const TempDir cache("monotone");
  exp::Runner warm(options(cache, 2));
  auto spec = est_sweep_spec();
  spec.lambdas = {0.5, 0.8, 0.8};
  EXPECT_THROW((void)warm.run(spec), util::Error);
  spec.lambdas = {0.5, 0.8, 0.7};
  EXPECT_THROW((void)warm.run(spec), util::Error);
  spec.lambdas = {0.9, 0.7, 0.5};  // descending is a valid sweep
  EXPECT_NO_THROW((void)warm.run(spec));

  // Nothing chains without warm estimates: any λ order runs.
  const std::vector<double> unordered = {0.5, 0.8, 0.7};
  auto cold_spec = est_sweep_spec();
  cold_spec.lambdas = unordered;
  const auto cold = exp::Runner(options(cache, 2, false)).run(cold_spec);
  EXPECT_EQ(cold.failed_jobs, 0u);
  EXPECT_EQ(cold.results.size(), 6u);

  exp::ExperimentSpec sim_only;
  sim_only.name = "";
  sim_only.lambdas = unordered;
  sim_only.fidelity = {1, 200.0, 20.0, "test"};
  exp::GridEntry e;
  e.label = "steal";
  e.config.processors = 8;
  e.estimate = false;
  sim_only.add(std::move(e));
  const auto simulated = warm.run(sim_only);
  EXPECT_EQ(simulated.failed_jobs, 0u);
  EXPECT_EQ(simulated.results.size(), 3u);
}

TEST(SweepRunner, ManifestIsIdenticalAcrossPoolWidths) {
  std::string reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const TempDir cache("sweep-det" + std::to_string(threads));
    exp::Runner runner(options(cache, threads));
    const auto report = runner.run(est_sweep_spec());
    EXPECT_EQ(report.cache_misses, 8u);
    const std::string manifest =
        report.manifest(/*include_timing=*/false).dump(2);
    if (reference.empty()) {
      reference = manifest;
    } else {
      EXPECT_EQ(manifest, reference) << "threads=" << threads;
    }
  }
  // The chained points are marked as warm solves in the manifest config.
  EXPECT_NE(reference.find("\"mode\": \"warm\""), std::string::npos);
  EXPECT_NE(reference.find("\"mode\": \"cold\""), std::string::npos);
}

TEST(SweepRunner, WarmAgreesWithColdRunnerToTolerance) {
  const auto spec = est_sweep_spec();

  const TempDir warm_cache("sweep-warm");
  exp::Runner warm_runner(options(warm_cache, 2, true));
  const auto warm = warm_runner.run(spec);

  const TempDir cold_cache("sweep-cold");
  exp::Runner cold_runner(options(cold_cache, 2, false));
  const auto cold = cold_runner.run(spec);

  ASSERT_EQ(warm.results.size(), cold.results.size());
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    const auto& w = warm.results[i];
    const auto& c = cold.results[i];
    ASSERT_TRUE(w.has_estimate) << i;
    EXPECT_NEAR(w.est_sojourn, c.est_sojourn,
                1e-9 * std::max(1.0, std::abs(c.est_sojourn)))
        << w.label << " λ=" << w.lambda;
    // Chain heads run the standalone cold solve: bit-identical to the
    // cold run.
    if (w.lambda == spec.lambdas.front()) {
      EXPECT_EQ(w.est_sojourn, c.est_sojourn) << w.label;
    }
  }
}

TEST(Runner, ColdModeMatchesStandaloneSolveBitForBit) {
  const auto spec = est_sweep_spec();
  const auto jobs = spec.expand();
  const TempDir cache("cold-mode");
  const auto report = exp::Runner(options(cache, 2, false)).run(spec);

  ASSERT_EQ(report.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto model =
        core::make_model(jobs[i].model, jobs[i].lambda, jobs[i].params);
    const auto fp = core::solve_fixed_point(*model);
    const auto& r = report.results[i];
    EXPECT_EQ(r.est_sojourn, model->mean_sojourn(fp.state)) << i;
    EXPECT_EQ(r.est_rhs_evals, fp.rhs_evals) << i;
    // Cold points keep plain cold keys: no solver annotation, no state.
    EXPECT_EQ(r.key, jobs[i].key()) << i;
  }
}

TEST(SweepRunner, InterruptedSweepResumesWarmFromCache) {
  const TempDir cache("sweep-resume");

  // Uninterrupted reference, fresh cache each time.
  const TempDir ref_cache("sweep-ref");
  exp::Runner ref_runner(options(ref_cache, 2));
  const auto reference = ref_runner.run(est_sweep_spec());

  // "Interrupted" sweep: the first two λ of the same chains.
  auto prefix = est_sweep_spec();
  prefix.lambdas = {0.5, 0.65};
  exp::Runner first(options(cache, 2));
  const auto partial = first.run(prefix);
  EXPECT_EQ(partial.cache_misses, 4u);

  // Re-running the full grid hits the prefix (same warm keys) and solves
  // only the remaining points, warm-seeded from the cached states.
  exp::Runner second(options(cache, 2));
  const auto resumed = second.run(est_sweep_spec());
  EXPECT_EQ(resumed.cache_hits, 4u);
  EXPECT_EQ(resumed.cache_misses, 4u);
  for (std::size_t i = 0; i < resumed.results.size(); ++i) {
    // The cached seed is bit-exact but the Newton chord is rebuilt on
    // resume, so agreement is at polish accuracy, not bit-level.
    EXPECT_NEAR(resumed.results[i].est_sojourn,
                reference.results[i].est_sojourn, 1e-10)
        << i;
  }

  // A third run is pure cache.
  exp::Runner third(options(cache, 2));
  const auto replay = third.run(est_sweep_spec());
  EXPECT_EQ(replay.cache_hits, 8u);
  EXPECT_EQ(replay.cache_misses, 0u);
  for (std::size_t i = 0; i < replay.results.size(); ++i) {
    EXPECT_EQ(replay.results[i].est_sojourn, resumed.results[i].est_sojourn);
  }
}

TEST(SweepRunner, MixedSimAndEstimateEntriesMergeIntoOneReport) {
  const TempDir cache("sweep-mixed");
  auto spec = small_spec();  // one sim+est entry, one est-only entry
  exp::Runner runner(options(cache, 2));
  const auto report = runner.run(spec);

  ASSERT_EQ(report.results.size(), 4u);
  const auto& mixed = report.at("steal", 0.8);
  EXPECT_TRUE(mixed.has_sim);
  EXPECT_TRUE(mixed.has_estimate);
  EXPECT_GT(mixed.events, 0u);
  EXPECT_NEAR(report.sim("steal", 0.5), report.estimate("steal", 0.5), 0.25);

  // Second run: every half cached, nothing simulated.
  exp::Runner again(options(cache, 2));
  const auto warm = again.run(spec);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(warm.events_simulated, 0u);
  EXPECT_EQ(warm.sim("steal", 0.8), report.sim("steal", 0.8));
}

}  // namespace
