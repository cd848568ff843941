#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/fixed_point.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/replicate.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/fault_injection.hpp"

namespace lsm::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// λ equality within a few ulps, so grid arithmetic (0.1 * 9) still finds
/// the 0.9 job while adjacent grid points (≥ 1e-3 apart in practice)
/// never alias.
bool lambda_matches(double a, double b) {
  const double eps = std::numeric_limits<double>::epsilon();
  return std::abs(a - b) <=
         4.0 * eps * std::max(std::abs(a), std::abs(b));
}

std::string format_rate(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

util::Json summary_json(const util::Summary& s) {
  auto j = util::Json::object();
  j["mean"] = s.mean;
  j["half_width"] = s.half_width;
  j["stddev"] = s.stddev;
  j["n"] = s.n;
  return j;
}

util::Json tail_json(const std::vector<double>& tail) {
  auto j = util::Json::array();
  for (const double v : tail) j.push_back(v);
  return j;
}

}  // namespace

std::string RunnerOptions::default_artifact_dir() {
  if (const char* v = std::getenv("LSM_ARTIFACTS")) return v;
  return ".lsm-artifacts";
}

OnFailure RunnerOptions::default_on_failure() {
  if (const char* v = std::getenv("LSM_ON_FAILURE")) {
    if (std::string(v) == "report") return OnFailure::Report;
  }
  return OnFailure::Abort;
}

JobResult execute_job(const Job& job, const Replications& reps,
                      core::FixedPointContinuation* chain,
                      std::uint64_t attempt) {
  {
    const auto& injector = util::FaultInjector::instance();
    if (injector.armed()) {
      const std::string ctx = job.fault_context();
      if (const double d = injector.injected_delay(ctx, attempt); d > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(d));
      }
      if (injector.should_fail(util::FaultSite::JobFault, ctx, attempt)) {
        util::Failure f;
        f.kind = util::FailureKind::JobFault;
        f.message = "injected job fault";
        f.context = ctx;
        f.retryable = true;
        throw util::FailureError(std::move(f));
      }
    }
  }
  JobResult r;
  r.label = job.label;
  r.lambda = job.lambda;
  r.key = job.key();

  if (job.estimate) {
    const auto model = core::make_model(job.model, job.lambda, job.params);
    // Per-job budgets (0 = unlimited: identical to the default options).
    core::FixedPointOptions fp_opts;
    fp_opts.max_rhs_evals = job.max_rhs_evals;
    fp_opts.max_wall_seconds = job.max_wall_seconds;
    const auto fp = chain != nullptr
                        ? chain->solve(*model, fp_opts)
                        : core::solve_fixed_point(*model, fp_opts);
    r.has_estimate = true;
    r.est_sojourn = model->mean_sojourn(fp.state);
    r.est_mean_tasks = model->mean_tasks(fp.state);
    r.est_residual = fp.residual;
    r.est_rhs_evals = fp.rhs_evals;
    if (job.outputs.tail_limit > 0) {
      const std::size_t n =
          std::min(job.outputs.tail_limit + 1, model->dimension());
      r.est_tail.assign(fp.state.begin(), fp.state.begin() + n);
    }
    if (job.outputs.store_state) {
      r.est_state = fp.compact_state;
      r.est_state_truncation = fp.final_truncation;
    }
  }

  if (job.simulate) {
    LSM_EXPECT(!reps.runs.empty(), "need at least one replication");
    // A replication is a pure function of (config, k), so a retried
    // attempt replays its stored outcome instead of simulating it again.
    for (const auto& e : reps.errors) {
      if (e) std::rethrow_exception(e);
    }
    const auto rep = sim::aggregate(reps.runs);
    r.has_sim = true;
    r.sim_sojourn = rep.sojourn;
    r.sim_mean_tasks = rep.mean_tasks;
    if (job.outputs.tail_limit > 0) {
      const std::size_t n =
          std::min(job.outputs.tail_limit + 1, rep.tail_fraction.size());
      r.sim_tail.assign(rep.tail_fraction.begin(),
                        rep.tail_fraction.begin() + n);
    }
    double rate = 0.0;
    for (const auto& run : reps.runs) {
      r.steal_attempts += run.steal_attempts;
      r.steal_successes += run.steal_successes;
      r.tasks_moved += run.tasks_moved;
      r.forwards += run.forwards;
      r.events += run.arrivals + run.completions + run.steal_attempts +
                  run.forwards;
      rate += run.message_rate(job.config.processors);
    }
    r.message_rate = rate / static_cast<double>(reps.runs.size());
  }
  return r;
}

Runner::Runner(RunnerOptions opts) : opts_(std::move(opts)) {}

RunReport Runner::run(const ExperimentSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  RunReport report;
  report.spec_name = spec.name;
  report.jobs = spec.expand();

  std::unique_ptr<par::ThreadPool> owned;
  par::ThreadPool* pool = opts_.pool;
  if (pool == nullptr) {
    owned = std::make_unique<par::ThreadPool>(
        opts_.threads > 0 ? opts_.threads : util::worker_threads());
    pool = owned.get();
  }
  report.threads = pool->size();

  const ResultCache local_cache(opts_.cache != nullptr ? ""
                                                       : opts_.cache_dir);
  const ResultCache& cache =
      opts_.cache != nullptr ? *opts_.cache : local_cache;

  // A cache hit completes here. Each miss becomes its JobShards units,
  // listed in job order, so the pool's in-order cursor finishes the
  // earliest jobs first.
  report.results.resize(report.jobs.size());
  std::vector<std::unique_ptr<detail::JobShards>> misses;
  std::vector<std::pair<detail::JobShards*, std::size_t>> units;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (auto hit = detail::load_cached(cache, report.jobs[i])) {
      report.results[i] = std::move(*hit);
      continue;
    }
    misses.push_back(std::make_unique<detail::JobShards>(i, report.jobs[i]));
    for (std::size_t k = 0; k < misses.back()->units(); ++k) {
      units.emplace_back(misses.back().get(), k);
    }
  }
  auto finished = par::parallel_map(
      *pool, units.size(), [&](std::size_t u) -> std::optional<JobResult> {
        const auto [shards, k] = units[u];
        if (!shards->run_unit(k)) return std::nullopt;
        return shards->finish(cache, opts_.on_failure, opts_.retry);
      });
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (finished[u]) {
      report.results[units[u].first->index()] = std::move(*finished[u]);
    }
  }

  report.wall_seconds = seconds_since(t0);
  detail::finalize_report(report, opts_.artifact_dir);
  return report;
}

std::optional<JobResult> detail::load_cached(const ResultCache& cache,
                                             const Job& job) {
  const auto t0 = std::chrono::steady_clock::now();
  JobResult r;
  r.label = job.label;
  r.lambda = job.lambda;
  r.key = job.key();
  if (!cache.load(r.key, r)) return std::nullopt;
  r.cache_hit = true;
  r.wall_seconds = seconds_since(t0);
  return r;
}

detail::JobShards::JobShards(std::size_t index, Job job)
    : index_(index), job_(std::move(job)) {
  const std::size_t replications = job_.simulate ? job_.replications : 0;
  reps_.runs.resize(replications);
  reps_.errors.resize(replications);
  // A job with nothing to replicate still needs one unit to finish it.
  units_ = std::max<std::size_t>(replications, 1);
  remaining_.store(units_, std::memory_order_relaxed);
}

bool detail::JobShards::run_unit(std::size_t k,
                                 const std::atomic<bool>* cancel) {
  if (!started_.exchange(true, std::memory_order_relaxed)) {
    t0_ = std::chrono::steady_clock::now();
  }
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    cancelled_.store(true, std::memory_order_relaxed);
  } else if (k < reps_.runs.size()) {
    try {
      reps_.runs[k] = sim::run_replication(job_.config, k);
    } catch (...) {
      reps_.errors[k] = std::current_exception();
    }
  }
  // acq_rel: the last unit sees every other unit's slot and t0_.
  return remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

JobResult detail::JobShards::finish(const ResultCache& cache,
                                    OnFailure on_failure,
                                    const RetryPolicy& retry) {
  JobResult r =
      run_isolated(job_, on_failure, retry, [&](std::uint64_t attempt) {
        JobResult out = execute_job(job_, reps_, nullptr, attempt);
        store_quietly(cache, out.key, out);
        return out;
      });
  reps_ = {};
  r.wall_seconds = seconds_since(t0_);
  return r;
}

JobResult detail::run_isolated(
    const Job& job, OnFailure on_failure, const RetryPolicy& retry,
    const std::function<JobResult(std::uint64_t)>& fn) {
  const std::size_t max_attempts = std::max<std::size_t>(retry.max_attempts, 1);
  double backoff = retry.initial_backoff_seconds;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      JobResult r = fn(attempt);
      r.attempts = static_cast<std::uint32_t>(attempt);
      return r;
    } catch (const std::exception& e) {
      util::Failure f = util::classify_exception(e);
      if (f.context.empty()) f.context = job.fault_context();
      if (f.retryable && attempt < max_attempts) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * retry.backoff_multiplier,
                           retry.max_backoff_seconds);
        continue;
      }
      if (on_failure == OnFailure::Abort) {
        f.message += " (job " + job.label +
                     " lambda=" + util::Json::number_to_string(job.lambda) +
                     ", attempt " + std::to_string(attempt) + ")";
        throw util::FailureError(std::move(f));
      }
      JobResult r;
      r.label = job.label;
      r.lambda = job.lambda;
      r.key = job.key();
      r.status = JobStatus::Failed;
      r.error = f.describe();
      r.error_kind = util::to_string(f.kind);
      r.attempts = static_cast<std::uint32_t>(attempt);
      return r;
    }
  }
}

void detail::store_quietly(const ResultCache& cache, const std::string& key,
                           const JobResult& result) {
  try {
    cache.store(key, result);
  } catch (const std::exception& e) {
    std::cerr << "warning: cache store failed for " << key << ": " << e.what()
              << "\n";
  }
}

void detail::write_atomic(const std::string& path,
                          const std::string& contents) {
  const auto& injector = util::FaultInjector::instance();
  if (injector.armed() &&
      injector.should_fail(util::FaultSite::ArtifactWrite, path)) {
    util::Failure f;
    f.kind = util::FailureKind::Io;
    f.message = "injected artifact-write fault";
    f.context = path;
    f.retryable = true;
    throw util::FailureError(std::move(f));
  }
  namespace fs = std::filesystem;
  const auto io_failure = [&path](const char* what) {
    util::Failure f;
    f.kind = util::FailureKind::Io;
    f.message = std::string(what) + " " + path;
    f.retryable = true;
    return util::FailureError(std::move(f));
  };
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
    if (!file) throw io_failure("cannot write");
    file << contents;
    file.flush();
    if (!file) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw io_failure("cannot write");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    throw io_failure("cannot publish");
  }
}

void detail::finalize_report(RunReport& report,
                             const std::string& artifact_dir) {
  for (const auto& r : report.results) {
    if (r.status == JobStatus::Failed) {
      ++report.failed_jobs;
    } else if (r.cache_hit) {
      ++report.cache_hits;
    } else {
      ++report.cache_misses;
      report.events_simulated += r.events;
    }
  }

  if (!artifact_dir.empty() && !report.spec_name.empty()) {
    // Artifacts are emitted after every job has been computed (and the
    // misses cached), so an artifact-side I/O failure must not discard
    // the run: degrade to a warning and record why in the report.
    try {
      namespace fs = std::filesystem;
      std::error_code ec;
      fs::create_directories(artifact_dir, ec);
      if (ec) {
        util::Failure f;
        f.kind = util::FailureKind::Io;
        f.message = "cannot create artifact dir " + artifact_dir;
        f.retryable = true;
        throw util::FailureError(std::move(f));
      }
      const auto manifest_path =
          fs::path(artifact_dir) / (report.spec_name + ".manifest.json");
      write_atomic(manifest_path.string(), report.manifest().dump(2) + "\n");
      report.manifest_path = manifest_path.string();

      const auto csv_path =
          fs::path(artifact_dir) / (report.spec_name + ".csv");
      std::ostringstream csv;
      report.table().write_csv(csv);
      write_atomic(csv_path.string(), csv.str());
      report.csv_path = csv_path.string();
    } catch (const std::exception& e) {
      report.artifact_error = e.what();
      std::cerr << "warning: run '" << report.spec_name
                << "': artifact emission failed: " << e.what() << "\n";
    }
  }
}

const JobResult& RunReport::at(const std::string& label,
                               double lambda) const {
  for (const auto& r : results) {
    if (r.label == label && lambda_matches(r.lambda, lambda)) return r;
  }
  throw util::Error("run '" + spec_name + "' has no job (" + label + ", " +
                    util::Json::number_to_string(lambda) + ")");
}

double RunReport::sim(const std::string& label, double lambda) const {
  const auto& r = at(label, lambda);
  if (r.status == JobStatus::Failed) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  LSM_EXPECT(r.has_sim, "job (" + label + ") has no simulation output");
  return r.sim_sojourn.mean;
}

double RunReport::estimate(const std::string& label, double lambda) const {
  const auto& r = at(label, lambda);
  if (r.status == JobStatus::Failed) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  LSM_EXPECT(r.has_estimate, "job (" + label + ") has no estimate output");
  return r.est_sojourn;
}

std::vector<const JobResult*> RunReport::failed() const {
  std::vector<const JobResult*> out;
  for (const auto& r : results) {
    if (r.status == JobStatus::Failed) out.push_back(&r);
  }
  return out;
}

util::Json RunReport::manifest(bool include_timing) const {
  auto doc = util::Json::object();
  doc["name"] = spec_name;

  auto jobs_json = util::Json::array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    auto j = util::Json::object();
    j["label"] = r.label;
    j["lambda"] = r.lambda;
    j["key"] = r.key;
    j["config"] = jobs[i].canonical();
    j["cache_hit"] = r.cache_hit;
    j["status"] = r.status == JobStatus::Failed ? "failed" : "ok";
    if (r.status == JobStatus::Failed) {
      auto err = util::Json::object();
      err["kind"] = r.error_kind;
      err["message"] = r.error;
      err["attempts"] = static_cast<std::size_t>(r.attempts);
      j["error"] = std::move(err);
    }
    if (r.has_estimate) {
      auto est = util::Json::object();
      est["sojourn"] = r.est_sojourn;
      est["mean_tasks"] = r.est_mean_tasks;
      est["residual"] = r.est_residual;
      est["rhs_evals"] = r.est_rhs_evals;
      if (!r.est_tail.empty()) est["tail"] = tail_json(r.est_tail);
      j["estimate"] = std::move(est);
    }
    if (r.has_sim) {
      auto sim = util::Json::object();
      sim["sojourn"] = summary_json(r.sim_sojourn);
      sim["mean_tasks"] = summary_json(r.sim_mean_tasks);
      if (!r.sim_tail.empty()) sim["tail"] = tail_json(r.sim_tail);
      auto steal = util::Json::object();
      steal["attempts"] = r.steal_attempts;
      steal["successes"] = r.steal_successes;
      steal["tasks_moved"] = r.tasks_moved;
      steal["forwards"] = r.forwards;
      steal["message_rate"] = r.message_rate;
      sim["steal"] = std::move(steal);
      j["sim"] = std::move(sim);
    }
    j["events"] = r.events;
    if (include_timing) {
      j["wall_seconds"] = r.wall_seconds;
      if (r.wall_seconds > 0.0 && r.events > 0 && !r.cache_hit) {
        j["events_per_second"] =
            static_cast<double>(r.events) / r.wall_seconds;
      }
    }
    jobs_json.push_back(std::move(j));
  }
  doc["jobs"] = std::move(jobs_json);

  auto agg = util::Json::object();
  agg["jobs"] = results.size();
  agg["cache_hits"] = cache_hits;
  agg["cache_misses"] = cache_misses;
  agg["failed"] = failed_jobs;
  agg["events_simulated"] = events_simulated;
  std::uint64_t attempts = 0, successes = 0, moved = 0, forwards = 0;
  for (const auto& r : results) {
    attempts += r.steal_attempts;
    successes += r.steal_successes;
    moved += r.tasks_moved;
    forwards += r.forwards;
  }
  auto steal = util::Json::object();
  steal["attempts"] = attempts;
  steal["successes"] = successes;
  steal["tasks_moved"] = moved;
  steal["forwards"] = forwards;
  agg["steal"] = std::move(steal);
  if (include_timing) {
    agg["threads"] = static_cast<std::size_t>(threads);
    agg["wall_seconds"] = wall_seconds;
    if (wall_seconds > 0.0) {
      agg["events_per_second"] =
          static_cast<double>(events_simulated) / wall_seconds;
    }
  }
  doc["run"] = std::move(agg);
  return doc;
}

util::Table RunReport::table() const {
  util::Table t({"label", "lambda", "status", "est_sojourn", "sim_sojourn",
                 "sim_half_width", "sim_stddev", "replications",
                 "sim_mean_tasks", "message_rate", "steal_attempts",
                 "steal_successes", "events", "wall_ms", "cache", "error"});
  for (const auto& r : results) {
    const auto num = [](double v) { return util::Json::number_to_string(v); };
    const bool failed = r.status == JobStatus::Failed;
    t.add_row({r.label, num(r.lambda), failed ? "failed" : "ok",
               r.has_estimate ? num(r.est_sojourn) : "",
               r.has_sim ? num(r.sim_sojourn.mean) : "",
               r.has_sim ? num(r.sim_sojourn.half_width) : "",
               r.has_sim ? num(r.sim_sojourn.stddev) : "",
               r.has_sim ? std::to_string(r.sim_sojourn.n) : "",
               r.has_sim ? num(r.sim_mean_tasks.mean) : "",
               r.has_sim ? num(r.message_rate) : "",
               std::to_string(r.steal_attempts),
               std::to_string(r.steal_successes), std::to_string(r.events),
               num(r.wall_seconds * 1e3), r.cache_hit ? "hit" : "miss",
               // The kind slug only: comma- and quote-free by
               // construction, so the CSV needs no escaping. The full
               // message lives in the manifest.
               failed ? r.error_kind : ""});
  }
  return t;
}

std::string RunReport::summary() const {
  std::string s = "runner: " + std::to_string(results.size()) + " jobs | " +
                  std::to_string(cache_hits) + " cached, " +
                  std::to_string(cache_misses) + " computed" +
                  (failed_jobs > 0
                       ? " | " + std::to_string(failed_jobs) + " failed"
                       : "") +
                  " | " +
                  format_rate(static_cast<double>(events_simulated)) +
                  " events in " + format_rate(wall_seconds) + " s";
  if (wall_seconds > 0.0 && events_simulated > 0) {
    s += " (" +
         format_rate(static_cast<double>(events_simulated) / wall_seconds) +
         " events/s, " + std::to_string(threads) + " threads)";
  }
  if (!manifest_path.empty()) s += " | manifest: " + manifest_path;
  return s;
}

}  // namespace lsm::exp
