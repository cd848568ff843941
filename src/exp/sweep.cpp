#include "exp/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/fixed_point.hpp"
#include "parallel/parallel_for.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"

namespace lsm::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One half of a job's outputs (estimate or simulation), tagged with the
/// job's index in the report. Chains and sim points' replication units
/// compute partials concurrently; the merge back into spec order is
/// single-threaded.
///
/// Solver annotations ride along instead of being written into
/// report.jobs up front: a chain break (failed point) cold-restarts the
/// remainder of the chain, so which points actually ran warm — and under
/// which keys — is only known after the chain executed. The merge applies
/// them single-threaded, before any report key is derived.
struct Partial {
  std::size_t index = 0;
  JobResult r;
  bool annotate = false;  ///< apply solver/warm_chain to report.jobs
  std::string solver;
  std::vector<double> warm_chain;
};

/// The estimate-only cache identity of `job` (solver/warm_chain/
/// store_state annotations ride along from the report job).
Job estimate_part(const Job& job) {
  Job e = job;
  e.simulate = false;
  return e;
}

/// The simulation-only cache identity of `job`. The sim side never
/// depends on the solver, so the warm annotations are stripped: the same
/// replications hash identically whether the sweep runs warm or cold.
/// Solver budgets are estimate-side knobs and are stripped for the same
/// reason.
Job simulate_part(const Job& job) {
  Job s = job;
  s.estimate = false;
  s.solver = "cold";
  s.warm_chain.clear();
  s.outputs.store_state = false;
  s.max_rhs_evals = 0;
  s.max_wall_seconds = 0.0;
  return s;
}

/// True when the run's cancel flag is set.
bool cancelled(const SweepOptions& opts) {
  return opts.cancel != nullptr &&
         opts.cancel->load(std::memory_order_relaxed);
}

/// A Failed partial for a point skipped by cancellation. Never cached;
/// the merged report stays well-formed (hits + misses + failed == jobs).
Partial cancelled_partial(std::size_t index, const Job& job) {
  Partial p;
  p.index = index;
  p.r.label = job.label;
  p.r.lambda = job.lambda;
  p.r.status = JobStatus::Failed;
  p.r.error_kind = util::to_string(util::FailureKind::Cancelled);
  p.r.error = "cancelled: request cancelled before this point ran";
  return p;
}

/// Solves one entry's estimate jobs in λ order through a shared
/// continuation. A cache hit re-seeds the chain from the stored compact
/// state (bit-exact: the cache round-trips doubles losslessly), so a
/// resumed sweep's first miss solves warm from the same seed the
/// uninterrupted run would have used. The Newton chord (the dense LU, or
/// the banded factorization the Newton–Krylov polish preconditions with at
/// large dimensions) is not persisted — it is rebuilt on the first polish —
/// so a resumed point can differ from the uninterrupted one below the
/// polish tolerance, never above it.
std::vector<Partial> run_chain(const std::vector<std::size_t>& indices,
                               const std::vector<Job>& jobs,
                               const ResultCache& cache,
                               const SweepOptions& opts) {
  std::vector<Partial> out;
  out.reserve(indices.size());
  core::FixedPointContinuation chain;
  // λs of the live chain behind the next point. Cleared on a failed
  // point, so the remainder of the chain is keyed (and solved) cold —
  // a warm key must never claim a path through a point that never
  // produced state.
  std::vector<double> prefix;
  for (const std::size_t index : indices) {
    if (cancelled(opts)) {
      Partial p = cancelled_partial(index, jobs[index]);
      if (opts.on_point) opts.on_point(index, p.r);
      out.push_back(std::move(p));
      continue;
    }
    Job ejob = estimate_part(jobs[index]);
    if (opts.warm) {
      ejob.outputs.store_state = true;
      if (prefix.empty()) {
        ejob.solver = "cold";
        ejob.warm_chain.clear();
      } else {
        ejob.solver = "warm";
        ejob.warm_chain = prefix;
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    Partial p;
    p.index = index;
    p.annotate = opts.warm;
    p.solver = ejob.solver;
    p.warm_chain = ejob.warm_chain;
    p.r = detail::run_isolated(
        ejob, opts.on_failure, opts.retry, [&](std::uint64_t attempt) {
          JobResult r;
          r.label = ejob.label;
          r.lambda = ejob.lambda;
          r.key = ejob.key();
          // A warm-keyed entry without its stored state cannot seed the
          // chain; treat it as a miss and repair it in place.
          if (cache.load(r.key, r) &&
              (!opts.warm || !r.est_state.empty())) {
            r.cache_hit = true;
            if (opts.warm) chain.seed(r.est_state, r.est_state_truncation);
          } else {
            r = execute_job(ejob, {}, opts.warm ? &chain : nullptr, attempt);
            detail::store_quietly(cache, r.key, r);
          }
          return r;
        });
    p.r.wall_seconds = seconds_since(t0);
    if (p.r.status == JobStatus::Failed) {
      // The continuation already reset itself on the failed solve (and an
      // injected job fault fires before it ever runs); clearing the
      // prefix cold-restarts the rest of the chain.
      chain.reset();
      prefix.clear();
    } else if (opts.warm) {
      prefix.push_back(ejob.lambda);
    }
    if (opts.on_point) opts.on_point(index, p.r);
    out.push_back(std::move(p));
  }
  return out;
}

/// A simulated point that completes without running anything: cancelled
/// before it started, or answered by the cache. nullopt means it must be
/// simulated.
std::optional<Partial> settle_sim(std::size_t index, const Job& sjob,
                                  const ResultCache& cache,
                                  const SweepOptions& opts) {
  std::optional<Partial> p;
  if (cancelled(opts)) {
    p = cancelled_partial(index, sjob);
  } else if (auto hit = detail::load_cached(cache, sjob)) {
    p.emplace();
    p->index = index;
    p->r = std::move(*hit);
  }
  if (p && opts.on_point) opts.on_point(index, p->r);
  return p;
}

/// Unit k of a simulated point; the unit that completes the point returns
/// its partial.
std::vector<Partial> run_sim_unit(detail::JobShards& shards, std::size_t k,
                                  const ResultCache& cache,
                                  const SweepOptions& opts) {
  std::vector<Partial> out;
  if (!shards.run_unit(k, opts.cancel)) return out;
  Partial p;
  if (shards.cancelled()) {
    p = cancelled_partial(shards.index(), shards.job());
  } else {
    p.index = shards.index();
    p.r = shards.finish(cache, opts.on_failure, opts.retry);
  }
  if (opts.on_point) opts.on_point(p.index, p.r);
  out.push_back(std::move(p));
  return out;
}

}  // namespace

SweepSpec SweepSpec::from(ExperimentSpec spec) {
  const auto& ls = spec.lambdas;
  LSM_EXPECT(!ls.empty(), "sweep spec has no arrival rates");
  if (ls.size() > 1) {
    const bool ascending = ls[1] > ls[0];
    for (std::size_t i = 1; i < ls.size(); ++i) {
      if (ascending ? ls[i] <= ls[i - 1] : ls[i] >= ls[i - 1]) {
        throw util::Error("sweep spec '" + spec.name +
                          "': λ grid must be strictly monotone");
      }
    }
  }
  return {std::move(spec)};
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts)) {}

RunReport SweepRunner::run(const ExperimentSpec& spec) {
  return run(SweepSpec::from(spec));
}

RunReport SweepRunner::run(const SweepSpec& sweep) {
  const auto t0 = std::chrono::steady_clock::now();
  const ExperimentSpec& spec = sweep.spec;
  RunReport report;
  report.spec_name = spec.name;
  report.jobs = spec.expand();

  // Solver annotations (warm/cold + chain prefix) are NOT applied to
  // report.jobs here: a failed chain point cold-restarts the remainder,
  // so each chain decides its points' annotations as it executes and
  // carries them back in its partials. Keeping report.jobs immutable
  // during the parallel phase also keeps the sim units' reads race-free.
  const std::size_t n_lambdas = spec.lambdas.size();

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

  // Work units, entry by entry: each simulated point's replication units
  // (a point the cache answers, or one cancelled before it started,
  // completes here and schedules none), then the entry's estimate chain
  // (serial within, λ order). The units read disjoint report.jobs slots
  // and return partials, so any pool schedule produces the same merge.
  std::vector<Partial> settled;
  std::vector<std::unique_ptr<detail::JobShards>> sims;
  std::vector<std::function<std::vector<Partial>()>> units;
  for (std::size_t e = 0; e < spec.entries.size(); ++e) {
    const std::size_t base = e * n_lambdas;
    std::vector<std::size_t> chain_indices;
    for (std::size_t j = 0; j < n_lambdas; ++j) {
      const std::size_t index = base + j;
      if (report.jobs[index].estimate) chain_indices.push_back(index);
      if (!report.jobs[index].simulate) continue;
      Job sjob = simulate_part(report.jobs[index]);
      if (auto p = settle_sim(index, sjob, cache, opts_)) {
        settled.push_back(std::move(*p));
        continue;
      }
      sims.push_back(
          std::make_unique<detail::JobShards>(index, std::move(sjob)));
      for (std::size_t k = 0; k < sims.back()->units(); ++k) {
        units.emplace_back([&, shards = sims.back().get(), k] {
          return run_sim_unit(*shards, k, cache, opts_);
        });
      }
    }
    if (!chain_indices.empty()) {
      units.emplace_back([&, indices = std::move(chain_indices)] {
        return run_chain(indices, report.jobs, cache, opts_);
      });
    }
  }

  auto partials =
      par::parallel_map(*pool, units.size(),
                        [&](std::size_t i) { return units[i](); });
  // Settled sim halves merge first: per job, a sim half still merges
  // ahead of its estimate half, as the units are listed.
  partials.insert(partials.begin(), std::move(settled));

  // Apply the solver annotations each chain actually used, now that the
  // parallel phase is over — every report key derived below must reflect
  // how the point was really solved (a chain break demotes the remainder
  // to cold).
  for (const auto& bundle : partials) {
    for (const auto& p : bundle) {
      if (!p.annotate) continue;
      Job& job = report.jobs[p.index];
      job.outputs.store_state = true;
      job.solver = p.solver;
      job.warm_chain = p.warm_chain;
    }
  }

  // Merge partials back into one result per job, in spec order. A job
  // counts as a cache hit only when every half of it hit.
  report.results.resize(report.jobs.size());
  std::vector<std::size_t> parts(report.jobs.size(), 0);
  std::vector<std::size_t> hits(report.jobs.size(), 0);
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    JobResult& r = report.results[i];
    r.label = report.jobs[i].label;
    r.lambda = report.jobs[i].lambda;
    r.key = report.jobs[i].key();
  }
  for (const auto& bundle : partials) {
    for (const auto& p : bundle) {
      JobResult& dst = report.results[p.index];
      const JobResult& src = p.r;
      if (src.status == JobStatus::Failed) {
        // Either half failing fails the merged job; errors concatenate,
        // the first kind wins (it is the CSV slug).
        dst.status = JobStatus::Failed;
        if (!dst.error.empty()) dst.error += "; ";
        dst.error += src.error;
        if (dst.error_kind.empty()) dst.error_kind = src.error_kind;
      }
      dst.attempts = std::max(dst.attempts, src.attempts);
      if (src.has_estimate) {
        dst.has_estimate = true;
        dst.est_sojourn = src.est_sojourn;
        dst.est_mean_tasks = src.est_mean_tasks;
        dst.est_residual = src.est_residual;
        dst.est_tail = src.est_tail;
        dst.est_rhs_evals = src.est_rhs_evals;
        dst.est_state = src.est_state;
        dst.est_state_truncation = src.est_state_truncation;
      }
      if (src.has_sim) {
        dst.has_sim = true;
        dst.sim_sojourn = src.sim_sojourn;
        dst.sim_mean_tasks = src.sim_mean_tasks;
        dst.sim_tail = src.sim_tail;
        dst.steal_attempts = src.steal_attempts;
        dst.steal_successes = src.steal_successes;
        dst.tasks_moved = src.tasks_moved;
        dst.forwards = src.forwards;
        dst.message_rate = src.message_rate;
        dst.events = src.events;
      }
      dst.wall_seconds += src.wall_seconds;
      ++parts[p.index];
      if (src.cache_hit) ++hits[p.index];
    }
  }
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    report.results[i].cache_hit = parts[i] > 0 && hits[i] == parts[i];
  }

  report.wall_seconds = seconds_since(t0);
  detail::finalize_report(report, opts_.artifact_dir);
  return report;
}

}  // namespace lsm::exp
