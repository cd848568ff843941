// sim_replicate: table-1-shaped simulation replications through
// exp::Runner with caching off. The simulator and the thread pool do all
// the work; neither the solver nor the daemon runs in the timed phase.
//
// A request is one Runner::run over the three policies at one system size
// (λ = 0.9, three replications each) with one of two simulation seeds. One
// closed-loop client sends rounds of the same four requests (two sizes x
// two seeds) to a pool of two workers; each round is set up afresh.
// Horizons are chosen so that both sizes simulate a similar number of
// events; n = 128 keeps the engine state in L1/L2 and n = 4096 (about
// 1.3 MB) does not.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "bench.hpp"
#include "core/fixed_point.hpp"
#include "core/registry.hpp"
#include "exp/runner.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

namespace exp = lsm::exp;
namespace sim = lsm::sim;

constexpr double kLambda = 0.9;
constexpr std::size_t kReplications = 3;
constexpr std::size_t kSeeds = 2;
/// Relative gap allowed between the n = 4096 sojourn (by Little's law)
/// and the mean-field limit when the CI alone does not cover it. The
/// system starts empty and the warm-up is short, so the estimate sits
/// below the limit: over seeds 1-20 the gap was -2.0 % +- 1.1 % for
/// sharing (at most 4.5 %) and within 2.5 % for the other two policies
/// (perfbench/README.md). 6 % is 3.8 standard deviations past the
/// sharing mean.
constexpr double kMeanFieldGap = 0.06;

struct Policy {
  const char* tag;
  sim::StealPolicy policy;
  const char* model;  ///< mean-field counterpart
  lsm::core::ModelParams params;
};

const std::vector<Policy>& policies() {
  static const std::vector<Policy> all = {
      {"on_empty", sim::StealPolicy::on_empty(2), "simple", {}},
      {"sharing", sim::StealPolicy::sharing(2), "sharing", {{"S", 2}}},
      {"preemptive", sim::StealPolicy::preemptive(1, 2), "preemptive",
       {{"B", 1}, {"T", 2}}},
  };
  return all;
}

struct Size {
  std::size_t n;
  double horizon;
  double warmup;
};

/// Same warm-up for both sizes; n = 128 runs 32x longer so both sizes do
/// a similar number of events per replication.
const std::vector<Size>& sizes() {
  static const std::vector<Size> all = {{128, 32 * 120.0, 100.0},
                                        {4096, 120.0, 100.0}};
  return all;
}

exp::ExperimentSpec spec_for(const Size& size, std::uint64_t seed,
                             std::size_t replications) {
  exp::ExperimentSpec spec;
  spec.name = "";
  spec.lambdas = {kLambda};
  spec.fidelity.horizon = size.horizon;
  spec.fidelity.warmup = size.warmup;
  spec.replications = replications;
  spec.seed = seed;
  spec.outputs.fixed_point = false;
  for (const Policy& p : policies()) {
    exp::GridEntry e;
    e.label = p.tag;
    e.config.processors = size.n;
    e.config.policy = p.policy;
    e.estimate = false;
    spec.add(std::move(e));
  }
  return spec;
}

exp::RunnerOptions runner_options(lsm::par::ThreadPool& pool) {
  exp::RunnerOptions o;
  o.pool = &pool;
  o.cache_dir = "";
  o.artifact_dir = "";
  o.on_failure = exp::OnFailure::Report;
  return o;
}

/// One request of a round: a size and a simulation seed.
struct Request {
  std::size_t size = 0;  ///< index into sizes()
  std::uint64_t seed = 0;
};

/// What one round of requests measured.
struct Round {
  std::vector<Timed> times;            ///< per request
  std::vector<std::uint64_t> events;   ///< per request
  double busy_s = 0.0;                 ///< sum of job wall times
  double seconds = 0.0;
};

/// The rounds' best times (see best_times); a request's work is its jobs
/// and its simulation events.
Figures best_rounds(const std::vector<Round>& rounds) {
  std::vector<std::vector<Timed>> times;
  for (const Round& r : rounds) times.push_back(r.times);
  const std::vector<std::uint64_t>& events = rounds.front().events;
  return best_times(times, std::vector<double>(events.size(), policies().size()),
                    std::vector<double>(events.begin(), events.end()));
}

}  // namespace

Outcome run_sim_replicate(const Options& opts, Tracer& tracer) {
  Outcome out;
  Rng rng(opts.seed);
  const std::uint64_t sim_seed = 1 + opts.seed * 1000003ULL;

  // Set-up, before every round: the pool, the mean-field expectations the
  // n = 4096 results are checked against, and one untimed one-replication
  // request at n = 4096. The set-ups are spread over the run like the
  // rounds are, so a slow stretch of the host moves few of them.
  std::unique_ptr<lsm::par::ThreadPool> pool;
  std::vector<double> setup_s;
  std::vector<double> expected;
  auto setup = [&] {
    pool.reset();
    const std::int64_t t0 = now_ns();
    pool = std::make_unique<lsm::par::ThreadPool>(2);
    expected.clear();
    for (const Policy& p : policies()) {
      const auto model = lsm::core::make_model(p.model, kLambda, p.params);
      expected.push_back(model->mean_sojourn(lsm::core::solve_fixed_point(*model).state));
    }
    (void)exp::Runner(runner_options(*pool)).run(spec_for(sizes()[1], sim_seed + 17, 1));
    setup_s.push_back(ns_to_s(now_ns() - t0));
  };

  // The round: every size with every seed, in a seeded order.
  std::vector<Request> requests;
  for (std::size_t si = 0; si < sizes().size(); ++si) {
    for (std::size_t k = 0; k < kSeeds; ++k) requests.push_back({si, sim_seed + k});
  }
  rng.shuffle(requests);
  std::vector<exp::ExperimentSpec> specs;
  for (const Request& r : requests) {
    specs.push_back(spec_for(sizes()[r.size], r.seed, kReplications));
  }

  // Gates on one request: no failed job, and the n = 4096 sojourns agree
  // with the mean-field limit. Events here are simulation events:
  // arrivals + completions + steal attempts + forwards.
  auto check = [&](const Request& req, const exp::RunReport& report) {
    out.check(report.failed_jobs == 0, "a simulation job failed");
    if (sizes()[req.size].n != 4096) return;
    // Little's law on the time-averaged task count: the sojourn mean of a
    // short window is biased low by tasks still in the system at the
    // horizon, the task count is not.
    for (std::size_t p = 0; p < policies().size(); ++p) {
      const auto& tasks = report.results[p].sim_mean_tasks;
      const double sojourn = tasks.mean / kLambda;
      const double gap = std::abs(sojourn - expected[p]);
      out.check(gap <= std::max(3.0 * tasks.half_width / kLambda,
                                kMeanFieldGap * expected[p]),
                std::string("n=4096 ") + policies()[p].tag + " sojourn " +
                    Json::number_to_string(sojourn) +
                    " is far from the mean-field limit " +
                    Json::number_to_string(expected[p]));
    }
  };

  // One round on a fresh set-up. The client records an exp.runner span
  // per request while the round runs (nothing on a disabled tracer).
  PhaseCount untraced_count{"rounds", 0, 0, 0, 0};
  PhaseCount traced_count{"rounds_traced", 0, 0, 0, 0};
  auto round = [&](Tracer& spans, PhaseCount& count) {
    setup();
    exp::Runner runner(runner_options(*pool));
    Round r;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto span = spans.begin("exp.runner", -1, i);
      const std::int64_t t0 = now_ns();
      const exp::RunReport report = runner.run(specs[i]);
      const std::int64_t t1 = now_ns();
      spans.end(span);
      const bool ok = report.failed_jobs == 0;
      ++count.sent;
      ++(ok ? count.ok : count.failed);
      check(requests[i], report);
      std::uint64_t events = 0;
      double shortest = std::numeric_limits<double>::infinity();
      for (const auto& job : report.results) {
        events += job.events;
        shortest = std::min(shortest, job.wall_seconds);
        r.busy_s += job.wall_seconds;
      }
      r.times.push_back({ok ? ns_to_ms(t1 - t0) : std::numeric_limits<double>::infinity(),
                         1e3 * shortest});
      r.events.push_back(events);
    }
    r.seconds = ns_to_s(now_ns() - start);
    return r;
  };

  // Rounds until the timed share is spent: all of --seconds untraced, or
  // a third untraced plus a third traced (the rest goes to probes).
  Tracer off(false);
  std::vector<Round> untraced, traced;
  const double budget = opts.trace ? opts.seconds / 3.0 : opts.seconds;
  for (double spent = 0.0; spent < budget || untraced.empty();) {
    untraced.push_back(round(off, untraced_count));
    spent += untraced.back().seconds + setup_s.back();
  }
  if (opts.trace) {
    for (double spent = 0.0; spent < budget || traced.empty();) {
      traced.push_back(round(tracer, traced_count));
      spent += traced.back().seconds + setup_s.back();
    }
  }
  for (const PhaseCount* count : {&untraced_count, &traced_count}) {
    if (count->sent == 0) continue;
    out.phases.push_back(*count);
    out.attempted += count->sent;
    out.failed += count->failed;
  }

  // Every request simulates the same events in every round, and (via the
  // determinism line) across runs of one seed and build.
  std::vector<std::uint64_t> events_of = untraced.front().events;
  for (const auto* set : {&untraced, &traced}) {
    for (const Round& r : *set) {
      out.check(r.events == events_of, "a request's events differ between rounds");
    }
  }
  Json det = Json::object();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    det["events_n" + std::to_string(sizes()[requests[i].size].n) + "_seed" +
        std::to_string(requests[i].seed - sim_seed)] = events_of[i];
  }
  out.determinism = std::move(det);

  const Figures best = best_rounds(untraced);
  if (!opts.trace) {
    out.set("latency_p50_ms", best.p50, "ms");
    out.set("latency_p90_ms", best.p90, "ms");
    out.set("latency_p99_ms", best.p99, "ms");
    out.set("first_point_p50_ms", best.first_point, "ms");
    out.set("throughput_per_s", best.throughput, "1/s");
    out.set("points_per_s", best.points, "1/s");
    out.set("events_per_s", best.events, "1/s");
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", vm_hwm_mb("self"), "MiB");
    return out;
  }

  // Probes: one replication of every configuration, timed directly.
  for (std::size_t si = 0; si < sizes().size(); ++si) {
    const Size& size = sizes()[si];
    for (const Policy& p : policies()) {
      sim::SimConfig cfg;
      cfg.processors = size.n;
      cfg.arrival_rate = kLambda;
      cfg.policy = p.policy;
      cfg.horizon = size.horizon;
      cfg.warmup = size.warmup;
      cfg.seed = sim_seed;
      const std::int64_t t0 = now_ns();
      const sim::SimResult r = sim::simulate(cfg);
      const std::int64_t t1 = now_ns();
      tracer.record("sim.simulate", t0, t1, -1, si);
      const double ev = static_cast<double>(r.arrivals + r.completions +
                                            r.steal_attempts + r.forwards);
      out.set(std::string("sim.simulate.ns_per_event.") + p.tag + "_n" +
                  std::to_string(size.n),
              static_cast<double>(t1 - t0) / ev, "ns");
      if (&p == &policies().front()) {
        out.set("sim.engine.bytes_per_proc.n" + std::to_string(size.n),
                static_cast<double>(r.engine_bytes) / static_cast<double>(size.n),
                "B");
      }
    }
  }
  double busy_s = 0.0, traced_s = 0.0;
  for (const Round& r : traced) {
    busy_s += r.busy_s;
    traced_s += r.seconds;
  }
  double sim_events = 0.0;
  for (const auto e : events_of) sim_events += static_cast<double>(e);
  out.set("parallel.pool.busy_ratio", busy_s / (2.0 * traced_s), "ratio");
  out.set("sim.events", sim_events, "count");
  out.set("trace.overhead_ratio",
          best_rounds(traced).p50 / best.p50, "ratio");
  return out;
}

}  // namespace perfbench
