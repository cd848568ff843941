// serve_solve: one closed-loop client sends distinct cold sweeps to an
// lsm_serve daemon. The solver stack (core, ode) does the work; the serve
// layers do little.
//
// Each round spawns a fresh daemon, warms it up with sweeps below the
// timed grid, then sends the round's fixed request sequence on one
// connection. Every round sends the same sequence, so every round must
// cost exactly the same number of RHS evaluations. The daemon runs with
// its result cache off: writing one cache file per point cost 0.1-0.75 ms
// on the reference machine's filesystem, drifting over minutes, and made
// the light requests' latency swing by 2x between runs. Cache writes are
// timed in process instead (exp.cache.store_us_per_point). Traced runs
// also probe the cache-replay layers of a prefilled daemon
// (serve_replay.cpp).
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "bench.hpp"
#include "core/fixed_point.hpp"
#include "core/registry.hpp"
#include "core/threshold_ws.hpp"
#include "exp/cache.hpp"
#include "exp/sweep.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

namespace core = lsm::core;
namespace exp = lsm::exp;

struct SolveClass {
  const char* tag;  ///< metric suffix, e.g. core.model.ns_per_eval.<tag>
  const char* model;
  core::ModelParams params;
  double lo, hi;
  int points;
  int copies;  ///< requests of this class per round (distinct λ grids)
};

/// Every registry family. Light classes come three times per round with
/// 8-point grids. The stiff and phase-type classes come once or twice
/// with 6 points; the doubled phase-type classes put p90's rank inside
/// one class's samples instead of on a boundary between classes.
const std::vector<SolveClass>& classes() {
  static const std::vector<SolveClass> all = {
      {"no_stealing", "no-stealing", {}, 0.50, 0.85, 8, 3},
      {"simple", "simple", {}, 0.50, 0.85, 8, 3},
      {"threshold", "threshold", {{"T", 3}}, 0.50, 0.85, 8, 3},
      {"preemptive", "preemptive", {{"B", 1}, {"T", 2}}, 0.50, 0.85, 8, 3},
      {"repeated", "repeated", {{"r", 1}}, 0.50, 0.85, 8, 3},
      {"multi_choice", "multi-choice", {{"d", 2}}, 0.50, 0.85, 8, 3},
      {"multi_steal", "multi-steal", {{"k", 2}}, 0.50, 0.85, 8, 3},
      {"composed", "composed", {{"d", 2}, {"r", 0.5}}, 0.50, 0.85, 8, 3},
      {"rebalance", "rebalance", {{"r", 1}}, 0.50, 0.85, 8, 3},
      {"heterogeneous", "heterogeneous", {}, 0.50, 0.85, 8, 3},
      {"spawning", "spawning", {{"int", 0.05}}, 0.50, 0.85, 8, 3},
      {"sharing", "sharing", {{"S", 2}}, 0.50, 0.85, 8, 3},
      {"transfer", "transfer", {}, 0.50, 0.85, 8, 3},
      {"simple_hyperexp4", "simple", {{"service", "hyperexp:4"}}, 0.50, 0.85, 6, 2},
      {"sharing_hyperexp4", "sharing", {{"service", "hyperexp:4"}}, 0.50, 0.85, 6, 2},
      {"staged_transfer", "staged-transfer", {}, 0.50, 0.80, 6, 1},
      {"erlang_c10", "erlang", {{"c", 10}}, 0.50, 0.80, 6, 1},
  };
  return all;
}

/// Classes with fewer than three copies are the heavy ones.
bool heavy(const SolveClass& c) { return c.copies < 3; }

struct Request {
  std::size_t cls = 0;
  std::vector<double> lambdas;
};

Json params_json(const core::ModelParams& params) {
  Json p = Json::object();
  for (const auto& [k, v] : params) {
    if (v.is_text) {
      p[k] = v.text;
    } else {
      p[k] = v.number;
    }
  }
  return p;
}

std::string line_for(const Request& r, const std::string& id) {
  const SolveClass& c = classes()[r.cls];
  return request_line("sweep", id, c.model, params_json(c.params), r.lambdas);
}

/// The fixed catalogue with seeded λ jitter and order: copy j of a class
/// is offset by 0.004 j, so no two requests share a cache key, plus a
/// seeded jitter below 1e-4, small enough that the solver work hardly
/// depends on the seed. The seed shuffles the light requests;
/// the heavy ones keep fixed, evenly spaced slots in class order, so the
/// daemon's memory high-water mark does not depend on the seed.
std::vector<Request> catalogue(Rng& rng) {
  std::vector<Request> light, heavy_requests;
  for (std::size_t i = 0; i < classes().size(); ++i) {
    const SolveClass& c = classes()[i];
    for (int j = 0; j < c.copies; ++j) {
      Request r{i, {}};
      const double off = 0.004 * j + 1e-4 * rng.uniform();
      for (int k = 0; k < c.points; ++k) {
        r.lambdas.push_back(c.lo + (c.hi - c.lo) * k / (c.points - 1) + off);
      }
      (heavy(c) ? heavy_requests : light).push_back(std::move(r));
    }
  }
  rng.shuffle(light);
  std::vector<Request> out;
  const std::size_t stride = light.size() / heavy_requests.size();
  for (std::size_t h = 0; h < heavy_requests.size(); ++h) {
    for (std::size_t k = h * stride; k < (h + 1) * stride; ++k) out.push_back(light[k]);
    out.push_back(heavy_requests[h]);
  }
  for (std::size_t k = heavy_requests.size() * stride; k < light.size(); ++k) {
    out.push_back(light[k]);
  }
  return out;
}

/// What one request's stream reported.
struct Answer {
  bool ok = false;
  std::vector<double> sojourn;  ///< NaN for failed points
  std::vector<std::int64_t> rhs_evals;
  std::size_t failed_points = 0;
  std::string failed_kind;
  double latency_ms = 0.0;
  double first_point_ms = 0.0;
};

Answer read_answer(const Call& c, std::size_t points) {
  Answer a;
  a.latency_ms = ns_to_ms(c.lines.back().t_ns - c.sent_ns);
  a.first_point_ms = ns_to_ms(c.lines.front().t_ns - c.sent_ns);
  for (const Line& l : c.lines) {
    const Json j = Json::parse(l.text);
    const std::string type = j.at("type").as_string();
    if (type == "point") {
      if (j.at("status").as_string() == "ok") {
        a.sojourn.push_back(j.at("sojourn").as_double());
        a.rhs_evals.push_back(j.at("rhs_evals").as_int());
      } else {
        a.sojourn.push_back(std::nan(""));
        a.rhs_evals.push_back(0);
        ++a.failed_points;
        a.failed_kind = j.at("error").at("kind").as_string();
      }
    } else if (type == "done") {
      a.ok = j.at("points").as_int() == static_cast<std::int64_t>(points) &&
             j.at("failed").as_int() == 0 && a.sojourn.size() == points;
    }
  }
  return a;
}

bool close_to(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

struct Round {
  std::vector<Answer> answers;
  std::int64_t rhs_evals = 0;
  double seconds = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double hits = 0.0, misses = 0.0;
};

class Solve {
 public:
  Solve(const Options& opts, Outcome& out)
      : opts_(opts), out_(out), rng_(opts.seed) {
    requests_ = catalogue(rng_);
    for (std::size_t i = 0; i < classes().size(); ++i) {
      const double off = 1e-4 * rng_.uniform();
      warmup_.push_back(Request{i, {0.35 + off, 0.40 + off, 0.45 + off}});
    }
  }

  [[nodiscard]] const std::vector<Request>& requests() const { return requests_; }

  /// One round on a fresh daemon, warmed up by a 3-point sweep of every
  /// class below the timed grid (set-up). With `fault_id` set, that
  /// request's third point runs under the daemon's armed fault injector.
  Round round(std::size_t k, Tracer& tracer, const std::string& fault_id = "") {
    Round r;
    const std::int64_t t0 = now_ns();
    std::vector<std::string> env;
    if (!fault_id.empty()) {
      const std::size_t i = static_cast<std::size_t>(
          std::stoul(fault_id.substr(fault_id.find('.') + 1)));
      env = {"LSM_FAULT_SEED=7", "LSM_FAULT_PROFILE=job=1",
             "LSM_FAULT_ONLY=" + fault_id + "@" +
                 Json::number_to_string(requests_[i].lambdas[2]) + "/e"};
    }
    Daemon daemon(opts_.serve_bin,
                  opts_.work_dir + "/d" + std::to_string(k) + ".sock",
                  /*cache_dir=*/"", opts_.work_dir + "/daemon.log", env);
    LineConn conn(daemon.socket());
    for (std::size_t i = 0; i < warmup_.size(); ++i) {
      const std::string id = "w" + std::to_string(k) + "." + std::to_string(i);
      const Call c = call(conn, id, line_for(warmup_[i], id));
      out_.check(read_answer(c, warmup_[i].lambdas.size()).ok,
                 "warm-up sweep " + id + " failed");
    }
    r.setup_s = ns_to_s(now_ns() - t0);

    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const std::string id = "r" + std::to_string(k) + "." + std::to_string(i);
      const Call c = call(conn, id, line_for(requests_[i], id));
      const auto root = tracer.record("bench.request", c.sent_ns,
                                      c.lines.back().t_ns, -1, i);
      tracer.record("serve.server", c.sent_ns, c.lines.back().t_ns, root, i);
      r.answers.push_back(read_answer(c, requests_[i].lambdas.size()));
      for (const auto e : r.answers.back().rhs_evals) r.rhs_evals += e;
    }
    r.seconds = ns_to_s(now_ns() - start);
    const Json status = daemon.status();
    r.hits = static_cast<double>(status.at("cache").at("hits").as_int());
    r.misses = static_cast<double>(status.at("cache").at("misses").as_int());
    r.peak_rss_mb = daemon.peak_rss_mb();
    daemon.shutdown();
    return r;
  }

 private:
  const Options& opts_;
  Outcome& out_;
  Rng rng_;
  std::vector<Request> requests_;
  std::vector<Request> warmup_;
};

/// Replays every request in process: the continuation chain the daemon
/// runs (its answers must match bit for bit) and a cold
/// core::solve_fixed_point per point, plus the closed forms for
/// no-stealing and simple at 1e-9. Warm and cold must agree within 1e-9
/// where both reached polish accuracy (residual <= polish_tol), else
/// within the 1e-4 that tests/fixed_point_property_test.cpp allows a
/// solve short of it. Returns the points held to the looser bound.
std::size_t check_answers(const std::vector<Request>& requests, const Round& r,
                          Outcome& out) {
  struct Point {
    double warm, cold, closed;
    bool polished;
  };
  lsm::par::ThreadPool pool(2);
  const auto solved = lsm::par::parallel_map(pool, requests.size(), [&](std::size_t i) {
    const SolveClass& c = classes()[requests[i].cls];
    core::FixedPointContinuation chain;
    std::vector<Point> points;
    for (const double lambda : requests[i].lambdas) {
      const auto model = core::make_model(c.model, lambda, c.params);
      const auto warm = chain.solve(*model);
      const auto cold_model = core::make_model(c.model, lambda, c.params);
      const auto cold = core::solve_fixed_point(*cold_model);
      double closed = std::nan("");
      if (std::string(c.tag) == "no_stealing") closed = 1.0 / (1.0 - lambda);
      if (std::string(c.tag) == "simple") {
        closed = dynamic_cast<const core::ThresholdWS&>(*model).analytic_sojourn();
      }
      const double tol = core::FixedPointOptions{}.polish_tol;
      points.push_back({model->mean_sojourn(warm.state),
                        cold_model->mean_sojourn(cold.state), closed,
                        warm.polished && cold.polished && warm.residual <= tol &&
                            cold.residual <= tol});
    }
    return points;
  });
  std::size_t relaxed = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (std::size_t k = 0; k < requests[i].lambdas.size(); ++k) {
      const double got = r.answers[i].sojourn[k];
      if (std::isnan(got)) continue;
      const Point& p = solved[i][k];
      const std::string where = std::string(classes()[requests[i].cls].tag) +
                                " at lambda " +
                                Json::number_to_string(requests[i].lambdas[k]);
      out.check(got == p.warm, "sojourn of " + where +
                                   " differs from the in-process continuation");
      relaxed += p.polished ? 0 : 1;
      out.check(close_to(got, p.cold, p.polished ? 1e-9 : 1e-4),
                "sojourn of " + where + " differs from a cold solve");
      if (!std::isnan(p.closed)) {
        out.check(close_to(got, p.closed, 1e-9),
                  "sojourn of " + where + " differs from its closed form");
      }
    }
  }
  return relaxed;
}

/// In-process probes of the layers under the daemon: the sweep runner on
/// a fresh cache, cache stores, the continuation solver and the RHS
/// kernels at each class's converged state.
void probes(const std::vector<Request>& requests, const std::string& dir,
            std::int64_t daemon_evals, Tracer& tracer, Outcome& out) {
  lsm::par::ThreadPool pool(2);
  std::vector<exp::JobResult> results;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SolveClass& c = classes()[requests[i].cls];
    exp::ExperimentSpec spec;
    spec.lambdas = requests[i].lambdas;
    spec.outputs.simulate = false;
    exp::GridEntry g;
    g.label = "q" + std::to_string(i);
    g.model = c.model;
    g.params = c.params;
    g.simulate = false;
    spec.add(std::move(g));
    const exp::ResultCache cache(dir + "/sweep-" + std::to_string(i));
    exp::SweepOptions so;
    so.pool = &pool;
    so.cache = &cache;
    so.cache_dir = "";
    so.artifact_dir = "";
    so.on_failure = exp::OnFailure::Report;
    ScopedSpan span(tracer, "exp.sweep", -1, i);
    auto report = exp::SweepRunner(so).run(spec);
    results.insert(results.end(), report.results.begin(), report.results.end());
  }
  const exp::ResultCache store(dir + "/store");
  for (const auto& r : results) {
    ScopedSpan span(tracer, "exp.cache.store");
    store.store(r.key, r);
  }

  // The continuation chain each request's sweep runs, one span per point.
  struct ClassCost {
    double solve_ms = 0.0;
    double evals = 0.0;
    std::size_t points = 0;
    core::ModelParams params;
    double lambda = 0.0;
    lsm::ode::State state;
  };
  std::map<std::string, ClassCost> cost;
  std::int64_t evals = 0, iterations = 0, fallbacks = 0, warm_rejected = 0;
  std::size_t points = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SolveClass& c = classes()[requests[i].cls];
    core::FixedPointContinuation chain;
    for (const double lambda : requests[i].lambdas) {
      const auto model = core::make_model(c.model, lambda, c.params);
      const bool warm = chain.warm();
      const std::int64_t t0 = now_ns();
      const auto fp = chain.solve(*model);
      const std::int64_t t1 = now_ns();
      tracer.record("core.fixed_point", t0, t1, -1, i);
      ClassCost& cc = cost[c.tag];
      cc.solve_ms += ns_to_ms(t1 - t0);
      cc.evals += static_cast<double>(fp.rhs_evals);
      ++cc.points;
      cc.params = c.params;
      cc.lambda = lambda;
      cc.state = fp.state;
      evals += static_cast<std::int64_t>(fp.rhs_evals);
      iterations += static_cast<std::int64_t>(fp.iterations);
      fallbacks += fp.fellback ? 1 : 0;
      warm_rejected += warm && !fp.warm ? 1 : 0;
      ++points;
    }
  }
  out.check(evals == daemon_evals,
            "in-process continuation evals differ from the daemon's");

  // RHS kernel cost at each class's last converged state.
  double model_ms = 0.0;
  for (const SolveClass& c : classes()) {
    ClassCost& cc = cost[c.tag];
    const auto model = core::make_model(c.model, cc.lambda, cc.params);
    lsm::ode::State ds(cc.state.size());
    std::size_t n = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do {
      for (int rep = 0; rep < 64; ++rep) model->deriv(0.0, cc.state, ds);
      n += 64;
      t1 = now_ns();
    } while (t1 - t0 < 5'000'000);
    tracer.record("core.model", t0, t1);
    const double ns_per_eval = static_cast<double>(t1 - t0) / static_cast<double>(n);
    out.set(std::string("core.model.ns_per_eval.") + c.tag, ns_per_eval, "ns");
    model_ms += cc.evals * ns_per_eval * 1e-6;
  }

  const auto layers = tracer.layers();
  const double solve_ms = layers.at("core.fixed_point").total_ms;
  out.set("exp.sweep.run_ms_per_request", mean(layers.at("exp.sweep").durations_ms), "ms");
  out.set("exp.cache.store_us_per_point",
          1e3 * mean(layers.at("exp.cache.store").durations_ms), "us");
  out.set("core.fixed_point.ms_per_point", solve_ms / static_cast<double>(points), "ms");
  out.set("ode.self_ms_per_point", (solve_ms - model_ms) / static_cast<double>(points),
          "ms");
  out.set("core.fixed_point.rhs_evals", static_cast<double>(evals), "count");
  out.set("core.fixed_point.iterations", static_cast<double>(iterations), "count");
  out.set("core.fixed_point.fallbacks", static_cast<double>(fallbacks), "count");
  out.set("core.fixed_point.warm_rejected", static_cast<double>(warm_rejected), "count");
}

/// The rounds' best times (see best_times); a request's work is its
/// λ-points and its RHS evaluations.
Figures best_rounds(const std::vector<Round>& rounds, const Round& ref) {
  std::vector<std::vector<Timed>> times;
  for (const Round& r : rounds) {
    auto& t = times.emplace_back();
    for (const Answer& a : r.answers) {
      t.push_back({a.ok ? a.latency_ms : std::numeric_limits<double>::infinity(),
                   a.first_point_ms});
    }
  }
  std::vector<double> points, evals;
  for (const Answer& a : ref.answers) {
    points.push_back(static_cast<double>(a.sojourn.size()));
    double e = 0.0;
    for (const auto x : a.rhs_evals) e += static_cast<double>(x);
    evals.push_back(e);
  }
  return best_times(times, points, evals);
}

}  // namespace

Outcome run_serve_solve(const Options& opts, Tracer& tracer) {
  Outcome out;
  Solve solve(opts, out);
  const auto& requests = solve.requests();
  Tracer off(false);

  // Rounds until the timed share is spent: all of --seconds untraced, or
  // a quarter untraced plus a quarter traced (the rest goes to the replay
  // layers and the probes).
  std::vector<Round> rounds;
  std::vector<Round> traced;
  const double budget = opts.trace ? opts.seconds / 4.0 : opts.seconds;
  const std::string fault_id = opts.inject_fault ? "r0.0" : "";
  for (double spent = 0.0; spent < budget || rounds.empty();) {
    rounds.push_back(solve.round(rounds.size(), off, rounds.empty() ? fault_id : ""));
    spent += rounds.back().seconds;
  }
  if (opts.trace) {
    for (double spent = 0.0; spent < budget || traced.empty();) {
      traced.push_back(solve.round(rounds.size() + traced.size(), tracer));
      spent += traced.back().seconds;
    }
  }

  // Accounting and gates.
  std::vector<double> latency, setup, rss;
  const std::size_t clean_from = opts.inject_fault ? 1 : 0;
  for (const auto* set : {&rounds, &traced}) {
    PhaseCount phase{set == &rounds ? "rounds" : "rounds_traced", 0, 0, 0, 0};
    for (std::size_t k = 0; k < set->size(); ++k) {
      const Round& r = (*set)[k];
      for (std::size_t i = 0; i < r.answers.size(); ++i) {
        const Answer& a = r.answers[i];
        ++phase.sent;
        ++(a.ok ? phase.ok : phase.failed);
        if (set == &rounds) latency.push_back(a.latency_ms);
      }
      if (set == &rounds) {
        setup.push_back(r.setup_s);
        rss.push_back(r.peak_rss_mb);
      }
      out.check(r.hits == 0, "serve_solve hit the daemon's cache");
    }
    if (phase.sent == 0) continue;
    out.phases.push_back(phase);
    out.attempted += phase.sent;
    out.failed += phase.failed;
  }
  const Round& ref = rounds[clean_from < rounds.size() ? clean_from : 0];
  for (const auto* set : {&rounds, &traced}) {
    for (std::size_t k = 0; k < set->size(); ++k) {
      if (set == &rounds && k < clean_from) continue;
      const Round& r = (*set)[k];
      out.check(r.rhs_evals == ref.rhs_evals, "rounds differ in total rhs_evals");
      for (std::size_t i = 0; i < r.answers.size(); ++i) {
        out.check(r.answers[i].ok, "request " + std::to_string(i) + " failed");
        out.check(r.answers[i].sojourn == ref.answers[i].sojourn,
                  "rounds differ in the answer to request " + std::to_string(i));
      }
    }
  }
  if (opts.inject_fault) {
    // Exactly the armed point failed, as an injected job fault, and its
    // request was counted as failed.
    const Answer& a = rounds[0].answers[0];
    out.check(a.failed_points == 1 && a.failed_kind == "job-fault" && !a.ok &&
                  std::isnan(a.sojourn[2]) && out.failed == 1 &&
                  latency.size() == rounds.size() * requests.size(),
              "injected fault was not counted as exactly one failed request");
  } else {
    out.determinism["rhs_evals_per_round"] = ref.rhs_evals;
  }
  if (rounds.size() > clean_from) {
    const std::size_t unpolished = check_answers(requests, ref, out);
    if (!opts.inject_fault) out.determinism["unpolished_points"] = unpolished;
  }

  const Figures best = best_rounds(rounds, ref);
  if (!opts.trace) {
    out.set("latency_p50_ms", best.p50, "ms");
    out.set("latency_p90_ms", best.p90, "ms");
    out.set("latency_p99_ms", best.p99, "ms");
    out.set("first_point_p50_ms", best.first_point, "ms");
    out.set("throughput_per_s", best.throughput, "1/s");
    out.set("points_per_s", best.points, "1/s");
    out.set("events_per_s", best.events, "1/s");
    out.set("setup_s", median(setup), "s");
    out.set("peak_rss_mb", median(rss), "MiB");
    return out;
  }

  probes(requests, opts.work_dir + "/probe", ref.rhs_evals, tracer, out);
  replay_layers(opts, opts.seconds / 4.0, tracer, out);
  double hits = 0.0, misses = 0.0;
  for (const auto* set : {&rounds, &traced}) {
    for (const Round& r : *set) {
      hits += r.hits;
      misses += r.misses;
    }
  }
  out.set("exp.cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  out.set("trace.overhead_ratio",
          best_rounds(traced, ref).p50 / best.p50,
          "ratio");
  return out;
}

}  // namespace perfbench
