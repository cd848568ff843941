// The cache-replay layers, probed in serve_solve's traced run: a
// prefilled lsm_serve daemon answers light-model sweeps and estimates from
// its result cache, so socket, session, protocol, admission and
// cache-read layers do the work and the solver does none.
//
// A seeded Poisson open loop at a fixed rate over two connections times
// each request from when it was due; in-process probes then time the
// layers under the socket. Every point line must match the line recorded
// at prefill byte for byte, and every request must be an all-hit replay.
// Socket replays are not an end-to-end workload: on a shared 4-vCPU
// virtual machine their sub-0.1 ms latencies drifted by 30-40 % between
// minutes (perfbench/README.md).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "exp/cache.hpp"
#include "exp/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

/// Open-loop rate, requests/s over both connections: about a third of the
/// one-client closed-loop capacity measured on one CPU of a 4-vCPU x86-64
/// virtual machine (2800-4600 requests/s; perfbench/README.md). Fixed, so
/// every run and every commit sees the same offered load.
constexpr double kOpenLoopRate = 1000.0;
constexpr int kConnections = 2;

struct Entry {
  std::string verb;
  std::string model;
  Json params = Json::object();
  std::vector<double> lambdas;
};

Json params_of(std::initializer_list<std::pair<const char*, double>> kv) {
  Json p = Json::object();
  for (const auto& [k, v] : kv) p[k] = v;
  return p;
}

/// Eight light families, each as one 16-point sweep and three 1-point
/// estimates. The classes are fixed; the seed only jitters λ offsets, by
/// less than 1e-4 so that the prefill work hardly depends on it.
std::vector<Entry> catalogue(Rng& rng) {
  const std::vector<std::pair<std::string, Json>> families = {
      {"simple", params_of({})},
      {"threshold", params_of({{"T", 3}})},
      {"preemptive", params_of({{"B", 1}, {"T", 2}})},
      {"repeated", params_of({{"r", 1}})},
      {"multi-choice", params_of({{"d", 2}})},
      {"multi-steal", params_of({{"k", 2}})},
      {"sharing", params_of({{"S", 2}})},
      {"no-stealing", params_of({})},
  };
  std::vector<Entry> out;
  for (const auto& [model, params] : families) {
    Entry sweep{"sweep", model, params, {}};
    const double off = 1e-4 * rng.uniform();
    for (int k = 0; k < 16; ++k) sweep.lambdas.push_back(0.30 + 0.035 * k + off);
    out.push_back(sweep);
    for (const double base : {0.55, 0.70, 0.85}) {
      out.push_back(Entry{"estimate", model, params,
                          {base + 1e-4 * rng.uniform()}});
    }
  }
  return out;
}

std::string line_for(const Entry& e, const std::string& id) {
  return request_line(e.verb, id, e.model, e.params, e.lambdas);
}

/// A point line with its request id removed and cache_hit forced true, so
/// a replay compares byte for byte with the line of the original solve.
std::string normalize(const std::string& text, std::string_view id) {
  std::string out = text;
  const std::string tag = "\"id\":\"" + std::string(id) + "\",";
  if (const auto at = out.find(tag); at != std::string::npos) {
    out.erase(at, tag.size());
  }
  const std::string miss = "\"cache_hit\":false";
  if (const auto at = out.find(miss); at != std::string::npos) {
    out.replace(at, miss.size(), "\"cache_hit\":true");
  }
  return out;
}

/// Index after the '.' of an id "<phase><conn>.<n>".
std::size_t seq_of(std::string_view id) {
  const auto dot = id.find('.');
  return static_cast<std::size_t>(std::stoul(std::string(id.substr(dot + 1))));
}

struct Verdict {
  bool ok = false;
  bool rejected = false;
};

/// Checks one replayed request: every point line equals the reference,
/// and the done line reports an all-hit, failure-free stream.
Verdict verify(const std::vector<const Line*>& lines, std::string_view id,
               const Entry& entry, const std::vector<std::string>& ref,
               Outcome& out) {
  Verdict v;
  if (lines.empty() || !is_terminal(line_field(lines.back()->text, "type"))) {
    out.check(false, "request " + std::string(id) + " has no terminal line");
    return v;
  }
  const std::string_view type = line_field(lines.back()->text, "type");
  if (type == "rejected") {
    v.rejected = true;
    return v;
  }
  if (type != "done") {
    out.check(false, "request " + std::string(id) + " ended with " +
                         std::string(type));
    return v;
  }
  bool same = lines.size() == ref.size() + 1;
  for (std::size_t i = 0; same && i + 1 < lines.size(); ++i) {
    same = normalize(lines[i]->text, id) == ref[i];
  }
  out.check(same, "request " + std::string(id) + " (" + entry.model +
                      ") differs from its prefill lines");
  const Json done = Json::parse(lines.back()->text);
  const auto n = static_cast<std::int64_t>(entry.lambdas.size());
  const bool all_hits = done.at("points").as_int() == n &&
                        done.at("cache_hits").as_int() == n &&
                        done.at("failed").as_int() == 0;
  out.check(all_hits, "request " + std::string(id) + " was not an all-hit replay");
  v.ok = same && all_hits;
  return v;
}

/// Groups the lines of a phase by request sequence number.
std::vector<std::vector<const Line*>> by_request(const std::vector<Line>& lines,
                                                 std::size_t requests) {
  std::vector<std::vector<const Line*>> out(requests);
  for (const Line& l : lines) {
    const std::size_t seq = seq_of(line_field(l.text, "id"));
    if (seq < requests) out[seq].push_back(&l);
  }
  return out;
}

/// Request order for one connection: back-to-back seeded permutations of
/// the catalogue, so class proportions are exact in every prefix of
/// whole permutations.
std::vector<std::size_t> order(Rng& rng, std::size_t entries, std::size_t n) {
  std::vector<std::size_t> out;
  std::vector<std::size_t> perm(entries);
  while (out.size() < n) {
    for (std::size_t i = 0; i < entries; ++i) perm[i] = i;
    rng.shuffle(perm);
    out.insert(out.end(), perm.begin(), perm.end());
  }
  out.resize(n);
  return out;
}

struct LoopResult {
  std::vector<double> latency_ms;      ///< +inf for failed/rejected
  std::vector<double> lag_ms;          ///< open loop: send - due
  PhaseCount count;
};

class Replay {
 public:
  Replay(const Options& opts, Outcome& out)
      : opts_(opts), out_(out), rng_(opts.seed) {
    entries_ = catalogue(rng_);
  }

  /// Spawns a daemon on a fresh cache, prefills the catalogue (cold
  /// solves) and replays it once untimed.
  void setup() {
    cache_dir_ = opts_.work_dir + "/replay-cache";
    daemon_ = std::make_unique<Daemon>(opts_.serve_bin, opts_.work_dir + "/replay.sock",
                                       cache_dir_, opts_.work_dir + "/daemon.log");
    LineConn conn(daemon_->socket());
    ref_.assign(entries_.size(), {});
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const std::string id = "p." + std::to_string(i);
      const Call c = call(conn, id, line_for(entries_[i], id));
      const bool ok = !c.lines.empty() &&
                      line_field(c.lines.back().text, "type") == "done" &&
                      c.lines.size() == entries_[i].lambdas.size() + 1;
      out_.check(ok, "prefill of " + entries_[i].model + " failed");
      for (std::size_t j = 0; j + 1 < c.lines.size(); ++j) {
        out_.check(line_field(c.lines[j].text, "status") == "ok",
                   "prefill point of " + entries_[i].model + " failed");
        ref_[i].push_back(normalize(c.lines[j].text, id));
      }
    }
    // Untimed warm-up pass: the first replay, checked like the timed ones.
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const std::string id = "w." + std::to_string(i);
      const Call c = call(conn, id, line_for(entries_[i], id));
      std::vector<const Line*> lines;
      for (const Line& l : c.lines) lines.push_back(&l);
      (void)verify(lines, id, entries_[i], ref_[i], out_);
    }
  }

  /// Poisson arrivals at kOpenLoopRate split over two connections; each
  /// request is timed from when it was due.
  LoopResult open_loop(double seconds, const char* phase, Tracer& tracer) {
    struct Conn {
      std::unique_ptr<LineConn> conn;
      std::vector<std::size_t> entry;
      std::vector<std::string> request;
      std::vector<std::int64_t> due_ns;
      std::vector<std::atomic<std::int64_t>> sent_ns;
      std::vector<Line> lines;
      std::atomic<std::size_t> sent{0};
      std::atomic<bool> sender_done{false};
    };
    std::vector<std::unique_ptr<Conn>> conns;
    const double per_conn_rate = kOpenLoopRate / kConnections;
    const std::int64_t start = now_ns() + 20'000'000;  // 20 ms to settle
    for (int c = 0; c < kConnections; ++c) {
      auto k = std::make_unique<Conn>();
      k->conn = std::make_unique<LineConn>(daemon_->socket());
      double t = 0.0;
      std::vector<double> offsets;
      while ((t += rng_.exponential(per_conn_rate)) < seconds) offsets.push_back(t);
      k->entry = order(rng_, entries_.size(), offsets.size());
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        const std::string id =
            std::string(phase) + std::to_string(c) + "." + std::to_string(i);
        k->request.push_back(line_for(entries_[k->entry[i]], id));
        k->due_ns.push_back(start + static_cast<std::int64_t>(offsets[i] * 1e9));
      }
      k->sent_ns = std::vector<std::atomic<std::int64_t>>(offsets.size());
      k->lines.reserve(offsets.size() * 8);
      conns.push_back(std::move(k));
    }
    Threads threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn* k = conns[c].get();
      threads.spawn([k] {
        for (std::size_t i = 0; i < k->request.size(); ++i) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(k->due_ns[i])));
          k->sent_ns[i].store(now_ns(), std::memory_order_relaxed);
          k->conn->send(k->request[i]);
          k->sent.store(i + 1, std::memory_order_release);
        }
        k->sender_done.store(true, std::memory_order_release);
      });
      threads.spawn([k, c, &tracer] {
        std::size_t terminals = 0;
        std::string text;
        const std::int64_t give_up = k->due_ns.empty()
                                         ? now_ns()
                                         : k->due_ns.back() + 60'000'000'000LL;
        while (!(k->sender_done.load(std::memory_order_acquire) &&
                 terminals == k->sent.load(std::memory_order_acquire))) {
          if (now_ns() > give_up) break;
          if (!k->conn->read_line(text, 0.05)) continue;
          const std::int64_t t = now_ns();
          if (is_terminal(line_field(text, "type"))) {
            ++terminals;
            const std::size_t i = seq_of(line_field(text, "id"));
            if (i < k->due_ns.size()) {
              const std::uint64_t request = c << 32 | i;
              const auto root =
                  tracer.record("bench.request", k->due_ns[i], t, -1, request);
              tracer.record("serve.server",
                            k->sent_ns[i].load(std::memory_order_relaxed), t,
                            root, request);
            }
          }
          k->lines.push_back(Line{t, text});
        }
      });
    }
    threads.join();

    LoopResult r;
    r.count.name = "open_loop_traced";
    for (int c = 0; c < kConnections; ++c) {
      Conn& k = *conns[static_cast<std::size_t>(c)];
      const auto groups = by_request(k.lines, k.request.size());
      for (std::size_t i = 0; i < k.request.size(); ++i) {
        const std::string id =
            std::string(phase) + std::to_string(c) + "." + std::to_string(i);
        ++r.count.sent;
        r.lag_ms.push_back(ns_to_ms(k.sent_ns[i].load() - k.due_ns[i]));
        const Verdict v = verify(groups[i], id, entries_[k.entry[i]],
                                 ref_[k.entry[i]], out_);
        if (!v.ok) {
          ++(v.rejected ? r.count.rejected : r.count.failed);
          r.latency_ms.push_back(std::numeric_limits<double>::infinity());
          continue;
        }
        ++r.count.ok;
        const std::int64_t done = groups[i].back()->t_ns;
        r.latency_ms.push_back(ns_to_ms(done - k.due_ns[i]));
      }
    }
    return r;
  }

  /// Cache hits/misses/rejections the daemon has counted so far.
  struct Counters {
    double hits = 0, misses = 0, rejected = 0;
  };
  Counters counters() const {
    const Json s = daemon_->status();
    return {static_cast<double>(s.at("cache").at("hits").as_int()),
            static_cast<double>(s.at("cache").at("misses").as_int()),
            static_cast<double>(s.at("totals").at("rejected").as_int())};
  }

  struct Probe {
    double overhead_p50_ms = 0, queue_wait_p50_ms = 0, queue_wait_p99_ms = 0,
           exec_p50_ms = 0, hit_us_per_point = 0;
  };
  Probe probes(double seconds, Tracer& tracer);

  void finish() {
    daemon_->shutdown();
    daemon_.reset();
  }

 private:
  const Options& opts_;
  Outcome& out_;
  Rng rng_;
  std::vector<Entry> entries_;
  std::vector<std::vector<std::string>> ref_;  ///< normalized point lines
  std::unique_ptr<Daemon> daemon_;
  std::string cache_dir_;
};

/// In-process probes of the layers under the socket, on the daemon's own
/// prefilled cache: the service with and without the socket in front, the
/// sweep runner on a cache hit, and the protocol parser and encoder.
Replay::Probe Replay::probes(double seconds, Tracer& tracer) {
  Probe p;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    lines.push_back(line_for(entries_[i], "q." + std::to_string(i)));
  }

  // serve.protocol: parse_request on the catalogue's request lines.
  for (int rep = 0; rep < 50; ++rep) {
    for (const auto& l : lines) {
      ScopedSpan span(tracer, "serve.protocol.parse");
      (void)lsm::serve::parse_request(l);
    }
  }

  // exp.sweep: SweepRunner::run on the shared cache, configured the way
  // SweepService::run_request configures it (all hits).
  lsm::par::ThreadPool pool(2);
  const lsm::exp::ResultCache cache(cache_dir_);
  std::vector<lsm::exp::JobResult> results;
  std::uint64_t points = 0;
  double sweep_ms = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& l : lines) {
      const auto req = lsm::serve::parse_request(l);
      lsm::exp::ExperimentSpec spec;
      spec.lambdas = req.lambdas;
      spec.outputs.simulate = false;
      lsm::exp::GridEntry g;
      g.label = req.id;
      g.model = req.model;
      g.params = req.params;
      g.simulate = false;
      spec.add(std::move(g));
      lsm::exp::SweepOptions so;
      so.pool = &pool;
      so.cache = &cache;
      so.cache_dir = "";
      so.artifact_dir = "";
      so.on_failure = lsm::exp::OnFailure::Report;
      const std::int64_t t0 = now_ns();
      const auto report = [&] {
        ScopedSpan span(tracer, "exp.sweep");
        return lsm::exp::SweepRunner(so).run(spec);
      }();
      sweep_ms += ns_to_ms(now_ns() - t0);
      points += report.results.size();
      out_.check(report.cache_hits == report.results.size(),
                 "in-process sweep of " + req.model + " missed the cache");
      if (rep == 0) {
        results.insert(results.end(), report.results.begin(), report.results.end());
      }
    }
  }
  p.hit_us_per_point = 1e3 * sweep_ms / static_cast<double>(points);

  // serve.protocol: point_response + dump for every point line.
  for (int rep = 0; rep < 50; ++rep) {
    for (const auto& r : results) {
      ScopedSpan span(tracer, "serve.protocol.encode");
      (void)lsm::serve::point_response(r.label, r).dump();
    }
  }

  // serve.service: in-process SweepService on the same cache. Phase 1 is
  // sequential (per-request latency to compare with the socket); phase 2
  // is a Poisson open loop at the benchmark rate (queue wait under load).
  struct Timing {
    std::int64_t submit = 0, start = 0, done = 0;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::string, Timing> timing;
  lsm::serve::ServiceOptions so;
  so.solver_threads = 2;
  so.max_in_flight = 2;
  so.max_queued = 64;
  so.cache_dir = cache_dir_;
  so.on_start = [&](const lsm::serve::Request& req) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex);
    timing[req.id].start = t;
  };
  lsm::serve::SweepService service(so);
  auto submit = [&](const std::string& line) {
    auto req = lsm::serve::parse_request(line);
    const std::string id = req.id;
    {
      std::lock_guard<std::mutex> lock(mutex);
      timing[id].submit = now_ns();
    }
    service.submit(std::move(req), [&, id](const Json& j) {
      const std::string type = j.at("type").as_string();
      if (type == "done" || type == "error" || type == "rejected") {
        const std::int64_t t = now_ns();
        std::lock_guard<std::mutex> lock(mutex);
        timing[id].done = t;
        cv.notify_all();
      }
      return true;
    });
    return id;
  };
  auto wait_done = [&](const std::string& id) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return timing[id].done != 0; });
    return timing[id];
  };

  LineConn conn(daemon_->socket());
  std::vector<std::vector<double>> socket_ms(entries_.size());
  std::vector<std::vector<double>> inproc_ms(entries_.size());
  for (int rep = 0; rep < 10; ++rep) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const std::string sid = "s" + std::to_string(rep) + "." + std::to_string(i);
      const Call c = call(conn, sid, line_for(entries_[i], sid));
      socket_ms[i].push_back(ns_to_ms(c.lines.back().t_ns - c.sent_ns));
      const std::string iid = "i" + std::to_string(rep) + "." + std::to_string(i);
      const Timing t = wait_done(submit(line_for(entries_[i], iid)));
      inproc_ms[i].push_back(ns_to_ms(t.done - t.submit));
    }
  }
  std::vector<double> overhead;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    overhead.push_back(median(socket_ms[i]) - median(inproc_ms[i]));
  }
  p.overhead_p50_ms = median(overhead);

  // Open loop in process until the probe budget is spent (at least 1 s).
  const double left = std::max(1.0, ns_to_s(stop - now_ns()));
  std::vector<std::int64_t> due;
  std::vector<std::string> ids;
  double t = 0.0;
  const std::int64_t start = now_ns() + 10'000'000;
  const auto seq = order(rng_, entries_.size(), 1 << 16);
  while ((t += rng_.exponential(kOpenLoopRate)) < left && due.size() < seq.size()) {
    due.push_back(start + static_cast<std::int64_t>(t * 1e9));
  }
  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due[i])));
    ids.push_back(submit(line_for(entries_[seq[i]], "l." + std::to_string(i))));
  }
  service.drain();
  std::vector<double> wait_ms, exec_ms;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Timing tm = timing[ids[i]];
    wait_ms.push_back(ns_to_ms(tm.start - tm.submit));
    exec_ms.push_back(ns_to_ms(tm.done - tm.start));
    const auto root = tracer.record("serve.service", tm.submit, tm.done, -1, i);
    tracer.record("serve.service.queue", tm.submit, tm.start, root, i);
    tracer.record("serve.service.exec", tm.start, tm.done, root, i);
  }
  p.queue_wait_p50_ms = percentile(wait_ms, 0.50);
  p.queue_wait_p99_ms = percentile(wait_ms, 0.99);
  p.exec_p50_ms = percentile(exec_ms, 0.50);
  return p;
}

}  // namespace

void replay_layers(const Options& opts, double seconds, Tracer& tracer, Outcome& out) {
  Replay replay(opts, out);
  replay.setup();
  const auto before = replay.counters();
  const LoopResult open = replay.open_loop(seconds / 2, "o", tracer);
  out.attempted += open.count.sent;
  out.failed += open.count.failed + open.count.rejected;
  out.phases.push_back(open.count);
  const auto after = replay.counters();
  const auto probe = replay.probes(seconds / 2, tracer);
  const auto layers = tracer.layers();
  replay.finish();

  const double hits = after.hits - before.hits;
  const double misses = after.misses - before.misses;
  out.check(misses == 0, "the replay open loop missed the cache");
  out.set("serve.server.overhead_p50_ms", probe.overhead_p50_ms, "ms");
  out.set("serve.service.queue_wait_p50_ms", probe.queue_wait_p50_ms, "ms");
  out.set("serve.service.queue_wait_p99_ms", probe.queue_wait_p99_ms, "ms");
  out.set("serve.service.exec_p50_ms", probe.exec_p50_ms, "ms");
  out.set("serve.protocol.parse_us_per_request",
          1e3 * mean(layers.at("serve.protocol.parse").durations_ms), "us");
  out.set("serve.protocol.encode_us_per_line",
          1e3 * mean(layers.at("serve.protocol.encode").durations_ms), "us");
  out.set("exp.sweep.hit_us_per_point", probe.hit_us_per_point, "us");
  out.set("exp.cache.replay_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  out.set("serve.service.rejected", after.rejected - before.rejected, "count");
  out.set("bench.open_loop.latency_p50_ms", percentile(open.latency_ms, 0.50), "ms");
  out.set("bench.open_loop.latency_p99_ms", percentile(open.latency_ms, 0.99), "ms");
  out.set("bench.generator_lag_p99_ms", percentile(open.lag_ms, 0.99), "ms");
}

}  // namespace perfbench
