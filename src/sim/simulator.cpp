#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "sim/calendar.hpp"
#include "sim/event_queue.hpp"
#include "sim/queue_arena.hpp"
#include "util/error.hpp"
#include "util/statistics.hpp"

namespace lsm::sim {

double SimResult::sojourn_percentile(double p) const {
  LSM_EXPECT(!sojourn_samples.empty(),
             "enable SimConfig::collect_sojourns for percentiles");
  return util::percentile(sojourn_samples, p);
}

void SimConfig::validate() const {
  LSM_EXPECT(processors >= 1, "need at least one processor");
  LSM_EXPECT(arrival_rate >= 0.0 && internal_rate >= 0.0,
             "arrival rates must be non-negative");
  LSM_EXPECT(horizon > 0.0, "horizon must be positive");
  LSM_EXPECT(warmup >= 0.0 && warmup < horizon,
             "warmup must lie inside the horizon");
  if (!speed_groups.empty()) {
    std::size_t covered = 0;
    for (const auto& g : speed_groups) {
      LSM_EXPECT(g.speed > 0.0, "group speeds must be positive");
      covered += g.count;
    }
    LSM_EXPECT(covered == processors,
               "speed_groups must cover every processor exactly once");
  }
  LSM_EXPECT(loaded_count <= processors, "loaded_count exceeds processors");
  LSM_EXPECT(histogram_limit >= 2, "histogram too small to be useful");
  policy.validate();
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Spill events: the rare, cancellable kinds. Arrivals and completions —
/// the two streams that dominate event volume — live in the sharded
/// per-processor calendar instead and never pass through this queue.
enum class Ev : std::uint8_t {
  Retry,
  TransferArrive,
  Rebalance,
};

struct Payload {
  Ev kind;
  std::uint32_t proc;
  std::uint32_t stamp;  // generation stamp for cancellable events
};

/// Time-averaged tail histogram: one AGGREGATE accumulator per level,
/// lazily folded so each load change costs O(|delta|) instead of
/// O(levels). Deliberately not sharded: O(histogram_limit) doubles total
/// (never O(n·limit)), and a single event-ordered accumulation stream is
/// what keeps tail_fraction bit-identical across shard counts — a
/// per-shard float merge would reorder the rounding.
class TailStats {
 public:
  TailStats(std::size_t processors, std::size_t limit)
      : count_ge_(limit + 1, 0),
        acc_(limit + 1, 0.0),
        last_t_(limit + 1, 0.0),
        limit_(limit) {
    count_ge_[0] = static_cast<std::uint32_t>(processors);
  }

  /// Current number of processors with load >= i.
  [[nodiscard]] std::uint32_t count_ge(std::size_t i) const noexcept {
    return count_ge_[std::min(i, limit_)];
  }

  void change(std::size_t old_load, std::size_t new_load, double t) {
    const std::size_t a = std::min(old_load, limit_);
    const std::size_t b = std::min(new_load, limit_);
    if (a < b) {
      for (std::size_t i = a + 1; i <= b; ++i) bump(i, t, +1);
    } else {
      for (std::size_t i = b + 1; i <= a; ++i) bump(i, t, -1);
    }
  }

  void reset(double t) {
    std::fill(acc_.begin(), acc_.end(), 0.0);
    std::fill(last_t_.begin(), last_t_.end(), t);
  }

  /// Folds outstanding time up to t and returns time-averaged fractions.
  [[nodiscard]] std::vector<double> finalize(double t, double start,
                                             std::size_t processors) {
    std::vector<double> out(limit_ + 1, 0.0);
    const double span = t - start;
    if (span <= 0.0) return out;
    for (std::size_t i = 0; i <= limit_; ++i) {
      acc_[i] += count_ge_[i] * (t - last_t_[i]);
      last_t_[i] = t;
      out[i] = acc_[i] / (span * static_cast<double>(processors));
    }
    return out;
  }

  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return count_ge_.capacity() * sizeof(std::uint32_t) +
           (acc_.capacity() + last_t_.capacity()) * sizeof(double);
  }

 private:
  void bump(std::size_t i, double t, int delta) {
    acc_[i] += count_ge_[i] * (t - last_t_[i]);
    last_t_[i] = t;
    count_ge_[i] = static_cast<std::uint32_t>(
        static_cast<int>(count_ge_[i]) + delta);
  }

  std::vector<std::uint32_t> count_ge_;
  std::vector<double> acc_;
  std::vector<double> last_t_;
  std::size_t limit_;
};

/// Structure-of-arrays engine state: one shared queue arena, flat
/// per-processor arrays allocated only when the configuration needs them
/// (speeds, transfer buffers, cancellation stamps), and a sharded dual
/// calendar — no per-processor heap objects anywhere. The old
/// array-of-Proc layout cost ~200 bytes and 2+ heap blocks per
/// processor; this one runs n = 10^6 inside ~80 bytes/processor.
class Engine {
 public:
  Engine(const SimConfig& cfg, util::Xoshiro256 rng)
      : cfg_(cfg),
        n_(cfg.processors),
        rng_(rng),
        queues_(cfg.processors),
        cal_(cfg.processors, cfg.shard_count),
        tails_(cfg.processors, cfg.histogram_limit) {
    if (!cfg_.speed_groups.empty()) {
      speed_.assign(n_, 1.0);
      std::size_t p = 0;
      for (const auto& group : cfg_.speed_groups) {
        for (std::size_t k = 0; k < group.count; ++k) {
          speed_[p++] = group.speed;
        }
      }
    }
    const StealPolicy& pol = cfg_.policy;
    if (pol.transfer != StealPolicy::Transfer::Instant) {
      waiting_.assign(n_, 0);
      inflight_.resize(n_);
    }
    if (pol.retry_rate > 0.0) retry_stamp_.assign(n_, 0);
    if (pol.kind == StealPolicy::Kind::Rebalance && pol.rebalance_rate > 0.0) {
      rebalance_stamp_.assign(n_, 0);
    }
    if (cfg_.collect_sojourn_histogram) {
      shard_hists_.assign(cal_.shards(), SojournHistogram(true));
    }
    // Hoisted inverse rates: one division at setup instead of one per
    // event. The quotients are the exact doubles the per-event divisions
    // produced, so every sampled value is bit-identical.
    mean_interarrival_ = cfg_.arrival_rate + cfg_.internal_rate > 0.0
                             ? 1.0 / (cfg_.arrival_rate + cfg_.internal_rate)
                             : 0.0;
    if (pol.retry_rate > 0.0) mean_retry_ = 1.0 / pol.retry_rate;
    if (pol.rebalance_rate > 0.0) mean_rebalance_ = 1.0 / pol.rebalance_rate;
    if (pol.transfer_stages > 0) {
      transfer_stage_mean_ =
          pol.transfer_mean / static_cast<double>(pol.transfer_stages);
    }
  }

  SimResult run() {
    seed_initial_load();
    seed_arrivals();
    const double horizon = cfg_.horizon;
    double now = 0.0;
    bool hit_horizon = false;
    double next_sample = cfg_.timeline_dt > 0.0 ? 0.0 : horizon + 1.0;
    // Merge loop: the sharded calendar's root is the least (time, seq)
    // over every arrival/completion slot; comparing it against the spill
    // top reproduces exactly the pop order of one shared heap (all
    // streams draw from one global sequence counter).
    for (;;) {
      enum class Src : std::uint8_t { None, Arrival, Completion, Spill };
      ShardedCalendar::Key next = cal_.top_key();
      Src src = next.time < kInf
                    ? (cal_.top_stream() == ShardedCalendar::kArrival
                           ? Src::Arrival
                           : Src::Completion)
                    : Src::None;
      if (!spill_.empty()) {
        const auto& se = spill_.top();
        if ((ShardedCalendar::Key{se.time, se.seq}).before(next)) {
          next = ShardedCalendar::Key{se.time, se.seq};
          src = Src::Spill;
        }
      }
      if (src == Src::None) break;  // drained
      const double t_next = next.time;
      if (t_next > horizon) {
        hit_horizon = true;  // state stays frozen from `now` to the horizon
        break;
      }
      // State is constant between events: snapshot any sample instants
      // that the next event will jump over.
      while (next_sample <= t_next && next_sample <= horizon) {
        record_timeline(next_sample);
        next_sample += cfg_.timeline_dt;
      }
      if (!warmup_done_ && t_next >= cfg_.warmup) begin_measurement();
      now = t_next;
      switch (src) {
        case Src::Arrival:
          on_arrival(cal_.top_proc(), now);
          break;
        case Src::Completion: {
          // Fused re-key: the fired slot is left in place while the
          // handler runs; if the processor starts another service (next
          // queued task, or an instant steal), start_service re-keys the
          // same slot with one replay — otherwise it is cleared here.
          // This halves the calendar traffic on the busy path versus
          // clear-then-set.
          const std::uint32_t p = cal_.top_proc();
          pending_clear_ = p;
          on_completion(p, now);
          if (pending_clear_ != kNoProc) {
            cal_.clear(pending_clear_, ShardedCalendar::kCompletion);
          }
          pending_clear_ = kNoProc;
          break;
        }
        case Src::Spill: {
          const auto entry = spill_.pop();
          dispatch_spill(entry.payload, now);
          break;
        }
        case Src::None:
          break;
      }
    }
    if (hit_horizon) {
      while (next_sample <= horizon) {  // frozen state up to the horizon
        record_timeline(next_sample);
        next_sample += cfg_.timeline_dt;
      }
    } else if (cfg_.timeline_dt > 0.0 && next_sample <= horizon) {
      record_timeline(now);  // drained: close the series, don't pad to 1e6
    }
    if (!warmup_done_) begin_measurement();
    const double end = hit_horizon ? horizon : std::max(now, cfg_.warmup);
    finalize(end);
    return std::move(result_);
  }

 private:
  // --- setup -------------------------------------------------------------

  void seed_initial_load() {
    for (std::size_t p = 0; p < cfg_.loaded_count; ++p) {
      const auto pid = static_cast<std::uint32_t>(p);
      for (std::size_t k = 0; k < cfg_.initial_tasks; ++k) {
        queues_.push_back(pid, 0.0);
      }
      total_tasks_ += cfg_.initial_tasks;
      result_.initial_tasks += cfg_.initial_tasks;
      tails_.change(0, cfg_.initial_tasks, 0.0);
      if (!queues_.empty(pid)) {
        start_service(pid, 0.0);
        on_became_busy(pid, 0.0);
      }
    }
  }

  void seed_arrivals() {
    max_rate_ = cfg_.arrival_rate + cfg_.internal_rate;
    if (max_rate_ <= 0.0) return;
    // Thinning acceptance ratio while idle, hoisted from the per-arrival
    // division rate_now / max_rate_ (identical operands, identical bits).
    thin_while_idle_ = cfg_.internal_rate > 0.0;
    idle_accept_ = cfg_.arrival_rate / max_rate_;
    for (std::uint32_t p = 0; p < n_; ++p) {
      cal_.set(p, ShardedCalendar::kArrival, rng_.exponential(mean_interarrival_),
               next_seq_++);
    }
  }

  // --- measurement bookkeeping --------------------------------------------

  void begin_measurement() {
    warmup_done_ = true;
    tails_.reset(cfg_.warmup);
    tasks_acc_ = 0.0;
    tasks_last_t_ = cfg_.warmup;
  }

  void note_tasks_change(std::int64_t delta, double t) {
    tasks_acc_ += static_cast<double>(total_tasks_) * (t - tasks_last_t_);
    tasks_last_t_ = t;
    total_tasks_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(total_tasks_) + delta);
  }

  void record_timeline(double t) {
    const auto n = static_cast<double>(n_);
    result_.timeline.push_back(
        {t, static_cast<double>(total_tasks_) / n,
         static_cast<double>(tails_.count_ge(1)) / n});
  }

  void note_queue_grew(std::uint32_t p) {
    if (warmup_done_) {
      result_.max_queue = std::max(result_.max_queue, queues_.size(p));
    }
  }

  void finalize(double end) {
    const double start = cfg_.warmup;
    result_.measured_time = std::max(end - start, 0.0);
    result_.tail_fraction = tails_.finalize(end, start, n_);
    tasks_acc_ += static_cast<double>(total_tasks_) * (end - tasks_last_t_);
    result_.mean_tasks =
        result_.measured_time > 0.0
            ? tasks_acc_ / (result_.measured_time * static_cast<double>(n_))
            : 0.0;
    result_.drain_time = last_completion_;
    result_.tasks_remaining = total_tasks_;
    for (const auto& h : shard_hists_) result_.sojourn_hist.merge(h);
    result_.shards_used = cal_.shards();
    result_.engine_bytes = resident_bytes();
  }

  /// Engine-owned heap state (excludes result buffers): the number the
  /// scale-out memory budget is accounted against.
  [[nodiscard]] std::uint64_t resident_bytes() const {
    std::uint64_t bytes = queues_.resident_bytes() + cal_.resident_bytes() +
                          tails_.resident_bytes();
    bytes += speed_.capacity() * sizeof(double);
    bytes += waiting_.capacity() * sizeof(std::uint8_t);
    bytes += (retry_stamp_.capacity() + rebalance_stamp_.capacity()) *
             sizeof(std::uint32_t);
    bytes += inflight_.capacity() * sizeof(std::vector<double>);
    for (const auto& v : inflight_) bytes += v.capacity() * sizeof(double);
    bytes += spill_.size() * sizeof(EventQueue<Payload>::Entry);
    bytes += scratch_.capacity() * sizeof(double);
    for (const auto& h : shard_hists_) bytes += h.resident_bytes();
    return bytes;
  }

  // --- event dispatch ------------------------------------------------------

  void dispatch_spill(const Payload& ev, double t) {
    switch (ev.kind) {
      case Ev::Retry:
        on_retry(ev.proc, ev.stamp, t);
        break;
      case Ev::TransferArrive:
        on_transfer_arrive(ev.proc, t);
        break;
      case Ev::Rebalance:
        on_rebalance(ev.proc, ev.stamp, t);
        break;
    }
  }

  void on_arrival(std::uint32_t p, double t) {
    // Each processor owns a Poisson stream at the maximum rate; thinning
    // yields the load-dependent rate lambda_ext + [busy] lambda_int. The
    // stream's slot is re-keyed in place: one replay instead of pop + push.
    cal_.set(p, ShardedCalendar::kArrival,
             t + rng_.exponential(mean_interarrival_), next_seq_++);
    if (thin_while_idle_ && queues_.empty(p) &&
        rng_.uniform() >= idle_accept_) {
      return;  // thinned away
    }
    ++result_.arrivals;
    // Sender-initiated sharing: an arrival hitting a loaded processor is
    // forwarded once to a uniformly random processor.
    std::uint32_t dest = p;
    if (cfg_.policy.kind == StealPolicy::Kind::Share &&
        queues_.size(p) >= cfg_.policy.threshold && n_ > 1) {
      ++result_.forwards;
      if (warmup_done_) ++result_.control_messages_measured;
      dest = random_victim(p);  // a self-pick keeps the task local
      if (dest != p) ++result_.tasks_moved;
    }
    const std::size_t old_load = queues_.size(dest);
    queues_.push_back(dest, t);
    note_tasks_change(+1, t);
    note_queue_grew(dest);
    tails_.change(old_load, old_load + 1, t);
    invalidate_retries(dest);
    if (old_load == 0) {
      start_service(dest, t);
      on_became_busy(dest, t);
    }
  }

  void on_completion(std::uint32_t p, double t) {
    LSM_ASSERT(!queues_.empty(p));
    const double arrived = queues_.front(p);
    queues_.pop_front(p);
    const std::size_t load = queues_.size(p);
    note_tasks_change(-1, t);
    tails_.change(load + 1, load, t);
    ++result_.completions;
    last_completion_ = t;
    if (warmup_done_ && arrived >= cfg_.warmup) {
      result_.sojourn.add(t - arrived);
      if (cfg_.collect_sojourns) {
        result_.sojourn_samples.push_back(t - arrived);
      }
      if (!shard_hists_.empty()) {
        shard_hists_[cal_.shard_of(p)].add(t - arrived);
      }
    }
    if (!queues_.empty(p)) {
      start_service(p, t);
    } else {
      on_became_idle(p);
    }
    // Post-completion stealing.
    switch (cfg_.policy.kind) {
      case StealPolicy::Kind::OnEmpty:
        if (load == 0 && !is_waiting(p)) {
          if (!attempt_steal(p, 0, t) && cfg_.policy.retry_rate > 0.0) {
            schedule_retry(p, t);
          }
        }
        break;
      case StealPolicy::Kind::Preemptive:
        if (load <= cfg_.policy.begin_steal && !is_waiting(p)) {
          const bool ok = attempt_steal(p, load, t);
          // Composed policies keep retrying while idle (load 0 only).
          if (!ok && load == 0 && cfg_.policy.retry_rate > 0.0) {
            schedule_retry(p, t);
          }
        }
        break;
      case StealPolicy::Kind::None:
      case StealPolicy::Kind::Rebalance:
      case StealPolicy::Kind::Share:
        break;
    }
  }

  void on_retry(std::uint32_t p, std::uint32_t stamp, double t) {
    if (stamp != retry_stamp_[p]) return;  // stale
    if (!queues_.empty(p) || is_waiting(p)) return;
    if (!attempt_steal(p, 0, t)) schedule_retry(p, t);
  }

  void on_transfer_arrive(std::uint32_t p, double t) {
    LSM_ASSERT(waiting_[p]);
    waiting_[p] = 0;
    auto& inflight = inflight_[p];
    const std::size_t old_load = queues_.size(p);
    for (double arrived : inflight) queues_.push_back(p, arrived);
    const std::size_t gained = inflight.size();
    inflight.clear();
    note_queue_grew(p);
    tails_.change(old_load, old_load + gained, t);
    invalidate_retries(p);
    if (old_load == 0 && gained > 0) {
      start_service(p, t);
      on_became_busy(p, t);
    }
  }

  void on_rebalance(std::uint32_t p, std::uint32_t stamp, double t) {
    if (stamp != rebalance_stamp_[p]) return;  // stale
    if (queues_.empty(p)) return;
    if (n_ > 1) {
      const auto q = random_victim(p);
      if (q != p) rebalance_pair(p, q, t);
    }
    // Still busy (an even split never empties a busy initiator).
    LSM_ASSERT(!queues_.empty(p));
    schedule_rebalance(p, t);
  }

  // --- stealing ------------------------------------------------------------

  /// One steal attempt by processor p whose current load is thief_load.
  /// Returns true if tasks were (or began being) transferred.
  bool attempt_steal(std::uint32_t p, std::size_t thief_load, double t) {
    if (n_ <= 1) return false;
    ++result_.steal_attempts;
    if (warmup_done_) ++result_.control_messages_measured;
    const StealPolicy& pol = cfg_.policy;
    // Probe d uniformly random victims; keep the most loaded. A probe of
    // the thief itself counts as a failed probe (load comparison below).
    std::uint32_t best = p;
    std::size_t best_load = 0;
    for (std::size_t probe = 0; probe < pol.choices; ++probe) {
      const std::uint32_t v = random_victim(p);
      if (v == p) continue;
      const std::size_t load = queues_.size(v);
      if (best == p || load > best_load) {
        best = v;
        best_load = load;
      }
    }
    if (best == p) return false;  // every probe hit the thief itself
    const std::size_t need = pol.kind == StealPolicy::Kind::Preemptive
                                 ? thief_load + pol.threshold
                                 : pol.threshold;
    if (best_load < need) return false;
    ++result_.steal_successes;
    const std::size_t take = std::min(pol.steal_count, best_load - 1);
    move_tasks(best, p, take, t);
    return true;
  }

  /// Moves `take` tasks from the tail of victim to thief (instantly or via
  /// a transfer, per policy). Uses the engine's scratch buffer; no
  /// steady-state allocation.
  void move_tasks(std::uint32_t victim, std::uint32_t thief, std::size_t take,
                  double t) {
    LSM_ASSERT(take >= 1 && queues_.size(victim) > take);
    result_.tasks_moved += take;
    const std::size_t vic_load = queues_.size(victim);
    scratch_.clear();
    queues_.take_back(victim, take, scratch_);
    tails_.change(vic_load, vic_load - take, t);

    if (cfg_.policy.transfer == StealPolicy::Transfer::Instant) {
      const std::size_t old_load = queues_.size(thief);
      for (double arrived : scratch_) queues_.push_back(thief, arrived);
      note_queue_grew(thief);
      tails_.change(old_load, old_load + take, t);
      invalidate_retries(thief);
      if (old_load == 0) {
        start_service(thief, t);
        on_became_busy(thief, t);
      }
    } else {
      inflight_[thief].assign(scratch_.begin(), scratch_.end());
      waiting_[thief] = 1;
      invalidate_retries(thief);
      push_spill(t + sample_transfer(), Payload{Ev::TransferArrive, thief, 0});
    }
  }

  void rebalance_pair(std::uint32_t a, std::uint32_t b, double t) {
    const std::size_t la = queues_.size(a);
    const std::size_t lb = queues_.size(b);
    if (la == lb) return;
    const std::uint32_t donor = la > lb ? a : b;
    const std::uint32_t recv = la > lb ? b : a;
    const std::size_t total = la + lb;
    // Initially-larger processor keeps the ceiling of the even split.
    const std::size_t donor_after = (total + 1) / 2;
    const std::size_t donor_before = std::max(la, lb);
    if (donor_before <= donor_after) return;  // already balanced
    const std::size_t take = donor_before - donor_after;

    result_.tasks_moved += take;
    scratch_.clear();
    queues_.take_back(donor, take, scratch_);
    tails_.change(donor_before, donor_after, t);

    const std::size_t recv_before = queues_.size(recv);
    for (double arrived : scratch_) queues_.push_back(recv, arrived);
    note_queue_grew(recv);
    tails_.change(recv_before, recv_before + take, t);
    invalidate_retries(recv);
    if (recv_before == 0) {
      start_service(recv, t);
      on_became_busy(recv, t);
    }
  }

  // --- scheduling helpers ----------------------------------------------------

  void push_spill(double time, Payload payload) {
    spill_.push_with_seq(time, next_seq_++, payload);
  }

  [[nodiscard]] double sample_transfer() {
    switch (cfg_.policy.transfer) {
      case StealPolicy::Transfer::Exponential:
        return rng_.exponential(cfg_.policy.transfer_mean);
      case StealPolicy::Transfer::Constant:
        return cfg_.policy.transfer_mean;
      case StealPolicy::Transfer::Erlang: {
        double acc = 0.0;
        for (std::size_t m = 0; m < cfg_.policy.transfer_stages; ++m) {
          acc += rng_.exponential(transfer_stage_mean_);
        }
        return acc;
      }
      case StealPolicy::Transfer::Instant:
        break;
    }
    LSM_ASSERT(false);
    return 0.0;
  }

  void start_service(std::uint32_t p, double t) {
    LSM_ASSERT(!queues_.empty(p));
    double duration = cfg_.service.sample(rng_);
    if (!speed_.empty() && speed_[p] != 1.0) duration /= speed_[p];
    if (p == pending_clear_) pending_clear_ = kNoProc;  // fused re-key
    cal_.set(p, ShardedCalendar::kCompletion, t + duration, next_seq_++);
  }

  void schedule_retry(std::uint32_t p, double t) {
    push_spill(t + rng_.exponential(mean_retry_),
               Payload{Ev::Retry, p, retry_stamp_[p]});
  }

  void schedule_rebalance(std::uint32_t p, double t) {
    push_spill(t + rng_.exponential(mean_rebalance_),
               Payload{Ev::Rebalance, p, rebalance_stamp_[p]});
  }

  void invalidate_retries(std::uint32_t p) {
    if (!retry_stamp_.empty()) ++retry_stamp_[p];
  }

  [[nodiscard]] bool is_waiting(std::uint32_t p) const noexcept {
    return !waiting_.empty() && waiting_[p] != 0;
  }

  void on_became_busy(std::uint32_t p, double t) {
    if (cfg_.policy.kind == StealPolicy::Kind::Rebalance &&
        cfg_.policy.rebalance_rate > 0.0) {
      schedule_rebalance(p, t);
    }
  }

  void on_became_idle(std::uint32_t p) {
    if (!rebalance_stamp_.empty()) ++rebalance_stamp_[p];
  }

  /// Victim index per the policy's sampling mode; may equal p when
  /// victims_include_self (the caller treats that as a failed probe).
  /// With a single processor the only possible victim is p itself — the
  /// uniform draw over the other n-1 processors would be rng_.below(0).
  [[nodiscard]] std::uint32_t random_victim(std::uint32_t p) {
    LSM_ASSERT(p < n_);
    if (cfg_.policy.victims_include_self) {
      return static_cast<std::uint32_t>(rng_.below(n_));
    }
    if (n_ == 1) return p;  // no other processor to probe
    auto v = static_cast<std::uint32_t>(rng_.below(n_ - 1));
    if (v >= p) ++v;
    return v;
  }

  const SimConfig& cfg_;
  std::size_t n_;
  util::Xoshiro256 rng_;
  QueueArena queues_;     ///< SoA per-processor task queues (shared arena)
  ShardedCalendar cal_;   ///< arrival + completion slots, sharded trees
  EventQueue<Payload> spill_;  ///< rare cancellable events (retry/transfer/...)
  std::uint64_t next_seq_ = 0;  ///< global (time, seq) tie-break counter
  static constexpr std::uint32_t kNoProc =
      std::numeric_limits<std::uint32_t>::max();
  /// Completing processor whose calendar slot still holds the fired key;
  /// start_service cancels the deferred clear by re-keying it in place.
  std::uint32_t pending_clear_ = kNoProc;
  TailStats tails_;
  SimResult result_;
  std::vector<double> scratch_;  ///< reusable steal/rebalance staging buffer

  // Optional per-processor arrays, allocated only when the configuration
  // uses them (all empty on the homogeneous instant-steal hot path).
  std::vector<double> speed_;               ///< heterogeneous speeds
  std::vector<std::uint8_t> waiting_;       ///< awaiting a transfer
  std::vector<std::vector<double>> inflight_;  ///< stolen tasks in transit
  std::vector<std::uint32_t> retry_stamp_;
  std::vector<std::uint32_t> rebalance_stamp_;
  std::vector<SojournHistogram> shard_hists_;  ///< per-shard, exact merge

  double max_rate_ = 0.0;
  double mean_interarrival_ = 0.0;  ///< 1 / max_rate_ (hoisted division)
  double mean_retry_ = 0.0;         ///< 1 / retry_rate
  double mean_rebalance_ = 0.0;     ///< 1 / rebalance_rate
  double transfer_stage_mean_ = 0.0;
  double idle_accept_ = 1.0;      ///< arrival_rate / max_rate_
  bool thin_while_idle_ = false;  ///< internal_rate > 0: idle arrivals thin
  bool warmup_done_ = false;
  std::uint64_t total_tasks_ = 0;
  double tasks_acc_ = 0.0;
  double tasks_last_t_ = 0.0;
  double last_completion_ = 0.0;
};

}  // namespace

SimResult simulate(const SimConfig& config, util::Xoshiro256 rng) {
  config.validate();
  Engine engine(config, rng);
  return engine.run();
}

SimResult simulate(const SimConfig& config) {
  return simulate(config, util::Xoshiro256(config.seed));
}

}  // namespace lsm::sim
