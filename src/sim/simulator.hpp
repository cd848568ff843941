// Discrete-event simulator of an n-processor work stealing system,
// matching the paper's simulation setup: per-processor Poisson arrivals,
// FIFO service, steal-from-tail, uniformly random victims.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/distributions.hpp"
#include "sim/policy.hpp"
#include "sim/sojourn_histogram.hpp"
#include "util/statistics.hpp"
#include "util/xoshiro.hpp"

namespace lsm::sim {

struct SimConfig {
  std::size_t processors = 128;
  double arrival_rate = 0.9;   ///< external Poisson rate per processor
  double internal_rate = 0.0;  ///< extra spawn rate while busy (Section 3.5)
  ServiceDistribution service = ServiceDistribution::exponential(1.0);
  StealPolicy policy = StealPolicy::on_empty();

  double horizon = 100000.0;  ///< simulated seconds (paper: 100,000)
  double warmup = 10000.0;    ///< discarded prefix (paper: 10,000)
  std::uint64_t seed = 1;

  // Heterogeneous speeds (Section 3.5): consecutive groups of `count`
  // processors serving at `speed`. Empty means every processor runs at
  // speed 1; otherwise the counts must sum to `processors`.
  struct SpeedGroup {
    std::size_t count = 0;
    double speed = 1.0;
  };
  std::vector<SpeedGroup> speed_groups;

  // Static workload (Section 3.5): initial_tasks tasks placed on each of
  // the first loaded_count processors at t = 0. Combine with
  // arrival_rate = 0 to run a pure drain.
  std::size_t initial_tasks = 0;
  std::size_t loaded_count = 0;

  std::size_t histogram_limit = 64;  ///< track s_i for i <= limit

  /// Calendar shards (processor blocks with per-shard winner trees and a
  /// merge front). Purely a layout/performance knob: extraction is by
  /// global (time, seq) minimum, so results are bit-for-bit identical
  /// for every value. 0 picks the default block size (8192 processors).
  std::size_t shard_count = 0;

  /// Keep every measured sojourn time (memory ~ 8 bytes/task) so callers
  /// can compute percentiles; off by default.
  bool collect_sojourns = false;

  /// Accumulate measured sojourns into a fixed-footprint log-bucketed
  /// histogram (per calendar shard, merged exactly at finalize) — the
  /// large-n replacement for collect_sojourns, O(1) memory per run.
  bool collect_sojourn_histogram = false;

  /// Sample (t, tasks/processor, busy fraction) every timeline_dt seconds
  /// from t = 0 (not warmup-gated): the transient trajectory that Kurtz's
  /// theorem says converges to the ODE solution. 0 disables sampling.
  double timeline_dt = 0.0;

  void validate() const;
};

struct SimResult {
  util::RunningStat sojourn;  ///< time-in-system of measured tasks
  double measured_time = 0.0;

  std::uint64_t arrivals = 0;      ///< accepted arrivals (dynamic work)
  std::uint64_t initial_tasks = 0; ///< tasks seeded at t = 0 (static work)
  std::uint64_t completions = 0;
  std::uint64_t tasks_remaining = 0;  ///< still queued/in transit at the end
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t tasks_moved = 0;
  std::uint64_t forwards = 0;  ///< sender-initiated forwards (Share policy)

  /// Steal probes + forwards that occurred inside the measurement window
  /// (the raw counters above cover the whole run, warmup included, so
  /// that task conservation stays exact).
  std::uint64_t control_messages_measured = 0;

  /// Control messages per processor per unit time over the measurement
  /// window: the communication cost the paper's introduction contrasts
  /// stealing and sharing on.
  [[nodiscard]] double message_rate(std::size_t processors) const {
    return measured_time > 0.0
               ? static_cast<double>(control_messages_measured) /
                     (measured_time * static_cast<double>(processors))
               : 0.0;
  }

  /// Time-averaged fraction of processors with load >= i (post-warmup);
  /// index 0..histogram_limit. The empirical analogue of the model's s_i.
  std::vector<double> tail_fraction;

  /// Time-averaged tasks in system per processor (includes in-transit).
  double mean_tasks = 0.0;

  /// Time the last task completed (static/drain runs; 0 if none ran dry).
  double drain_time = 0.0;

  /// Largest queue length observed after warmup ("expected heaviest
  /// load", cf. the balanced-allocations discussion in Section 3.3).
  std::size_t max_queue = 0;

  /// Raw measured sojourns (only when SimConfig::collect_sojourns).
  std::vector<double> sojourn_samples;

  /// Log-bucketed sojourn histogram (only when
  /// SimConfig::collect_sojourn_histogram); merged exactly across the
  /// engine's shards, so it is shard-count independent.
  SojournHistogram sojourn_hist;

  /// Resident bytes of engine-owned simulator state at the end of the
  /// run (queues, calendars, per-processor arrays, scratch — excludes
  /// result buffers). The scale-out budget perf_sim tracks per case.
  std::uint64_t engine_bytes = 0;

  /// Calendar shards the engine actually used (after block rounding).
  std::size_t shards_used = 0;

  /// Instantaneous system snapshots (only when SimConfig::timeline_dt > 0).
  struct TimelinePoint {
    double t = 0.0;
    double mean_tasks = 0.0;     ///< tasks per processor (incl. in transit)
    double busy_fraction = 0.0;  ///< fraction with load >= 1
  };
  std::vector<TimelinePoint> timeline;

  [[nodiscard]] double mean_sojourn() const { return sojourn.mean(); }

  /// p-th sojourn percentile; requires collect_sojourns.
  [[nodiscard]] double sojourn_percentile(double p) const;
};

/// Runs one replication. Deterministic for a given (config, rng state).
[[nodiscard]] SimResult simulate(const SimConfig& config,
                                 util::Xoshiro256 rng);

/// Convenience: seed taken from config.seed.
[[nodiscard]] SimResult simulate(const SimConfig& config);

}  // namespace lsm::sim
