// Shard-count independence of the SoA engine, plus unit coverage for the
// pieces that make it hold: the sharded calendar (global-minimum
// extraction over per-shard winner trees), the shared queue arena, and
// the exact-merging sojourn histogram.
//
// The load-bearing property: SimConfig::shard_count is a LAYOUT knob.
// The calendar always extracts the least (time, seq) over every pending
// slot, so the event order — and with it every RNG draw, every float
// accumulation, every counter — is identical for any shard count. These
// tests pin that end to end: the full SimResult must be bit-for-bit
// identical for shard_count in {1, 2, 8} across policies, including the
// float bit patterns of mean_sojourn / mean_tasks / tail_fraction and
// the per-shard-accumulated, exactly-merged sojourn histogram.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/calendar.hpp"
#include "sim/queue_arena.hpp"
#include "sim/replicate.hpp"
#include "sim/simulator.hpp"
#include "sim/sojourn_histogram.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.processors = 96;  // not a power of two: exercises the padded shard
  cfg.arrival_rate = 0.9;
  cfg.horizon = 600.0;
  cfg.warmup = 100.0;
  cfg.seed = 4242;
  cfg.collect_sojourn_histogram = true;
  return cfg;
}

/// Every observable of `a` and `b` must match to the bit.
void expect_bit_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.steal_attempts, b.steal_attempts);
  EXPECT_EQ(a.steal_successes, b.steal_successes);
  EXPECT_EQ(a.tasks_moved, b.tasks_moved);
  EXPECT_EQ(a.forwards, b.forwards);
  EXPECT_EQ(a.control_messages_measured, b.control_messages_measured);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.tasks_remaining, b.tasks_remaining);
  EXPECT_EQ(bits(a.mean_sojourn()), bits(b.mean_sojourn()));
  EXPECT_EQ(bits(a.mean_tasks), bits(b.mean_tasks));
  EXPECT_EQ(bits(a.sojourn.stddev()), bits(b.sojourn.stddev()));
  ASSERT_EQ(a.tail_fraction.size(), b.tail_fraction.size());
  for (std::size_t i = 0; i < a.tail_fraction.size(); ++i) {
    EXPECT_EQ(bits(a.tail_fraction[i]), bits(b.tail_fraction[i]))
        << "tail_fraction[" << i << "]";
  }
  ASSERT_EQ(a.sojourn_hist.enabled(), b.sojourn_hist.enabled());
  EXPECT_EQ(a.sojourn_hist.total(), b.sojourn_hist.total());
  EXPECT_EQ(a.sojourn_hist.counts(), b.sojourn_hist.counts());
}

TEST(ShardIndependence, OnEmptyBitIdenticalAcrossShardCounts) {
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  cfg.shard_count = 1;
  const auto ref = sim::simulate(cfg);
  EXPECT_EQ(ref.shards_used, 1u);
  for (std::size_t shards : {2, 8}) {
    cfg.shard_count = shards;
    const auto got = sim::simulate(cfg);
    EXPECT_GT(got.shards_used, 1u);
    expect_bit_identical(ref, got);
  }
}

TEST(ShardIndependence, ShareBitIdenticalAcrossShardCounts) {
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::sharing(2);
  cfg.shard_count = 1;
  const auto ref = sim::simulate(cfg);
  for (std::size_t shards : {2, 8}) {
    cfg.shard_count = shards;
    expect_bit_identical(ref, sim::simulate(cfg));
  }
}

TEST(ShardIndependence, PreemptiveWithTransferBitIdentical) {
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::preemptive(1, 2);
  cfg.policy.transfer = sim::StealPolicy::Transfer::Exponential;
  cfg.policy.transfer_mean = 0.05;
  cfg.policy.retry_rate = 4.0;
  cfg.shard_count = 1;
  const auto ref = sim::simulate(cfg);
  for (std::size_t shards : {2, 8}) {
    cfg.shard_count = shards;
    expect_bit_identical(ref, sim::simulate(cfg));
  }
}

TEST(ShardIndependence, DefaultShardCountMatchesExplicit) {
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  cfg.shard_count = 0;  // default block: one shard at this n
  const auto auto_sharded = sim::simulate(cfg);
  cfg.shard_count = 4;
  expect_bit_identical(auto_sharded, sim::simulate(cfg));
}

TEST(ShardIndependence, PooledReplicationsMatchSerial) {
  // Same property under the thread pool: replications are independent
  // engines, so sharding must not introduce any cross-thread coupling.
  // (This test is the TSan target for the scale-out path.)
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  cfg.horizon = 300.0;
  cfg.shard_count = 8;
  const auto serial = sim::replicate(cfg, sim::ReplicateOptions{.replications = 4});
  par::ThreadPool pool(2);
  const auto pooled = sim::replicate(
      cfg, sim::ReplicateOptions{.replications = 4, .pool = &pool});
  ASSERT_EQ(serial.replications.size(), pooled.replications.size());
  for (std::size_t r = 0; r < serial.replications.size(); ++r) {
    expect_bit_identical(serial.replications[r], pooled.replications[r]);
  }
}

TEST(ShardedCalendar, MatchesReferenceOnRandomizedTrace) {
  // Randomized set/clear churn cross-checked against an ordered map from
  // packed (time, seq) to slot: after every operation the calendar's top
  // must be the reference's global minimum, for several shard geometries.
  for (std::size_t shard_count : {1, 3, 16}) {
    constexpr std::size_t kProcs = 37;  // pads the last shard
    sim::ShardedCalendar cal(kProcs, shard_count);
    std::map<std::pair<double, std::uint64_t>, std::uint32_t> ref;
    std::vector<bool> pending(2 * kProcs, false);
    std::vector<std::pair<double, std::uint64_t>> key_of(2 * kProcs);
    util::Xoshiro256 rng(7 + shard_count);
    std::uint64_t seq = 0;
    for (int step = 0; step < 20000; ++step) {
      const auto p = static_cast<std::uint32_t>(rng.below(kProcs));
      const std::uint32_t stream = rng.below(2) == 0
                                       ? sim::ShardedCalendar::kArrival
                                       : sim::ShardedCalendar::kCompletion;
      const std::size_t slot = 2 * p + stream;
      if (pending[slot] && rng.below(4) == 0) {
        cal.clear(p, stream);
        ref.erase(key_of[slot]);
        pending[slot] = false;
      } else {
        const double t = rng.uniform() * 100.0;
        if (pending[slot]) ref.erase(key_of[slot]);
        cal.set(p, stream, t, seq);
        key_of[slot] = {t, seq};
        ref[key_of[slot]] = static_cast<std::uint32_t>(slot);
        pending[slot] = true;
        ++seq;
      }
      if (ref.empty()) {
        EXPECT_EQ(cal.top_key().time, sim::ShardedCalendar::kIdle);
      } else {
        const auto& [key, slot_id] = *ref.begin();
        EXPECT_EQ(bits(cal.top_key().time), bits(key.first));
        EXPECT_EQ(cal.top_key().seq, key.second);
        EXPECT_EQ(2 * cal.top_proc() + cal.top_stream(), slot_id);
      }
    }
  }
}

TEST(ShardedCalendar, ShardGeometry) {
  {
    sim::ShardedCalendar cal(1 << 16, 8);
    EXPECT_EQ(cal.shards(), 8u);
    EXPECT_EQ(cal.shard_of(0), 0u);
    EXPECT_EQ(cal.shard_of((1 << 16) - 1), 7u);
  }
  {
    sim::ShardedCalendar cal(100, 0);  // default block swallows small n
    EXPECT_EQ(cal.shards(), 1u);
  }
  {
    sim::ShardedCalendar cal(100, 7);  // block rounds up to 16 -> 7 shards
    EXPECT_EQ(cal.shards(), 7u);
  }
}

TEST(QueueArena, MatchesDequeOnRandomizedTrace) {
  // The arena must behave exactly like n independent deques (FIFO pops,
  // steal-from-tail in FIFO order) while blocks grow, relocate, and
  // recycle underneath. Two scripted inputs on processor 0 come before
  // the random trace: a window slid far past its block's end (wrap-around
  // without growth), then repeated growth starting with the head mid-block.
  constexpr std::size_t kProcs = 19;
  sim::QueueArena arena(kProcs);
  std::vector<std::deque<double>> ref(kProcs);
  const auto push = [&](std::uint32_t p, double v) {
    arena.push_back(p, v);
    ref[p].push_back(v);
  };
  const auto pop = [&](std::uint32_t p) {
    EXPECT_EQ(arena.front(p), ref[p].front());
    arena.pop_front(p);
    ref[p].pop_front();
  };
  for (int i = 0; i < 8; ++i) push(0, i);
  const std::size_t cap = arena.capacity(0);
  for (int i = 8; i < 1000; ++i) {
    pop(0);
    push(0, i);
  }
  EXPECT_EQ(arena.capacity(0), cap) << "steady-state slide must not grow";
  for (int i = 0; i < 3; ++i) pop(0);  // head now mid-block
  for (int i = 1000; i < 1200; ++i) push(0, i);
  ASSERT_EQ(arena.size(0), ref[0].size());
  for (std::size_t i = 0; i < ref[0].size(); ++i) {
    EXPECT_EQ(arena.at(0, i), ref[0][i]);
  }

  util::Xoshiro256 rng(99);
  std::vector<double> got;
  for (int step = 0; step < 50000; ++step) {
    const auto p = static_cast<std::uint32_t>(rng.below(kProcs));
    switch (rng.below(4)) {
      case 0:
      case 1:
        push(p, static_cast<double>(step));
        break;
      case 2:
        if (!ref[p].empty()) pop(p);
        break;
      case 3:
        if (!ref[p].empty()) {
          const std::size_t take = 1 + rng.below(ref[p].size());
          got.clear();
          arena.take_back(p, take, got);
          ASSERT_EQ(got.size(), take);
          const std::size_t start = ref[p].size() - take;
          for (std::size_t i = 0; i < take; ++i) {
            EXPECT_EQ(got[i], ref[p][start + i]);
          }
          ref[p].erase(ref[p].begin() + static_cast<std::ptrdiff_t>(start),
                       ref[p].end());
        }
        break;
    }
    ASSERT_EQ(arena.size(p), ref[p].size());
  }
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    for (std::size_t i = 0; i < ref[p].size(); ++i) {
      EXPECT_EQ(arena.at(p, i), ref[p][i]);
    }
  }
}

TEST(SojournHistogram, MergeIsExactForAnyPartition) {
  // Integer counts merge exactly: accumulating a stream into one
  // histogram and accumulating an arbitrary partition of the same stream
  // into shards then merging yields identical state. This is the property
  // the engine's per-shard accumulators lean on.
  util::Xoshiro256 rng(5);
  sim::SojournHistogram whole(true);
  std::vector<sim::SojournHistogram> shards;
  for (int s = 0; s < 5; ++s) shards.emplace_back(true);
  for (int i = 0; i < 100000; ++i) {
    const double t = rng.exponential(2.5);
    whole.add(t);
    shards[rng.below(5)].add(t);
  }
  sim::SojournHistogram merged(true);
  for (const auto& s : shards) merged.merge(s);
  EXPECT_EQ(merged.total(), whole.total());
  EXPECT_EQ(merged.counts(), whole.counts());
}

TEST(SojournHistogram, BucketBoundsAndQuantiles) {
  sim::SojournHistogram h(true);
  // Bucket index must be consistent with the bucket bounds everywhere.
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double t = rng.exponential(1.0);
    const std::size_t b = sim::SojournHistogram::bucket(t);
    EXPECT_GE(t, sim::SojournHistogram::bucket_lo(b));
    EXPECT_LT(t, sim::SojournHistogram::bucket_hi(b));
    h.add(t);
  }
  // Quantiles of Exp(1): within bucket resolution (2^(1/8) ~ 9%) plus
  // sampling noise of the 10k draws.
  EXPECT_NEAR(h.quantile(0.5), 0.693, 0.12);
  EXPECT_NEAR(h.quantile(0.9), 2.303, 0.35);
  EXPECT_EQ(h.total(), 10000u);
  // Degenerate inputs land in the under/overflow buckets, not UB.
  EXPECT_EQ(sim::SojournHistogram::bucket(0.0), 0u);
  EXPECT_EQ(sim::SojournHistogram::bucket(-1.0), 0u);
  EXPECT_EQ(sim::SojournHistogram::bucket(1e30),
            sim::SojournHistogram::kBuckets - 1);
}

TEST(ShardIndependence, HistogramQuantileTracksExactPercentile) {
  // The histogram is the large-n replacement for collect_sojourns: its
  // quantiles must agree with the exact sample percentiles to within the
  // bucket ratio.
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  cfg.collect_sojourns = true;
  const auto res = sim::simulate(cfg);
  ASSERT_GT(res.sojourn_hist.total(), 0u);
  EXPECT_EQ(res.sojourn_hist.total(), res.sojourn_samples.size());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = res.sojourn_percentile(q);
    const double approx = res.sojourn_hist.quantile(q);
    EXPECT_NEAR(approx, exact, 0.13 * exact + 1e-9) << "q = " << q;
  }
}

TEST(ShardIndependence, EngineBytesReported) {
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  const auto res = sim::simulate(cfg);
  // 96 processors: 32 B/proc of keys alone, so a zero or tiny value means
  // the accounting broke; a huge one means a container leaked into it.
  EXPECT_GT(res.engine_bytes, 96u * 32u);
  EXPECT_LT(res.engine_bytes, 10u * 1024u * 1024u);
}

}  // namespace
