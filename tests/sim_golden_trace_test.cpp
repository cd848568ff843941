// Golden determinism traces for the discrete-event simulator.
//
// Each case runs the simulator at fixed seeds and folds the order-sensitive
// outputs (event counters plus the bit patterns of the incrementally
// accumulated means, which depend on completion order) into one FNV-1a
// checksum. The expected constants were recorded from the original binary
// heap + std::deque implementation, so any change that perturbs the event
// ordering — not just the aggregate values — fails loudly here. The
// 4-ary event calendar and ring-buffer task queues must keep every one of
// these bits intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "sim/simulator.hpp"

namespace {

using namespace lsm;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Folds every order-sensitive output of one replication into `h`.
std::uint64_t fold_result(std::uint64_t h, const sim::SimResult& r) {
  h = fold(h, r.arrivals);
  h = fold(h, r.completions);
  h = fold(h, r.steal_attempts);
  h = fold(h, r.steal_successes);
  h = fold(h, r.tasks_moved);
  h = fold(h, r.forwards);
  h = fold(h, r.tasks_remaining);
  h = fold(h, r.max_queue);
  h = fold(h, bits(r.mean_sojourn()));
  h = fold(h, bits(r.mean_tasks));
  h = fold(h, bits(r.drain_time));
  if (r.tail_fraction.size() > 2) h = fold(h, bits(r.tail_fraction[2]));
  return h;
}

struct GoldenCase {
  const char* name;
  sim::SimConfig cfg;
  std::uint64_t expected;
};

sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.processors = 32;
  cfg.arrival_rate = 0.9;
  cfg.horizon = 1500.0;
  cfg.warmup = 150.0;
  cfg.histogram_limit = 16;
  return cfg;
}

/// The fixed seeds every case runs; both feed one checksum.
constexpr std::uint64_t kSeeds[] = {101, 202};

std::uint64_t trace_checksum(const sim::SimConfig& base) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t seed : kSeeds) {
    sim::SimConfig cfg = base;
    cfg.seed = seed;
    h = fold_result(h, sim::simulate(cfg));
  }
  return h;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const auto add = [&cases](const char* name, sim::SimConfig cfg,
                            std::uint64_t expected) {
    cases.push_back({name, std::move(cfg), expected});
  };

  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::none();
    add("none", cfg, 0x84feb6fadf7fe0c0ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(2);
    add("on_empty", cfg, 0xf9e5713c97111e23ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(4, 2, 2);
    add("on_empty_d2_k2", cfg, 0x3227b9dd170c9cfeULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::with_retries(1.0, 2);
    add("retries", cfg, 0xf140270f5d07ca15ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::preemptive(1, 2);
    add("preemptive", cfg, 0x94007ffe144db32dULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::composed(1, 4, 2, 2, 0.5);
    add("composed", cfg, 0x2558d51c27369687ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::rebalance(0.5);
    add("rebalance", cfg, 0x46171f5c1423eabbULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::sharing(2);
    add("share", cfg, 0x8f56f8031d7322ffULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::with_transfer(0.1, 2);
    add("transfer_exp", cfg, 0xc64da830fc6e4286ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::with_transfer(
        0.1, 2, sim::StealPolicy::Transfer::Erlang);
    cfg.policy.transfer_stages = 3;
    add("transfer_erlang", cfg, 0x0b86121336ec04a7ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(2);
    cfg.policy.victims_include_self = false;
    add("excl_self", cfg, 0x28542b2a76d9eeacULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(2);
    cfg.speed_groups = {{8, 2.0}, {24, 0.5}};
    add("heterogeneous", cfg, 0x46804cc8e4904498ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(2);
    cfg.arrival_rate = 0.0;
    cfg.initial_tasks = 50;
    cfg.loaded_count = 8;
    add("static_drain", cfg, 0x270ebb7d75318fe0ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(2);
    cfg.internal_rate = 0.3;
    add("internal_arrivals", cfg, 0x14ddc427228d49cbULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(2);
    cfg.service = sim::ServiceDistribution::constant(1.0);
    add("constant_service", cfg, 0xbf44abfd206d2d20ULL);
  }
  {
    auto cfg = base_config();
    cfg.policy = sim::StealPolicy::on_empty(2);
    cfg.service = sim::ServiceDistribution::erlang(3, 1.0);
    add("erlang_service", cfg, 0x1bf298b8fe78ce9bULL);
  }
  return cases;
}

TEST(GoldenTrace, EventOrderIsBitForBitStable) {
  for (const auto& gc : golden_cases()) {
    EXPECT_EQ(trace_checksum(gc.cfg), gc.expected) << "case: " << gc.name;
  }
}

}  // namespace
