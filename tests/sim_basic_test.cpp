// Unit tests for the simulator substrate: event queue ordering,
// distributions, policy validation, classical queueing anchors (M/M/1,
// M/D/1), determinism, and conservation invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/distributions.hpp"
#include "sim/event_queue.hpp"
#include "sim/policy.hpp"
#include "sim/replicate.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

// --- EventQueue ---------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder) {
  sim::EventQueue<int> q;
  q.push(3.0, 30);
  q.push(1.0, 10);
  q.push(2.0, 20);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  sim::EventQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(1.0, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().payload, i);
}

TEST(EventQueue, InterleavedPushPop) {
  sim::EventQueue<int> q;
  q.push(5.0, 5);
  q.push(1.0, 1);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(3.0, 3);
  q.push(0.5, 0);
  EXPECT_EQ(q.pop().payload, 0);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_EQ(q.pop().payload, 5);
}

TEST(EventQueue, LargeRandomizedHeapProperty) {
  sim::EventQueue<std::size_t> q;
  util::Xoshiro256 rng(4);
  for (std::size_t i = 0; i < 5000; ++i) q.push(rng.uniform(), i);
  double prev = -1.0;
  while (!q.empty()) {
    const auto e = q.pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueue, PopOnEmptyThrows) {
  sim::EventQueue<int> q;
  EXPECT_THROW(q.pop(), util::LogicError);
}

// --- distributions ---------------------------------------------------------------

TEST(Distributions, ConstantIsExact) {
  util::Xoshiro256 rng(1);
  const auto d = sim::ServiceDistribution::constant(2.5);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 2.5);
}

TEST(Distributions, ExponentialMeanAndVariance) {
  util::Xoshiro256 rng(2);
  const auto d = sim::ServiceDistribution::exponential(1.0);
  util::RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(d.sample(rng));
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.05);
}

TEST(Distributions, ErlangVarianceShrinksWithStages) {
  util::Xoshiro256 rng(3);
  const auto d = sim::ServiceDistribution::erlang(10, 1.0);
  util::RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(d.sample(rng));
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
  EXPECT_NEAR(s.variance(), 0.1, 0.02);  // 1/c
}

TEST(Distributions, RejectsNonPositiveMean) {
  EXPECT_THROW(sim::ServiceDistribution::exponential(0.0), util::LogicError);
  EXPECT_THROW(sim::ServiceDistribution::erlang(0, 1.0), util::LogicError);
}

// --- policy validation --------------------------------------------------------------

TEST(Policy, ValidatesThreshold) {
  EXPECT_THROW(sim::StealPolicy::on_empty(1), util::LogicError);
  EXPECT_NO_THROW(sim::StealPolicy::on_empty(2));
}

TEST(Policy, ValidatesMultiSteal) {
  EXPECT_THROW(sim::StealPolicy::on_empty(4, 1, 3), util::LogicError);
  EXPECT_NO_THROW(sim::StealPolicy::on_empty(4, 1, 2));
}

TEST(Policy, NamesAreDescriptive) {
  EXPECT_EQ(sim::StealPolicy::none().name(), "none");
  EXPECT_NE(sim::StealPolicy::preemptive(1, 3).name().find("B=1"),
            std::string::npos);
}

TEST(Policy, TransferRequiresPositiveMean) {
  sim::StealPolicy p = sim::StealPolicy::on_empty(2);
  p.transfer = sim::StealPolicy::Transfer::Exponential;
  p.transfer_mean = 0.0;
  EXPECT_THROW(p.validate(), util::LogicError);
}

// --- config validation ----------------------------------------------------------------

TEST(Config, RejectsBadShapes) {
  sim::SimConfig cfg;
  cfg.processors = 0;
  EXPECT_THROW(cfg.validate(), util::LogicError);
  cfg = {};
  cfg.warmup = cfg.horizon + 1;
  EXPECT_THROW(cfg.validate(), util::LogicError);
}

// --- queueing theory anchors --------------------------------------------------------------

TEST(SimAnchors, Mm1SojournMatchesTheory) {
  // Independent M/M/1 queues: E[T] = 1/(1 - lambda).
  for (double lambda : {0.3, 0.6}) {
    sim::SimConfig cfg;
    cfg.processors = 8;
    cfg.arrival_rate = lambda;
    cfg.policy = sim::StealPolicy::none();
    cfg.horizon = 40000.0;
    cfg.warmup = 4000.0;
    cfg.seed = 11;
    const auto res = sim::simulate(cfg);
    EXPECT_NEAR(res.mean_sojourn(), 1.0 / (1.0 - lambda),
                0.06 / (1.0 - lambda))
        << "lambda=" << lambda;
  }
}

TEST(SimAnchors, Md1SojournMatchesPollaczekKhinchine) {
  // M/D/1: E[T] = 1 + lambda / (2 (1 - lambda)).
  const double lambda = 0.6;
  sim::SimConfig cfg;
  cfg.processors = 8;
  cfg.arrival_rate = lambda;
  cfg.service = sim::ServiceDistribution::constant(1.0);
  cfg.policy = sim::StealPolicy::none();
  cfg.horizon = 40000.0;
  cfg.warmup = 4000.0;
  cfg.seed = 12;
  const auto res = sim::simulate(cfg);
  EXPECT_NEAR(res.mean_sojourn(), 1.0 + lambda / (2.0 * (1.0 - lambda)), 0.05);
}

TEST(SimAnchors, Mm1TailIsGeometric) {
  sim::SimConfig cfg;
  cfg.processors = 16;
  cfg.arrival_rate = 0.5;
  cfg.policy = sim::StealPolicy::none();
  cfg.horizon = 30000.0;
  cfg.warmup = 3000.0;
  cfg.seed = 13;
  const auto res = sim::simulate(cfg);
  for (std::size_t i = 1; i <= 6; ++i) {
    EXPECT_NEAR(res.tail_fraction[i], std::pow(0.5, static_cast<double>(i)),
                0.02)
        << "i=" << i;
  }
}

// --- conservation and determinism -------------------------------------------------------------

TEST(SimInvariants, TaskConservation) {
  sim::SimConfig cfg;
  cfg.processors = 32;
  cfg.arrival_rate = 0.9;
  cfg.horizon = 5000.0;
  cfg.warmup = 0.0;
  cfg.seed = 14;
  const auto res = sim::simulate(cfg);
  // Everything that completed must have arrived; the gap is bounded by
  // what is still queued at the end.
  EXPECT_LE(res.completions, res.arrivals);
  EXPECT_LT(res.arrivals - res.completions,
            cfg.processors * 200);  // no unbounded backlog at lambda < 1
}

TEST(SimInvariants, StealCountsAreConsistent) {
  sim::SimConfig cfg;
  cfg.processors = 32;
  cfg.arrival_rate = 0.9;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 5000.0;
  cfg.warmup = 0.0;
  cfg.seed = 15;
  const auto res = sim::simulate(cfg);
  EXPECT_LE(res.steal_successes, res.steal_attempts);
  EXPECT_EQ(res.tasks_moved, res.steal_successes);  // k = 1
  EXPECT_GT(res.steal_successes, 0u);
}

TEST(SimInvariants, DeterministicForSeed) {
  sim::SimConfig cfg;
  cfg.processors = 16;
  cfg.arrival_rate = 0.8;
  cfg.horizon = 2000.0;
  cfg.warmup = 200.0;
  cfg.seed = 16;
  const auto a = sim::simulate(cfg);
  const auto b = sim::simulate(cfg);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_DOUBLE_EQ(a.mean_sojourn(), b.mean_sojourn());
}

TEST(SimInvariants, DifferentSeedsDiffer) {
  sim::SimConfig cfg;
  cfg.processors = 16;
  cfg.arrival_rate = 0.8;
  cfg.horizon = 2000.0;
  cfg.warmup = 200.0;
  cfg.seed = 17;
  const auto a = sim::simulate(cfg);
  cfg.seed = 18;
  const auto b = sim::simulate(cfg);
  EXPECT_NE(a.arrivals, b.arrivals);
}

TEST(SimInvariants, SingleProcessorNeverSteals) {
  sim::SimConfig cfg;
  cfg.processors = 1;
  cfg.arrival_rate = 0.7;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 3000.0;
  cfg.warmup = 300.0;
  const auto res = sim::simulate(cfg);
  EXPECT_EQ(res.steal_successes, 0u);
  EXPECT_NEAR(res.mean_sojourn(), 1.0 / 0.3, 0.6);  // plain M/M/1
}

TEST(SimInvariants, TailFractionsAreMonotone) {
  sim::SimConfig cfg;
  cfg.processors = 32;
  cfg.arrival_rate = 0.9;
  cfg.horizon = 3000.0;
  cfg.warmup = 300.0;
  const auto res = sim::simulate(cfg);
  EXPECT_NEAR(res.tail_fraction[0], 1.0, 1e-9);
  for (std::size_t i = 1; i < res.tail_fraction.size(); ++i) {
    EXPECT_LE(res.tail_fraction[i], res.tail_fraction[i - 1] + 1e-12);
  }
}

// --- static / drain ------------------------------------------------------------------------------

TEST(SimStatic, DrainCompletesAllInitialTasks) {
  sim::SimConfig cfg;
  cfg.processors = 16;
  cfg.arrival_rate = 0.0;
  cfg.initial_tasks = 10;
  cfg.loaded_count = 8;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 1e6;
  cfg.warmup = 0.0;
  const auto res = sim::simulate(cfg);
  EXPECT_EQ(res.completions, 80u);
  EXPECT_GT(res.drain_time, 0.0);
}

TEST(SimStatic, StealingShortensDrain) {
  sim::SimConfig base;
  base.processors = 16;
  base.arrival_rate = 0.0;
  base.initial_tasks = 16;
  base.loaded_count = 4;
  base.horizon = 1e6;
  base.warmup = 0.0;
  base.seed = 21;

  sim::SimConfig with = base;
  with.policy = sim::StealPolicy::on_empty(2);
  sim::SimConfig without = base;
  without.policy = sim::StealPolicy::none();

  double t_with = 0.0, t_without = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    with.seed = without.seed = 21 + s;
    t_with += sim::simulate(with).drain_time;
    t_without += sim::simulate(without).drain_time;
  }
  EXPECT_LT(t_with, t_without);
}

// --- replication harness ---------------------------------------------------------------------------

TEST(Replicate, SerialAndPooledAgreeExactly) {
  sim::SimConfig cfg;
  cfg.processors = 8;
  cfg.arrival_rate = 0.7;
  cfg.horizon = 1500.0;
  cfg.warmup = 150.0;
  cfg.seed = 30;
  par::ThreadPool pool(4);
  const auto serial = sim::replicate(cfg, {.replications = 4});
  const auto pooled = sim::replicate(
      cfg, sim::ReplicateOptions{.replications = 4, .pool = &pool});
  EXPECT_DOUBLE_EQ(serial.sojourn.mean, pooled.sojourn.mean);
  EXPECT_DOUBLE_EQ(serial.mean_tasks.mean, pooled.mean_tasks.mean);
}

TEST(Replicate, HalfWidthShrinksWithMoreReps) {
  sim::SimConfig cfg;
  cfg.processors = 8;
  cfg.arrival_rate = 0.8;
  cfg.horizon = 1200.0;
  cfg.warmup = 120.0;
  cfg.seed = 31;
  const auto few = sim::replicate(cfg, {.replications = 3});
  const auto many = sim::replicate(cfg, {.replications = 12});
  EXPECT_LT(many.sojourn.half_width, few.sojourn.half_width);
}

TEST(Replicate, AveragesTailFractions) {
  sim::SimConfig cfg;
  cfg.processors = 8;
  cfg.arrival_rate = 0.6;
  cfg.horizon = 1500.0;
  cfg.warmup = 150.0;
  const auto rep = sim::replicate(cfg, {.replications = 3});
  ASSERT_FALSE(rep.tail_fraction.empty());
  EXPECT_NEAR(rep.tail_fraction[0], 1.0, 1e-9);
  EXPECT_NEAR(rep.tail_fraction[1], 0.6, 0.05);
}

}  // namespace
