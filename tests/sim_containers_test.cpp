// Unit tests for the simulator's d-ary event calendar (EventQueue). The
// per-processor task queues (QueueArena) are tested in sim_shard_test.cpp.
//
// The tests pin the ordering contract the whole simulator
// leans on: pops follow the strict (time, insertion seq) total order, so
// any heap arity produces the same event sequence. A reference binary
// heap (a copy of the original implementation) cross-checks that on
// randomized traces with deliberate time collisions.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;

/// The original binary-heap event calendar, kept verbatim as the ordering
/// oracle for the d-ary replacement.
template <typename Payload>
class ReferenceBinaryHeap {
 public:
  struct Entry {
    double time;
    std::uint64_t seq;
    Payload payload;
  };

  void push(double time, Payload payload) {
    heap_.push_back(Entry{time, next_seq_++, std::move(payload)});
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  Entry pop() {
    Entry out = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

 private:
  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && before(heap_[l], heap_[best])) best = l;
      if (r < n && before(heap_[r], heap_[best])) best = r;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueue, PopsInTimeOrderAndCountsSize) {
  sim::EventQueue<int> q;
  q.push(3.0, 3);
  q.push(1.0, 1);
  q.push(2.0, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPopInInsertionOrder) {
  sim::EventQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(1.0, i);
  q.push(0.5, -1);
  EXPECT_EQ(q.pop().payload, -1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.pop().payload, i) << "tie " << i << " popped out of order";
  }
}

TEST(EventQueue, TieBreaksAcrossInterleavedPushes) {
  // Ties created in separate push bursts, separated by pops, must still
  // resolve by global insertion sequence.
  sim::EventQueue<int> q;
  q.push(2.0, 10);
  q.push(1.0, 0);
  q.push(2.0, 11);
  EXPECT_EQ(q.pop().payload, 0);
  q.push(2.0, 12);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 11);
  EXPECT_EQ(q.pop().payload, 12);
}

TEST(EventQueue, MatchesReferenceBinaryHeapOnRandomTrace) {
  // Random interleaving of pushes and pops with a coarse time grid so
  // exact collisions are frequent; both heaps must emit the identical
  // (time, seq, payload) sequence.
  util::Xoshiro256 rng(2024);
  sim::EventQueue<std::uint64_t> dary;
  ReferenceBinaryHeap<std::uint64_t> binary;
  std::uint64_t id = 0;
  for (int step = 0; step < 20000; ++step) {
    if (dary.empty() || rng.uniform() < 0.55) {
      const double t = static_cast<double>(rng.below(64)) * 0.125;
      dary.push(t, id);
      binary.push(t, id);
      ++id;
    } else {
      const auto a = dary.pop();
      const auto b = binary.pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_EQ(a.payload, b.payload);
    }
  }
  while (!dary.empty()) {
    const auto a = dary.pop();
    const auto b = binary.pop();
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_EQ(a.payload, b.payload);
  }
  EXPECT_TRUE(binary.empty());
}

TEST(EventQueue, TopAgreesWithPop) {
  util::Xoshiro256 rng(7);
  sim::EventQueue<int> q;
  for (int i = 0; i < 500; ++i) q.push(rng.uniform(), i);
  double last = -1.0;
  while (!q.empty()) {
    const double t = q.top().time;
    const auto e = q.pop();
    EXPECT_EQ(e.time, t);
    EXPECT_GE(t, last);
    last = t;
  }
}

}  // namespace
