// Sharded per-processor event calendar for the simulator's two dominant
// streams (arrivals and completions), built for n up to the 10^6-10^7
// range.
//
// Every processor always owns one pending Arrival (a self-regenerating
// Poisson stream) and at most one pending Completion (service is serial),
// so the calendar keeps exactly two keyed slots per processor and re-keys
// them in place — no push/pop churn. Processors are grouped into
// fixed-size blocks (shards); each shard owns a winner tree over its
// 2 x block slots, and a small merge front (a winner tree over the shard
// tops) yields the global minimum. A re-key therefore costs
// O(log block + log shards) instead of O(log n) on one monolithic tree,
// and all of a shard's tree state is contiguous in memory.
//
// Determinism: extraction always returns the least (time, seq) over every
// pending slot of every shard — the exact pop order of one shared heap —
// so simulation results are bit-for-bit identical for ANY shard count.
// The shard count is purely a layout/performance knob; the golden-trace
// suite pins shard_count = 1 against the original engine and
// tests/sim_shard_test.cpp pins shard-count independence.
//
// Memory layout (the SoA scale-out budget):
//   keys_  two packed 128-bit (time, seq) keys per processor  = 32 B/proc
//   win_   one u32 winner index per tree slot                 =  8 B/proc
//   front_ O(shards) merge-front tree                         ~  0 B/proc
// A key packs the IEEE-754 pattern of the (non-negative) time into the
// high 64 bits and the globally unique sequence number into the low 64,
// so one unsigned 128-bit compare IS the (time, seq) order. Idle slots
// park at (+inf, ~0) and lose every match. Unlike the previous packed
// format there are no processor bits in the key — winner nodes carry slot
// indices — so there is no 2^20 processor ceiling and the full 64-bit
// sequence range is available.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace lsm::sim {

class ShardedCalendar {
 public:
  struct Key {
    double time;
    std::uint64_t seq;

    [[nodiscard]] bool before(const Key& o) const noexcept {
      return time < o.time || (time == o.time && seq < o.seq);
    }
  };

  /// Slot streams: every processor has one slot per stream.
  static constexpr std::uint32_t kArrival = 0;
  static constexpr std::uint32_t kCompletion = 1;

  static constexpr double kIdle = std::numeric_limits<double>::infinity();

  /// `shard_count` = 0 picks the default block size (8192 processors per
  /// shard); any explicit count is honoured by rounding the block up to a
  /// power of two. Results never depend on the choice.
  explicit ShardedCalendar(std::size_t processors, std::size_t shard_count = 0)
      : n_(processors) {
    LSM_EXPECT(processors >= 1, "calendar needs at least one processor");
    std::size_t block = 1;
    if (shard_count == 0) {
      const std::size_t target = std::min<std::size_t>(n_, kDefaultBlock);
      while (block < target) block <<= 1;
    } else {
      const std::size_t per = (n_ + shard_count - 1) / shard_count;
      while (block < per) block <<= 1;
    }
    block_log2_ = 0;
    while ((std::size_t{1} << block_log2_) < block) ++block_log2_;
    leaves_log2_ = block_log2_ + 1;  // two slots per processor
    leaves_ = std::size_t{1} << leaves_log2_;
    shards_ = (n_ + block - 1) / block;
    keys_.assign(shards_ * leaves_, kIdleNode);
    win_.assign(shards_ * leaves_, 0);
    for (std::uint32_t s = 0; s < shards_; ++s) rebuild_shard(s);
    front_base_ = 1;
    while (front_base_ < shards_) front_base_ <<= 1;
    front_.assign(2 * front_base_, kNoShard);
    rebuild_front();
  }

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t p) const noexcept {
    return p >> block_log2_;
  }

  /// Earliest pending (time, seq) over both streams of every processor;
  /// (+inf, ~0) when everything is idle.
  [[nodiscard]] Key top_key() const noexcept {
    return Key{std::bit_cast<double>(static_cast<std::uint64_t>(root_key_ >> 64)),
               static_cast<std::uint64_t>(root_key_)};
  }

  /// Processor / stream owning the earliest pending event (valid only
  /// when top_key().time < kIdle).
  [[nodiscard]] std::uint32_t top_proc() const noexcept { return root_ >> 1; }
  [[nodiscard]] std::uint32_t top_stream() const noexcept { return root_ & 1u; }

  /// Schedules (or reschedules) processor p's slot in `stream`.
  void set(std::uint32_t p, std::uint32_t stream, double time,
           std::uint64_t seq) {
    LSM_ASSERT(p < n_ && stream <= 1);
    LSM_ASSERT(time < kIdle && time >= 0.0);
    update(slot_of(p, stream), pack(time, seq));
  }

  /// Cancels processor p's slot in `stream` (idempotent).
  void clear(std::uint32_t p, std::uint32_t stream) {
    LSM_ASSERT(p < n_ && stream <= 1);
    update(slot_of(p, stream), kIdleNode);
  }

  /// Bytes of heap state this calendar owns (the scale-out budget line).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return keys_.capacity() * sizeof(Node) +
           win_.capacity() * sizeof(std::uint32_t) +
           front_.capacity() * sizeof(std::uint32_t);
  }

 private:
  __extension__ using Node = unsigned __int128;

  /// (+inf, ~0): loses every match, decodes as idle.
  static constexpr Node kIdleNode =
      Node{0x7FF0000000000000ULL} << 64 | ~std::uint64_t{0};
  static constexpr std::uint32_t kNoShard =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kDefaultBlock = 8192;

  static Node pack(double time, std::uint64_t seq) noexcept {
    return Node{std::bit_cast<std::uint64_t>(time)} << 64 | seq;
  }

  /// Slot index of (p, stream). Because leaves_ = 2 x block and shard s
  /// covers processors [s*block, (s+1)*block), 2p + stream is both the
  /// global slot id and shard s's contiguous leaf range.
  [[nodiscard]] std::uint32_t slot_of(std::uint32_t p,
                                      std::uint32_t stream) const noexcept {
    return (p << 1) | stream;
  }

  void update(std::uint32_t slot, Node value) {
    keys_[slot] = value;
    const std::uint32_t s = slot >> leaves_log2_;
    replay_shard(s, slot);
    replay_front(s);
  }

  /// Replays the matches from `slot`'s leaf up to shard s's root.
  void replay_shard(std::uint32_t s, std::uint32_t slot) {
    const std::size_t base = std::size_t{s} << leaves_log2_;
    std::uint32_t* win = win_.data() + base;
    const Node* keys = keys_.data();
    std::size_t i = leaves_ + (slot & (leaves_ - 1));
    std::uint32_t w = slot;
    Node wk = keys[slot];
    while (i > 1) {
      const std::size_t sib = i ^ 1;
      const std::uint32_t cand =
          sib >= leaves_ ? static_cast<std::uint32_t>(base + (sib - leaves_))
                         : win[sib];
      const Node ck = keys[cand];
      if (ck < wk) {
        w = cand;
        wk = ck;
      }
      i >>= 1;
      win[i] = w;
    }
  }

  [[nodiscard]] std::uint32_t shard_root(std::uint32_t s) const noexcept {
    return win_[(std::size_t{s} << leaves_log2_) + 1];
  }

  [[nodiscard]] Node shard_top(std::uint32_t s) const noexcept {
    return s < shards_ ? keys_[shard_root(s)] : kIdleNode;
  }

  /// Replays shard s's entry through the merge front and refreshes the
  /// cached global root.
  void replay_front(std::uint32_t s) {
    if (shards_ > 1) {
      std::size_t i = front_base_ + s;
      std::uint32_t w = s;
      Node wk = shard_top(s);
      while (i > 1) {
        const std::size_t sib = i ^ 1;
        const std::uint32_t cand =
            sib >= front_base_ ? static_cast<std::uint32_t>(sib - front_base_)
                               : front_[sib];
        const Node ck = cand < shards_ ? shard_top(cand) : kIdleNode;
        if (ck < wk) {
          w = cand;
          wk = ck;
        }
        i >>= 1;
        front_[i] = w;
      }
    }
    root_ = shard_root(shards_ > 1 ? front_[1] : 0);
    root_key_ = keys_[root_];
  }

  /// Bottom-up build of shard s's winner tree. The winner-tree invariant
  /// — win[i] names a leaf inside subtree(i) holding its minimum key —
  /// must hold for every node, not just replayed paths, because replays
  /// read sibling caches; a full build establishes it.
  void rebuild_shard(std::uint32_t s) {
    const std::size_t base = std::size_t{s} << leaves_log2_;
    std::uint32_t* win = win_.data() + base;
    const Node* keys = keys_.data();
    for (std::size_t i = leaves_ - 1; i >= 1; --i) {
      const std::size_t l = 2 * i;
      const std::size_t r = 2 * i + 1;
      const std::uint32_t wl =
          l >= leaves_ ? static_cast<std::uint32_t>(base + (l - leaves_))
                       : win[l];
      const std::uint32_t wr =
          r >= leaves_ ? static_cast<std::uint32_t>(base + (r - leaves_))
                       : win[r];
      win[i] = keys[wr] < keys[wl] ? wr : wl;
    }
  }

  void rebuild_front() {
    if (shards_ > 1) {
      for (std::size_t i = front_base_ - 1; i >= 1; --i) {
        const std::size_t l = 2 * i;
        const std::size_t r = 2 * i + 1;
        const std::uint32_t wl =
            l >= front_base_ ? static_cast<std::uint32_t>(l - front_base_)
                             : front_[l];
        const std::uint32_t wr =
            r >= front_base_ ? static_cast<std::uint32_t>(r - front_base_)
                             : front_[r];
        front_[i] = shard_top(wr) < shard_top(wl) ? wr : wl;
      }
    }
    root_ = shard_root(shards_ > 1 ? front_[1] : 0);
    root_key_ = keys_[root_];
  }

  std::size_t n_;
  std::uint32_t block_log2_ = 0;   ///< processors per shard = 2^block_log2_
  std::uint32_t leaves_log2_ = 1;  ///< slots per shard = 2^leaves_log2_
  std::size_t leaves_ = 2;
  std::size_t shards_ = 1;
  std::size_t front_base_ = 1;
  std::uint32_t root_ = 0;       ///< global winning slot (2p | stream)
  Node root_key_ = kIdleNode;    ///< its key, cached for the merge loop
  std::vector<Node> keys_;       ///< slot -> packed (time, seq); SoA, 32 B/proc
  std::vector<std::uint32_t> win_;    ///< per-shard winner trees, 8 B/proc
  std::vector<std::uint32_t> front_;  ///< merge front over shard tops
};

}  // namespace lsm::sim
