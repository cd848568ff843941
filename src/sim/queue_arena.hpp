// Structure-of-arrays storage for the simulator's n per-processor task
// queues: one shared slab of task stamps plus flat per-processor
// (offset, head, length, capacity) slots. No processor owns a heap block,
// so allocator metadata does not dwarf the queue contents at n = 10^6.
//
// Each processor owns a power-of-two block of the slab and uses it as a
// ring (push_back new work, pop_front FIFO service, take_back for
// steal-from-tail). A queue that outgrows its block is relocated to a
// fresh block twice the size; the vacated block goes on a per-size free
// list, so blocks recycle across processors as the load profile shifts
// and the slab grows only when no freed block fits. Every element access
// is index arithmetic into one contiguous allocation.
//
// Each queue behaves exactly like a std::deque (FIFO order, steal-from-
// tail order, amortised O(1) growth), which tests/sim_shard_test.cpp pins
// on wrap-around, grow-mid-wrap and randomized traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace lsm::sim {

class QueueArena {
 public:
  /// Every processor starts with a 2^initial_log2-slot block.
  explicit QueueArena(std::size_t processors, std::uint32_t initial_log2 = 1)
      : off_(processors),
        head_(processors, 0),
        len_(processors, 0),
        cap_log2_(processors, static_cast<std::uint8_t>(initial_log2)) {
    const std::size_t cap = std::size_t{1} << initial_log2;
    LSM_EXPECT(processors * cap <= kMaxSlots,
               "queue arena exceeds 32-bit slot indexing");
    slab_.resize(processors * cap);
    for (std::size_t p = 0; p < processors; ++p) {
      off_[p] = static_cast<std::uint32_t>(p * cap);
    }
  }

  [[nodiscard]] std::size_t size(std::uint32_t p) const noexcept {
    return len_[p];
  }
  [[nodiscard]] bool empty(std::uint32_t p) const noexcept {
    return len_[p] == 0;
  }
  [[nodiscard]] std::size_t capacity(std::uint32_t p) const noexcept {
    return std::size_t{1} << cap_log2_[p];
  }

  /// Oldest element (head of the FIFO; the task in service).
  [[nodiscard]] double front(std::uint32_t p) const noexcept {
    LSM_ASSERT(len_[p] > 0);
    return slab_[off_[p] + head_[p]];
  }

  /// i-th element in FIFO order (0 = front).
  [[nodiscard]] double at(std::uint32_t p, std::size_t i) const noexcept {
    LSM_ASSERT(i < len_[p]);
    return slab_[off_[p] + ((head_[p] + i) & mask(p))];
  }

  void push_back(std::uint32_t p, double v) {
    if (len_[p] == capacity(p)) grow(p);
    slab_[off_[p] + ((head_[p] + len_[p]) & mask(p))] = v;
    ++len_[p];
  }

  void pop_front(std::uint32_t p) noexcept {
    LSM_ASSERT(len_[p] > 0);
    head_[p] = (head_[p] + 1) & mask(p);
    --len_[p];
  }

  /// Appends the last `count` elements (in FIFO order) to `out` and
  /// removes them — the steal-from-tail primitive.
  void take_back(std::uint32_t p, std::size_t count, std::vector<double>& out) {
    LSM_ASSERT(count <= len_[p]);
    const std::size_t start = len_[p] - count;
    const std::uint32_t m = mask(p);
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(slab_[off_[p] + ((head_[p] + start + i) & m)]);
    }
    len_[p] -= static_cast<std::uint32_t>(count);
  }

  /// Bytes of heap state the arena owns (the scale-out budget line).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    std::size_t bytes = slab_.capacity() * sizeof(double) +
                        off_.capacity() * sizeof(std::uint32_t) +
                        head_.capacity() * sizeof(std::uint32_t) +
                        len_.capacity() * sizeof(std::uint32_t) +
                        cap_log2_.capacity() * sizeof(std::uint8_t);
    for (const auto& f : free_) bytes += f.capacity() * sizeof(std::uint32_t);
    return bytes;
  }

 private:
  static constexpr std::size_t kMaxSlots =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kSizeClasses = 32;

  [[nodiscard]] std::uint32_t mask(std::uint32_t p) const noexcept {
    return (std::uint32_t{1} << cap_log2_[p]) - 1;
  }

  /// Relocates p's queue into a block twice the size (recycled from the
  /// free list when one exists) and frees the old block for reuse.
  void grow(std::uint32_t p) {
    const std::uint32_t old_log2 = cap_log2_[p];
    const std::uint32_t new_log2 = old_log2 + 1;
    LSM_EXPECT(new_log2 < kSizeClasses, "per-processor queue overflow");
    const std::uint32_t new_off = acquire(new_log2);
    const std::uint32_t old_off = off_[p];
    const std::uint32_t old_mask = mask(p);
    const std::uint32_t n = len_[p];
    for (std::uint32_t i = 0; i < n; ++i) {
      slab_[new_off + i] = slab_[old_off + ((head_[p] + i) & old_mask)];
    }
    free_[old_log2].push_back(old_off);
    off_[p] = new_off;
    head_[p] = 0;
    cap_log2_[p] = static_cast<std::uint8_t>(new_log2);
  }

  [[nodiscard]] std::uint32_t acquire(std::uint32_t log2) {
    auto& list = free_[log2];
    if (!list.empty()) {
      const std::uint32_t off = list.back();
      list.pop_back();
      return off;
    }
    const std::size_t cap = std::size_t{1} << log2;
    const std::size_t off = slab_.size();
    LSM_EXPECT(off + cap <= kMaxSlots,
               "queue arena exceeds 32-bit slot indexing");
    if (slab_.size() + cap > slab_.capacity()) {
      slab_.reserve(std::max(slab_.capacity() * 2, slab_.size() + cap));
    }
    slab_.resize(off + cap);
    return static_cast<std::uint32_t>(off);
  }

  std::vector<double> slab_;           ///< one shared stamp arena
  std::vector<std::uint32_t> off_;     ///< block start slot per processor
  std::vector<std::uint32_t> head_;    ///< ring head within the block
  std::vector<std::uint32_t> len_;     ///< live elements
  std::vector<std::uint8_t> cap_log2_; ///< block capacity = 2^cap_log2_
  std::vector<std::uint32_t> free_[kSizeClasses];  ///< recycled blocks
};

}  // namespace lsm::sim
