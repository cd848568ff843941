// Data-parallel map layered on ThreadPool.
//
// Order: min(n, pool.size()) tasks claim indices from one shared cursor,
// so indices start in increasing order (exactly 0..n-1 on a one-worker
// pool) whatever the workers' deque discipline: a caller that lists its
// work in priority order has it started in that order.
//
// Exception contract: every claimed index is drained before anything is
// rethrown — the tasks capture references to the caller's closure and to
// the result slots, so rethrowing while indices are still running would
// leave them racing a destroyed frame. When several indices throw, the
// lowest one wins (deterministic across schedules); the rest are
// swallowed. The pool itself stays reusable afterwards.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <future>
#include <optional>
#include <type_traits>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace lsm::par {

/// Maps fn over [0, n) returning the results in index order. fn may run on
/// any worker; results are assembled deterministically.
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t n, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  using Result = std::invoke_result_t<Fn, std::size_t>;
  std::vector<std::optional<Result>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> cursor{0};
  // Each slot is written by the one task that claimed its index; the
  // futures' get() below orders those writes before the reads.
  const auto drain = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      try {
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t tasks = std::min<std::size_t>(n, pool.size());
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  try {
    for (std::size_t t = 0; t < tasks; ++t) {
      futures.push_back(pool.submit(drain));
    }
  } catch (...) {
    for (auto& f : futures) f.wait();
    throw;
  }
  for (auto& f : futures) f.get();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<Result> out;
  out.reserve(n);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace lsm::par
