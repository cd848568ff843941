// Fixed-size work-stealing thread pool used to fan simulation replications
// and parameter sweeps across cores. Tasks are type-erased; submit()
// returns a future so exceptions thrown inside a task propagate to the
// caller on get().
//
// Each worker owns a deque: it pushes and pops its own work at the back
// (LIFO keeps nested submissions cache-warm) and steals from the front of
// a randomized sequence of victims when its own deque runs dry, so one
// hot queue cannot serialize the pool the way the old single
// central-mutex queue did. External submit() calls place tasks
// round-robin across the workers' deques; submit() from inside a worker
// places the task on that worker's own deque. Job futures make
// completion observable; the pool itself guarantees only that every
// submitted task runs exactly once — scheduling order is unspecified.
// Callers that want their work started in order claim it through
// par::parallel_map's shared cursor instead of submitting a task per
// item. Every simulation result must be (and is) independent of which
// worker runs which replication (per-replication RNG jump streams; see
// exp::Runner, whose unit of work is one replication).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace lsm::par {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). The pool joins in the destructor
  /// after draining every deque (RAII; no detached threads).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count; fixed before any thread spawns (workers_ itself is
  /// still being populated while early workers already run).
  [[nodiscard]] unsigned size() const noexcept { return count_; }

  /// Enqueues `fn(args...)`; the returned future yields its result or
  /// rethrows its exception.
  template <typename Fn, typename... Args>
  auto submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<Fn, Args...>> {
    using Result = std::invoke_result_t<Fn, Args...>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [f = std::forward<Fn>(fn),
         ... as = std::forward<Args>(args)]() mutable -> Result {
          return std::invoke(std::move(f), std::move(as)...);
        });
    std::future<Result> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

 private:
  using Task = std::function<void()>;

  /// One per worker thread; heap-allocated so addresses stay stable.
  struct Worker {
    std::mutex mutex;
    std::deque<Task> deque;  // back = owner end, front = steal end
  };

  void enqueue(Task task);
  void worker_loop(unsigned id);
  bool try_pop_own(unsigned id, Task& out);
  bool try_steal(unsigned id, std::uint64_t& rng_state, Task& out);

  unsigned count_ = 0;
  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  // Sleep/wake machinery: pending_ counts queued-but-unclaimed tasks and
  // is only modified while holding sleep_mutex_, so a worker checking the
  // wait predicate cannot miss a wakeup.
  std::mutex sleep_mutex_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  unsigned next_queue_ = 0;  ///< round-robin cursor for external submits
};

}  // namespace lsm::par
