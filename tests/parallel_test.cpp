// Unit tests for src/parallel: thread pool semantics, parallel_map,
// deterministic RNG streams.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/rng_streams.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace {

using namespace lsm;

TEST(ThreadPool, ExecutesSubmittedWork) {
  par::ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ForwardsArguments) {
  par::ThreadPool pool(2);
  auto f = pool.submit([](int a, int b) { return a + b; }, 40, 2);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  par::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  par::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    par::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(par::ThreadPool(0), util::LogicError);
}

TEST(ThreadPool, NestedSubmitFromWorkerRuns) {
  // Tasks submitted from inside a worker land on that worker's own deque;
  // the other workers steal from it. All of them must run exactly once.
  par::ThreadPool pool(4);
  std::atomic<int> counter{0};
  auto outer = pool.submit([&] {
    std::vector<std::future<void>> inner;
    inner.reserve(64);
    for (int i = 0; i < 64; ++i) {
      inner.push_back(pool.submit([&counter] { ++counter; }));
    }
    return inner;
  });
  for (auto& f : outer.get()) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, SingleWorkerRunsNestedSubmitsWithoutDeadlock) {
  // A 1-wide pool has no thief to hand nested work to: the spawning task
  // must be able to return and let the same worker drain its own deque.
  par::ThreadPool pool(1);
  std::atomic<int> counter{0};
  auto outer = pool.submit([&] {
    std::vector<std::future<void>> inner;
    for (int i = 0; i < 16; ++i) {
      inner.push_back(pool.submit([&counter] { ++counter; }));
    }
    return inner;
  });
  for (auto& f : outer.get()) f.get();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, ConcurrentExternalSubmitters) {
  // External submits round-robin across worker deques; hammer them from
  // several threads at once (the TSan build runs this too).
  par::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      std::vector<std::future<void>> fs;
      fs.reserve(100);
      for (int i = 0; i < 100; ++i) {
        fs.push_back(pool.submit([&counter] { ++counter; }));
      }
      for (auto& f : fs) f.get();
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(counter.load(), 400);
}

TEST(ParallelMap, CoversEveryIndexOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  const auto out = par::parallel_map(pool, hits.size(), [&](std::size_t i) {
    return ++hits[i];
  });
  ASSERT_EQ(out.size(), hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1);
    EXPECT_EQ(out[i], 1);
  }
}

TEST(ParallelMap, FewerIndicesThanWorkersRunEachOnce) {
  par::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  const auto out = par::parallel_map(pool, hits.size(), [&](std::size_t i) {
    ++hits[i];
    return 10 * i;
  });
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1);
    EXPECT_EQ(out[i], 10 * i);
  }
}

TEST(ParallelMap, EmptyRangeIsNoop) {
  par::ThreadPool pool(2);
  bool touched = false;
  const auto out = par::parallel_map(pool, 0, [&](std::size_t) {
    touched = true;
    return 1;
  });
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(touched);
}

TEST(ParallelMap, PreservesIndexOrder) {
  par::ThreadPool pool(4);
  auto out = par::parallel_map(pool, 64, [](std::size_t i) { return 2 * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 2 * i);
}

TEST(ParallelMap, ClaimsIndicesInOrder) {
  // One worker, one task: it claims every index from the cursor in turn,
  // so the indices execute exactly in order (a LIFO deque of per-index
  // tasks would run them roughly in reverse).
  par::ThreadPool pool(1);
  std::vector<std::size_t> order;
  (void)par::parallel_map(pool, 50, [&](std::size_t i) {
    order.push_back(i);
    return i;
  });
  std::vector<std::size_t> expected(50);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ParallelMap, DrainsAllClaimedIndicesBeforeRethrowing) {
  // fn and the result slots live in the caller's frame; rethrowing before
  // every claimed index finished would leave workers writing through
  // dangling references while the frame unwinds. Index 0 throws at once
  // while later indices are still running; when the exception arrives no
  // index may still be in flight, and none ran twice.
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> in_flight{0};
  try {
    (void)par::parallel_map(pool, hits.size(), [&](std::size_t i) -> int {
      ++in_flight;
      if (i == 0) {
        --in_flight;
        throw std::runtime_error("early");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++hits[i];
      --in_flight;
      return 0;
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
  EXPECT_EQ(in_flight.load(), 0);
  for (const auto& h : hits) {
    EXPECT_TRUE(h.load() == 0 || h.load() == 1);
  }
  // The pool is reusable afterwards: no task of the failed call lingers.
  const auto out =
      par::parallel_map(pool, 100, [](std::size_t i) { return i; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}), 4950u);
}

TEST(ParallelMap, LowestIndexExceptionWinsUnderConcurrentThrows) {
  // Several indices throw; the caller must deterministically observe the
  // lowest-index failure regardless of completion order.
  par::ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    try {
      (void)par::parallel_map(pool, 64, [&](std::size_t i) -> int {
        if (i % 16 == 0) {
          throw std::runtime_error("i=" + std::to_string(i));
        }
        return 0;
      });
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "i=0");
    }
  }
}

TEST(ParallelMap, DrainsAndStaysUsableAfterException) {
  par::ThreadPool pool(4);
  EXPECT_THROW((void)par::parallel_map(pool, 32,
                                       [](std::size_t i) -> int {
                                         if (i == 3) {
                                           throw std::runtime_error("boom");
                                         }
                                         return static_cast<int>(i);
                                       }),
               std::runtime_error);
  const auto out = par::parallel_map(pool, 8, [](std::size_t i) {
    return static_cast<int>(i) + 1;
  });
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

TEST(RngStreams, StreamsAreDeterministic) {
  par::RngStreams streams(1234);
  auto a = streams.stream(3);
  auto b = streams.stream(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(RngStreams, DistinctStreamsDisagree) {
  par::RngStreams streams(1234);
  auto a = streams.stream(0);
  auto b = streams.stream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(RngStreams, IndependentOfConstructionOrder) {
  par::RngStreams s1(77), s2(77);
  auto late = s1.stream(5);
  (void)s2.stream(2);
  auto early = s2.stream(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(late(), early());
}

}  // namespace
