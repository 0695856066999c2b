#include "sqlfacil/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sqlfacil {
namespace {

TEST(NumChunksTest, MatchesRangeAndGrain) {
  EXPECT_EQ(NumChunks(0, 0, 4), 0u);
  EXPECT_EQ(NumChunks(3, 3, 4), 0u);
  EXPECT_EQ(NumChunks(0, 1, 4), 1u);
  EXPECT_EQ(NumChunks(0, 4, 4), 1u);
  EXPECT_EQ(NumChunks(0, 5, 4), 2u);
  EXPECT_EQ(NumChunks(2, 10, 3), 3u);
  EXPECT_EQ(NumChunks(0, 10, 0), 10u);  // grain 0 treated as 1
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  bool called = false;
  ParallelFor(0, 0, 1, [&](size_t, size_t) { called = true; });
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  ParallelFor(7, 3, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool::SetGlobalThreads(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h = 0;
  ParallelFor(0, kN, 7, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  auto collect = [](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    const size_t chunks = NumChunks(3, 100, 9);
    std::vector<std::pair<size_t, size_t>> bounds(chunks);
    ParallelForChunks(3, 100, 9, [&](size_t c, size_t b, size_t e) {
      bounds[c] = {b, e};
    });
    return bounds;
  };
  const auto serial = collect(1);
  const auto parallel = collect(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c], parallel[c]) << "chunk " << c;
  }
  // Chunks tile the range in order.
  EXPECT_EQ(serial.front().first, 3u);
  EXPECT_EQ(serial.back().second, 100u);
  for (size_t c = 1; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].first, serial[c - 1].second);
  }
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadPool::SetGlobalThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](size_t b, size_t) {
                    if (b == 42) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives a throwing parallel section.
  std::atomic<size_t> sum{0};
  ParallelFor(0, 10, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool::SetGlobalThreads(2);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  ParallelFor(0, 8, 1, [&](size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      // Inner loop from a worker thread must not wait on pool capacity.
      ParallelFor(0, 8, 1, [&](size_t ib, size_t ie) {
        for (size_t i = ib; i < ie; ++i) hits[o * 8 + i].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  // Notify while holding the mutex: the waiter destroys cv as soon as it
  // observes done == 2, so an unlocked notify could outlive it.
  auto signal = [&] {
    std::lock_guard<std::mutex> lock(mu);
    done.fetch_add(1);
    cv.notify_all();
  };
  pool.Submit([&] {
    pool.Submit(signal);
    signal();
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return done.load() == 2; }));
}

TEST(ThreadPoolTest, DeterministicReductionAcrossThreadCounts) {
  constexpr size_t kN = 10000;
  constexpr size_t kGrain = 64;
  auto reduce = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<double> partial(NumChunks(0, kN, kGrain), 0.0);
    ParallelForChunks(0, kN, kGrain, [&](size_t c, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        partial[c] += 1.0 / static_cast<double>(i + 1);
      }
    });
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  };
  const double t1 = reduce(1);
  const double t3 = reduce(3);
  const double t8 = reduce(8);
  // Bit-identical, not just approximately equal.
  EXPECT_EQ(t1, t3);
  EXPECT_EQ(t1, t8);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillWorkerOrProcess) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> completed{0};
  auto signal = [&] {
    std::lock_guard<std::mutex> lock(mu);
    completed.fetch_add(1);
    cv.notify_all();
  };
  // A bare Submit() task that throws must be swallowed at the task
  // boundary (counted, not terminated), and the pool stays usable.
  for (int i = 0; i < 4; ++i) {
    pool.Submit([] { throw std::runtime_error("task boom"); });
  }
  for (int i = 0; i < 3; ++i) pool.Submit(signal);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completed.load() == 3; }));
  }
  // The other worker can finish the signals while the last throwing task
  // is still unwinding toward its count, so wait (bounded) for the count
  // instead of sampling it once.
  for (int ms = 0; ms < 30000 && pool.uncaught_task_errors() < 4; ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.uncaught_task_errors(), 4u);
  // Still reusable after the failures.
  pool.Submit(signal);
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return completed.load() == 4; }));
}

TEST(ParallelForTest, BodyExceptionRethrownInCallerPoolReusable) {
  ThreadPool::SetGlobalThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, 7,
                  [&](size_t b, size_t) {
                    if (b >= 490) throw std::runtime_error("chunk boom");
                  }),
      std::runtime_error);
  // The pool survives and later parallel sections still complete and
  // produce correct results.
  std::atomic<size_t> count{0};
  ParallelFor(0, 1000, 7, [&](size_t b, size_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 1000u);
  ThreadPool::SetGlobalThreads(1);
}

}  // namespace
}  // namespace sqlfacil
