// ThreadPool / parallel_for_each semantics: ordered result collection,
// dense worker ids, on-demand worker start, first-failure exception
// propagation, the zero-task edge, and queue draining on destruction —
// the contract the parallel campaign driver builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace commroute::runtime {
namespace {

TEST(ThreadPool, ResolveThreadsNeverReturnsZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // join happens here
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SubmittedExceptionSurfacesViaRethrowPending) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  // Give the worker time to run and record the failure.
  for (int i = 0; i < 2000 && pool.stats().tasks_executed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  try {
    pool.rethrow_pending();
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  // The error was consumed: a second call is clean, and so is the
  // destructor.
  pool.rethrow_pending();
}

TEST(ThreadPool, FirstSubmittedExceptionWinsAndWorkersSurvive) {
  ThreadPool pool(1);  // serial worker: deterministic first failure
  std::atomic<int> ran{0};
  pool.submit([] { throw std::logic_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  pool.submit([&ran] { ran.fetch_add(1); });
  for (int i = 0; i < 2000 && ran.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A throwing task must not kill its worker thread.
  EXPECT_EQ(ran.load(), 1);
  try {
    pool.rethrow_pending();
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, DestructorRethrowsUnconsumedTaskException) {
  bool thrown = false;
  try {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("lost otherwise"); });
  } catch (const std::runtime_error& e) {
    thrown = true;
    EXPECT_STREQ(e.what(), "lost otherwise");
  }
  EXPECT_TRUE(thrown);
}

TEST(ThreadPool, StatsCountTasksAndWorkers) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  for (int i = 0; i < 2000 && ran.load() < 64; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.workers, 3u);
  EXPECT_EQ(stats.tasks_executed, 64u);
  ASSERT_EQ(stats.per_worker.size(), 3u);
  std::uint64_t per_worker_sum = 0;
  for (const WorkerStats& w : stats.per_worker) {
    per_worker_sum += w.tasks;
  }
  EXPECT_EQ(per_worker_sum, 64u);
  EXPECT_GE(stats.queue_depth_peak, 1u);
  // utilization is a fraction; with any idle wait it stays in [0, 1].
  EXPECT_GE(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ParallelForEach, CollectsResultsInIndexOrder) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::size_t> results(n, 0);
  parallel_for_each(pool, n, [&results](std::size_t, std::size_t i) {
    results[i] = i * i;
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(results[i], i * i) << "index " << i;
  }
}

TEST(ParallelForEach, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_each(pool, n, [&hits](std::size_t, std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForEach, WorkerIdsAreDense) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::size_t> workers;
  parallel_for_each(pool, 64, [&](std::size_t worker, std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    workers.insert(worker);
  });
  ASSERT_FALSE(workers.empty());
  // Dense ids in [0, min(pool.size(), count)): never an id >= 3, and
  // worker 0 (the calling thread) always participates.
  EXPECT_LT(*workers.rbegin(), 3u);
  EXPECT_TRUE(workers.count(0));
}

TEST(ParallelForEach, AWidthTwoLoopStartsOneWorker) {
  ThreadPool pool(2);
  std::atomic<std::size_t> worker_of_first{99};
  parallel_for_each(pool, 8, [&](std::size_t worker, std::size_t i) {
    if (i == 0) {
      worker_of_first = worker;
    }
  });
  // The caller runs index 0; the one submitted task needs one thread,
  // so the pool's second worker never starts and its shard stays empty.
  EXPECT_EQ(worker_of_first.load(), 0u);
  const PoolStats stats = pool.stats();
  ASSERT_EQ(stats.per_worker.size(), 2u);
  EXPECT_EQ(stats.per_worker[1].tasks, 0u);
  EXPECT_EQ(stats.per_worker[1].busy_us, 0u);
  EXPECT_EQ(stats.per_worker[1].idle_us, 0u);
}

TEST(ParallelForEach, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_each(pool, 0, [&called](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ParallelForEach, PropagatesTheFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    parallel_for_each(pool, 100, [&](std::size_t, std::size_t i) {
      if (i == 7) {
        throw std::runtime_error("boom at 7");
      }
      completed.fetch_add(1);
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 7");
  }
  // The failure aborts further claiming; already-claimed indices finish.
  EXPECT_LT(completed.load(), 100);
}

TEST(ParallelForEach, LowestIndexExceptionWinsWhenSerial) {
  // With one worker the indices run in order, so the first throwing
  // index is deterministically the one reported.
  ThreadPool pool(1);
  try {
    parallel_for_each(pool, 10, [](std::size_t, std::size_t i) {
      if (i >= 3) {
        throw std::out_of_range("idx " + std::to_string(i));
      }
    });
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "idx 3");
  }
}

TEST(ParallelForEach, WorksWithMoreIndicesThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  parallel_for_each(pool, 10000, [&sum](std::size_t, std::size_t i) {
    sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 10000ull * 9999ull / 2);
}

}  // namespace
}  // namespace commroute::runtime
