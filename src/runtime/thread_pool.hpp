// Fixed-size worker pool for embarrassingly-parallel drivers (the
// campaign runner and the checker's expansion waves). Tasks are plain
// std::function thunks served FIFO by up to a fixed number of worker
// threads, started on demand;
// parallel_for_each layers dynamic index claiming, dense worker ids,
// ordered result collection (the caller writes results[i]), and
// first-failure exception propagation on top.
//
// Determinism contract: the pool itself never reorders *results* — any
// ordering an algorithm needs is expressed by indexing into caller-owned
// storage, so output bytes never depend on which worker ran which index.
// Pool telemetry (stats(), queue_depth()) is wall-clock-derived and
// therefore quarantined like wall_ms: it may feed telemetry snapshots
// and metric registries, never byte-compared outputs.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace commroute::runtime {

/// Telemetry for one worker thread. busy_us counts time inside tasks,
/// idle_us time spent parked on the queue; both are wall-clock derived
/// (timing-variant — see the quarantine note above).
struct WorkerStats {
  std::uint64_t tasks = 0;
  std::uint64_t busy_us = 0;
  std::uint64_t idle_us = 0;
};

/// Merged pool telemetry: the per-worker shards summed commutatively
/// (the same discipline as obs::Registry::merge_from), plus the queue
/// depth high-watermark observed at submit time.
struct PoolStats {
  std::size_t workers = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t busy_us = 0;
  std::uint64_t idle_us = 0;
  std::size_t queue_depth_peak = 0;
  std::vector<WorkerStats> per_worker;

  /// Fraction of worker wall time spent inside tasks, in [0, 1].
  double utilization() const {
    const std::uint64_t total = busy_us + idle_us;
    return total == 0 ? 0.0
                      : static_cast<double>(busy_us) /
                            static_cast<double>(total);
  }
};

/// Up to size() worker threads serving a FIFO queue of thunks. A worker
/// starts only when a task is queued and no idle worker can take it, so
/// a pool used by parallel_for_each (the caller doubles as worker 0)
/// never starts a thread that gets no work. An idle thread is not free:
/// glibc attaches a malloc arena to every thread that allocates or frees
/// (even once, at exit), and with two threads it would be chance which
/// arena the work grows, so the memory a run leaves resident would vary.
/// submit() never blocks; the destructor drains the queue, then joins.
class ThreadPool {
 public:
  /// `threads` is resolved by resolve_threads(): an explicit 0 means
  /// std::thread::hardware_concurrency(), and there is at least one
  /// worker either way.
  explicit ThreadPool(std::size_t threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Runs every queued task, joins the workers, then rethrows the first
  /// task exception (if any) that was not already consumed by
  /// rethrow_pending() — unless the destructor itself runs during stack
  /// unwinding, in which case the stored exception is dropped rather
  /// than calling std::terminate.
  ~ThreadPool() noexcept(false);

  /// Most worker threads the pool runs (started on demand).
  std::size_t size() const { return shards_.size(); }

  /// Enqueues a task. A throwing task does not kill the worker: the
  /// first escaping exception is recorded and rethrown from
  /// rethrow_pending() or the destructor; later ones are swallowed.
  /// (parallel_for_each still does its own per-index capture and never
  /// lets exceptions reach this layer.)
  void submit(std::function<void()> task);

  /// Rethrows the first exception that escaped a submitted task, or
  /// returns quietly if none did. Clears the stored exception either
  /// way, so the destructor will not rethrow it again.
  void rethrow_pending();

  /// Tasks currently queued (not yet claimed by a worker). Safe to call
  /// from any thread; used as a telemetry probe.
  std::size_t queue_depth() const;

  /// Point-in-time telemetry snapshot. Safe to call from any thread,
  /// including while tasks run (per-worker counters are relaxed
  /// atomics; in-flight tasks are not yet counted).
  PoolStats stats() const;

 private:
  /// Per-worker telemetry shard. Relaxed atomics: single writer (the
  /// owning worker), concurrent readers (stats(), the sampler thread).
  struct Shard {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_us{0};
    std::atomic<std::uint64_t> idle_us{0};
  };

  void worker_loop(std::size_t worker);

  std::vector<std::thread> workers_;
  std::vector<Shard> shards_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t idle_ = 0;  ///< workers waiting for a task
  std::size_t queue_depth_peak_ = 0;
  std::exception_ptr first_error_;
};

/// Resolves `threads` the way the parallel drivers do: 0 means
/// hardware_concurrency(), and the result is clamped to at least 1.
std::size_t resolve_threads(std::size_t threads);

/// Runs `fn(worker, index)` for every index in [0, count), distributing
/// indices dynamically across min(pool.size(), count) tasks, and blocks
/// until all indices finished. `worker` is a dense id in
/// [0, min(pool.size(), count)) identifying the claiming task — use it
/// to index per-worker shards (statistics, registries) that are merged
/// deterministically after the call returns.
///
/// Exception safety: the first failing index (lowest index wins among
/// concurrent failures) aborts further claiming; already-claimed indices
/// run to completion, then the stored exception is rethrown on the
/// calling thread.
template <typename Fn>
void parallel_for_each(ThreadPool& pool, std::size_t count, Fn&& fn) {
  if (count == 0) {
    return;
  }
  struct Shared {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t next = 0;
    std::size_t running = 0;
    bool abort = false;
    std::exception_ptr error;
    std::size_t error_index = 0;
  };
  Shared shared;
  const std::size_t workers = std::min(pool.size(), count);
  shared.running = workers;

  auto claim = [&shared, count](std::size_t& index) {
    std::lock_guard<std::mutex> lock(shared.mutex);
    if (shared.abort || shared.next >= count) {
      return false;
    }
    index = shared.next++;
    return true;
  };
  // Runs `index` first if `claimed`, then claims indices until none are
  // left.
  auto drain = [&shared, &claim, &fn](std::size_t worker, bool claimed,
                                      std::size_t index) {
    while (claimed || claim(index)) {
      claimed = false;
      try {
        fn(worker, index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared.mutex);
        if (shared.error == nullptr || index < shared.error_index) {
          shared.error = std::current_exception();
          shared.error_index = index;
        }
        shared.abort = true;
      }
    }
    std::lock_guard<std::mutex> lock(shared.mutex);
    if (--shared.running == 0) {
      shared.done.notify_all();
    }
  };

  // The calling thread doubles as worker 0, so a one-thread pool (or a
  // pool busy with other work) still makes progress. It takes index 0
  // before any worker starts: submit() may start a thread, and a worker
  // that starts first must not leave the caller nothing to run.
  shared.next = 1;
  for (std::size_t w = 1; w < workers; ++w) {
    pool.submit([&drain, w] { drain(w, false, 0); });
  }
  drain(0, true, 0);

  std::unique_lock<std::mutex> lock(shared.mutex);
  shared.done.wait(lock, [&shared] { return shared.running == 0; });
  if (shared.error != nullptr) {
    std::rethrow_exception(shared.error);
  }
}

}  // namespace commroute::runtime
