#include "runtime/thread_pool.hpp"

#include <chrono>
#include <utility>

namespace commroute::runtime {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t micros_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

std::size_t resolve_threads(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
  }
  return std::max<std::size_t>(threads, 1);
}

ThreadPool::ThreadPool(std::size_t threads)
    : shards_(resolve_threads(threads)) {
  workers_.reserve(shards_.size());
}

ThreadPool::~ThreadPool() noexcept(false) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  // Surface a task failure nobody collected — but never compete with an
  // in-flight exception (that would terminate).
  if (first_error_ != nullptr && std::uncaught_exceptions() == 0) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    std::rethrow_exception(error);
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Once stop_ is set the destructor is joining workers_; the running
    // workers drain whatever is queued.
    if (!stop_ && queue_.size() >= idle_ &&
        workers_.size() < shards_.size()) {
      const std::size_t i = workers_.size();
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
    queue_.push_back(std::move(task));
    queue_depth_peak_ = std::max(queue_depth_peak_, queue_.size());
  }
  cv_.notify_one();
}

void ThreadPool::rethrow_pending() {
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

PoolStats ThreadPool::stats() const {
  PoolStats stats;
  stats.workers = shards_.size();
  stats.per_worker.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    WorkerStats w;
    w.tasks = shard.tasks.load(std::memory_order_relaxed);
    w.busy_us = shard.busy_us.load(std::memory_order_relaxed);
    w.idle_us = shard.idle_us.load(std::memory_order_relaxed);
    stats.tasks_executed += w.tasks;
    stats.busy_us += w.busy_us;
    stats.idle_us += w.idle_us;
    stats.per_worker.push_back(w);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.queue_depth_peak = queue_depth_peak_;
  }
  return stats;
}

void ThreadPool::worker_loop(std::size_t worker) {
  Shard& shard = shards_[worker];
  Clock::time_point idle_since = Clock::now();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) {
        shard.idle_us.fetch_add(micros_between(idle_since, Clock::now()),
                                std::memory_order_relaxed);
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const Clock::time_point start = Clock::now();
    shard.idle_us.fetch_add(micros_between(idle_since, start),
                            std::memory_order_relaxed);
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_error_ == nullptr) {
        first_error_ = std::current_exception();
      }
    }
    const Clock::time_point end = Clock::now();
    shard.busy_us.fetch_add(micros_between(start, end),
                            std::memory_order_relaxed);
    shard.tasks.fetch_add(1, std::memory_order_relaxed);
    idle_since = end;
  }
}

}  // namespace commroute::runtime
