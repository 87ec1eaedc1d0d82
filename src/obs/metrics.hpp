// Metrics registry for the hot loops: monotonic counters, high-water
// gauges, log-bucketed histograms, and RAII scoped timers. Everything is
// plain uint64_t + steady_clock — no atomics, no strings on the update path,
// and zero overhead when no registry is attached (instrumented code
// holds a nullable pointer and publishes aggregates once per run).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/sketch.hpp"

namespace commroute::obs {

/// A monotonically increasing count (steps executed, messages sent).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A high-water mark (frontier peak, channel-occupancy peak). Same-named
/// gauges merge by max.
class Gauge {
 public:
  void record_max(std::uint64_t v) {
    if (v > value_) {
      value_ = v;
    }
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// One metric in a registry snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t value = 0;  ///< counter/gauge value; histogram count
  std::uint64_t sum = 0;    ///< histogram only
};

/// Owns metrics by name. References returned by counter()/gauge()/
/// histogram() stay valid for the registry's lifetime (node-based map),
/// so hot loops can resolve a name once and update through the pointer.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// A LogHistogram at its default precision.
  LogHistogram& histogram(const std::string& name);

  /// Folds another registry into this one, one rule per kind: counters
  /// add, gauges take the max, histograms merge (LogHistogram::
  /// merge_from, which is exact). Every rule is commutative and
  /// associative, so per-worker shards merge into the same aggregates
  /// whichever worker ran which row, in any shard order.
  void merge_from(const Registry& other);

  /// All metrics, name-sorted within each kind.
  std::vector<MetricSample> snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}, each
  /// histogram as its LogHistogram::to_json object.
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

/// RAII timer: on destruction adds the elapsed microseconds to the target
/// counter. A null target disables the timer entirely (the clock is
/// never read), making the detached path free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Counter* target)
      : target_(target),
        start_(target != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (target_ != nullptr) {
      target_->add(elapsed_us());
    }
  }

  /// Microseconds since construction; 0 when disabled.
  std::uint64_t elapsed_us() const {
    if (target_ == nullptr) {
      return 0;
    }
    const auto d = std::chrono::steady_clock::now() - start_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  }

 private:
  Counter* target_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace commroute::obs
