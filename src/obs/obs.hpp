// The instrumentation handle threaded through the hot loops (engine run,
// checker exploration, campaign driver). All three members are optional:
// detached (the default) must cost nothing, so instrumented code guards
// every metric publish, event emit, and span begin on the raw pointers
// and keeps its per-iteration counters in plain locals.
#pragma once

#include <string>
#include <string_view>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace commroute::obs {

struct Instrumentation {
  Registry* metrics = nullptr;
  EventSink* sink = nullptr;
  SpanCollector* spans = nullptr;

  bool attached() const {
    return metrics != nullptr || sink != nullptr || spans != nullptr;
  }

  /// Forwards to the sink when one is attached. Prefer checking `sink`
  /// before *building* an Event; this is for pre-built events.
  void emit(const Event& event) const {
    if (sink != nullptr) {
      sink->emit(event);
    }
  }

  /// Registry accessors that tolerate a detached handle (nullptr out).
  Counter* counter(const std::string& name) const {
    return metrics != nullptr ? &metrics->counter(name) : nullptr;
  }
  Gauge* gauge(const std::string& name) const {
    return metrics != nullptr ? &metrics->gauge(name) : nullptr;
  }

  /// Starts a span when a collector is attached; a disabled no-op span
  /// (no clock read, no allocation) otherwise.
  Span span(std::string_view name) const {
    return spans != nullptr ? spans->begin(name) : Span{};
  }
};

}  // namespace commroute::obs
