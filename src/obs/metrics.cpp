#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace commroute::obs {

Counter& Registry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

LogHistogram& Registry::histogram(const std::string& name) {
  return histograms_[name];
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].add(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].record_max(g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge_from(h);
  }
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = c.value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g.value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.value = h.count();
    s.sum = h.sum();
    samples.push_back(std::move(s));
  }
  return samples;
}

std::string Registry::to_json() const {
  JsonWriter counters;
  for (const auto& [name, c] : counters_) {
    counters.field(name, c.value());
  }
  JsonWriter gauges;
  for (const auto& [name, g] : gauges_) {
    gauges.field(name, g.value());
  }
  JsonWriter histograms;
  for (const auto& [name, h] : histograms_) {
    histograms.raw_field(name, h.to_json());
  }
  JsonWriter top;
  top.raw_field("counters", counters.str());
  top.raw_field("gauges", gauges.str());
  top.raw_field("histograms", histograms.str());
  return top.str();
}

}  // namespace commroute::obs
