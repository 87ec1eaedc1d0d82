#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace commroute::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, RecordMaxKeepsHighWater) {
  Gauge g;
  EXPECT_EQ(g.value(), 0u);
  g.record_max(7);
  g.record_max(5);
  EXPECT_EQ(g.value(), 7u);
}

TEST(Registry, ReturnsTheSameMetricPerName) {
  Registry r;
  Counter& c = r.counter("a");
  r.counter("a").add(2);
  EXPECT_EQ(c.value(), 2u);
  Gauge& g = r.gauge("g");
  r.gauge("g").record_max(9);
  EXPECT_EQ(g.value(), 9u);
  LogHistogram& h = r.histogram("h");
  r.histogram("h").observe(1);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.precision_bits(), LogHistogram().precision_bits());
}

TEST(Registry, SnapshotListsEveryMetric) {
  Registry r;
  r.counter("steps").add(5);
  r.gauge("frontier").record_max(3);
  r.histogram("lat").observe(4);
  const auto samples = r.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const MetricSample& s : samples) {
    if (s.name == "steps") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      EXPECT_EQ(s.value, 5u);
      saw_counter = true;
    } else if (s.name == "frontier") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kGauge);
      EXPECT_EQ(s.value, 3u);
      saw_gauge = true;
    } else if (s.name == "lat") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kHistogram);
      EXPECT_EQ(s.value, 1u);  // count
      EXPECT_EQ(s.sum, 4u);
      saw_histogram = true;
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
}

TEST(Registry, ToJsonRoundTripsThroughTheParser) {
  Registry r;
  r.counter("engine.steps").add(123);
  r.gauge("checker.frontier_peak").record_max(17);
  r.histogram("engine.run_steps").observe(20);
  const auto parsed = json_parse(r.to_json());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* steps = counters->find("engine.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_DOUBLE_EQ(steps->as_number(), 123.0);
  const JsonValue* gauges = parsed->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("checker.frontier_peak"), nullptr);
  const JsonValue* histograms = parsed->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* hist = histograms->find("engine.run_steps");
  ASSERT_NE(hist, nullptr);
  // Each histogram is embedded as its LogHistogram::to_json object.
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 20.0);
  EXPECT_DOUBLE_EQ(hist->find("p50")->as_number(), 20.0);
  EXPECT_NE(r.to_json().find(r.histogram("engine.run_steps").to_json()),
            std::string::npos);
}

TEST(ScopedTimer, RecordsElapsedIntoCounterOnDestruction) {
  Counter c;
  {
    ScopedTimer t(&c);
    while (t.elapsed_us() < 1) {
      // spin until at least one microsecond elapsed
    }
  }
  EXPECT_GE(c.value(), 1u);
}

TEST(ScopedTimer, ElapsedIsMonotonic) {
  Counter c;
  ScopedTimer t(&c);
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = t.elapsed_us();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(ScopedTimer, NullTargetIsDisabled) {
  ScopedTimer t(nullptr);
  EXPECT_EQ(t.elapsed_us(), 0u);
}

TEST(RegistryMerge, CountersAddGaugesMaxHistogramsMerge) {
  Registry target;
  target.counter("c").add(10);
  target.gauge("g").record_max(5);
  target.histogram("h").observe(7);

  Registry shard;
  shard.counter("c").add(3);
  shard.counter("only_in_shard").add(1);
  shard.gauge("g").record_max(9);
  shard.gauge("low").record_max(2);
  shard.histogram("h").observe(50);
  shard.histogram("h").observe(5000);
  shard.histogram("new_h").observe(0);

  target.merge_from(shard);
  EXPECT_EQ(target.counter("c").value(), 13u);
  EXPECT_EQ(target.counter("only_in_shard").value(), 1u);
  EXPECT_EQ(target.gauge("g").value(), 9u);
  EXPECT_EQ(target.gauge("low").value(), 2u);
  const LogHistogram& h = target.histogram("h");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 7u + 50u + 5000u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_EQ(target.histogram("new_h").count(), 1u);
}

/// Two registry shards over disjoint parts of one observation stream.
void fill_shards(Registry& a, Registry& b) {
  a.counter("x").add(2);
  a.gauge("g").record_max(4);
  b.counter("x").add(5);
  b.gauge("g").record_max(3);
  for (std::uint64_t v : {0u, 1u, 31u, 32u, 33u, 1000u, 70000u}) {
    a.histogram("h").observe(v);
  }
  for (std::uint64_t v : {2u, 32u, 64u, 999u, 1u << 20}) {
    b.histogram("h").observe(v);
  }
  b.histogram("only_b").observe(9);
}

TEST(RegistryMerge, MergingAIntoBEqualsMergingBIntoA) {
  Registry a1, b1, a2, b2;
  fill_shards(a1, b1);
  fill_shards(a2, b2);
  a1.merge_from(b1);  // A <- B
  b2.merge_from(a2);  // B <- A
  EXPECT_EQ(a1.to_json(), b2.to_json());
  EXPECT_EQ(a1.histogram("h").count(), 12u);
}

TEST(RegistryMerge, ShardOrderDoesNotChangeTheBytes) {
  // Merge combiners commute, so shard order cannot change the result —
  // the property the parallel campaign's determinism guarantee rests on.
  Registry a, b;
  fill_shards(a, b);

  Registry ab, ba;
  ab.merge_from(a);
  ab.merge_from(b);
  ba.merge_from(b);
  ba.merge_from(a);
  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.counter("x").value(), 7u);
  EXPECT_EQ(ab.gauge("g").value(), 4u);

  // One registry fed the whole stream serializes the same as the shards.
  Registry whole;
  fill_shards(whole, whole);
  EXPECT_EQ(ab.histogram("h").to_json(), whole.histogram("h").to_json());
}

TEST(RegistryMerge, EmptyHistogramShardIsANoOp) {
  // Merging a shard whose histogram was declared but never observed
  // leaves the target's bytes unchanged.
  Registry target;
  target.histogram("h").observe(3);
  target.histogram("h").observe(11);
  const std::string before = target.to_json();
  Registry empty;
  empty.histogram("h");
  target.merge_from(empty);
  EXPECT_EQ(target.to_json(), before);
}

TEST(RegistryMerge, CounterOccurrencesSurviveParallelSharding) {
  // N workers each flagging engine.cycle_detection_disabled once must
  // merge to N, not 1, so a campaign shows how many rows ran blind.
  Registry target;
  for (int worker = 0; worker < 8; ++worker) {
    Registry shard;
    shard.counter("engine.cycle_detection_disabled").add();
    target.merge_from(shard);
  }
  EXPECT_EQ(target.counter("engine.cycle_detection_disabled").value(), 8u);
}

TEST(JsonNumber, FormatsRoundTrippably) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  const double v = 0.1;
  char* end = nullptr;
  EXPECT_EQ(std::strtod(json_number(v).c_str(), &end), v);
}

}  // namespace
}  // namespace commroute::obs
