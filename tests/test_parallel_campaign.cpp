// Parallel campaign determinism: any thread count must produce the
// same rows in the same order, byte-identical CSV/JSON once the (only
// nondeterministic) wall-clock fields are normalized, the campaign_row
// event stream in enumeration order, and identical merged metric
// aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"

namespace commroute::study {
namespace {

using model::Model;

CampaignSpec sweep_spec(const spp::Instance& bad, const spp::Instance& good,
                        std::size_t threads) {
  CampaignSpec spec;
  spec.instances = {{"BAD-GADGET", &bad}, {"GOOD", &good}};
  spec.models = Model::all();
  spec.schedulers = {SchedulerKind::kRoundRobin, SchedulerKind::kRandomFair,
                     SchedulerKind::kSynchronous};
  spec.seeds = 2;
  spec.max_steps = 400;
  spec.threads = threads;
  return spec;
}

/// Wall time is the one legitimately nondeterministic column; zero it
/// so the byte-comparison below checks everything else.
void normalize(CampaignResult& result) {
  for (CampaignRow& row : result.rows) {
    row.wall_ms = 0.0;
  }
}

TEST(ParallelCampaign, ThreadCountDoesNotChangeCsvOrJsonBytes) {
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();

  CampaignResult serial = run_campaign(sweep_spec(bad, good, 1));
  CampaignResult parallel = run_campaign(sweep_spec(bad, good, 8));

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  ASSERT_GT(serial.rows.size(), 100u);  // a real sweep, not a toy
  normalize(serial);
  normalize(parallel);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(ParallelCampaign, RowEventsArriveInEnumerationOrder) {
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();

  obs::MemorySink serial_sink;
  CampaignSpec serial_spec = sweep_spec(bad, good, 1);
  serial_spec.obs.sink = &serial_sink;
  const CampaignResult serial = run_campaign(serial_spec);

  obs::MemorySink parallel_sink;
  CampaignSpec parallel_spec = sweep_spec(bad, good, 8);
  parallel_spec.obs.sink = &parallel_sink;
  run_campaign(parallel_spec);

  ASSERT_EQ(serial_sink.lines().size(), parallel_sink.lines().size());
  ASSERT_EQ(serial_sink.lines().size(), serial.rows.size() + 1);  // + summary
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const auto serial_ev = obs::json_parse(serial_sink.lines()[i]);
    const auto parallel_ev = obs::json_parse(parallel_sink.lines()[i]);
    ASSERT_TRUE(serial_ev.has_value() && parallel_ev.has_value());
    const obs::JsonValue* s = serial_ev->find("row");
    const obs::JsonValue* p = parallel_ev->find("row");
    ASSERT_NE(s, nullptr);
    ASSERT_NE(p, nullptr);
    for (const char* key : {"instance", "model", "scheduler", "outcome"}) {
      EXPECT_EQ(s->find(key)->as_string(), p->find(key)->as_string())
          << "event " << i << " key " << key;
    }
    EXPECT_DOUBLE_EQ(s->find("seed")->as_number(),
                     p->find("seed")->as_number())
        << "event " << i;
    EXPECT_DOUBLE_EQ(s->find("steps")->as_number(),
                     p->find("steps")->as_number())
        << "event " << i;
  }
}

TEST(ParallelCampaign, MergedMetricAggregatesMatchSerial) {
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();

  obs::Registry serial_metrics;
  CampaignSpec serial_spec = sweep_spec(bad, good, 1);
  serial_spec.obs.metrics = &serial_metrics;
  run_campaign(serial_spec);

  obs::Registry parallel_metrics;
  CampaignSpec parallel_spec = sweep_spec(bad, good, 8);
  parallel_spec.obs.metrics = &parallel_metrics;
  run_campaign(parallel_spec);

  // Everything except wall-clock counters/histograms is deterministic.
  for (const char* name :
       {"campaign.rows", "campaign.steps", "engine.runs", "engine.steps",
        "engine.messages_sent", "engine.messages_dropped"}) {
    EXPECT_EQ(serial_metrics.counter(name).value(),
              parallel_metrics.counter(name).value())
        << name;
  }
  EXPECT_GT(serial_metrics.counter("campaign.rows").value(), 100u);
  EXPECT_EQ(serial_metrics.gauge("engine.max_channel_occupancy").value(),
            parallel_metrics.gauge("engine.max_channel_occupancy").value());
  // The steps histogram is time-independent and its merge is exact, so
  // the one-shard and eight-shard histograms serialize to the same bytes.
  const obs::LogHistogram& hs = serial_metrics.histogram("engine.run_steps");
  const obs::LogHistogram& hp =
      parallel_metrics.histogram("engine.run_steps");
  EXPECT_EQ(hs.count(), serial_metrics.counter("engine.runs").value());
  EXPECT_EQ(hs.to_json(), hp.to_json());
}

TEST(ParallelCampaign, SpanShardsMergeIntoTheCampaignCollector) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("RMS"), Model::parse("REA")};
  spec.schedulers = {SchedulerKind::kRoundRobin, SchedulerKind::kRandomFair};
  spec.seeds = 3;
  spec.threads = 4;
  obs::SpanCollector spans;
  spec.obs.spans = &spans;
  const CampaignResult result = run_campaign(spec);

  std::size_t row_spans = 0, run_spans = 0;
  for (const obs::SpanRecord& rec : spans.snapshot()) {
    row_spans += rec.name == "campaign.row";
    run_spans += rec.name == "engine.run";
  }
  EXPECT_EQ(row_spans, result.rows.size());
  EXPECT_EQ(run_spans, result.rows.size());
  // Merged ids must stay unique (the offsets worked).
  std::vector<std::uint32_t> ids;
  for (const obs::SpanRecord& rec : spans.snapshot()) {
    ids.push_back(rec.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(ParallelCampaign, TelemetrySamplerNeverPerturbsTheEventStream) {
  // The resource sampler writes RSS and wall-clock values — but only to
  // its own sink. With it attached, CSV/JSON and the campaign event
  // stream must stay byte-identical across thread widths.
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();

  obs::MemorySink serial_events, serial_telemetry;
  CampaignSpec serial_spec = sweep_spec(bad, good, 1);
  serial_spec.obs.sink = &serial_events;
  serial_spec.telemetry_sink = &serial_telemetry;
  serial_spec.telemetry_interval_ms = 10;
  CampaignResult serial = run_campaign(serial_spec);

  obs::MemorySink parallel_events, parallel_telemetry;
  CampaignSpec parallel_spec = sweep_spec(bad, good, 8);
  parallel_spec.obs.sink = &parallel_events;
  parallel_spec.telemetry_sink = &parallel_telemetry;
  parallel_spec.telemetry_interval_ms = 10;
  CampaignResult parallel = run_campaign(parallel_spec);

  normalize(serial);
  normalize(parallel);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial_events.lines().size(), parallel_events.lines().size());

  // Both runs sampled: at least the start + final snapshots landed in
  // the dedicated sinks, and never in the campaign stream.
  EXPECT_GE(serial_telemetry.lines().size(), 2u);
  EXPECT_GE(parallel_telemetry.lines().size(), 2u);
  for (const std::string& line : serial_events.lines()) {
    EXPECT_EQ(line.find("telemetry_snapshot"), std::string::npos);
    EXPECT_EQ(line.find("pool_summary"), std::string::npos);
  }

  // Both runs' telemetry carries a pool_summary: every width runs the
  // same pool path. The sweep runs as drain tasks, one per pool worker
  // beyond the calling thread, so width 8 executes 1..7 pool tasks and
  // width 1 executes none: it never starts a pool thread.
  for (const auto& [telemetry, width] :
       {std::pair{&serial_telemetry, 1.0},
        std::pair{&parallel_telemetry, 8.0}}) {
    bool saw_pool_summary = false;
    for (const std::string& line : telemetry->lines()) {
      const auto event = obs::json_parse(line);
      ASSERT_TRUE(event.has_value());
      const std::string type = event->find("type")->as_string();
      if (type == "pool_summary") {
        saw_pool_summary = true;
        EXPECT_EQ(event->find("workers")->as_number(), width);
        const double tasks = event->find("tasks_executed")->as_number();
        if (width == 1.0) {
          EXPECT_EQ(tasks, 0.0);
        } else {
          EXPECT_GE(tasks, 1.0);
          EXPECT_LT(tasks, width);
        }
        EXPECT_NE(event->find("per_worker"), nullptr);
      } else if (type == "progress_snapshot") {
        // Campaign row progress rides the telemetry side channel too.
        EXPECT_NE(event->find("fraction"), nullptr);
        EXPECT_EQ(event->find("name")->as_string(), "campaign.rows");
      } else {
        EXPECT_EQ(type, "telemetry_snapshot");
        EXPECT_NE(event->find("pool.queue_depth"), nullptr);
      }
    }
    EXPECT_TRUE(saw_pool_summary) << "width " << width;
  }
}

TEST(ParallelCampaign, AutoThreadCountMatchesSerialBytes) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec auto_spec;
  auto_spec.instances = {{"GOOD", &good}};
  auto_spec.models = {Model::parse("UMS")};
  auto_spec.schedulers = {SchedulerKind::kRandomFair};
  auto_spec.seeds = 4;
  auto_spec.threads = 0;  // hardware_concurrency
  CampaignResult auto_result = run_campaign(auto_spec);

  CampaignSpec serial_spec = auto_spec;
  serial_spec.threads = 1;
  CampaignResult serial_result = run_campaign(serial_spec);

  normalize(auto_result);
  normalize(serial_result);
  EXPECT_EQ(auto_result.to_csv(), serial_result.to_csv());
}

}  // namespace
}  // namespace commroute::study
