// Golden values for everything the network-state representation feeds:
// explorer fingerprints for all 24 models on three gadgets, the JSONL of
// a full flight recording, and a sim_summary event. The expected values
// were computed before NetworkState was repacked; any representation
// change must reproduce them exactly. One more explorer cell pins a
// large witness tour, computed before the tour was rebuilt on distance
// labels. The last cells pin the engine_run, checker_summary and
// campaign event bytes (wall-clock fields stripped), computed before the
// sketched observability mode was deleted.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <regex>
#include <string>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "obs/obs.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"
#include "trace/recording_io.hpp"

namespace commroute {
namespace {

using model::Model;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// "states transitions dedup_hits verdict witness-digest" for one result.
std::string fingerprint(const spp::Instance& inst,
                        const checker::ExploreResult& r) {
  std::string witness = "prefix:";
  for (const auto& step : r.witness_prefix) {
    witness += step.to_string(inst) + "\n";
  }
  witness += "cycle:";
  for (const auto& step : r.witness_cycle) {
    witness += step.to_string(inst) + "\n";
  }
  return std::to_string(r.states) + " " + std::to_string(r.transitions) +
         " " + std::to_string(r.dedup_hits) + " " +
         (r.oscillation_found ? "osc" : "no-osc") + " " +
         hex(fnv1a(witness));
}

/// The fingerprint of one grid cell: channel bound 2, cap 2000, witness.
std::string explore_fingerprint(const spp::Instance& inst, const Model& m) {
  checker::ExploreOptions options;
  options.max_channel_length = 2;
  options.max_states = 2000;
  options.extract_witness = true;
  return fingerprint(inst, checker::explore(inst, m, options));
}

struct GoldenCell {
  const char* model;
  const char* fingerprint;
};

// clang-format off
const GoldenCell kBadGadget[] = {
    {"R1O", "2000 13102 11103 no-osc 1ae012f8ae99f535"},
    {"RMO", "2000 22015 20016 no-osc 1ae012f8ae99f535"},
    {"REO", "1556 5954 4399 osc 7d305d8db2554c6e"},
    {"R1S", "2000 17381 15382 no-osc 1ae012f8ae99f535"},
    {"RMS", "2000 32237 30238 no-osc 1ae012f8ae99f535"},
    {"RES", "2000 7155 5156 no-osc 1ae012f8ae99f535"},
    {"R1F", "2000 11842 9843 no-osc 1ae012f8ae99f535"},
    {"RMF", "2000 16759 14760 no-osc 1ae012f8ae99f535"},
    {"REF", "2000 9833 7834 osc ac5d7cab99982fca"},
    {"R1A", "2000 10986 8987 no-osc 1ae012f8ae99f535"},
    {"RMA", "2000 16094 14095 no-osc 1ae012f8ae99f535"},
    {"REA", "683 2624 1942 osc fb547a0b932360a2"},
    {"U1O", "2000 8721 6722 no-osc 1ae012f8ae99f535"},
    {"UMO", "2000 8159 6160 no-osc 1ae012f8ae99f535"},
    {"UEO", "2000 2890 891 no-osc 1ae012f8ae99f535"},
    {"U1S", "2000 10399 8400 no-osc 1ae012f8ae99f535"},
    {"UMS", "2000 12812 10813 no-osc 1ae012f8ae99f535"},
    {"UES", "2000 3709 1710 no-osc 1ae012f8ae99f535"},
    {"U1F", "2000 8109 6110 no-osc 1ae012f8ae99f535"},
    {"UMF", "2000 7819 5820 no-osc 1ae012f8ae99f535"},
    {"UEF", "2000 2868 869 no-osc 1ae012f8ae99f535"},
    {"U1A", "2000 7893 5894 no-osc 1ae012f8ae99f535"},
    {"UMA", "2000 7781 5782 no-osc 1ae012f8ae99f535"},
    {"UEA", "2000 2857 858 no-osc 1ae012f8ae99f535"},
};
const GoldenCell kGoodGadget[] = {
    {"R1O", "2000 14314 12315 no-osc 1ae012f8ae99f535"},
    {"RMO", "2000 33758 31759 no-osc 1ae012f8ae99f535"},
    {"REO", "130 516 387 no-osc 1ae012f8ae99f535"},
    {"R1S", "2000 17773 15774 no-osc 1ae012f8ae99f535"},
    {"RMS", "2000 40170 38171 no-osc 1ae012f8ae99f535"},
    {"RES", "2000 8583 6584 no-osc 1ae012f8ae99f535"},
    {"R1F", "2000 12115 10116 no-osc 1ae012f8ae99f535"},
    {"RMF", "2000 21290 19291 no-osc 1ae012f8ae99f535"},
    {"REF", "130 516 387 no-osc 1ae012f8ae99f535"},
    {"R1A", "2000 11423 9424 no-osc 1ae012f8ae99f535"},
    {"RMA", "2000 21404 19405 no-osc 1ae012f8ae99f535"},
    {"REA", "130 516 387 no-osc 1ae012f8ae99f535"},
    {"U1O", "2000 8799 6800 no-osc 1ae012f8ae99f535"},
    {"UMO", "2000 8408 6409 no-osc 1ae012f8ae99f535"},
    {"UEO", "2000 2866 867 no-osc 1ae012f8ae99f535"},
    {"U1S", "2000 10895 8896 no-osc 1ae012f8ae99f535"},
    {"UMS", "2000 13671 11672 no-osc 1ae012f8ae99f535"},
    {"UES", "2000 3740 1741 no-osc 1ae012f8ae99f535"},
    {"U1F", "2000 8469 6470 no-osc 1ae012f8ae99f535"},
    {"UMF", "2000 8408 6409 no-osc 1ae012f8ae99f535"},
    {"UEF", "2000 2866 867 no-osc 1ae012f8ae99f535"},
    {"U1A", "2000 8349 6350 no-osc 1ae012f8ae99f535"},
    {"UMA", "2000 8408 6409 no-osc 1ae012f8ae99f535"},
    {"UEA", "2000 2866 867 no-osc 1ae012f8ae99f535"},
};
const GoldenCell kDisagree[] = {
    {"R1O", "119 666 548 osc 35e34cd94bf531bd"},
    {"RMO", "119 1332 1214 osc 4cc535aac058c76a"},
    {"REO", "18 48 31 no-osc 1ae012f8ae99f535"},
    {"R1S", "145 1286 1142 osc f80515fb1cf2d10c"},
    {"RMS", "145 2701 2557 osc b8c597606d689b7e"},
    {"RES", "145 986 842 osc 3188fa7109d06bc9"},
    {"R1F", "145 952 808 osc 6107a8f090d5a281"},
    {"RMF", "145 1917 1773 osc 6ed546524015a886"},
    {"REF", "18 48 31 no-osc 1ae012f8ae99f535"},
    {"R1A", "62 360 299 no-osc 1ae012f8ae99f535"},
    {"RMA", "62 720 659 no-osc 1ae012f8ae99f535"},
    {"REA", "18 48 31 no-osc 1ae012f8ae99f535"},
    {"U1O", "1739 13332 11594 osc 0b6b643ba5c06d72"},
    {"UMO", "1739 27352 25614 osc f62ff311608cba15"},
    {"UEO", "166 564 399 no-osc 1ae012f8ae99f535"},
    {"U1S", "1739 22284 20546 osc e10f4b00acd50498"},
    {"UMS", "1739 55144 53406 osc f807c8079ca4c8b4"},
    {"UES", "1739 27862 26124 osc 33da1327c2267002"},
    {"U1F", "1739 18624 16886 osc 489872564160b78b"},
    {"UMF", "1739 43144 41406 osc e6a91865d7dc54a0"},
    {"UEF", "166 612 447 no-osc 1ae012f8ae99f535"},
    {"U1A", "581 4342 3762 no-osc 1ae012f8ae99f535"},
    {"UMA", "581 8991 8411 no-osc 1ae012f8ae99f535"},
    {"UEA", "166 588 423 no-osc 1ae012f8ae99f535"},
};
// clang-format on

template <std::size_t N>
void expect_cells(const spp::Instance& inst, const GoldenCell (&cells)[N],
                  const char* label) {
  const std::vector<Model> models = Model::all();
  ASSERT_EQ(N, models.size());
  for (std::size_t i = 0; i < N; ++i) {
    ASSERT_EQ(models[i].name(), cells[i].model);
    EXPECT_EQ(explore_fingerprint(inst, models[i]), cells[i].fingerprint)
        << label << " " << cells[i].model;
  }
}

TEST(StateGolden, ExplorerFingerprintsBadGadget) {
  expect_cells(spp::bad_gadget(), kBadGadget, "BAD-GADGET");
}

TEST(StateGolden, ExplorerFingerprintsGoodGadget) {
  expect_cells(spp::good_gadget(), kGoodGadget, "GOOD-GADGET");
}

TEST(StateGolden, ExplorerFingerprintsDisagree) {
  expect_cells(spp::disagree(), kDisagree, "DISAGREE");
}

// BAD-GADGET under REF at channel bound 3 with the default cap: the
// instance find_breaking_perturbation breaks GOOD-GADGET into, with a
// 1,296-state witness SCC whose tour is over 100,000 steps, far larger
// than any tour the grid above builds.
TEST(StateGolden, ExplorerFingerprintLargeWitnessScc) {
  const spp::Instance bad = spp::bad_gadget();
  checker::ExploreOptions options;
  options.max_channel_length = 3;
  options.extract_witness = true;
  const checker::ExploreResult r = checker::explore(bad, Model::parse("REF"),
                                                    options);
  EXPECT_EQ(r.witness_scc_size, 1296u);
  EXPECT_EQ(r.witness_prefix.size(), 16u);
  EXPECT_EQ(r.witness_cycle.size(), 116341u);
  EXPECT_EQ(fingerprint(bad, r), "5159 45269 40111 osc 985afdb6642fea5e");
}

TEST(StateGolden, FullRecordingJsonl) {
  const spp::Instance bad = spp::bad_gadget();
  const Model m = Model::parse("R1O");
  engine::RoundRobinScheduler sched(m, bad);
  engine::RunOptions options;
  options.enforce_model = m;
  options.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  const engine::RunResult run = engine::run(bad, sched, options);
  ASSERT_TRUE(run.recording.has_value());
  // The header's wall clock and build stamp vary per run; every other
  // byte is a function of the execution.
  static const std::regex stamp(R"re("created_unix_ms":[0-9]+,"git":"[^"]*",)re");
  const std::string jsonl = std::regex_replace(
      trace::recording_to_jsonl(bad, *run.recording), stamp, "");
  EXPECT_EQ(hex(fnv1a(jsonl)), "a6ad741df5484698") << jsonl;
}

TEST(StateGolden, SimSummaryEvent) {
  const spp::Instance bad = spp::bad_gadget();
  sim::SimOptions opts;
  opts.model = Model::parse("U1O");
  opts.link.latency_us = 1000;
  opts.link.jitter_us = 300;
  opts.link.dist = sim::LatencyDist::kUniform;
  opts.link.loss_prob = 0.2;
  opts.seed = 7;
  opts.max_steps = 5000;
  obs::MemorySink sink;
  opts.obs.sink = &sink;
  const sim::SimResult result = sim::run(bad, opts);
  std::string summary;
  for (const std::string& line : sink.lines()) {
    if (line.find("\"sim_summary\"") != std::string::npos) {
      summary = line;
    }
  }
  ASSERT_FALSE(summary.empty());
  EXPECT_EQ(hex(fnv1a(summary)), "e53427906dbf88db") << summary;
  EXPECT_EQ(hex(fnv1a(result.to_json())), "db03ea49156b8b67") << result.to_json();
}

/// The sink's lines of the given event types, wall-clock fields
/// (wall_us, wall_ms) removed, one per line.
std::string events_without_wall(const obs::MemorySink& sink,
                                const std::vector<std::string>& types) {
  static const std::regex wall(R"re(,?"wall_(us|ms)":[^,}]*)re");
  std::string out;
  for (const std::string& line : sink.lines()) {
    for (const std::string& type : types) {
      if (line.find("\"type\":\"" + type + "\"") != std::string::npos) {
        out += std::regex_replace(line, wall, "") + "\n";
        break;
      }
    }
  }
  return out;
}

TEST(StateGolden, EngineRunEvent) {
  const spp::Instance bad = spp::bad_gadget();
  const Model m = Model::parse("R1O");
  engine::RoundRobinScheduler sched(m, bad);
  engine::RunOptions options;
  options.enforce_model = m;
  obs::MemorySink sink;
  options.obs.sink = &sink;
  engine::run(bad, sched, options);
  const std::string events = events_without_wall(sink, {"engine_run"});
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(hex(fnv1a(events)), "6da378519ad3e557") << events;
}

TEST(StateGolden, CheckerSummaryEvent) {
  const spp::Instance bad = spp::bad_gadget();
  checker::ExploreOptions options;
  options.max_channel_length = 3;
  obs::MemorySink sink;
  options.obs.sink = &sink;
  checker::explore(bad, Model::parse("R1O"), options);
  const std::string events = events_without_wall(sink, {"checker_summary"});
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(hex(fnv1a(events)), "d7b31ff07e8e9fd6") << events;
}

TEST(StateGolden, CampaignEventStream) {
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();
  study::CampaignSpec spec;
  spec.instances = {{"BAD", &bad}, {"GOOD", &good}};
  spec.models = {Model::parse("R1O"), Model::parse("UMS")};
  spec.schedulers = {study::SchedulerKind::kRoundRobin,
                     study::SchedulerKind::kRandomFair,
                     study::SchedulerKind::kSim};
  spec.seeds = 2;
  spec.max_steps = 2000;
  spec.threads = 1;
  obs::MemorySink sink;
  spec.obs.sink = &sink;
  study::run_campaign(spec);
  const std::string events =
      events_without_wall(sink, {"campaign_row", "campaign_summary"});
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(hex(fnv1a(events)), "7ed926ec8f31f6e1") << events;
}

}  // namespace
}  // namespace commroute
