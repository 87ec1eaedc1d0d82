// Campaign integration of the virtual-time sim: kSim rows sweep the
// sim_points axis, skip inexpressible (Reliable, lossy) combinations,
// stay deterministic across thread counts, and export the virtual-time
// CSV/JSON columns.
#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"
#include "support/strings.hpp"

namespace commroute {
namespace {

using model::Model;

study::CampaignSpec sim_spec(const spp::Instance& bad, std::size_t threads) {
  study::CampaignSpec spec;
  spec.threads = threads;
  spec.instances.push_back({"BAD-GADGET", &bad});
  spec.models = {Model::parse("R1O"), Model::parse("U1O")};
  spec.schedulers = {study::SchedulerKind::kSim};
  spec.seeds = 2;
  spec.max_steps = 1500;
  sim::LinkModel lossless;
  lossless.latency_us = 500;
  sim::LinkModel lossy;
  lossy.latency_us = 500;
  lossy.loss_prob = 0.2;
  spec.sim_points = {lossless, lossy};
  return spec;
}

TEST(SimCampaign, SweepsPointsAndSkipsLossyReliableCombos) {
  const spp::Instance bad = spp::bad_gadget();
  const study::CampaignSpec spec = sim_spec(bad, 1);
  const study::CampaignResult result = study::run_campaign(spec);
  // R1O runs only the lossless point (2 seeds); U1O runs both points:
  // 2 models x points x 2 seeds - skipped = 2 + 4.
  ASSERT_EQ(result.rows.size(), 6u);
  std::size_t lossy_rows = 0;
  for (const study::CampaignRow& row : result.rows) {
    EXPECT_EQ(row.scheduler, study::SchedulerKind::kSim);
    EXPECT_EQ(row.sim_latency_us, 500u);
    if (row.sim_loss > 0.0) {
      ++lossy_rows;
      EXPECT_FALSE(row.model.reliable());
    }
    if (row.outcome == engine::Outcome::kConverged) {
      EXPECT_GT(row.virtual_us, 0u);
      EXPECT_GE(row.virtual_us, row.last_change_us);
    }
  }
  EXPECT_EQ(lossy_rows, 2u);
}

TEST(SimCampaign, RowsAreDeterministicAcrossThreadCounts) {
  const spp::Instance bad = spp::bad_gadget();
  const study::CampaignResult a = study::run_campaign(sim_spec(bad, 1));
  for (const std::size_t threads : {2u, 8u}) {
    const study::CampaignResult b =
        study::run_campaign(sim_spec(bad, threads));
    ASSERT_EQ(a.rows.size(), b.rows.size()) << threads;
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
      EXPECT_EQ(a.rows[i].instance, b.rows[i].instance);
      EXPECT_EQ(a.rows[i].model.name(), b.rows[i].model.name());
      EXPECT_EQ(a.rows[i].seed, b.rows[i].seed);
      EXPECT_EQ(a.rows[i].outcome, b.rows[i].outcome);
      EXPECT_EQ(a.rows[i].steps, b.rows[i].steps);
      EXPECT_EQ(a.rows[i].virtual_us, b.rows[i].virtual_us);
      EXPECT_EQ(a.rows[i].last_change_us, b.rows[i].last_change_us);
      EXPECT_EQ(a.rows[i].sim_latency_us, b.rows[i].sim_latency_us);
      EXPECT_EQ(a.rows[i].sim_loss, b.rows[i].sim_loss);
    }
  }
}

TEST(SimCampaign, DistinctPointsGetDecorrelatedSeeds) {
  // Same instance/model/seed at two latency points must not replay the
  // same sampling stream: with jitter on, trajectories should differ.
  const spp::Instance bad = spp::bad_gadget();
  study::CampaignSpec spec;
  spec.instances.push_back({"BAD-GADGET", &bad});
  spec.models = {Model::parse("U1O")};
  spec.schedulers = {study::SchedulerKind::kSim};
  spec.seeds = 1;
  spec.max_steps = 400;
  spec.threads = 1;
  sim::LinkModel a;
  a.latency_us = 1000;
  a.jitter_us = 900;
  a.dist = sim::LatencyDist::kUniform;
  a.loss_prob = 0.3;
  sim::LinkModel b = a;  // identical link model, second axis position
  spec.sim_points = {a, b};
  const study::CampaignResult result = study::run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 2u);
  // Identical link parameters but different point index: the derived
  // sampling seed differs, so the virtual trajectories differ.
  EXPECT_NE(result.rows[0].virtual_us, result.rows[1].virtual_us);
}

TEST(SimCampaign, CausalityReportsVirtualCriticalPaths) {
  const spp::Instance bad = spp::bad_gadget();
  study::CampaignSpec spec = sim_spec(bad, 1);
  spec.causality = true;
  const study::CampaignResult result = study::run_campaign(spec);
  for (const study::CampaignRow& row : result.rows) {
    EXPECT_GT(row.critical_path_len, 0u);
    if (row.outcome == engine::Outcome::kConverged) {
      // The chain ending at the last route change has virtual length
      // equal to the convergence time: a latency lower bound.
      EXPECT_EQ(row.critical_path_us, row.last_change_us);
    }
  }

  // Byte-identical CSV regardless of worker threads (minus wall_ms,
  // which CI strips by position; here compare the causal columns).
  for (const std::size_t threads : {2u, 8u}) {
    study::CampaignSpec wide = spec;
    wide.threads = threads;
    const study::CampaignResult parallel = study::run_campaign(wide);
    ASSERT_EQ(parallel.rows.size(), result.rows.size()) << threads;
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      EXPECT_EQ(parallel.rows[i].critical_path_len,
                result.rows[i].critical_path_len);
      EXPECT_EQ(parallel.rows[i].critical_path_us,
                result.rows[i].critical_path_us);
    }
  }
}

TEST(SimCampaign, CsvAndJsonCarryVirtualColumns) {
  const spp::Instance bad = spp::bad_gadget();
  const study::CampaignResult result =
      study::run_campaign(sim_spec(bad, 1));
  const std::string csv = result.to_csv();
  EXPECT_NE(csv.find("sim_latency_us,sim_loss,virtual_us,last_change_us"),
            std::string::npos);
  const auto records = csv_parse(csv);
  ASSERT_EQ(records.size(), result.rows.size() + 1);

  const std::optional<obs::JsonValue> parsed =
      obs::json_parse(result.to_json());
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* rows = parsed->find("rows");
  ASSERT_TRUE(rows != nullptr && rows->is_array());
  const obs::JsonValue& first = rows->as_array().front();
  ASSERT_TRUE(first.find("virtual_us") != nullptr);
  EXPECT_EQ(first.find("scheduler")->as_string(), "sim");
  EXPECT_EQ(first.find("sim_latency_us")->as_number(), 500.0);
}

TEST(SimCampaign, MixesWithClassicSchedulers) {
  const spp::Instance good = spp::good_gadget();
  study::CampaignSpec spec;
  spec.instances.push_back({"GOOD-GADGET", &good});
  spec.models = {Model::parse("RMS")};
  spec.schedulers = {study::SchedulerKind::kRoundRobin,
                     study::SchedulerKind::kSim};
  spec.seeds = 1;
  spec.max_steps = 5000;
  spec.threads = 1;
  const study::CampaignResult result = study::run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].scheduler, study::SchedulerKind::kRoundRobin);
  EXPECT_EQ(result.rows[0].virtual_us, 0u);  // classic rows: no sim view
  EXPECT_EQ(result.rows[1].scheduler, study::SchedulerKind::kSim);
  EXPECT_EQ(result.rows[1].outcome, engine::Outcome::kConverged);
  EXPECT_GT(result.rows[1].virtual_us, 0u);
}

}  // namespace
}  // namespace commroute
