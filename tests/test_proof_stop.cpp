// Proof on the fly (ExploreOptions::stop_at_first_proof): differential
// against full exploration, determinism across widths, and witness
// replay, over all 24 models x the gadget suite and the E-PERTURB
// instances.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "model/model.hpp"
#include "scenario/perturb.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"

namespace commroute::checker {
namespace {

using model::Model;

struct Case {
  std::string name;
  spp::Instance instance;
};

/// BAD-GADGET, GOOD-GADGET and DISAGREE, plus the perturbed variants of
/// GOOD-GADGET and DISAGREE that E-PERTURB's campaign (scenario_lab
/// --campaign) builds, with the same perturb seeds.
std::vector<Case> cases() {
  std::vector<Case> out = {{"BAD-GADGET", spp::bad_gadget()},
                           {"GOOD-GADGET", spp::good_gadget()},
                           {"DISAGREE", spp::disagree()}};
  for (std::size_t base = 1; base <= 2; ++base) {
    const std::string name = out[base].name;
    for (const char* text : {"tiebreak:1", "rankswap:2", "delete:1"}) {
      const scenario::PerturbSpec spec = scenario::parse_perturb_spec(text);
      const std::uint64_t seed = study::derive_row_seed(
          name + "~" + spec.label(), -1, study::SchedulerKind::kRoundRobin,
          0);
      out.push_back({name + "~" + spec.label(),
                     scenario::perturb(out[base].instance, spec, seed)
                         .instance});
    }
  }
  return out;
}

/// Bound 3 with a 3,000-state cap: complete graphs with and without an
/// oscillation, capped graphs, and proofs found early (BAD-GADGET under
/// the REx models, DISAGREE and its rank swap under U1O..UMF).
ExploreOptions bounds(std::size_t threads) {
  ExploreOptions options;
  options.max_channel_length = 3;
  options.max_states = 3000;
  options.threads = threads;
  return options;
}

std::string script_text(const spp::Instance& instance,
                        const model::ActivationScript& script) {
  std::string text;
  for (const model::ActivationStep& step : script) {
    text += step.to_string(instance) + ";";
  }
  return text;
}

/// Playing the witness prefix, then its cycle forever, is a provable
/// cycle of `m` on `instance`.
engine::Outcome replay(const spp::Instance& instance, const Model& m,
                       const ExploreResult& r) {
  model::ActivationScript script = r.witness_prefix;
  script.insert(script.end(), r.witness_cycle.begin(), r.witness_cycle.end());
  engine::ScriptedScheduler sched(script, r.witness_prefix.size());
  engine::RunOptions options;
  options.max_steps = 10 * script.size() + 100;
  options.record_trace = false;
  options.enforce_model = m;
  return engine::run(instance, sched, options).outcome;
}

/// Verdict passes of the final verdict, after exploration: the
/// checkpoint passes run inside a checker.frontier_batch span, the final
/// ones directly under checker.explore.
std::size_t final_passes(const obs::SpanCollector& spans) {
  const std::vector<obs::SpanRecord> records = spans.snapshot();
  std::uint32_t explore_id = 0;
  for (const obs::SpanRecord& rec : records) {
    if (rec.name == "checker.explore") {
      explore_id = rec.id;
    }
  }
  std::size_t passes = 0;
  for (const obs::SpanRecord& rec : records) {
    passes += rec.name == "checker.scc_prune_pass" && rec.parent == explore_id;
  }
  return passes;
}

TEST(ProofStop, AgreesWithFullExplorationAtEveryWidth) {
  std::size_t stopped = 0;
  for (const Case& c : cases()) {
    for (const Model& m : Model::all()) {
      const std::string label = c.name + " " + m.name();
      const ExploreResult full = explore(c.instance, m, bounds(1));

      std::vector<ExploreResult> early;
      obs::SpanCollector spans;  // of the width-1 run
      for (const std::size_t threads : {1u, 2u, 8u}) {
        ExploreOptions options = bounds(threads);
        options.stop_at_first_proof = true;
        options.extract_witness = true;
        options.obs.spans = threads == 1 ? &spans : nullptr;
        early.push_back(explore(c.instance, m, options));
      }
      const ExploreResult& e = early.front();
      ASSERT_EQ(e.oscillation_found, full.oscillation_found) << label;

      for (const ExploreResult& other : early) {
        EXPECT_EQ(other.stopped_at_proof, e.stopped_at_proof) << label;
        EXPECT_EQ(other.states, e.states) << label;
        EXPECT_EQ(other.transitions, e.transitions) << label;
        EXPECT_EQ(other.dedup_hits, e.dedup_hits) << label;
        EXPECT_EQ(other.scc_prune_passes, e.scc_prune_passes) << label;
        EXPECT_EQ(other.witness_scc_size, e.witness_scc_size) << label;
        EXPECT_EQ(script_text(c.instance, other.witness_prefix),
                  script_text(c.instance, e.witness_prefix))
            << label;
        EXPECT_EQ(script_text(c.instance, other.witness_cycle),
                  script_text(c.instance, e.witness_cycle))
            << label;
      }

      if (e.oscillation_found) {
        EXPECT_EQ(replay(c.instance, m, e), engine::Outcome::kOscillating)
            << label;
        EXPECT_LE(e.states, full.states) << label;
        if (e.stopped_at_proof) {
          ++stopped;
          EXPECT_FALSE(e.exhaustive) << label;
        }
        continue;
      }
      // No oscillation: the checkpoints only add verdict passes, and the
      // final pass sees the full-mode graph with every prune flag reset,
      // so its fixpoint takes as many passes as in full mode.
      EXPECT_FALSE(e.stopped_at_proof) << label;
      EXPECT_EQ(final_passes(spans), full.scc_prune_passes) << label;
      EXPECT_EQ(e.exhaustive, full.exhaustive) << label;
      EXPECT_EQ(e.state_cap_hit, full.state_cap_hit) << label;
      EXPECT_EQ(e.channel_bound_hit, full.channel_bound_hit) << label;
      EXPECT_EQ(e.states, full.states) << label;
      EXPECT_EQ(e.transitions, full.transitions) << label;
      EXPECT_EQ(e.dedup_hits, full.dedup_hits) << label;
      EXPECT_EQ(e.frontier_peak, full.frontier_peak) << label;
      EXPECT_EQ(e.quiescent_assignments, full.quiescent_assignments)
          << label;
      EXPECT_GE(e.scc_prune_passes, full.scc_prune_passes) << label;
    }
  }
  // The early stop does fire (BAD-GADGET oscillates under most models
  // well before its graph is complete).
  EXPECT_GT(stopped, 0u);
}

TEST(ProofStop, StopsAtTheFirstCheckpointThatHoldsAProof) {
  // BAD-GADGET under REF at bound 3: the full graph has 5,159 states; a
  // BFS prefix proves the oscillation long before that.
  const spp::Instance bad = spp::bad_gadget();
  const Model m = Model::parse("REF");
  ExploreOptions options = bounds(1);
  options.max_states = 500000;
  const ExploreResult full = explore(bad, m, options);
  options.stop_at_first_proof = true;
  obs::ProgressEstimator progress("checker", "frontier");
  options.progress = &progress;
  const ExploreResult early = explore(bad, m, options);
  ASSERT_TRUE(full.oscillation_found);
  EXPECT_FALSE(full.stopped_at_proof);
  ASSERT_TRUE(early.oscillation_found);
  EXPECT_TRUE(early.stopped_at_proof);
  EXPECT_FALSE(early.exhaustive);
  EXPECT_LT(early.states, full.states);
  EXPECT_NE(early.summary().find("stopped at the first proof"),
            std::string::npos);
  // Exploration is over with a frontier left: progress lands on 1.
  const obs::ProgressSnapshot snap = progress.snapshot();
  EXPECT_EQ(snap.done, snap.total);
  EXPECT_EQ(snap.detail_label, "stopped:proof");
}

TEST(ProofStop, SummaryEventCarriesTheFlagOnlyWhenSet) {
  const spp::Instance bad = spp::bad_gadget();
  for (const bool flag : {false, true}) {
    obs::MemorySink sink;
    ExploreOptions options = bounds(1);
    options.stop_at_first_proof = flag;
    options.obs.sink = &sink;
    explore(bad, Model::parse("REF"), options);
    ASSERT_FALSE(sink.lines().empty());
    const std::string& summary = sink.lines().back();
    EXPECT_NE(summary.find("checker_summary"), std::string::npos);
    EXPECT_EQ(summary.find("stopped_at_proof") != std::string::npos, flag);
  }
}

}  // namespace
}  // namespace commroute::checker
