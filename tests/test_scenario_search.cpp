// Adversarial robustness search: a stable gadget is turned into an
// oscillating one by a minimal ranking perturbation, with a witness.
#include <gtest/gtest.h>

#include <set>

#include "checker/explorer.hpp"
#include "scenario/search.hpp"
#include "spp/gadgets.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace commroute::scenario {
namespace {

using model::Model;

TEST(BreakSearch, RequiresAStableBase) {
  BreakSearchOptions opts;
  EXPECT_THROW(
      find_breaking_perturbation(spp::bad_gadget(), Model::parse("R1O"),
                                 opts),
      PreconditionError);
}

TEST(BreakSearch, TurnsGoodGadgetIntoAnOscillator) {
  // GOOD-GADGET's three tie-breaks are exactly what separates it from
  // BAD-GADGET; breaking it needs all three flipped at once, which the
  // count-3 family provides. The shrink pass must then certify every
  // edit as necessary.
  const spp::Instance base = spp::good_gadget();
  const Model m = Model::parse("R1O");
  BreakSearchOptions opts;
  opts.specs.push_back(parse_perturb_spec("tiebreak:1"));
  opts.specs.push_back(parse_perturb_spec("tiebreak:2"));
  opts.specs.push_back(parse_perturb_spec("tiebreak:3"));
  opts.explore.max_states = 200000;

  const BreakSearchResult found = find_breaking_perturbation(base, m, opts);
  ASSERT_TRUE(found.found);
  EXPECT_EQ(found.record.kind, PerturbKind::kTieBreakFlip);
  EXPECT_EQ(found.record.edits.size(), 3u);
  ASSERT_TRUE(found.instance.has_value());
  EXPECT_FALSE(found.witness_cycle.empty());
  EXPECT_GT(found.witness_scc_size, 0u);

  // The returned instance really oscillates, and the edits really
  // reproduce it from the base.
  checker::ExploreOptions probe;
  probe.max_states = 200000;
  EXPECT_TRUE(checker::explore(*found.instance, m, probe).oscillation_found);
  std::size_t applied = 0;
  const spp::Instance rebuilt =
      apply_edits(base, found.record.edits, &applied);
  EXPECT_EQ(applied, 3u);
  EXPECT_TRUE(checker::explore(rebuilt, m, probe).oscillation_found);

  // Local minimality: dropping any single edit restores convergence.
  for (std::size_t i = 0; i < found.record.edits.size(); ++i) {
    std::vector<PerturbEdit> subset = found.record.edits;
    subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(i));
    const spp::Instance weaker = apply_edits(base, subset);
    EXPECT_FALSE(checker::explore(weaker, m, probe).oscillation_found)
        << "edit " << i << " was not necessary";
  }
}

TEST(BreakSearch, DeterministicAcrossCalls) {
  const spp::Instance base = spp::good_gadget();
  BreakSearchOptions opts;
  opts.specs.push_back(parse_perturb_spec("tiebreak:1"));
  opts.specs.push_back(parse_perturb_spec("tiebreak:2"));
  opts.specs.push_back(parse_perturb_spec("tiebreak:3"));
  opts.explore.max_states = 200000;
  const BreakSearchResult a =
      find_breaking_perturbation(base, Model::parse("R1O"), opts);
  const BreakSearchResult b =
      find_breaking_perturbation(base, Model::parse("R1O"), opts);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.explorations, b.explorations);
  EXPECT_EQ(a.record.to_json(base), b.record.to_json(base));
}

TEST(BreakSearch, ReportsNotFoundWhenSweepStaysConvergent) {
  // Deleting paths can never manufacture a dispute wheel in GOOD-GADGET
  // (oscillation needs reordered preferences, not fewer choices).
  const spp::Instance base = spp::good_gadget();
  BreakSearchOptions opts;
  opts.specs.push_back(parse_perturb_spec("delete:1"));
  opts.seeds_per_spec = 4;
  opts.explore.max_states = 200000;
  const BreakSearchResult found =
      find_breaking_perturbation(base, Model::parse("R1O"), opts);
  EXPECT_FALSE(found.found);
  EXPECT_FALSE(found.instance.has_value());
  EXPECT_GT(found.explorations, 1u);  // base probe + attempts
}

using Rankings = std::vector<std::vector<Path>>;

Rankings rankings(const spp::Instance& instance) {
  Rankings out;
  for (NodeId v = 0; v < instance.node_count(); ++v) {
    out.push_back(instance.permitted(v));
  }
  return out;
}

/// The search written without its verdict memo: every attempt and
/// every shrink trial is explored afresh, in full.
struct ReferenceSearch {
  bool found = false;
  std::vector<PerturbEdit> edits;
  std::size_t probes = 0;       ///< explorations, repeats included
  std::set<Rankings> distinct;  ///< the instances they explored
};

ReferenceSearch reference_search(const spp::Instance& base, const Model& m,
                                 const BreakSearchOptions& opts) {
  ReferenceSearch ref;
  const auto oscillates = [&](const spp::Instance& candidate) {
    ++ref.probes;
    ref.distinct.insert(rankings(candidate));
    return checker::explore(candidate, m, opts.explore).oscillation_found;
  };
  EXPECT_FALSE(oscillates(base));
  for (std::size_t s = 0; s < opts.specs.size(); ++s) {
    const std::uint64_t spec_seed = Rng::fork_seed(opts.seed, s);
    for (std::size_t k = 0; k < opts.seeds_per_spec; ++k) {
      const PerturbResult p =
          perturb(base, opts.specs[s], Rng::fork_seed(spec_seed, k));
      if (p.record.edits.empty() || !oscillates(p.instance)) {
        continue;
      }
      ref.edits = p.record.edits;
      for (std::size_t i = 0; i < ref.edits.size() && ref.edits.size() > 1;) {
        std::vector<PerturbEdit> trial = ref.edits;
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
        if (oscillates(apply_edits(base, trial))) {
          ref.edits = std::move(trial);
        } else {
          ++i;
        }
      }
      ref.found = true;
      return ref;
    }
  }
  return ref;
}

TEST(BreakSearch, ExploresEachDistinctInstanceOnce) {
  // Every GOOD-GADGET node ranks two paths, so tie-break flip sets
  // repeat across attempts (and a flip may undo another): the sweep
  // re-visits instances, and the shrink trials re-check earlier
  // attempts. The search must give the memo-less answer while
  // exploring each distinct instance once, plus the witness run.
  const spp::Instance base = spp::good_gadget();
  BreakSearchOptions opts;
  for (const char* spec : {"tiebreak:1", "tiebreak:2", "tiebreak:3"}) {
    opts.specs.push_back(parse_perturb_spec(spec));
  }
  opts.explore.max_channel_length = 3;
  opts.explore.max_states = 50000;
  for (const char* name : {"REA", "REF"}) {
    const Model m = Model::parse(name);
    const ReferenceSearch ref = reference_search(base, m, opts);
    const BreakSearchResult found = find_breaking_perturbation(base, m, opts);
    ASSERT_TRUE(ref.found) << name;
    EXPECT_GT(ref.probes, ref.distinct.size()) << name;  // repeats occur
    EXPECT_EQ(found.found, ref.found) << name;
    EXPECT_EQ(found.explorations, ref.distinct.size() + 1) << name;
    PerturbRecord expected = found.record;
    expected.edits = ref.edits;
    EXPECT_EQ(found.record.to_json(base), expected.to_json(base)) << name;
  }
}

}  // namespace
}  // namespace commroute::scenario
