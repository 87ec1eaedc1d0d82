// Adversarial robustness search (the third pillar of the scenario
// subsystem — docs/SCENARIOS.md).
//
// Godfrey's precariousness claim made operational: given an instance
// that provably converges under a model (checker::explore finds no fair
// oscillation), find a small ranking perturbation that breaks it.
// find_breaking_perturbation sweeps perturbation families × seeds,
// checks each perturbed instance with the model checker, greedily
// shrinks the first breaking edit set to a locally minimal one (every
// single remaining edit is necessary), and extracts a replayable
// oscillation witness for the broken instance. Everything is
// deterministic in (instance, model, options): the sweep order, the
// per-attempt seeds (support::Rng::fork_seed), and the checker verdicts.
//
// Every exploration stops at the first proof of an oscillation
// (checker::ExploreOptions::stop_at_first_proof), and one call explores
// each distinct instance once: its verdicts are memoized by ranking
// content, so repeated flip sets and shrink trials that re-check an
// earlier attempt cost nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "checker/explorer.hpp"
#include "checker/minimize.hpp"
#include "model/model.hpp"
#include "scenario/perturb.hpp"
#include "spp/instance.hpp"

namespace commroute::scenario {

struct BreakSearchOptions {
  /// Perturbation families to sweep, in order. Empty = the default
  /// ladder: tiebreak, rankswap, delete, each at count 1 then 2
  /// (kGaoRexfordViolation is never defaulted — it needs a topology).
  std::vector<PerturbSpec> specs;
  /// Seeds tried per family before moving to the next.
  std::size_t seeds_per_spec = 8;
  /// Base seed; per-attempt seeds fork from it deterministically.
  std::uint64_t seed = 1;
  /// Bounds for every checker::explore call. extract_witness and
  /// stop_at_first_proof are managed internally (the witness only for
  /// the final run; every run stops at its first proof).
  checker::ExploreOptions explore;
  /// Additionally run checker::minimize_oscillating_instance on the
  /// broken instance (delta-debugging its permitted paths, on top of
  /// the already-minimal edit set).
  bool minimize = false;
};

struct BreakSearchResult {
  /// A breaking perturbation was found within the sweep budget.
  bool found = false;
  /// checker::explore calls spent, which set the cost: one per distinct
  /// instance checked, base included, plus the witness run when found.
  std::uint64_t explorations = 0;
  /// Provenance of the break (valid iff found): `record.edits` is the
  /// shrunken, locally minimal edit set — removing any single edit
  /// restores convergence within the explore bounds.
  PerturbRecord record;
  /// The broken instance (apply_edits(base, record.edits)).
  std::optional<spp::Instance> instance;
  /// Replayable oscillation witness for `instance` under the model:
  /// play prefix then loop cycle forever (checker::ExploreResult
  /// witness contract). It comes from the explored prefix that proves
  /// the oscillation, so it can be shorter than a full exploration's.
  model::ActivationScript witness_prefix;
  model::ActivationScript witness_cycle;
  std::size_t witness_scc_size = 0;
  /// Present iff BreakSearchOptions::minimize and found: the broken
  /// instance delta-debugged to a path-minimal oscillating core.
  std::optional<checker::MinimizeResult> minimized;
};

/// Requires that `instance` does NOT oscillate under `m` within the
/// explore bounds (throws PreconditionError otherwise — there is
/// nothing to break). Returns the first (family, seed) whose perturbed
/// instance oscillates, with the edit set shrunk and a witness attached;
/// `found == false` when the whole sweep stays convergent.
BreakSearchResult find_breaking_perturbation(
    const spp::Instance& instance, const model::Model& m,
    const BreakSearchOptions& options = {});

}  // namespace commroute::scenario
