#include "scenario/search.hpp"

#include <map>
#include <utility>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace commroute::scenario {

namespace {

std::vector<PerturbSpec> default_specs() {
  std::vector<PerturbSpec> specs;
  for (const PerturbKind kind :
       {PerturbKind::kTieBreakFlip, PerturbKind::kRankSwap,
        PerturbKind::kPathDelete}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{2}}) {
      PerturbSpec spec;
      spec.kind = kind;
      spec.count = count;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

}  // namespace

BreakSearchResult find_breaking_perturbation(
    const spp::Instance& instance, const model::Model& m,
    const BreakSearchOptions& options) {
  checker::ExploreOptions probe = options.explore;
  probe.extract_witness = false;
  probe.stop_at_first_proof = true;

  BreakSearchResult result;
  // Verdicts of this call, one exploration per distinct instance. Every
  // candidate is the base with its rankings edited, so the rankings are
  // the whole key; a flip set that undoes itself, a repeated attempt and
  // a shrink trial re-checking an earlier attempt all hit the memo.
  std::map<std::vector<std::vector<Path>>, bool> verdicts;
  const auto oscillates = [&](const spp::Instance& candidate) {
    CR_ASSERT(candidate.graph() == instance.graph() &&
                  candidate.destination() == instance.destination() &&
                  &candidate.export_policy() == &instance.export_policy(),
              "a perturbed instance changed more than the rankings");
    std::vector<std::vector<Path>> rankings(candidate.node_count());
    for (NodeId v = 0; v < candidate.node_count(); ++v) {
      rankings[v] = candidate.permitted(v);
    }
    const auto [it, fresh] = verdicts.try_emplace(std::move(rankings), false);
    if (fresh) {
      it->second = checker::explore(candidate, m, probe).oscillation_found;
      ++result.explorations;
    }
    return it->second;
  };

  CR_REQUIRE(!oscillates(instance),
             "find_breaking_perturbation: the base instance already "
             "oscillates under " + m.name() + " — there is nothing to break");

  const std::vector<PerturbSpec> specs =
      options.specs.empty() ? default_specs() : options.specs;

  for (std::size_t s = 0; s < specs.size(); ++s) {
    const PerturbSpec& spec = specs[s];
    const std::uint64_t spec_seed = Rng::fork_seed(options.seed, s);
    for (std::size_t k = 0; k < options.seeds_per_spec; ++k) {
      const std::uint64_t seed = Rng::fork_seed(spec_seed, k);
      PerturbResult perturbed = perturb(instance, spec, seed);
      if (perturbed.record.edits.empty() || !oscillates(perturbed.instance)) {
        continue;  // no eligible site (smaller instance than the family),
                   // or still convergent
      }

      // Greedy shrink: drop edits one at a time while the oscillation
      // survives. Terminates at a local minimum — every remaining edit
      // is necessary (within the explore bounds).
      std::vector<PerturbEdit> edits = perturbed.record.edits;
      for (std::size_t i = 0; i < edits.size() && edits.size() > 1;) {
        std::vector<PerturbEdit> trial = edits;
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
        if (oscillates(apply_edits(instance, trial))) {
          edits = std::move(trial);  // dropped; retry the same position
        } else {
          ++i;  // necessary; keep it
        }
      }

      // Final run with witness extraction on the shrunken instance; the
      // witness comes from the prefix that proves the oscillation.
      checker::ExploreOptions witness_opts = probe;
      witness_opts.extract_witness = true;
      std::size_t applied = 0;
      spp::Instance broken = apply_edits(instance, edits, &applied);
      CR_ASSERT(applied == edits.size(),
                "breaking-edit subset no longer applies to the base");
      checker::ExploreResult witness =
          checker::explore(broken, m, witness_opts);
      ++result.explorations;
      CR_ASSERT(witness.oscillation_found,
                "shrunken perturbation lost the oscillation");

      result.found = true;
      result.record = std::move(perturbed.record);
      result.record.edits = std::move(edits);
      result.witness_prefix = std::move(witness.witness_prefix);
      result.witness_cycle = std::move(witness.witness_cycle);
      result.witness_scc_size = witness.witness_scc_size;
      if (options.minimize) {
        result.minimized =
            checker::minimize_oscillating_instance(broken, m, probe);
      }
      result.instance = std::move(broken);
      return result;
    }
  }
  return result;
}

}  // namespace commroute::scenario
