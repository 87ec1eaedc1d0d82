// Scenario-subsystem microbenchmarks (google-benchmark): perturbation
// throughput, fault-schedule drawing, faulted DES runs, and the
// adversarial sweep machinery. Run with --json to write
// BENCH_perf_scenario.json instead of the console table.
#include <benchmark/benchmark.h>

#include "bench_gbench.hpp"
#include "scenario/fault.hpp"
#include "scenario/perturb.hpp"
#include "scenario/search.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"

namespace {

using namespace commroute;

const spp::Instance& medium_instance() {
  static const spp::Instance inst = [] {
    Rng rng(42);
    spp::RandomInstanceParams params;
    params.nodes = 12;
    params.extra_edge_prob = 0.3;
    params.max_paths_per_node = 8;
    return spp::random_shortest(rng, params);
  }();
  return inst;
}

void BM_PerturbTieBreak(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  scenario::PerturbSpec spec;
  spec.kind = scenario::PerturbKind::kTieBreakFlip;
  spec.count = 2;
  std::uint64_t seed = 1;
  std::uint64_t edits = 0;
  for (auto _ : state) {
    const scenario::PerturbResult r = scenario::perturb(inst, spec, seed++);
    edits += r.record.edits.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  benchmark::DoNotOptimize(edits);
}
BENCHMARK(BM_PerturbTieBreak);

void BM_PerturbRankSwap(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  scenario::PerturbSpec spec;
  spec.kind = scenario::PerturbKind::kRankSwap;
  spec.count = 4;
  spec.window = 3;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario::perturb(inst, spec, seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PerturbRankSwap);

void BM_RandomFaultSchedule(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  scenario::FaultScheduleSpec spec;
  spec.link_flaps = 2;
  spec.session_resets = 1;
  spec.reboots = 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scenario::random_fault_schedule(inst, spec, seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomFaultSchedule);

void BM_SimRunFaulted(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  scenario::FaultScheduleSpec spec;
  spec.link_flaps = 2;
  spec.reboots = 1;
  spec.window_us = 20000;
  std::uint64_t seed = 1;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    scenario::FaultSchedule schedule =
        scenario::random_fault_schedule(inst, spec, seed);
    sim::SimOptions opts;
    opts.model = model::Model::parse("U1O");
    opts.link.latency_us = 1000;
    opts.seed = seed++;
    opts.max_steps = 20000;
    opts.faults = &schedule;
    const sim::SimResult result = sim::run(inst, opts);
    steps += result.run.steps;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimRunFaulted);

void BM_BreakSearchSweep(benchmark::State& state) {
  // The sweep machinery on a search that finds nothing: GOOD-GADGET
  // resists single tie-break flips, so every attempt is a convergent
  // full explore (no proof to stop at) and the search reports
  // found == false. An item is one search.
  const spp::Instance base = spp::good_gadget();
  const model::Model m = model::Model::parse("R1O");
  scenario::BreakSearchOptions opts;
  opts.specs.push_back(scenario::parse_perturb_spec("tiebreak:1"));
  opts.seeds_per_spec = 4;
  opts.explore.max_states = 50000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scenario::find_breaking_perturbation(base, m, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BreakSearchSweep)->Unit(benchmark::kMillisecond);

void BM_BreakSearchFound(benchmark::State& state) {
  // A search that breaks GOOD-GADGET (the three tie-break flips that
  // rebuild BAD-GADGET), shrinks the edit set and extracts a witness:
  // the path that stops at the first proof and re-meets instances the
  // verdict memo has seen. An item is one search.
  const spp::Instance base = spp::good_gadget();
  const model::Model m = model::Model::parse("REF");
  scenario::BreakSearchOptions opts;
  for (const char* spec : {"tiebreak:1", "tiebreak:2", "tiebreak:3"}) {
    opts.specs.push_back(scenario::parse_perturb_spec(spec));
  }
  opts.explore.max_channel_length = 3;
  opts.explore.max_states = 50000;
  std::uint64_t explorations = 0;
  for (auto _ : state) {
    const scenario::BreakSearchResult r =
        scenario::find_breaking_perturbation(base, m, opts);
    if (!r.found) {
      state.SkipWithError("the search no longer breaks GOOD-GADGET");
      return;
    }
    explorations = r.explorations;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("GOOD-GADGET REF, " + std::to_string(explorations) +
                 " explorations per search");
}
BENCHMARK(BM_BreakSearchFound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return commroute::bench::gbench_main("perf_scenario", "ops_per_sec",
                                       argc, argv);
}
