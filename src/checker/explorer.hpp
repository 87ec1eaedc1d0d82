// Bounded exhaustive exploration of all executions of an instance under a
// communication model, with sound fair-oscillation detection.
//
// The explorer builds the reachable configuration graph (configurations
// are full NetworkStates; edges are canonical activation steps) up to a
// channel-length bound, then decides whether a *fair* non-convergent
// execution exists:
//
//   A fair oscillation exists iff, after iteratively deleting from every
//   SCC the drop-edges whose channel has no delivery-edge in the same SCC
//   (to a fixpoint), some SCC retains (a) an edge changing the path
//   assignment and (b) read attempts covering every channel of the graph.
//
// Soundness both ways (within the explored subgraph): any SCC passing the
// test yields a fair infinite execution by touring its edges; conversely
// the infinitely-often-used edges of any fair oscillation form a strongly
// connected sub-multigraph that survives the pruning and passes the test.
//
// When the channel bound or the state cap is hit the result is marked
// non-exhaustive: a "no oscillation" verdict then only covers executions
// whose channels stay within the bound. For the paper's gadgets the
// default bound is never hit, so verdicts are complete. The test is
// sound on any explored subgraph too, which ExploreOptions::
// stop_at_first_proof uses to stop at the first proven oscillation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/searcher.hpp"
#include "engine/state.hpp"
#include "model/activation.hpp"
#include "model/model.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "obs/resource.hpp"
#include "trace/trace.hpp"

namespace commroute::checker {

struct ExploreOptions {
  std::size_t max_channel_length = 4;
  std::size_t max_states = 500000;
  std::size_t max_steps_per_state = 20000;
  /// Truncate exploration once the tracked-bytes estimate of the
  /// explorer's own structures (interned states, edges, frontier, hash
  /// index, witness store) exceeds this many bytes; 0 means unbounded.
  /// The estimate is deterministic (see NetworkState::estimated_bytes),
  /// so a limited run truncates at the same state on every machine —
  /// unlike an RSS-based limit would.
  std::size_t memory_limit_bytes = 0;
  /// Optional live mirror of the tracked-bytes accounting, for a
  /// TelemetrySampler to watch mid-exploration. The peak also lands in
  /// ExploreResult::tracked_peak_bytes either way.
  obs::TrackedBytes* memory = nullptr;
  /// Also construct a replayable witness for a found oscillation: a
  /// prefix script from the initial state to the witness SCC plus a cycle
  /// script touring every edge of the SCC (hence covering all channel
  /// attempts and at least one assignment change). The step store costs
  /// memory proportional to the number of transitions. For a witness SCC
  /// of n states and m internal edges the tour takes O(n * (n + m))
  /// time and O(n + m) scratch, and holds at most (m + 1) * n steps
  /// (BAD-GADGET under REF at bound 3: n = 1,296, a 116,341-step cycle).
  /// Leave off for large sweeps.
  bool extract_witness = false;
  /// Optional metrics registry / JSONL event sink / span collector.
  /// Detached (the default) adds nothing measurable; attached,
  /// explore() publishes expansion/dedup/frontier aggregates, emits a
  /// periodic "checker_heartbeat" plus a final "checker_summary" event,
  /// and traces checker.explore > checker.frontier_batch >
  /// checker.expand plus per-pass checker.scc_prune_pass spans.
  obs::Instrumentation obs;
  /// With a sink attached, emit a heartbeat every this many expanded
  /// states (0 disables count-based heartbeats).
  std::size_t heartbeat_every = 10000;
  /// Also emit a heartbeat whenever this many milliseconds pass without
  /// one (checked per expansion; 0 disables). Count-based heartbeats go
  /// quiet exactly when expansions get slow — the time-based interval
  /// keeps long stalls visible. Every heartbeat carries `elapsed_ms`.
  std::uint64_t heartbeat_interval_ms = 0;
  /// Online progress: when attached, explore() reports done=expanded /
  /// total=expanded+frontier (the coverage lower bound; total grows as
  /// states are discovered) plus the live frontier size as detail,
  /// every 256 expansions. On truncation (state cap / memory limit) the
  /// final update reports done == total — exploration is over even
  /// though the frontier is non-empty — and rewrites the detail label
  /// to "truncated:<reason>" ("stopped:proof" after a stop at a proof).
  /// Borrowed; must outlive the call.
  obs::ProgressEstimator* progress = nullptr;
  /// Worker threads for frontier expansion; 0 resolves to
  /// hardware_concurrency(). Every width runs the same wave-based code:
  /// a batch of frontier states (threads*32 under kBFS, one per worker
  /// under the other searchers) expands across a pool whose worker 0 is
  /// the calling thread (width 1 starts no thread) against a
  /// sharded concurrent seen-set, then the results merge on the calling
  /// thread in deterministic enumeration order with canonical StateId
  /// re-numbering — so under the default BFS searcher the
  /// verdict, `states`, `transitions`, `dedup_hits`, witness scripts,
  /// and the `checker_summary` event (minus `wall_us`) are
  /// byte-identical at any thread count, truncated or not.
  std::size_t threads = 1;
  /// Frontier-order strategy (see checker/searcher.hpp). Non-BFS
  /// searchers reach the same verdict on exhaustive explorations but
  /// number states differently (and explore a different prefix under a
  /// cap); kBFS is byte-compatible with the historical explorer.
  SearcherKind searcher = SearcherKind::kBFS;
  /// Seed for SearcherKind::kRandomPath.
  std::uint64_t searcher_seed = 0;
  /// Stop at the first proof of a fair oscillation. The verdict pass
  /// also runs on the graph merged so far after 64·2^k merged
  /// expansions (k = 0, 1, ...), counted in merge order, so the stop
  /// point is the same at every width. A checkpoint that proves an
  /// oscillation ends exploration there, like the state cap: the result
  /// has `stopped_at_proof` set, is not `exhaustive`, and its counts and
  /// witness describe that prefix. A checkpoint without a proof changes
  /// nothing, so a "no oscillation" verdict still covers the whole
  /// graph (docs/CHECKER.md, "Proof on the fly"). Off by default: full
  /// graphs are what paper artifacts and state counts report.
  bool stop_at_first_proof = false;
};

/// Independent count- and time-based heartbeat cadences. The two
/// triggers deliberately share no state: a count-based beat never
/// resets the time interval (the historical bug — with both cadences
/// enabled, steady expansion re-armed the time clock on every
/// count-based beat and starved time-based heartbeats forever).
class HeartbeatCadence {
 public:
  /// `start_ms` anchors the time cadence (first time-based beat is due
  /// at start_ms + interval_ms).
  HeartbeatCadence(std::size_t every, std::uint64_t interval_ms,
                   std::uint64_t start_ms = 0)
      : every_(every), interval_ms_(interval_ms), last_beat_ms_(start_ms) {}

  bool active() const { return every_ > 0 || interval_ms_ > 0; }
  bool time_active() const { return interval_ms_ > 0; }

  /// Count cadence: due every `every` expansions (stateless).
  bool count_due(std::uint64_t expanded) const {
    return every_ > 0 && expanded % every_ == 0;
  }

  /// Time cadence: due when `interval_ms` elapsed since the last
  /// *time-based* beat; advances its own clock when it fires.
  bool time_due(std::uint64_t now_ms) {
    if (interval_ms_ == 0 || now_ms - last_beat_ms_ < interval_ms_) {
      return false;
    }
    last_beat_ms_ = now_ms;
    return true;
  }

 private:
  std::size_t every_;
  std::uint64_t interval_ms_;
  std::uint64_t last_beat_ms_;
};

struct ExploreResult {
  bool oscillation_found = false;
  /// True when the full reachable graph was explored (no bound hit, no
  /// stop at a proof); a negative oscillation verdict is then a proof
  /// for this instance+model.
  bool exhaustive = false;
  bool channel_bound_hit = false;
  bool state_cap_hit = false;
  bool memory_limit_hit = false;
  /// ExploreOptions::stop_at_first_proof ended exploration at a
  /// checkpoint that proved an oscillation.
  bool stopped_at_proof = false;

  std::size_t states = 0;
  std::size_t transitions = 0;

  /// Which configured bound truncated exploration, at what value (0 when
  /// the corresponding bound was not hit) — so a non-exhaustive verdict
  /// tells the caller exactly which limit fired.
  std::size_t state_cap_limit = 0;       ///< ExploreOptions::max_states
  std::size_t channel_length_limit = 0;  ///< ExploreOptions::max_channel_length
  std::size_t memory_limit = 0;          ///< ExploreOptions::memory_limit_bytes
  /// Successor expansions discarded because they exceeded the channel
  /// bound (each is a reachable configuration the verdict does not cover).
  std::size_t bound_skipped_expansions = 0;

  /// Exploration statistics: successors that deduplicated into an
  /// already-interned state, the frontier's high-water mark, and how
  /// many passes the drop-fairness SCC pruning fixpoint took.
  std::size_t dedup_hits = 0;
  std::size_t frontier_peak = 0;
  std::size_t scc_prune_passes = 0;

  /// High-watermark of the deterministic tracked-bytes estimate over the
  /// explorer's structures (states + edges + frontier + index + witness
  /// store). Always populated — the accounting is a handful of integer
  /// adds per expansion, cheap enough to keep on unconditionally.
  std::uint64_t tracked_peak_bytes = 0;

  /// Peak tracked bytes per explored state — the scaling number the
  /// bench_perf_scale roadmap item wants (0 when nothing was explored).
  double bytes_per_state() const {
    return states == 0 ? 0.0
                       : static_cast<double>(tracked_peak_bytes) /
                             static_cast<double>(states);
  }

  /// Distinct assignments of strongly quiescent (converged) states.
  std::vector<trace::Assignment> quiescent_assignments;

  /// Size of one SCC witnessing the oscillation (0 if none).
  std::size_t witness_scc_size = 0;

  /// With ExploreOptions::extract_witness and a found oscillation:
  /// playing witness_prefix then witness_cycle forever is a fair
  /// activation sequence of the checked model that never converges
  /// (verify with ScriptedScheduler{prefix+cycle, loop_from=prefix
  /// size} and engine::run).
  model::ActivationScript witness_prefix;
  model::ActivationScript witness_cycle;

  /// True when exhaustive and no fair oscillation was found.
  bool proves_no_oscillation() const {
    return exhaustive && !oscillation_found;
  }

  std::string summary() const;
};

/// Explores `instance` under model `m`.
ExploreResult explore(const spp::Instance& instance, const model::Model& m,
                      const ExploreOptions& options = {});

}  // namespace commroute::checker
