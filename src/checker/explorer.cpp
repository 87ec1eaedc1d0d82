#include "checker/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <sstream>
#include <utility>

#include "checker/state_set.hpp"
#include "checker/successors.hpp"
#include "checker/witness_tour.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "runtime/thread_pool.hpp"
#include "support/error.hpp"

namespace commroute::checker {

namespace {

struct EdgeLabel {
  StateId to = 0;
  std::uint64_t attempts = 0;    ///< bitmask of channels in X
  std::uint64_t drops = 0;       ///< channels with >= 1 dropped message
  std::uint64_t deliveries = 0;  ///< channels with a delivered message
  bool pi_changed = false;
  bool pruned = false;           ///< removed by the drop-fairness fixpoint
  std::uint32_t step_index = 0;  ///< into the witness step store
};

constexpr std::uint32_t kNoStep = static_cast<std::uint32_t>(-1);

/// final_of sentinels for provisional ids (see ShardedStateSet): not yet
/// renumbered, and refused at the state cap (so every later edge to the
/// same configuration is skipped too, exactly as if it was never seen).
constexpr StateId kUnmapped = static_cast<StateId>(-1);
constexpr StateId kDroppedAtCap = static_cast<StateId>(-2);

/// Tracked-bytes estimate for one witness-store activation step (object
/// plus the heap its vectors hold; counts, never capacity).
std::size_t step_bytes(const model::ActivationStep& step) {
  std::size_t bytes = sizeof(model::ActivationStep) +
                      step.nodes.size() * sizeof(NodeId);
  for (const model::ReadSpec& read : step.reads) {
    bytes += sizeof(model::ReadSpec) +
             read.drops.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

/// The merged configuration graph. State payloads are owned by the
/// ShardedStateSet's shard arenas (stable addresses); `states` maps the
/// canonical, enumeration-ordered StateId to its payload.
struct ConfigGraph {
  std::vector<const engine::NetworkState*> states;
  std::vector<std::vector<EdgeLabel>> edges;

  const engine::NetworkState& state(StateId id) const {
    return *states[id];
  }
};

/// Expansion output for one batch slot. Caller-indexed storage: the
/// merge reads slots in batch order, so nothing downstream depends on
/// which worker ran which slot. `successors[k].to` holds the provisional
/// id until the merge renumbers it; `steps` parallels `successors` and
/// is filled only under extract_witness. Slots are reused across waves
/// (reset(), not destruction) so the per-successor buffers keep their
/// capacity instead of churning the allocator once per expansion. With
/// spans attached the slot carries its own timing, and the merge records
/// its checker.expand span only if it merges the slot.
struct ExpandResult {
  bool quiescent = false;
  trace::Assignment assignment;    ///< when quiescent
  std::size_t raw_successors = 0;  ///< enumerate_steps count, pre-filter
  std::size_t bound_skipped = 0;   ///< successors beyond the channel bound
  std::vector<EdgeLabel> successors;
  std::vector<model::ActivationStep> steps;
  std::size_t worker = 0;  ///< which worker expanded the slot
  std::chrono::steady_clock::time_point start{};
  std::uint64_t dur_us = 0;

  void reset() {
    quiescent = false;
    raw_successors = 0;
    bound_skipped = 0;
    successors.clear();
    steps.clear();
  }
};

/// Tarjan SCC over the configuration graph, honoring edge pruning.
std::vector<std::vector<StateId>> tarjan_sccs(const ConfigGraph& graph) {
  const std::size_t n = graph.states.size();
  std::vector<std::uint32_t> indices(n, 0), lowlink(n, 0);
  std::vector<bool> on_stack(n, false), visited(n, false);
  std::vector<StateId> stack;
  std::vector<std::vector<StateId>> sccs;
  std::uint32_t counter = 1;

  struct Frame {
    StateId v;
    std::size_t next_edge = 0;
  };

  for (StateId root = 0; root < n; ++root) {
    if (visited[root]) {
      continue;
    }
    std::vector<Frame> frames{Frame{root}};
    visited[root] = true;
    indices[root] = lowlink[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const StateId v = frame.v;
      bool descended = false;
      while (frame.next_edge < graph.edges[v].size()) {
        const EdgeLabel& e = graph.edges[v][frame.next_edge++];
        if (e.pruned) {
          continue;
        }
        const StateId w = e.to;
        if (!visited[w]) {
          visited[w] = true;
          indices[w] = lowlink[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w});
          descended = true;
          break;
        }
        if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], indices[w]);
        }
      }
      if (descended) {
        continue;
      }
      // v finished.
      if (lowlink[v] == indices[v]) {
        std::vector<StateId> scc;
        for (;;) {
          const StateId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc.push_back(w);
          if (w == v) {
            break;
          }
        }
        sccs.push_back(std::move(scc));
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().v] =
            std::min(lowlink[frames.back().v], lowlink[v]);
      }
    }
  }
  return sccs;
}

/// The verdict pass (docs/CHECKER.md): within each SCC, prune drop-edges
/// whose channel has no delivery-edge inside the same SCC, repeating
/// until stable (pruning can split SCCs); then test every SCC for an
/// assignment-changing edge and read attempts covering `all_channels`.
/// Returns the members of the largest passing SCC (the first in SCC
/// order among equals), empty when none passes. Starts from an
/// unpruned graph, so a pass on a prefix never leaks its prunes into a
/// later pass on a larger graph (where a pruned drop-edge may sit in an
/// SCC that delivers on its channel). Leaves the pruned flags set, as
/// the witness tour needs them; adds its passes to `passes`.
std::vector<StateId> find_witness_scc(ConfigGraph& graph,
                                      std::uint64_t all_channels,
                                      const obs::Instrumentation& obs,
                                      std::size_t& passes) {
  for (std::vector<EdgeLabel>& row : graph.edges) {
    for (EdgeLabel& e : row) {
      e.pruned = false;
    }
  }
  for (;;) {
    ++passes;
    obs::Span pass_span = obs.span("checker.scc_prune_pass");
    auto sccs = tarjan_sccs(graph);
    std::vector<std::uint32_t> scc_of(graph.states.size(), 0);
    for (std::uint32_t s = 0; s < sccs.size(); ++s) {
      for (const StateId v : sccs[s]) {
        scc_of[v] = s;
      }
    }

    // Delivery-channel mask per SCC (internal edges only).
    std::vector<std::uint64_t> scc_deliveries(sccs.size(), 0);
    for (StateId v = 0; v < graph.states.size(); ++v) {
      for (const EdgeLabel& e : graph.edges[v]) {
        if (!e.pruned && scc_of[v] == scc_of[e.to]) {
          scc_deliveries[scc_of[v]] |= e.deliveries;
        }
      }
    }

    bool pruned_any = false;
    for (StateId v = 0; v < graph.states.size(); ++v) {
      for (EdgeLabel& e : graph.edges[v]) {
        if (e.pruned || scc_of[v] != scc_of[e.to]) {
          continue;
        }
        if ((e.drops & ~scc_deliveries[scc_of[v]]) != 0) {
          e.pruned = true;
          pruned_any = true;
        }
      }
    }
    if (pruned_any) {
      continue;
    }

    // Final verdict on this SCC decomposition.
    std::vector<std::uint64_t> scc_attempts(sccs.size(), 0);
    std::vector<bool> scc_pi_change(sccs.size(), false);
    for (StateId v = 0; v < graph.states.size(); ++v) {
      for (const EdgeLabel& e : graph.edges[v]) {
        if (e.pruned || scc_of[v] != scc_of[e.to]) {
          continue;
        }
        scc_attempts[scc_of[v]] |= e.attempts;
        scc_pi_change[scc_of[v]] = scc_pi_change[scc_of[v]] || e.pi_changed;
      }
    }
    std::vector<StateId> witness;
    for (std::uint32_t s = 0; s < sccs.size(); ++s) {
      if (scc_pi_change[s] && scc_attempts[s] == all_channels &&
          sccs[s].size() > witness.size()) {
        witness = std::move(sccs[s]);
      }
    }
    return witness;
  }
}

}  // namespace

std::string ExploreResult::summary() const {
  std::ostringstream os;
  os << (oscillation_found ? "oscillation possible" : "no fair oscillation")
     << " (" << states << " states, " << transitions << " transitions, "
     << (exhaustive ? "exhaustive" : "bounded") << ")";
  if (state_cap_hit) {
    os << ", state cap " << state_cap_limit << " hit";
  }
  if (channel_bound_hit) {
    os << ", channel bound " << channel_length_limit << " hit ("
       << bound_skipped_expansions << " expansions skipped)";
  }
  if (memory_limit_hit) {
    os << ", memory limit " << memory_limit << " bytes hit";
  }
  if (stopped_at_proof) {
    os << ", stopped at the first proof";
  }
  if (!quiescent_assignments.empty()) {
    os << ", " << quiescent_assignments.size()
       << " distinct converged outcome(s)";
  }
  return os.str();
}

ExploreResult explore(const spp::Instance& instance, const model::Model& m,
                      const ExploreOptions& options) {
  CR_REQUIRE(instance.graph().channel_count() <= 64,
             "explorer supports at most 64 channels");

  const std::size_t threads = runtime::resolve_threads(options.threads);
  const bool observed = options.obs.attached();
  const auto explore_start =
      observed ? std::chrono::steady_clock::now()
               : std::chrono::steady_clock::time_point{};
  obs::Span explore_span = options.obs.span("checker.explore");
  if (explore_span.enabled()) {
    explore_span.attr("model", m.name());
    explore_span.attr("threads", static_cast<std::uint64_t>(threads));
    explore_span.attr("searcher", to_string(options.searcher));
  }

  ExploreResult result;
  ConfigGraph graph;
  ShardedStateSet seen(std::min<std::size_t>(64, threads * 8));

  // Tracked-bytes accounting over the explorer's own structures (interned
  // states, edges, frontier, hash index, witness store). Always on — it
  // is a handful of integer adds per expansion — and mirrored into
  // options.memory when attached so a TelemetrySampler can watch the
  // exploration live. All accounting happens on the merge path, in
  // enumeration order, so the peak is identical at any thread count.
  std::uint64_t tracked_bytes = 0;
  const auto track_add = [&](std::size_t n) {
    tracked_bytes += n;
    if (tracked_bytes > result.tracked_peak_bytes) {
      result.tracked_peak_bytes = tracked_bytes;
    }
    if (options.memory != nullptr) {
      options.memory->add(n);
    }
  };
  const auto track_sub = [&](std::size_t n) {
    tracked_bytes -= n;
    if (options.memory != nullptr) {
      options.memory->sub(n);
    }
  };
  // Per interned state: the payload's own footprint plus its seen-set
  // slot, its pointer in the id table, and its (empty) adjacency row.
  const auto interned_state_bytes = [&](StateId id) {
    return graph.state(id).estimated_bytes() +
           ShardedStateSet::slot_bytes() +
           sizeof(const engine::NetworkState*) +
           sizeof(std::vector<EdgeLabel>);
  };

  SuccessorOptions successor_options;
  successor_options.max_steps_per_state = options.max_steps_per_state;
  std::uint64_t expanded = 0;
  std::uint64_t discovery_seq = 0;
  HeartbeatCadence cadence(options.heartbeat_every,
                           options.heartbeat_interval_ms);
  /// One checker.frontier_batch span per 256 merged expansions, so a
  /// Perfetto view shows exploration progress on the coordinating track
  /// at a glance. Rotated in the merge loop, whose order is the same at
  /// every width, so the number of batch spans is too.
  constexpr std::uint64_t kExpansionsPerBatchSpan = 256;
  obs::Span batch_span;

  // Renumbering table: provisional id (seen-set order, racing when
  // several workers expand) -> canonical StateId (enumeration order).
  std::vector<StateId> final_of;
  // Provisional id -> payload, filled from the seen-set's fresh list
  // after every wave.
  std::vector<const engine::NetworkState*> payload_of;

  std::unique_ptr<Searcher> searcher =
      make_searcher(options.searcher, options.searcher_seed);

  {
    const auto interned = seen.intern(engine::NetworkState(instance));
    graph.states.push_back(interned.state);
    graph.edges.emplace_back();
    final_of.push_back(0);
    payload_of.push_back(interned.state);
    track_add(interned_state_bytes(0));
    searcher->push(0, SearcherPush{false, discovery_seq++});
    track_add(sizeof(StateId));
  }
  result.frontier_peak = 1;

  std::vector<trace::Assignment> quiescent;

  // Witness bookkeeping (only populated when requested).
  std::vector<model::ActivationStep> step_store;
  struct Parent {
    StateId from = 0;
    std::uint32_t step_index = kNoStep;
  };
  std::vector<Parent> parents(1);  // parents[initial] unused

  // Parallel machinery: a pool and per-worker obs shards — each worker
  // owns a registry and span collector, merged commutatively below. A
  // slot's checker.expand span goes to the shard of the worker that
  // expanded it, recorded by the merge loop and only for slots it
  // merges, so a run that stops mid-batch records exactly the
  // expansions it kept. Width 1 is a one-shard pool whose only worker
  // is the calling thread.
  runtime::ThreadPool pool(threads);
  struct WorkerCtx {
    obs::Registry metrics;
    obs::SpanCollector spans;
    obs::LogHistogram* expand_hist = nullptr;
  };
  // deque: SpanCollector is not movable.
  std::deque<WorkerCtx> workers(threads);
  const bool timed = options.obs.spans != nullptr;
  if (timed && options.obs.metrics != nullptr) {
    for (WorkerCtx& w : workers) {
      w.expand_hist = &w.metrics.histogram("checker.expand_us");
    }
  }

  // One wave: select a batch in searcher order, expand it across the
  // pool, then merge the caller-indexed results in batch order. Any
  // batch partitioning of a FIFO frontier yields the same merge order,
  // which is why the BFS searcher is byte-deterministic across thread
  // counts, and why it can take 32 states per worker. The other
  // searchers pick their next state from the successors just merged,
  // so a wave selects one state per worker: at width 1 that is their
  // exact one-at-a-time order.
  const std::size_t batch_target =
      options.searcher == SearcherKind::kBFS ? threads * 32 : threads;
  std::vector<StateId> batch;
  std::vector<ExpandResult> results;
  std::vector<std::pair<std::uint32_t, const engine::NetworkState*>> fresh;

  const auto expand = [&](ExpandResult& out, const engine::NetworkState& s) {
    // Strongly quiescent states are terminal: no step changes anything.
    if (engine::strongly_quiescent(s)) {
      out.quiescent = true;
      out.assignment = s.assignments();
      return;
    }

    std::vector<model::ActivationStep> steps =
        enumerate_steps(s, m, successor_options);
    out.raw_successors = steps.size();
    out.successors.reserve(steps.size());
    for (model::ActivationStep& step : steps) {
      engine::NetworkState next = s;
      const engine::StepEffect effect = engine::execute_step(next, step);

      if (next.max_channel_length() > options.max_channel_length) {
        ++out.bound_skipped;
        continue;  // beyond the bound: do not expand
      }

      EdgeLabel label;
      for (const engine::ReadEffect& read : effect.reads) {
        label.attempts |= (1ULL << read.channel);
        if (read.dropped > 0) {
          label.drops |= (1ULL << read.channel);
        }
        if (read.delivered) {
          label.deliveries |= (1ULL << read.channel);
        }
      }
      for (const engine::NodeEffect& node : effect.nodes) {
        label.pi_changed |= node.changed;
      }
      label.to = seen.intern(std::move(next)).id;  // provisional
      out.successors.push_back(label);
      if (options.extract_witness) {
        out.steps.push_back(std::move(step));
      }
    }
  };
  const auto expand_one = [&](std::size_t worker, std::size_t i) {
    ExpandResult& out = results[i];
    out.worker = worker;
    if (timed) {
      out.start = std::chrono::steady_clock::now();
    }
    expand(out, graph.state(batch[i]));
    if (timed) {
      out.dur_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - out.start)
              .count());
    }
  };
  // The merged slot's checker.expand span, in its worker's shard.
  const auto record_expand_span = [&](const ExpandResult& out) {
    WorkerCtx& w = workers[out.worker];
    if (out.quiescent) {
      w.spans.record_timed("checker.expand", out.start, out.dur_us);
      return;
    }
    w.spans.record_timed(
        "checker.expand", out.start, out.dur_us,
        obs::JsonWriter()
            .field("successors",
                   static_cast<std::uint64_t>(out.raw_successors))
            .str());
    if (w.expand_hist != nullptr) {
      w.expand_hist->observe(out.dur_us);
    }
  };

  // Proof on the fly: the verdict pass runs on the merged graph after
  // kFirstProofCheckpoint * 2^k merged expansions.
  constexpr std::uint64_t kFirstProofCheckpoint = 64;
  std::uint64_t next_checkpoint = kFirstProofCheckpoint;
  const std::uint64_t all_channels =
      (instance.graph().channel_count() == 64)
          ? ~0ULL
          : ((1ULL << instance.graph().channel_count()) - 1);
  std::vector<StateId> witness_scc;

  bool stopped = false;
  std::uint64_t unmerged = 0;  ///< batch slots abandoned by a stop
  while (!searcher->empty() && !stopped) {
    batch.clear();
    while (batch.size() < batch_target && !searcher->empty()) {
      batch.push_back(searcher->select());
    }
    if (results.size() < batch.size()) {
      results.resize(batch.size());
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      results[i].reset();
    }

    runtime::parallel_for_each(pool, batch.size(), expand_one);

    // Index this wave's discoveries by provisional id.
    fresh.clear();
    seen.drain_fresh(fresh);
    final_of.resize(seen.size(), kUnmapped);
    payload_of.resize(seen.size(), nullptr);
    for (const auto& [prov, payload] : fresh) {
      payload_of[prov] = payload;
    }

    // Merge in batch (enumeration) order on the calling thread.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (options.memory_limit_bytes > 0 &&
          tracked_bytes > options.memory_limit_bytes) {
        result.memory_limit_hit = true;
        result.memory_limit = options.memory_limit_bytes;
        unmerged = batch.size() - i;
        stopped = true;
        break;
      }
      const StateId id = batch[i];
      track_sub(sizeof(StateId));
      if (options.obs.spans != nullptr &&
          expanded % kExpansionsPerBatchSpan == 0) {
        batch_span.finish();  // before begin(), so batches are siblings
        batch_span = options.obs.span("checker.frontier_batch");
      }
      ++expanded;
      // States selected into this batch but not yet merged still count
      // as frontier: the pending total is partition-independent.
      const auto pending = [&] {
        return searcher->size() + (batch.size() - 1 - i);
      };
      if (options.progress != nullptr && expanded % 256 == 0) {
        // done/total both move: total = expanded + frontier is the best
        // lower bound on the reachable-state count known so far, so the
        // fraction converges to 1 exactly as the frontier drains.
        options.progress->update(expanded, expanded + pending());
        options.progress->set_detail(pending());
      }
      if (options.obs.sink != nullptr && cadence.active()) {
        const bool count_due = cadence.count_due(expanded);
        auto now = std::chrono::steady_clock::time_point{};
        std::uint64_t now_ms = 0;
        if (count_due || cadence.time_active()) {
          now = std::chrono::steady_clock::now();
          now_ms = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - explore_start)
                  .count());
        }
        const bool time_fired = cadence.time_due(now_ms);
        if (count_due || time_fired) {
          obs::Event ev("checker_heartbeat");
          ev.field("expanded", expanded)
              .field("states",
                     static_cast<std::uint64_t>(graph.states.size()))
              .field("frontier", static_cast<std::uint64_t>(pending()))
              .field("transitions",
                     static_cast<std::uint64_t>(result.transitions))
              .field("dedup_hits",
                     static_cast<std::uint64_t>(result.dedup_hits))
              .field("elapsed_ms", now_ms);
          options.obs.sink->emit(ev);
        }
      }

      ExpandResult& out = results[i];
      if (timed) {
        record_expand_span(out);
      }
      if (out.quiescent &&
          std::find(quiescent.begin(), quiescent.end(), out.assignment) ==
              quiescent.end()) {
        quiescent.push_back(std::move(out.assignment));
      }
      if (out.bound_skipped > 0) {
        result.channel_bound_hit = true;
        result.channel_length_limit = options.max_channel_length;
        result.bound_skipped_expansions += out.bound_skipped;
      }

      for (std::size_t k = 0; k < out.successors.size(); ++k) {
        EdgeLabel& rec = out.successors[k];
        const std::uint32_t prov = rec.to;
        if (final_of[prov] == kDroppedAtCap) {
          continue;
        }
        bool is_new = false;
        StateId to;
        if (final_of[prov] == kUnmapped) {
          // Enforce the cap at intern time: a cap of N admits exactly
          // N states, whatever the expansion order or batch size.
          if (graph.states.size() >= options.max_states) {
            result.state_cap_hit = true;
            result.state_cap_limit = options.max_states;
            final_of[prov] = kDroppedAtCap;
            continue;
          }
          to = static_cast<StateId>(graph.states.size());
          final_of[prov] = to;
          is_new = true;
        } else {
          to = final_of[prov];
        }
        rec.to = to;
        if (options.extract_witness) {
          rec.step_index = static_cast<std::uint32_t>(step_store.size());
          step_store.push_back(std::move(out.steps[k]));
          track_add(step_bytes(step_store.back()));
        }
        graph.edges[id].push_back(rec);
        track_add(sizeof(EdgeLabel));
        ++result.transitions;
        if (is_new) {
          graph.states.push_back(payload_of[prov]);
          graph.edges.emplace_back();
          track_add(interned_state_bytes(to));
          searcher->push(to, SearcherPush{rec.pi_changed, discovery_seq++});
          track_add(sizeof(StateId));
          if (pending() > result.frontier_peak) {
            result.frontier_peak = pending();
          }
          if (options.extract_witness) {
            parents.push_back(Parent{id, rec.step_index});
            track_add(sizeof(Parent));
          }
        } else {
          ++result.dedup_hits;
        }
      }
      if (result.state_cap_hit) {
        // Stop after the slot that filled the cap (its remaining
        // successors above already resolved against the full graph);
        // later slots in this wave are discarded exactly as if they
        // were never expanded, so the stop point is the same at every
        // width.
        unmerged = batch.size() - 1 - i;
        stopped = true;
        break;
      }
      if (options.stop_at_first_proof && expanded == next_checkpoint) {
        next_checkpoint *= 2;
        witness_scc = find_witness_scc(graph, all_channels, options.obs,
                                       result.scc_prune_passes);
        if (!witness_scc.empty()) {
          // A proof: stop here, discarding the rest of the wave as the
          // state cap does. The pruned flags stay for the witness tour.
          result.stopped_at_proof = true;
          unmerged = batch.size() - 1 - i;
          stopped = true;
          break;
        }
      }
    }
  }
  batch_span.finish();

  // Merge the per-worker instrumentation shards (counters add, gauges
  // max, histograms merge, span ids re-based). Worker
  // checker.expand spans become children of checker.explore.
  for (WorkerCtx& w : workers) {
    if (options.obs.metrics != nullptr) {
      options.obs.metrics->merge_from(w.metrics);
    }
    if (options.obs.spans != nullptr) {
      options.obs.spans->merge_from(w.spans);
    }
  }

  if (options.progress != nullptr) {
    const std::uint64_t remaining = searcher->size() + unmerged;
    if (stopped) {
      // Exploration is over even though the frontier is not empty:
      // report done == total so the fraction lands on 1.0 instead of
      // freezing short with a dangling ETA, and carry the reason in the
      // detail label.
      const std::uint64_t total = expanded + remaining;
      options.progress->update(total, total);
      options.progress->set_detail(remaining);
      options.progress->set_detail_label(
          result.stopped_at_proof   ? "stopped:proof"
          : result.memory_limit_hit ? "truncated:memory_limit"
                                    : "truncated:state_cap");
    } else {
      options.progress->update(expanded, expanded + remaining);
      options.progress->set_detail(remaining);
    }
  }
  result.states = graph.states.size();
  result.quiescent_assignments = std::move(quiescent);
  result.exhaustive = !result.state_cap_hit && !result.channel_bound_hit &&
                      !result.memory_limit_hit && !result.stopped_at_proof;

  if (!result.stopped_at_proof) {
    witness_scc = find_witness_scc(graph, all_channels, options.obs,
                                   result.scc_prune_passes);
  }
  result.oscillation_found = !witness_scc.empty();
  result.witness_scc_size = witness_scc.size();

  if (options.extract_witness && result.oscillation_found) {
    // Build a closed tour through *every* internal edge of the witness
    // SCC (so the loop attempts every channel, performs a delivery for
    // every dropping channel, and changes assignments), plus the BFS
    // prefix from the initial state to the tour start.
    constexpr std::uint32_t kOutside = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> local(graph.states.size(), kOutside);
    for (std::uint32_t i = 0; i < witness_scc.size(); ++i) {
      local[witness_scc[i]] = i;
    }
    LocalGraph scc;
    for (const StateId v : witness_scc) {
      for (const EdgeLabel& e : graph.edges[v]) {
        if (!e.pruned && local[e.to] != kOutside) {
          scc.heads.push_back(local[e.to]);
          scc.labels.push_back(e.step_index);
        }
      }
      scc.offsets.push_back(static_cast<std::uint32_t>(scc.heads.size()));
    }
    const std::vector<std::uint32_t> tour = closed_edge_tour(scc);

    std::vector<std::uint32_t> prefix_rev;
    for (StateId at = witness_scc.front(); at != 0; at = parents[at].from) {
      prefix_rev.push_back(parents[at].step_index);
    }
    result.witness_prefix.reserve(prefix_rev.size());
    for (auto it = prefix_rev.rbegin(); it != prefix_rev.rend(); ++it) {
      result.witness_prefix.push_back(step_store[*it]);
    }
    result.witness_cycle.reserve(tour.size());
    for (const std::uint32_t idx : tour) {
      result.witness_cycle.push_back(step_store[idx]);
    }
  }

  if (observed) {
    const std::uint64_t wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - explore_start)
            .count());
    if (explore_span.enabled()) {
      explore_span
          .attr("states", static_cast<std::uint64_t>(result.states))
          .attr("transitions",
                static_cast<std::uint64_t>(result.transitions))
          .attr("oscillation_found", result.oscillation_found);
      explore_span.finish();
    }
    if (options.obs.metrics != nullptr) {
      obs::Registry& reg = *options.obs.metrics;
      reg.histogram("checker.explore_us").observe(wall_us);
      reg.counter("checker.explorations").add();
      reg.counter("checker.states").add(result.states);
      reg.counter("checker.transitions").add(result.transitions);
      reg.counter("checker.dedup_hits").add(result.dedup_hits);
      reg.counter("checker.scc_prune_passes").add(result.scc_prune_passes);
      reg.counter("checker.bound_skipped_expansions")
          .add(result.bound_skipped_expansions);
      reg.counter("checker.wall_us").add(wall_us);
      reg.gauge("checker.frontier_peak").record_max(result.frontier_peak);
      reg.gauge("checker.tracked_peak_bytes")
          .record_max(result.tracked_peak_bytes);
      reg.gauge("checker.threads").record_max(threads);
      if (result.memory_limit_hit) {
        reg.gauge("checker.memory_limit_hit").record_max(1);
      }
    }
    if (options.obs.sink != nullptr) {
      obs::Event ev("checker_summary");
      ev.field("oscillation_found", result.oscillation_found)
          .field("exhaustive", result.exhaustive)
          .field("searcher", to_string(options.searcher))
          .field("state_cap_hit", result.state_cap_hit)
          .field("state_cap_limit",
                 static_cast<std::uint64_t>(result.state_cap_limit))
          .field("channel_bound_hit", result.channel_bound_hit)
          .field("channel_length_limit",
                 static_cast<std::uint64_t>(result.channel_length_limit))
          .field("bound_skipped_expansions",
                 static_cast<std::uint64_t>(result.bound_skipped_expansions))
          .field("memory_limit_hit", result.memory_limit_hit)
          .field("memory_limit_bytes",
                 static_cast<std::uint64_t>(result.memory_limit))
          .field("tracked_peak_bytes", result.tracked_peak_bytes)
          .field("bytes_per_state", result.bytes_per_state())
          .field("states", static_cast<std::uint64_t>(result.states))
          .field("transitions",
                 static_cast<std::uint64_t>(result.transitions))
          .field("dedup_hits",
                 static_cast<std::uint64_t>(result.dedup_hits))
          .field("frontier_peak",
                 static_cast<std::uint64_t>(result.frontier_peak))
          .field("scc_prune_passes",
                 static_cast<std::uint64_t>(result.scc_prune_passes))
          .field("witness_scc_size",
                 static_cast<std::uint64_t>(result.witness_scc_size))
          .field("quiescent_outcomes",
                 static_cast<std::uint64_t>(
                     result.quiescent_assignments.size()))
          .field("wall_us", wall_us);
      if (options.stop_at_first_proof) {
        // Only when armed: other checker_summary lines keep their bytes.
        ev.field("stopped_at_proof", result.stopped_at_proof);
      }
      options.obs.sink->emit(ev);
    }
  }

  return result;
}

}  // namespace commroute::checker
