// Per-layer measurements for the traced benchmark run. Every number here
// is taken from outside the library: the benchmark calls a layer's
// public functions itself and times each call with steady_clock, so no
// span or counter has to exist inside src/ for a layer to be measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/scheduler.hpp"
#include "model/model.hpp"
#include "obs/spans.hpp"
#include "spp/instance.hpp"

namespace perfbench {

/// Total time and call count of one timed public call.
struct CallTimer {
  double ns = 0.0;
  std::uint64_t calls = 0;

  void add(double call_ns, std::uint64_t n = 1) {
    ns += call_ns;
    calls += n;
  }
  void merge(const CallTimer& o) { add(o.ns, o.calls); }
  double mean_ns() const { return calls == 0 ? 0.0 : ns / calls; }
};

/// Engine-layer timings: Scheduler::next, execute_step, a NetworkState
/// copy, NetworkState::hash, and the estimated_bytes of visited states.
struct EngineTimes {
  CallTimer next;
  CallTimer execute;
  CallTimer copy;
  CallTimer hash;
  double state_bytes_sum = 0.0;
  std::uint64_t state_bytes_n = 0;

  void merge(const EngineTimes& o);
  double mean_state_bytes() const {
    return state_bytes_n == 0 ? 0.0 : state_bytes_sum / state_bytes_n;
  }
};

/// A serial breadth-first exploration driven through the checker's and
/// engine's public calls (enumerate_steps, a state copy, execute_step,
/// ShardedStateSet::intern) with checker::explore's rules: quiescent
/// states are terminal, successors past the channel bound are skipped,
/// and the state cap admits exactly `max_states` states. Its counts must
/// equal checker::explore's BFS result for the same bounds; the
/// benchmark compares them so that the timings below describe the same
/// work as the untraced exploration.
struct BfsReplay {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t expanded = 0;          ///< states whose steps were enumerated
  std::uint64_t raw_successors = 0;    ///< enumerate_steps results, summed
  CallTimer successors;                ///< enumerate_steps
  CallTimer intern;                    ///< ShardedStateSet::intern
  EngineTimes engine;
};

BfsReplay replay_bfs(const commroute::spp::Instance& instance,
                     const commroute::model::Model& m,
                     std::size_t max_channel_length, std::size_t max_states);

/// Drives `scheduler` for `steps` steps from the initial state, timing
/// every next() and execute_step, and every 8th state's copy, hash and
/// estimated_bytes.
void replay_schedule(const commroute::spp::Instance& instance,
                     commroute::engine::Scheduler& scheduler,
                     std::uint64_t steps, EngineTimes& times);

/// sim::EventQueue push+pop pairs at a steady depth of `depth` events
/// (the queue is pre-filled to `depth`, then every pop is matched by a
/// push); mean ns per pair.
double event_queue_ns(std::size_t depth, std::uint64_t seed);

/// sim::LinkModel::sample_latency on the default link model; mean ns per
/// call.
double sample_latency_ns(std::uint64_t seed);

/// One per-layer metric: its value and whether it came from the
/// workload's own calls ("workload") or from a probe of the layer on the
/// workload's instance because the workload never calls it ("probe").
struct LayerValue {
  double value = 0.0;
  std::string source = "workload";
};
using LayerMetrics = std::map<std::string, LayerValue>;

/// Times the layers a workload may not call itself, on the given
/// (instance, model) pairs: a round-robin schedule (engine), a capped
/// BFS replay plus one checker::explore with spans attached (checker),
/// scenario::perturb, sim::run with the default link model (sim), and a
/// round-robin run_campaign at width 2 (study). Only time metrics come
/// from here; counts stay the workload's own. Fills every time metric
/// missing from `out`, marked as "probe".
void fill_from_probe(
    const std::vector<std::pair<const commroute::spp::Instance*,
                                commroute::model::Model>>& pairs,
    std::uint64_t seed, LayerMetrics& out);

/// Sum of the durations, in ms, of every finished span named `name`.
double span_total_ms(const commroute::obs::SpanCollector& spans,
                     std::string_view name);

}  // namespace perfbench
