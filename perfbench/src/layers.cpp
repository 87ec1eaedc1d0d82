#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>

#include "checker/explorer.hpp"
#include "checker/state_set.hpp"
#include "checker/successors.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "engine/state.hpp"
#include "scenario/perturb.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_model.hpp"
#include "sim/sim_runner.hpp"
#include "study/campaign.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace cr = commroute;
using Clock = std::chrono::steady_clock;

namespace {

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Results of timed calls whose value is otherwise unused are folded in
// here, so the optimizer cannot drop the call being timed.
volatile std::uint64_t g_sink = 0;

void sample_state(const cr::engine::NetworkState& state, EngineTimes& t) {
  auto t0 = Clock::now();
  const cr::engine::NetworkState copy = state;
  t.copy.add(ns_since(t0));
  t0 = Clock::now();
  const std::size_t h = copy.hash();
  t.hash.add(ns_since(t0));
  g_sink = g_sink + h;
  t.state_bytes_sum += static_cast<double>(state.estimated_bytes());
  ++t.state_bytes_n;
}

}  // namespace

void EngineTimes::merge(const EngineTimes& o) {
  next.merge(o.next);
  execute.merge(o.execute);
  copy.merge(o.copy);
  hash.merge(o.hash);
  state_bytes_sum += o.state_bytes_sum;
  state_bytes_n += o.state_bytes_n;
}

BfsReplay replay_bfs(const cr::spp::Instance& instance,
                     const cr::model::Model& m,
                     std::size_t max_channel_length, std::size_t max_states) {
  constexpr std::int64_t kUnmapped = -1;
  constexpr std::int64_t kDroppedAtCap = -2;
  BfsReplay r;
  cr::checker::ShardedStateSet seen;
  // Provisional seen-set id -> admitted state number (or a marker).
  std::vector<std::int64_t> final_of;
  std::deque<const cr::engine::NetworkState*> frontier;

  const auto admit = [&](const cr::engine::NetworkState* state) {
    frontier.push_back(state);
    ++r.states;
    r.engine.state_bytes_sum += static_cast<double>(state->estimated_bytes());
    ++r.engine.state_bytes_n;
  };
  {
    const auto initial = seen.intern(cr::engine::NetworkState(instance));
    final_of.push_back(0);
    admit(initial.state);
  }

  std::vector<std::pair<std::uint32_t, const cr::engine::NetworkState*>> succ;
  bool capped = false;
  while (!frontier.empty() && !capped) {
    const cr::engine::NetworkState& s = *frontier.front();
    frontier.pop_front();
    if (cr::engine::strongly_quiescent(s)) {
      continue;  // terminal, as in checker::explore
    }
    ++r.expanded;
    auto t0 = Clock::now();
    const std::vector<cr::model::ActivationStep> steps =
        cr::checker::enumerate_steps(s, m);
    r.successors.add(ns_since(t0));
    r.raw_successors += steps.size();

    succ.clear();
    for (const cr::model::ActivationStep& step : steps) {
      t0 = Clock::now();
      cr::engine::NetworkState next = s;
      r.engine.copy.add(ns_since(t0));
      t0 = Clock::now();
      cr::engine::execute_step(next, step);
      r.engine.execute.add(ns_since(t0));
      if (next.max_channel_length() > max_channel_length) {
        continue;
      }
      t0 = Clock::now();
      const std::size_t h = next.hash();
      r.engine.hash.add(ns_since(t0));
      g_sink = g_sink + h;
      t0 = Clock::now();
      const auto interned = seen.intern(std::move(next));
      r.intern.add(ns_since(t0));
      succ.emplace_back(interned.id, interned.state);
    }

    final_of.resize(seen.size(), kUnmapped);
    for (const auto& [prov, payload] : succ) {
      if (final_of[prov] == kDroppedAtCap) {
        continue;
      }
      if (final_of[prov] == kUnmapped) {
        if (r.states >= max_states) {
          // Same rule as the explorer: a cap of N admits exactly N
          // states; the rest of this state's successors still resolve.
          final_of[prov] = kDroppedAtCap;
          capped = true;
          continue;
        }
        final_of[prov] = static_cast<std::int64_t>(r.states);
        admit(payload);
      } else {
        ++r.dedup_hits;
      }
      ++r.transitions;
    }
  }
  return r;
}

void replay_schedule(const cr::spp::Instance& instance,
                     cr::engine::Scheduler& scheduler, std::uint64_t steps,
                     EngineTimes& times) {
  constexpr std::uint64_t kSampleEvery = 8;
  cr::engine::NetworkState state(instance);
  for (std::uint64_t done = 0; done < steps; ++done) {
    if (done % kSampleEvery == 0) {
      sample_state(state, times);
    }
    auto t0 = Clock::now();
    const cr::model::ActivationStep step = scheduler.next(state);
    times.next.add(ns_since(t0));
    t0 = Clock::now();
    cr::engine::execute_step(state, step);
    times.execute.add(ns_since(t0));
  }
}

double event_queue_ns(std::size_t depth, std::uint64_t seed) {
  constexpr std::uint64_t kPairs = 400000;
  cr::Rng rng(seed);
  std::vector<std::uint64_t> delays(4096);
  for (std::uint64_t& d : delays) {
    d = 1 + rng.below(4000);
  }
  cr::sim::EventQueue queue;
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    cr::sim::Event e;
    e.time = rng.below(4000);
    e.node = static_cast<cr::NodeId>(i);
    queue.push(e);
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    cr::sim::Event e = queue.pop();
    e.time += delays[i & 4095];
    queue.push(e);
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + queue.peek().time;
  return ns / static_cast<double>(kPairs);
}

double sample_latency_ns(std::uint64_t seed) {
  constexpr std::uint64_t kCalls = 1000000;
  const cr::sim::LinkModel link;
  cr::Rng rng(seed);
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    sum += link.sample_latency(rng);
  }
  const double ns = ns_since(t0);
  g_sink = g_sink + sum;
  return ns / static_cast<double>(kCalls);
}

double span_total_ms(const cr::obs::SpanCollector& spans,
                     std::string_view name) {
  double us = 0.0;
  for (const cr::obs::SpanRecord& rec : spans.snapshot()) {
    if (rec.name == name) {
      us += static_cast<double>(rec.dur_us);
    }
  }
  return us / 1000.0;
}

void fill_from_probe(
    const std::vector<std::pair<const cr::spp::Instance*, cr::model::Model>>&
        pairs,
    std::uint64_t seed, LayerMetrics& out) {
  const auto missing = [&](const char* name) { return !out.contains(name); };
  const auto set = [&](const char* name, double value) {
    if (missing(name)) {
      out[name] = LayerValue{value, "probe"};
    }
  };
  const double n = static_cast<double>(pairs.size());

  if (missing("engine.next_ns") || missing("engine.execute_ns") ||
      missing("engine.state_copy_ns") || missing("engine.state_hash_ns")) {
    EngineTimes t;
    for (const auto& [inst, m] : pairs) {
      cr::engine::RoundRobinScheduler rr(m, *inst);
      replay_schedule(*inst, rr, 4000, t);
    }
    set("engine.next_ns", t.next.mean_ns());
    set("engine.execute_ns", t.execute.mean_ns());
    set("engine.state_copy_ns", t.copy.mean_ns());
    set("engine.state_hash_ns", t.hash.mean_ns());
  }

  if (missing("checker.successors_ns") || missing("checker.intern_ns") ||
      missing("checker.verdict_ms")) {
    CallTimer successors;
    CallTimer intern;
    double verdict_ms = 0.0;
    for (const auto& [inst, m] : pairs) {
      const BfsReplay r = replay_bfs(*inst, m, 3, 2000);
      successors.merge(r.successors);
      intern.merge(r.intern);
      cr::obs::SpanCollector spans;
      cr::checker::ExploreOptions opts;
      opts.max_channel_length = 3;
      opts.max_states = 2000;
      opts.threads = 2;
      opts.obs.spans = &spans;
      cr::checker::explore(*inst, m, opts);
      verdict_ms += span_total_ms(spans, "checker.scc_prune_pass");
    }
    set("checker.successors_ns", successors.mean_ns());
    set("checker.intern_ns", intern.mean_ns());
    set("checker.verdict_ms", verdict_ms / n);
  }

  if (missing("scenario.perturb_ns")) {
    const cr::scenario::PerturbSpec spec =
        cr::scenario::parse_perturb_spec("tiebreak:1");
    CallTimer t;
    for (const auto& [inst, m] : pairs) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        const auto t0 = Clock::now();
        const cr::scenario::PerturbResult pr =
            cr::scenario::perturb(*inst, spec, seed + i);
        t.add(ns_since(t0));
        g_sink = g_sink + pr.record.edits.size();
      }
    }
    set("scenario.perturb_ns", t.mean_ns());
  }

  if (missing("sim.ns_per_event") || missing("sim.queue_ns") ||
      missing("sim.sample_ns")) {
    double wall_ns = 0.0;
    double events = 0.0;
    std::size_t peak = 1;
    for (const auto& [inst, m] : pairs) {
      cr::sim::SimOptions opts;
      opts.model = m;
      opts.seed = seed;
      const auto t0 = Clock::now();
      const cr::sim::SimResult r = cr::sim::run(*inst, opts);
      wall_ns += ns_since(t0);
      events += static_cast<double>(r.events_processed);
      peak = std::max<std::size_t>(peak, r.queue_peak_events);
    }
    set("sim.ns_per_event", events == 0.0 ? 0.0 : wall_ns / events);
    set("sim.queue_ns", event_queue_ns(peak, seed));
    set("sim.sample_ns", sample_latency_ns(seed));
  }

  if (missing("study.row_ms_max")) {
    cr::study::CampaignSpec spec;
    for (const auto& [inst, m] : pairs) {
      if (std::none_of(
              spec.instances.begin(), spec.instances.end(),
              [&](const auto& named) { return named.second == inst; })) {
        spec.instances.emplace_back(
            "probe" + std::to_string(spec.instances.size()), inst);
      }
      if (std::find(spec.models.begin(), spec.models.end(), m) ==
          spec.models.end()) {
        spec.models.push_back(m);
      }
    }
    spec.schedulers = {cr::study::SchedulerKind::kRoundRobin};
    spec.threads = 2;
    double row_ms_max = 0.0;
    for (const cr::study::CampaignRow& row :
         cr::study::run_campaign(spec).rows) {
      row_ms_max = std::max(row_ms_max, row.wall_ms);
    }
    set("study.row_ms_max", row_ms_max);
  }
}

}  // namespace perfbench
