#include "engine/executor.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace commroute::engine {

namespace {

/// Phase 1 for one channel: remove i = min(f, m) messages (all when
/// f = all), deliver the last non-dropped one into rho.
ReadEffect process_read(NetworkState& state, const model::ReadSpec& read) {
  ReadEffect effect;
  effect.channel = read.channel;

  MutableChannelView channel = state.mutable_channel(read.channel);
  const std::size_t m = channel.size();
  const std::size_t i =
      read.count.has_value() ? std::min<std::size_t>(*read.count, m) : m;
  effect.processed = static_cast<std::uint32_t>(i);
  if (i == 0) {
    return effect;
  }

  // Largest index in {1..i} \ g, if any (indices are 1-based).
  std::size_t last_kept = 0;  // 0 = none
  std::size_t dropped_within_i = 0;
  {
    auto drop_it = read.drops.begin();
    for (std::size_t idx = 1; idx <= i; ++idx) {
      while (drop_it != read.drops.end() && *drop_it < idx) {
        ++drop_it;
      }
      const bool dropped = (drop_it != read.drops.end() && *drop_it == idx);
      if (dropped) {
        ++dropped_within_i;
      } else {
        last_kept = idx;
      }
    }
  }
  effect.dropped = static_cast<std::uint32_t>(dropped_within_i);

  if (last_kept != 0) {
    effect.delivered = true;
    const PathId known = channel.path_id(last_kept - 1);
    state.set_known_id(read.channel, known);
    effect.new_known = state.instance().path(known);
  }
  channel.pop_front_n(i);
  return effect;
}

/// Phase 2 for one node: best permitted extension of the known routes.
NodeEffect select(NetworkState& state, NodeId v) {
  const spp::Instance& inst = state.instance();
  const Graph& g = inst.graph();

  NodeEffect effect;
  effect.node = v;
  const PathId old_id = state.assignment_id(v);
  PathId best = spp::kEpsilonId;
  if (v == inst.destination()) {
    best = inst.destination_path_id();
  } else {
    // Ids of one node order like ranks, so the smallest extension wins;
    // ties keep the first channel, as a strict rank comparison would.
    for (const ChannelIdx c : g.in_channels(v)) {
      const PathId candidate = inst.extension(state.known_id(c), v);
      if (candidate != spp::kEpsilonId &&
          (best == spp::kEpsilonId || candidate < best)) {
        best = candidate;
        effect.selected_from = c;
      }
    }
  }

  effect.old_assignment = inst.path(old_id);
  effect.new_assignment = inst.path(best);
  effect.changed = (best != old_id);
  state.set_assignment_id(v, best);
  return effect;
}

/// Phase 3 for one node: write the export value to each out-channel whose
/// last exported value differs.
void announce(NetworkState& state, NodeId v, std::vector<SentMessage>& sent) {
  for (const ChannelIdx out : state.instance().graph().out_channels(v)) {
    const std::optional<PathId> value = pending_export(state, out);
    if (!value.has_value()) {
      continue;
    }
    state.mutable_channel(out).push_id(*value);
    state.set_exported_id(out, *value);
    sent.push_back(
        SentMessage{out, Message{state.instance().path(*value), 0}});
  }
}

}  // namespace

std::optional<PathId> pending_export(const NetworkState& state,
                                     ChannelIdx out) {
  const spp::Instance& inst = state.instance();
  const ChannelId id = inst.graph().channel_id(out);
  const PathId pi = state.assignment_id(id.from);
  const bool exported = pi != spp::kEpsilonId &&
                        inst.export_allows(id.from, id.to, inst.path(pi));
  const PathId value = exported ? pi : spp::kEpsilonId;
  const PathId last = state.exported_id(out);
  const bool send = last != NetworkState::kNothingExported
                        ? last != value
                        : value != spp::kEpsilonId;
  if (!send) {
    return std::nullopt;
  }
  return value;
}

StepEffect execute_step(NetworkState& state,
                        const model::ActivationStep& step,
                        obs::SpanCollector* spans) {
  model::validate_step(state.instance(), step);

  StepEffect effect;
  effect.reads.reserve(step.reads.size());
  for (const model::ReadSpec& read : step.reads) {
    effect.reads.push_back(process_read(state, read));
  }
  effect.nodes.reserve(step.nodes.size());
  for (const NodeId v : step.nodes) {
    obs::Span activate = obs::begin_span(spans, "engine.activate");
    effect.nodes.push_back(select(state, v));
    if (activate.enabled()) {
      activate.attr("node", static_cast<std::uint64_t>(v))
          .attr("changed", effect.nodes.back().changed);
    }
  }
  for (const NodeEffect& node_effect : effect.nodes) {
    announce(state, node_effect.node, effect.sent);
  }
  return effect;
}

}  // namespace commroute::engine
