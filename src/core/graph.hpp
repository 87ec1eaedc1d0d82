// Undirected instance graphs with dense directed-channel indexing.
//
// Every undirected edge {u, v} induces two directed communication channels
// (u, v) and (v, u) per Sec. 2.1 of the paper. Channels carry a dense
// ChannelIdx so the engine can store channel contents in flat vectors.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/path.hpp"
#include "support/hash.hpp"

namespace commroute {

/// Dense index of a directed channel within one Graph.
using ChannelIdx = std::uint32_t;

/// Sentinel for "no channel".
inline constexpr ChannelIdx kNoChannel = static_cast<ChannelIdx>(-1);

/// A directed channel endpoint pair: messages flow from `from` to `to`.
struct ChannelId {
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  bool operator==(const ChannelId& o) const {
    return from == o.from && to == o.to;
  }
  bool operator!=(const ChannelId& o) const { return !(*this == o); }
};

/// Undirected graph over nodes 0..n-1 with symbolic names.
class Graph {
 public:
  /// Creates a graph with `node_names.size()` nodes. Names must be unique
  /// and non-empty.
  explicit Graph(std::vector<std::string> node_names);

  std::size_t node_count() const { return names_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  std::size_t channel_count() const { return channels_.size(); }

  /// Adds the undirected edge {u, v}; creates channels (u,v) and (v,u).
  /// Requires distinct existing nodes and no duplicate edge.
  void add_edge(NodeId u, NodeId v);

  /// True if {u, v} is an edge.
  bool has_edge(NodeId u, NodeId v) const;

  /// Neighbors of v in insertion order.
  const std::vector<NodeId>& neighbors(NodeId v) const;

  /// Channels (u, v) for all neighbors u of v — the in-channels read by v.
  const std::vector<ChannelIdx>& in_channels(NodeId v) const;

  /// Channels (v, u) for all neighbors u of v — where v writes updates.
  const std::vector<ChannelIdx>& out_channels(NodeId v) const;

  /// Dense index of channel (from, to). Requires the edge to exist.
  ChannelIdx channel(NodeId from, NodeId to) const;

  /// Endpoints of a channel index.
  ChannelId channel_id(ChannelIdx c) const;

  /// Node name lookups.
  const std::string& name(NodeId v) const;
  NodeId node(const std::string& name) const;
  bool has_node(const std::string& name) const;

  /// Renders a channel as "u->v" with symbolic names.
  std::string channel_name(ChannelIdx c) const;

  /// True if every consecutive pair on `p` is an edge.
  bool supports_path(const Path& p) const;

  /// Same node names and edges, added in the same order (so the same
  /// node and channel numbering).
  bool operator==(const Graph& other) const {
    return names_ == other.names_ && edges_ == other.edges_;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<ChannelId> channels_;
  std::unordered_map<std::uint64_t, ChannelIdx> channel_index_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::vector<ChannelIdx>> in_channels_;
  std::vector<std::vector<ChannelIdx>> out_channels_;

  static std::uint64_t key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
};

}  // namespace commroute

namespace std {
template <>
struct hash<commroute::ChannelId> {
  std::size_t operator()(const commroute::ChannelId& c) const {
    std::size_t seed = 0;
    commroute::hash_combine_value(seed, c.from);
    commroute::hash_combine_value(seed, c.to);
    return seed;
  }
};
}  // namespace std
