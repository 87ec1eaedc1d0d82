// Stable Paths Problem (SPP) instances — Sec. 2.1 of the paper.
//
// An instance is an undirected graph with a distinguished destination d
// and, per node v, a ranked list of permitted paths P_v (rank 0 = most
// preferred; lower rank = more preferred, like cost). The destination's
// only permitted path is the trivial path (d).
//
// Instances are immutable once built (see spp/builder.hpp).
//
// Path table: every permitted path of every node (d's trivial path
// included) has a dense PathId, with epsilon = 0. Every value a network
// state holds — assignments, learned routes, exported values, queued
// messages — is epsilon or a path permitted at its own source, so
// engine::NetworkState stores PathIds instead of Paths.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/path.hpp"

namespace commroute::spp {

/// Rank of a permitted path at a node; lower is more preferred.
using Rank = std::uint32_t;

/// Dense id of a path in an instance's path table. Ids run node by node,
/// most preferred first, so two ids of the same node compare like their
/// ranks.
using PathId = std::uint32_t;

/// The id of epsilon in every instance.
inline constexpr PathId kEpsilonId = 0;

/// Export-policy hook: step 4 of Def. 2.3 writes pi_v(t) to channel (v, u)
/// only "if prescribed by export policy". The default permits everything;
/// the BGP substrate installs Gao-Rexford export rules.
class ExportPolicy {
 public:
  virtual ~ExportPolicy() = default;

  /// May `from` announce `path` (its current assignment; never epsilon)
  /// to its neighbor `to`? When this returns false the neighbor receives
  /// a withdrawal instead.
  virtual bool allows(const Graph& graph, NodeId from, NodeId to,
                      const Path& path) const = 0;
};

/// Default export policy: announce everything to everyone.
class AllowAllExport final : public ExportPolicy {
 public:
  bool allows(const Graph&, NodeId, NodeId, const Path&) const override {
    return true;
  }
};

/// An immutable SPP instance.
class Instance {
 public:
  /// Builds and validates an instance. `permitted[v]` lists v's permitted
  /// paths most-preferred first; the entry for the destination must be
  /// empty or the single trivial path. Throws PreconditionError on any
  /// malformed input (non-simple paths, wrong endpoints, missing edges,
  /// duplicates).
  Instance(Graph graph, NodeId destination,
           std::vector<std::vector<Path>> permitted,
           std::shared_ptr<const ExportPolicy> export_policy = nullptr);

  const Graph& graph() const { return graph_; }
  NodeId destination() const { return destination_; }
  std::size_t node_count() const { return graph_.node_count(); }

  /// v's permitted paths, most-preferred first. For the destination this
  /// is the single trivial path (d).
  const std::vector<Path>& permitted(NodeId v) const;

  /// Rank of `p` at `v`, or nullopt if not permitted.
  std::optional<Rank> rank(NodeId v, const Path& p) const;

  bool is_permitted(NodeId v, const Path& p) const;

  /// True when `a` is strictly preferred to `b` at `v`. Both paths must be
  /// permitted at v; epsilon is less preferred than any permitted path and
  /// equal to itself.
  bool prefers(NodeId v, const Path& a, const Path& b) const;

  /// Best (lowest-rank) permitted path among `candidates`; epsilon if none
  /// is permitted. Non-permitted candidates are ignored.
  Path best(NodeId v, const std::vector<Path>& candidates) const;

  /// Export policy accessor (never null).
  const ExportPolicy& export_policy() const { return *export_policy_; }

  /// Shared ownership of the export policy, for derived instances
  /// (e.g. scenario perturbations) that keep the policy but change the
  /// ranking.
  std::shared_ptr<const ExportPolicy> export_policy_ptr() const {
    return export_policy_;
  }

  /// Whether `from` may export `path` to `to`.
  bool export_allows(NodeId from, NodeId to, const Path& path) const;

  /// Renders a path with symbolic node names: "xyd" when every node name
  /// is a single character, "x>y>d" otherwise; epsilon renders as "(eps)".
  std::string path_name(const Path& p) const;

  /// Parses a path from symbolic names: either whitespace-separated names
  /// ("x y d") or, when every node name is a single character, a compact
  /// string ("xyd"). Throws ParseError on unknown names.
  Path parse_path(const std::string& text) const;

  /// Human-readable dump of the whole instance.
  std::string to_string() const;

  /// Total number of permitted paths across all nodes (excluding d's
  /// trivial path).
  std::size_t permitted_path_count() const;

  // -- Path table -----------------------------------------------------------

  /// Number of ids in the path table: epsilon plus every permitted path.
  std::size_t path_id_count() const { return id_node_.size(); }

  /// The path with id `id` (epsilon for kEpsilonId). Requires
  /// id < path_id_count().
  const Path& path(PathId id) const;

  /// Id of `p`: kEpsilonId for epsilon, the table id when `p` is
  /// permitted at its source, nullopt otherwise.
  std::optional<PathId> find_path_id(const Path& p) const;

  /// Like find_path_id, but a path not permitted at its source throws
  /// PreconditionError.
  PathId path_id(const Path& p) const;

  /// Id of the destination's trivial path (d).
  PathId destination_path_id() const { return first_id_[destination_]; }

  /// Id of v . path(announced) when that path is permitted at v, else
  /// kEpsilonId (also for epsilon and for announcements through v).
  /// Requires announced < path_id_count().
  PathId extension(PathId announced, NodeId v) const;

 private:
  /// One extension-index entry: `node` extends the announced path to `id`.
  struct Extension {
    NodeId node;
    PathId id;
  };

  Graph graph_;
  NodeId destination_;
  std::vector<std::vector<Path>> permitted_;
  std::vector<PathId> first_id_;  ///< per node, plus one end sentinel
  std::vector<NodeId> id_node_;   ///< owner of each id (kNoNode for 0)
  std::vector<PathId> slots_;     ///< open-addressing Path -> id index
  /// Extension index, CSR by announced id: the entries for id a are
  /// ext_[ext_begin_[a] .. ext_begin_[a + 1]).
  std::vector<std::uint32_t> ext_begin_;
  std::vector<Extension> ext_;
  std::shared_ptr<const ExportPolicy> export_policy_;
  bool single_char_names_ = true;

  void validate() const;
  void build_path_table();
  PathId lookup(const NodeId* nodes, std::size_t size,
                std::uint64_t hash) const;
};

}  // namespace commroute::spp
