#include "spp/instance.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace commroute::spp {

Instance::Instance(Graph graph, NodeId destination,
                   std::vector<std::vector<Path>> permitted,
                   std::shared_ptr<const ExportPolicy> export_policy)
    : graph_(std::move(graph)),
      destination_(destination),
      permitted_(std::move(permitted)),
      export_policy_(export_policy ? std::move(export_policy)
                                   : std::make_shared<AllowAllExport>()) {
  CR_REQUIRE(destination_ < graph_.node_count(),
             "destination out of range");
  CR_REQUIRE(permitted_.size() == graph_.node_count(),
             "permitted-path table must have one entry per node");

  // The destination's permitted set is exactly the trivial path.
  permitted_[destination_] = {Path{destination_}};

  for (NodeId v = 0; v < graph_.node_count(); ++v) {
    if (graph_.name(v).size() != 1) {
      single_char_names_ = false;
    }
  }

  validate();
  build_path_table();
}

namespace {

/// Hash of a node sequence, folded from the destination end so that a
/// path's hash is its tail's hash folded with its source: building the
/// table hashes each permitted path once and keeps its tail's hash (for
/// the extension index) on the way.
std::uint64_t fold_node(std::uint64_t h, NodeId v) {
  return (h ^ v) * 0x9e3779b97f4a7c15ULL;
}

constexpr std::uint64_t kFoldSeed = 0x51afd7ed558ccd6dULL;

std::uint64_t hash_nodes(const NodeId* nodes, std::size_t size) {
  std::uint64_t h = kFoldSeed;
  for (std::size_t i = size; i-- > 0;) {
    h = fold_node(h, nodes[i]);
  }
  return h;
}

std::size_t slot_of(std::uint64_t h, std::size_t mask) {
  return static_cast<std::size_t>(h ^ (h >> 29)) & mask;
}

}  // namespace

void Instance::build_path_table() {
  const std::size_t n = permitted_.size();
  first_id_.resize(n + 1);
  PathId next = 1;  // 0 is epsilon
  for (NodeId v = 0; v < n; ++v) {
    first_id_[v] = next;
    next += static_cast<PathId>(permitted_[v].size());
  }
  first_id_[n] = next;
  id_node_.assign(next, kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    std::fill(id_node_.begin() + first_id_[v],
              id_node_.begin() + first_id_[v + 1], v);
  }

  // Path -> id: open addressing at load <= 1/2, one hash per path. The
  // fold also yields each path's tail hash, kept for the second pass.
  std::size_t capacity = 4;
  while (capacity < 2 * static_cast<std::size_t>(next)) {
    capacity <<= 1;
  }
  slots_.assign(capacity, kEpsilonId);
  const std::size_t mask = capacity - 1;
  std::vector<std::uint64_t> tail(next, 0);  // tail hash, then tail id
  for (PathId id = 1; id < next; ++id) {
    const std::vector<NodeId>& nodes = path(id).nodes();
    tail[id] = hash_nodes(nodes.data() + 1, nodes.size() - 1);
    std::size_t at = slot_of(fold_node(tail[id], nodes.front()), mask);
    while (slots_[at] != kEpsilonId) {
      CR_REQUIRE(path(slots_[at]) != path(id),
                 "duplicate permitted path at node " +
                     graph_.name(id_node_[id]));
      at = (at + 1) & mask;
    }
    slots_[at] = id;
  }

  // Extension index: v . p permitted at v, keyed by p's id when p is
  // permitted at its own source (no other p can be in a state). Counting
  // sort by tail id into CSR rows, ids ascending within a row.
  ext_begin_.assign(static_cast<std::size_t>(next) + 1, 0);
  for (PathId id = 1; id < next; ++id) {
    const std::vector<NodeId>& nodes = path(id).nodes();
    tail[id] = nodes.size() < 2 ? kEpsilonId
                                : lookup(nodes.data() + 1, nodes.size() - 1,
                                         tail[id]);
    if (tail[id] != kEpsilonId) {
      ++ext_begin_[tail[id] + 1];
    }
  }
  for (std::size_t a = 1; a <= next; ++a) {
    ext_begin_[a] += ext_begin_[a - 1];
  }
  ext_.resize(ext_begin_[next]);
  for (PathId id = 1; id < next; ++id) {
    if (tail[id] != kEpsilonId) {
      ext_[ext_begin_[tail[id]]++] = Extension{id_node_[id], id};
    }
  }
  // The fill advanced each row's begin to its end (the next row's begin).
  for (std::size_t a = next; a > 0; --a) {
    ext_begin_[a] = ext_begin_[a - 1];
  }
  ext_begin_[0] = 0;
}

PathId Instance::extension(PathId announced, NodeId v) const {
  CR_REQUIRE(announced < id_node_.size(), "path id out of range");
  for (std::uint32_t i = ext_begin_[announced]; i < ext_begin_[announced + 1];
       ++i) {
    if (ext_[i].node == v) {
      return ext_[i].id;
    }
  }
  return kEpsilonId;
}

PathId Instance::lookup(const NodeId* nodes, std::size_t size,
                        std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = slot_of(hash, mask); slots_[at] != kEpsilonId;
       at = (at + 1) & mask) {
    const std::vector<NodeId>& candidate = path(slots_[at]).nodes();
    if (candidate.size() == size &&
        std::equal(candidate.begin(), candidate.end(), nodes)) {
      return slots_[at];
    }
  }
  return kEpsilonId;
}

const Path& Instance::path(PathId id) const {
  static const Path kEpsilon;
  CR_REQUIRE(id < id_node_.size(), "path id out of range");
  if (id == kEpsilonId) {
    return kEpsilon;
  }
  const NodeId v = id_node_[id];
  return permitted_[v][id - first_id_[v]];
}

std::optional<PathId> Instance::find_path_id(const Path& p) const {
  if (p.empty()) {
    return kEpsilonId;
  }
  const std::vector<NodeId>& nodes = p.nodes();
  const PathId id = lookup(nodes.data(), nodes.size(),
                           hash_nodes(nodes.data(), nodes.size()));
  if (id == kEpsilonId) {
    return std::nullopt;
  }
  return id;
}

PathId Instance::path_id(const Path& p) const {
  const std::optional<PathId> id = find_path_id(p);
  CR_REQUIRE(id.has_value(),
             "path " + p.to_string() + " is not permitted at its source");
  return *id;
}

void Instance::validate() const {
  for (NodeId v = 0; v < permitted_.size(); ++v) {
    if (v == destination_) {
      continue;
    }
    for (const Path& p : permitted_[v]) {
      const std::string where = " (path " + path_name(p) + " at node " +
                                graph_.name(v) + ")";
      CR_REQUIRE(!p.empty(), "epsilon cannot be a permitted path" + where);
      CR_REQUIRE(p.source() == v,
                 "permitted path must start at its node" + where);
      CR_REQUIRE(p.destination() == destination_,
                 "permitted path must end at the destination" + where);
      CR_REQUIRE(p.is_simple(), "permitted paths must be simple" + where);
      CR_REQUIRE(graph_.supports_path(p),
                 "permitted path uses a missing edge" + where);
    }
  }
}

const std::vector<Path>& Instance::permitted(NodeId v) const {
  CR_REQUIRE(v < permitted_.size(), "node out of range");
  return permitted_[v];
}

std::optional<Rank> Instance::rank(NodeId v, const Path& p) const {
  CR_REQUIRE(v < permitted_.size(), "node out of range");
  const std::optional<PathId> id = find_path_id(p);
  if (!id.has_value() || *id == kEpsilonId || id_node_[*id] != v) {
    return std::nullopt;
  }
  return *id - first_id_[v];
}

bool Instance::is_permitted(NodeId v, const Path& p) const {
  return rank(v, p).has_value();
}

bool Instance::prefers(NodeId v, const Path& a, const Path& b) const {
  if (a.empty()) {
    return false;  // epsilon is never strictly preferred.
  }
  const auto ra = rank(v, a);
  CR_REQUIRE(ra.has_value(), "prefers(): path not permitted at node");
  if (b.empty()) {
    return true;  // any permitted path beats epsilon.
  }
  const auto rb = rank(v, b);
  CR_REQUIRE(rb.has_value(), "prefers(): path not permitted at node");
  return *ra < *rb;
}

Path Instance::best(NodeId v, const std::vector<Path>& candidates) const {
  Path chosen = Path::epsilon();
  std::optional<Rank> chosen_rank;
  for (const Path& p : candidates) {
    const auto r = rank(v, p);
    if (!r.has_value()) {
      continue;
    }
    if (!chosen_rank.has_value() || *r < *chosen_rank) {
      chosen = p;
      chosen_rank = r;
    }
  }
  return chosen;
}

bool Instance::export_allows(NodeId from, NodeId to, const Path& path) const {
  return export_policy_->allows(graph_, from, to, path);
}

std::string Instance::path_name(const Path& p) const {
  if (p.empty()) {
    return "(eps)";
  }
  std::string out;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i > 0 && !single_char_names_) {
      out += '>';
    }
    out += graph_.name(p.at(i));
  }
  return out;
}

Path Instance::parse_path(const std::string& text) const {
  const std::string_view trimmed_text = trim(text);
  if (trimmed_text.empty() || trimmed_text == "(eps)") {
    return Path::epsilon();
  }
  std::vector<NodeId> nodes;
  if (trimmed_text.find(' ') != std::string_view::npos) {
    for (const std::string& name :
         split_trimmed(trimmed_text, ' ')) {
      nodes.push_back(graph_.node(name));
    }
  } else {
    CR_REQUIRE(single_char_names_,
               "compact path syntax requires single-character node names");
    for (const char ch : trimmed_text) {
      const std::string name(1, ch);
      if (!graph_.has_node(name)) {
        throw ParseError("unknown node '" + name + "' in path '" +
                         std::string(trimmed_text) + "'");
      }
      nodes.push_back(graph_.node(name));
    }
  }
  return Path(std::move(nodes));
}

std::string Instance::to_string() const {
  std::ostringstream os;
  os << "SPP instance: " << graph_.node_count() << " nodes, "
     << graph_.edge_count() << " edges, destination "
     << graph_.name(destination_) << "\n";
  for (NodeId v = 0; v < graph_.node_count(); ++v) {
    if (v == destination_) {
      continue;
    }
    os << "  " << graph_.name(v) << ": ";
    if (permitted_[v].empty()) {
      os << "(no permitted paths)";
    }
    for (std::size_t i = 0; i < permitted_[v].size(); ++i) {
      if (i > 0) {
        os << " > ";
      }
      os << path_name(permitted_[v][i]);
    }
    os << "\n";
  }
  return os.str();
}

std::size_t Instance::permitted_path_count() const {
  std::size_t total = 0;
  for (NodeId v = 0; v < permitted_.size(); ++v) {
    if (v != destination_) {
      total += permitted_[v].size();
    }
  }
  return total;
}

}  // namespace commroute::spp
