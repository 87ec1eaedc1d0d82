// Differential test of the witness tour: closed_edge_tour against the
// construction the explorer used before it, a FIFO BFS per tour edge
// (kept here verbatim as the reference), on seeded random strongly
// connected multigraphs with parallel edges and self-loops.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checker/searcher.hpp"
#include "checker/witness_tour.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace commroute::checker {
namespace {

constexpr std::uint32_t kNoStep = static_cast<std::uint32_t>(-1);

struct EdgeLabel {
  StateId to = 0;
  std::uint32_t step_index = 0;
};

/// Adjacency lists over states 0..n-1, all of them one SCC.
struct ConfigGraph {
  std::vector<std::vector<EdgeLabel>> edges;
};

/// The explorer's former per-edge BFS tour, with members 0..n-1 in order
/// and every edge internal.
std::vector<std::uint32_t> reference_tour(const ConfigGraph& graph) {
  std::vector<StateId> members(graph.edges.size());
  for (StateId v = 0; v < members.size(); ++v) {
    members[v] = v;
  }
  const auto internal = [](StateId, const EdgeLabel&) { return true; };

  // BFS path (as step indices) between two SCC states.
  const auto scc_path = [&](StateId from,
                            StateId to) -> std::vector<std::uint32_t> {
    if (from == to) {
      return {};
    }
    std::unordered_map<StateId, std::pair<StateId, std::uint32_t>>
        via;  // state -> (predecessor, step index)
    std::deque<StateId> bfs{from};
    via.emplace(from, std::make_pair(from, kNoStep));
    while (!bfs.empty()) {
      const StateId at = bfs.front();
      bfs.pop_front();
      for (const EdgeLabel& e : graph.edges[at]) {
        if (!internal(at, e) || via.count(e.to) != 0) {
          continue;
        }
        via.emplace(e.to, std::make_pair(at, e.step_index));
        if (e.to == to) {
          std::vector<std::uint32_t> rev;
          for (StateId w = to; w != from;
               w = via.at(w).first) {
            rev.push_back(via.at(w).second);
          }
          return {rev.rbegin(), rev.rend()};
        }
        bfs.push_back(e.to);
      }
    }
    throw InvariantError("SCC is not strongly connected");
  };

  const StateId start = members.front();
  StateId cursor = start;
  std::vector<std::uint32_t> tour;
  for (const StateId v : members) {
    for (const EdgeLabel& e : graph.edges[v]) {
      if (!internal(v, e)) {
        continue;
      }
      for (const std::uint32_t idx : scc_path(cursor, v)) {
        tour.push_back(idx);
      }
      tour.push_back(e.step_index);
      cursor = e.to;
    }
  }
  for (const std::uint32_t idx : scc_path(cursor, start)) {
    tour.push_back(idx);
  }
  return tour;
}

LocalGraph to_local(const ConfigGraph& graph) {
  LocalGraph g;
  for (const std::vector<EdgeLabel>& out : graph.edges) {
    for (const EdgeLabel& e : out) {
      g.heads.push_back(e.to);
      g.labels.push_back(e.step_index);
    }
    g.offsets.push_back(static_cast<std::uint32_t>(g.heads.size()));
  }
  return g;
}

/// A random strongly connected multigraph: a Hamiltonian cycle in
/// random order plus random extra edges (self-loops and parallel edges
/// included), each adjacency list shuffled, labels a random permutation.
ConfigGraph random_scc(Rng& rng, std::uint32_t n) {
  ConfigGraph graph{std::vector<std::vector<EdgeLabel>>(n)};
  auto& edges = graph.edges;
  std::vector<StateId> order(n);
  for (StateId v = 0; v < n; ++v) {
    order[v] = v;
  }
  rng.shuffle(order);
  for (std::uint32_t i = 0; i < n; ++i) {
    edges[order[i]].push_back({order[(i + 1) % n], 0});
  }
  const std::uint64_t extra = rng.below(3 * std::uint64_t{n} + 1);
  for (std::uint64_t i = 0; i < extra; ++i) {
    const auto from = static_cast<StateId>(rng.below(n));
    const auto to =
        rng.chance(0.1) ? from : static_cast<StateId>(rng.below(n));
    edges[from].push_back({to, 0});
    if (rng.chance(0.1)) {
      edges[from].push_back({to, 0});
    }
  }
  std::vector<std::uint32_t> labels;
  for (std::vector<EdgeLabel>& out : edges) {
    rng.shuffle(out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      labels.push_back(static_cast<std::uint32_t>(labels.size()));
    }
  }
  rng.shuffle(labels);
  std::size_t next = 0;
  for (std::vector<EdgeLabel>& out : edges) {
    for (EdgeLabel& e : out) {
      e.step_index = labels[next++];
    }
  }
  return graph;
}

TEST(WitnessTour, MatchesThePerEdgeBfsReference) {
  Rng rng(13);
  for (int trial = 0; trial < 120; ++trial) {
    // Mostly small graphs, with a tail up to 500 states.
    const auto n = static_cast<std::uint32_t>(
        trial % 10 == 9 ? rng.range(100, 500) : rng.range(1, 40));
    const ConfigGraph graph = random_scc(rng, n);
    const LocalGraph local = to_local(graph);
    const std::vector<std::uint32_t> tour = closed_edge_tour(local);
    ASSERT_EQ(tour, reference_tour(graph)) << "trial " << trial << " n=" << n;

    // Independent checks: every edge is toured, and the steps chain
    // into a closed walk from state 0. Labels are 0..m-1.
    std::vector<std::pair<StateId, StateId>> ends_of(local.heads.size());
    for (StateId v = 0; v < n; ++v) {
      for (const EdgeLabel& e : graph.edges[v]) {
        ends_of[e.step_index] = {v, e.to};  // (tail, head)
      }
    }
    std::vector<bool> toured(ends_of.size(), false);
    StateId at = 0;
    for (const std::uint32_t label : tour) {
      ASSERT_LT(label, ends_of.size());
      ASSERT_EQ(ends_of[label].first, at) << "trial " << trial;
      at = ends_of[label].second;
      toured[label] = true;
    }
    EXPECT_EQ(at, 0u) << "trial " << trial;
    for (std::size_t label = 0; label < toured.size(); ++label) {
      EXPECT_TRUE(toured[label]) << "trial " << trial << " label " << label;
    }
  }
}

TEST(WitnessTour, SingleStateWithoutEdgesIsEmpty) {
  const ConfigGraph graph{std::vector<std::vector<EdgeLabel>>(1)};
  EXPECT_TRUE(closed_edge_tour(to_local(graph)).empty());
}

TEST(WitnessTour, SelfLoopsAndParallelEdgesAreEachToured) {
  // 0 -a-> 0, 0 -b-> 1, 0 -c-> 1, 1 -d-> 0.
  const ConfigGraph graph{{{{0, 10}, {1, 11}, {1, 12}}, {{0, 13}}}};
  const std::vector<std::uint32_t> expected = {10, 11, 13, 12, 13};
  EXPECT_EQ(closed_edge_tour(to_local(graph)), expected);
  EXPECT_EQ(reference_tour(graph), expected);
}

TEST(WitnessTour, NotStronglyConnectedThrows) {
  // 0 -> 1 only: the tour cannot return to 0.
  const ConfigGraph graph{{{{1, 0}}, {}}};
  EXPECT_THROW(closed_edge_tour(to_local(graph)), InvariantError);
  EXPECT_THROW(reference_tour(graph), InvariantError);
}

}  // namespace
}  // namespace commroute::checker
