// Closed edge tour of a strongly connected multigraph: the cycle part of
// an oscillation witness (see docs/CHECKER.md, "Witness construction").
#pragma once

#include <cstdint>
#include <vector>

namespace commroute::checker {

/// A multigraph over local states 0..n-1 in compressed sparse row form:
/// the out-edges of state v are entries offsets[v] .. offsets[v+1]-1 of
/// `heads` (target state) and `labels` (caller's edge label), in
/// adjacency order.
struct LocalGraph {
  std::vector<std::uint32_t> offsets{0};  ///< n + 1 entries
  std::vector<std::uint32_t> heads;
  std::vector<std::uint32_t> labels;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(offsets.size() - 1);
  }
};

/// The labels along a closed walk from state 0 back to state 0 that
/// traverses every edge of `g`: for each state v in order 0..n-1 and each
/// out-edge of v in adjacency order, a shortest path from the cursor to
/// v, then that edge; finally a shortest path back to state 0. Each
/// connecting path is the shortest one whose per-hop adjacency positions
/// are lexicographically smallest (exactly the path a FIFO BFS that scans
/// edges in adjacency order and keeps first discoveries finds).
///
/// Runs at most one reverse BFS per distinct target: O(n * (n + m)) time
/// and O(n + m) memory besides the returned tour. Throws InvariantError
/// ("SCC is not strongly connected") when a target is unreachable.
std::vector<std::uint32_t> closed_edge_tour(const LocalGraph& g);

}  // namespace commroute::checker
