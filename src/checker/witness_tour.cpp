#include "checker/witness_tour.hpp"

#include "support/error.hpp"

namespace commroute::checker {

std::vector<std::uint32_t> closed_edge_tour(const LocalGraph& g) {
  const std::uint32_t n = g.size();
  constexpr std::uint32_t kUnreached = static_cast<std::uint32_t>(-1);

  // Reverse CSR: the tails of each state's in-edges.
  std::vector<std::uint32_t> rev_offsets(n + 1, 0);
  for (const std::uint32_t head : g.heads) {
    ++rev_offsets[head + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    rev_offsets[v + 1] += rev_offsets[v];
  }
  std::vector<std::uint32_t> tails(g.heads.size());
  {
    std::vector<std::uint32_t> slot(rev_offsets.begin(),
                                    rev_offsets.end() - 1);
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        tails[slot[g.heads[e]]++] = v;
      }
    }
  }

  // A reverse BFS from the current target, expanded only as far as the
  // walks need. A state at distance d is labelled while distance d - 1
  // is expanded, after all of distance d - 2 was: once `from` is
  // labelled, so is every state closer to the target, all a walk reads.
  std::vector<std::uint32_t> dist(n, kUnreached);
  std::vector<std::uint32_t> queue(n);
  std::uint32_t target = kUnreached;
  std::uint32_t head = 0;
  std::uint32_t tail = 0;
  // Labels `from` with its hop distance to `t` (kUnreached when `t`
  // cannot be reached from it).
  const auto label = [&](std::uint32_t from, std::uint32_t t) {
    if (t != target) {
      for (std::uint32_t i = 0; i < tail; ++i) {
        dist[queue[i]] = kUnreached;
      }
      target = t;
      dist[t] = 0;
      queue[0] = t;
      head = 0;
      tail = 1;
    }
    while (dist[from] == kUnreached && head < tail) {
      const std::uint32_t w = queue[head++];
      for (std::uint32_t i = rev_offsets[w]; i < rev_offsets[w + 1]; ++i) {
        const std::uint32_t u = tails[i];
        if (dist[u] == kUnreached) {
          dist[u] = dist[w] + 1;
          queue[tail++] = u;
        }
      }
    }
  };

  std::vector<std::uint32_t> tour;
  tour.reserve(g.heads.size());
  std::uint32_t cursor = 0;
  // Appends the lexicographically first shortest path cursor -> t: at
  // each state, the first out-edge whose head is one hop closer.
  const auto walk_to = [&](std::uint32_t t) {
    if (cursor == t) {
      return;
    }
    label(cursor, t);
    if (dist[cursor] == kUnreached) {
      throw InvariantError("SCC is not strongly connected");
    }
    while (cursor != t) {
      std::uint32_t e = g.offsets[cursor];
      while (dist[g.heads[e]] != dist[cursor] - 1) {
        ++e;
      }
      tour.push_back(g.labels[e]);
      cursor = g.heads[e];
    }
  };

  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      walk_to(v);
      tour.push_back(g.labels[e]);
      cursor = g.heads[e];
    }
  }
  walk_to(0);
  return tour;
}

}  // namespace commroute::checker
