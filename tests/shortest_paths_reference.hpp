#pragma once
// Test-only reference for the IGP epoch, frozen in its plain original form:
// the churned graph materialized as a fresh PhysicalGraph (down links
// omitted), one std::priority_queue Dijkstra per source, then a separate
// O(n^2 * deg) pass that picks, from u toward v, the lowest-numbered
// neighbour x with cost(u,x) + dist(x,v) == dist(u,v).  The product kernel
// carries first hops through a radix-heap relaxation and derives churn
// epochs from a cached one; the differential suite (test_spf_diff.cpp)
// holds it to exactly these matrices and this fingerprint.

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "netsim/physical_graph.hpp"
#include "util/hash.hpp"
#include "util/types.hpp"

namespace ibgp::reference {

struct SpfTables {
  std::size_t n = 0;
  std::vector<Cost> dist;    // row-major n x n
  std::vector<NodeId> next;  // row-major n x n; kNoNode when unreachable or u == v
  std::uint64_t fingerprint = 0;

  [[nodiscard]] Cost cost(NodeId u, NodeId v) const { return dist[u * n + v]; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId v) const { return next[u * n + v]; }
};

inline SpfTables shortest_paths(const netsim::PhysicalGraph& graph) {
  SpfTables out;
  out.n = graph.node_count();
  const std::size_t n = out.n;
  out.dist.assign(n * n, kInfCost);
  out.next.assign(n * n, kNoNode);
  using Item = std::pair<Cost, NodeId>;  // (distance, node), min-heap
  for (NodeId src = 0; src < n; ++src) {
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    Cost* dist = out.dist.data() + src * n;
    dist[src] = 0;
    heap.emplace(0, src);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d != dist[v]) continue;  // stale entry
      for (const auto& adj : graph.neighbors(v)) {
        const Cost nd = d + adj.cost;
        if (nd < dist[adj.neighbor]) {
          dist[adj.neighbor] = nd;
          heap.emplace(nd, adj.neighbor);
        }
      }
    }
  }

  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || out.dist[u * n + v] == kInfCost) continue;
      NodeId best = kNoNode;
      for (const auto& adj : graph.neighbors(u)) {
        if (out.dist[adj.neighbor * n + v] == kInfCost) continue;
        if (adj.cost + out.dist[adj.neighbor * n + v] == out.dist[u * n + v]) {
          if (best == kNoNode || adj.neighbor < best) best = adj.neighbor;
        }
      }
      out.next[u * n + v] = best;
    }
  }

  util::Fingerprint fp;
  fp.add(n).add_range(out.dist).add_range(out.next);
  out.fingerprint = fp.value();
  return out;
}

/// The epoch of `base`'s topology under `effective` link costs (index-aligned
/// with base.links(), kInfCost = down).
inline SpfTables shortest_paths(const netsim::PhysicalGraph& base,
                                std::span<const Cost> effective) {
  netsim::PhysicalGraph churned(base.node_count());
  const auto links = base.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (effective[i] != kInfCost) churned.add_link(links[i].a, links[i].b, effective[i]);
  }
  return shortest_paths(churned);
}

}  // namespace ibgp::reference
