#pragma once
// Deterministic all-pairs shortest paths over the physical graph.
//
// Section 4: "The shortest path, SP(u, v), between two nodes in V, is chosen
// (deterministically) from one of the least cost paths."  We realize the
// deterministic choice hop-by-hop: at node u, the selected next hop toward v
// is the lowest-numbered neighbor x minimizing cost(u,x) + dist(x,v).  This
// matches how an IGP forwards packets (each hop makes an independent,
// consistent choice) and is exactly what the forwarding-plane analysis of
// Section 7/8 (routing loops, Fig 14) requires.
//
// One kernel computes every row (DESIGN.md §11): a Dijkstra per source over
// a flat adjacency array, with a radix heap for a priority queue.  Each node
// inherits its first hop during the relaxation, and on a tie keeps the
// lowest first hop over its equal-cost predecessors.  With positive costs
// every shortest-path predecessor settles first, so that is the rule above.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netsim/physical_graph.hpp"
#include "util/types.hpp"

namespace ibgp::netsim {

class ShortestPaths {
 public:
  /// Runs the kernel from every node: O(m) relaxations per source, each
  /// queued node moving down at most 64 radix buckets, and no separate
  /// next-hop pass.  The graph is only used during construction — the
  /// object holds no reference to it afterwards, so it stays valid across
  /// moves/destruction of the source graph.
  explicit ShortestPaths(const PhysicalGraph& graph);

  /// The epoch of `graph`'s topology under the effective link costs
  /// `effective`, index-aligned with graph.links() (kInfCost = link down).
  /// Throws std::invalid_argument on a size mismatch, or on a cost that is
  /// neither positive and below kInfCost nor kInfCost itself.
  ShortestPaths(const PhysicalGraph& graph, std::span<const Cost> effective);

  /// The epoch of `graph` under `effective`, derived from `from`: the epoch
  /// of the same graph under a key equal to `effective` except at link
  /// `changed`, where it was `from_cost`.  Copies `from`, then re-runs only
  /// the sources whose row the change can touch (DESIGN.md §11) and stores
  /// their count in `rows_rerun`.  The result equals
  /// ShortestPaths(graph, effective) bit for bit.
  static ShortestPaths derive(const ShortestPaths& from, const PhysicalGraph& graph,
                              std::span<const Cost> effective, std::size_t changed,
                              Cost from_cost, std::size_t& rows_rerun);

  [[nodiscard]] std::size_t node_count() const { return n_; }

  /// IGP cost of SP(u, v); kInfCost if v is unreachable from u. dist(u,u)=0.
  [[nodiscard]] Cost cost(NodeId u, NodeId v) const { return dist_[index(u, v)]; }

  [[nodiscard]] bool reachable(NodeId u, NodeId v) const {
    return cost(u, v) != kInfCost;
  }

  /// The deterministic next hop from u toward v (u != v, v reachable).
  /// Returns kNoNode when v is unreachable or u == v.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId v) const;

  /// The full selected shortest path u = p_0, p_1, ..., p_k = v
  /// (empty if unreachable).  path(u,u) == {u}.
  [[nodiscard]] std::vector<NodeId> path(NodeId u, NodeId v) const;

  /// Number of hops on the selected path, or nullopt if unreachable.
  [[nodiscard]] std::optional<std::size_t> hop_count(NodeId u, NodeId v) const;

  /// Order-dependent 64-bit digest of the full distance + next-hop
  /// matrices, precomputed at construction.  Two epochs with equal
  /// fingerprints route identically (up to hash collision); trace hashes
  /// use it to pin an engine's IGP-epoch timeline.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  explicit ShortestPaths(std::size_t node_count);

  [[nodiscard]] std::size_t index(NodeId u, NodeId v) const {
    return static_cast<std::size_t>(u) * n_ + v;
  }

  /// Runs the kernel from every source of `graph` under `effective`
  /// (nullptr: the graph's own costs), then seals the fingerprint.
  void compute(const PhysicalGraph& graph, const Cost* effective);

  void seal();  // folds the matrices into fingerprint_

  std::size_t n_;
  std::vector<Cost> dist_;      // row-major n x n
  std::vector<NodeId> next_;    // row-major n x n; kNoNode when unreachable
  std::uint64_t fingerprint_ = 0;
};

}  // namespace ibgp::netsim
