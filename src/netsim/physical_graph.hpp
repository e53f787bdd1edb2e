#pragma once
// The physical graph G_P = (V, E_P) of Section 4: routers of AS0 and their
// physical links with positive IGP costs.  I-BGP sessions ride on top of this
// graph; route metrics are IGP shortest-path costs computed over it.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace ibgp::netsim {

/// One undirected physical link with its IGP metric.
struct Link {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  Cost cost = 0;

  friend bool operator==(const Link&, const Link&) = default;
};

/// Adjacency entry: neighbor and the cost of the connecting link.
struct Adjacency {
  NodeId neighbor = kNoNode;
  Cost cost = 0;
};

/// Undirected weighted graph over nodes 0..node_count-1.
///
/// Link costs must be strictly positive (the paper requires positive integer
/// IGP metrics; zero-cost links would make "shortest path" tie-breaking
/// dominate every comparison) and below kInfCost, the "unreachable"
/// sentinel, so that path sums never overflow.  Parallel links collapse to
/// the cheapest.
class PhysicalGraph {
 public:
  PhysicalGraph() = default;
  explicit PhysicalGraph(std::size_t node_count);

  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Adds (or cheapens) the undirected link a—b.
  /// Throws std::invalid_argument on self-loops, out-of-range nodes, or
  /// costs outside [1, kInfCost).
  void add_link(NodeId a, NodeId b, Cost cost);

  /// Appends a new isolated node; returns its id.
  NodeId add_node();

  [[nodiscard]] std::span<const Adjacency> neighbors(NodeId v) const;
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  /// Cost of the direct link a—b, or kInfCost if absent.
  [[nodiscard]] Cost link_cost(NodeId a, NodeId b) const;

  /// Index into links() of the undirected link a—b (either endpoint order),
  /// or nullopt if absent.  LinkState and the churn faults address links by
  /// this index.
  [[nodiscard]] std::optional<std::size_t> find_link(NodeId a, NodeId b) const;

  [[nodiscard]] bool has_link(NodeId a, NodeId b) const {
    return link_cost(a, b) != kInfCost;
  }

  /// True if every node can reach every other node.
  [[nodiscard]] bool connected() const;

 private:
  void check_node(NodeId v) const;

  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<Link> links_;
};

}  // namespace ibgp::netsim
