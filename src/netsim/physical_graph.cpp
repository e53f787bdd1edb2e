#include "netsim/physical_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ibgp::netsim {

PhysicalGraph::PhysicalGraph(std::size_t node_count) : adjacency_(node_count) {}

void PhysicalGraph::check_node(NodeId v) const {
  if (v >= adjacency_.size()) {
    throw std::invalid_argument("PhysicalGraph: node " + std::to_string(v) +
                                " out of range (node_count=" +
                                std::to_string(adjacency_.size()) + ")");
  }
}

NodeId PhysicalGraph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void PhysicalGraph::add_link(NodeId a, NodeId b, Cost cost) {
  check_node(a);
  check_node(b);
  if (a == b) throw std::invalid_argument("PhysicalGraph: self-loop on node " + std::to_string(a));
  if (cost <= 0 || cost >= kInfCost) {
    throw std::invalid_argument("PhysicalGraph: IGP link costs must be positive and below " +
                                std::to_string(kInfCost) + ", got " + std::to_string(cost));
  }
  // Parallel links collapse to the cheapest one.
  for (auto& adj : adjacency_[a]) {
    if (adj.neighbor == b) {
      if (cost < adj.cost) {
        adj.cost = cost;
        for (auto& back : adjacency_[b]) {
          if (back.neighbor == a) back.cost = cost;
        }
        for (auto& link : links_) {
          if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) link.cost = cost;
        }
      }
      return;
    }
  }
  adjacency_[a].push_back({b, cost});
  adjacency_[b].push_back({a, cost});
  links_.push_back({std::min(a, b), std::max(a, b), cost});
}

std::span<const Adjacency> PhysicalGraph::neighbors(NodeId v) const {
  check_node(v);
  return adjacency_[v];
}

Cost PhysicalGraph::link_cost(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  for (const auto& adj : adjacency_[a]) {
    if (adj.neighbor == b) return adj.cost;
  }
  return kInfCost;
}

std::optional<std::size_t> PhysicalGraph::find_link(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].a == lo && links_[i].b == hi) return i;
  }
  return std::nullopt;
}

bool PhysicalGraph::connected() const {
  if (adjacency_.empty()) return true;
  std::vector<bool> seen(adjacency_.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const auto& adj : adjacency_[v]) {
      if (!seen[adj.neighbor]) {
        seen[adj.neighbor] = true;
        ++count;
        stack.push_back(adj.neighbor);
      }
    }
  }
  return count == adjacency_.size();
}

}  // namespace ibgp::netsim
