#include "netsim/session_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ibgp::netsim {

void SessionGraph::add_session(NodeId u, NodeId v, SessionKind kind) {
  if (u >= adjacency_.size() || v >= adjacency_.size()) {
    throw std::invalid_argument("SessionGraph: node out of range");
  }
  if (u == v) throw std::invalid_argument("SessionGraph: self-session");
  auto& of_u = adjacency_[u];
  const auto at = std::lower_bound(of_u.begin(), of_u.end(), v);
  if (at != of_u.end() && *at == v) return;
  of_u.insert(at, v);
  auto& of_v = adjacency_[v];
  of_v.insert(std::lower_bound(of_v.begin(), of_v.end(), u), u);
  edges_.push_back({std::min(u, v), std::max(u, v), kind});
}

bool SessionGraph::has_session(NodeId u, NodeId v) const {
  const auto& adj = adjacency_.at(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

SessionGraph build_session_graph(
    const ClusterLayout& layout,
    std::span<const std::pair<NodeId, NodeId>> client_client_sessions) {
  if (!layout.complete()) {
    throw std::invalid_argument(
        "build_session_graph: layout incomplete (unassigned node or reflector-less cluster)");
  }
  SessionGraph sessions(layout.node_count());

  // 1. Full mesh among all reflectors.
  const std::vector<NodeId> reflectors = layout.all_reflectors();
  for (std::size_t i = 0; i < reflectors.size(); ++i) {
    for (std::size_t j = i + 1; j < reflectors.size(); ++j) {
      sessions.add_session(reflectors[i], reflectors[j], SessionKind::kReflectorMesh);
    }
  }

  // 2. Every client peers with every reflector of its own cluster.
  for (ClusterId c = 0; c < layout.cluster_count(); ++c) {
    for (const NodeId client : layout.clients_of(c)) {
      for (const NodeId reflector : layout.reflectors_of(c)) {
        sessions.add_session(client, reflector, SessionKind::kReflectorClient);
      }
    }
  }

  // 4. Optional same-cluster client-client sessions (constraint 3 enforced).
  for (const auto& [a, b] : client_client_sessions) {
    if (!layout.is_client(a) || !layout.is_client(b)) {
      throw std::invalid_argument("build_session_graph: client-client session on non-client " +
                                  std::to_string(layout.is_client(a) ? b : a));
    }
    if (!layout.same_cluster(a, b)) {
      throw std::invalid_argument(
          "build_session_graph: client-client session across clusters (" + std::to_string(a) +
          ", " + std::to_string(b) + ") violates Section 4 constraint 3");
    }
    sessions.add_session(a, b, SessionKind::kClientClient);
  }
  return sessions;
}

}  // namespace ibgp::netsim
