#include "netsim/validate.hpp"

#include <string>

#include "netsim/shortest_paths.hpp"

namespace ibgp::netsim {

namespace {
std::string node_name(NodeId v) { return "node " + std::to_string(v); }
}  // namespace

bool check_structure(const PhysicalGraph& physical, const ClusterLayout& layout,
                     const SessionGraph& sessions, ValidationReport& report) {
  if (physical.node_count() != layout.node_count() ||
      physical.node_count() != sessions.node_count()) {
    report.errors.push_back("node-count mismatch between physical graph (" +
                            std::to_string(physical.node_count()) + "), layout (" +
                            std::to_string(layout.node_count()) + ") and sessions (" +
                            std::to_string(sessions.node_count()) + ")");
    return false;  // nothing else is meaningful
  }

  if (!layout.complete()) {
    report.errors.push_back(
        "cluster layout incomplete: unassigned node or cluster without a reflector");
    return false;
  }

  // Constraint 1: reflector full mesh.
  const auto reflectors = layout.all_reflectors();
  for (std::size_t i = 0; i < reflectors.size(); ++i) {
    for (std::size_t j = i + 1; j < reflectors.size(); ++j) {
      if (!sessions.has_session(reflectors[i], reflectors[j])) {
        report.errors.push_back("missing reflector-mesh session " + node_name(reflectors[i]) +
                                " — " + node_name(reflectors[j]));
      }
    }
  }

  // Constraint 2: client <-> every reflector of its cluster.
  for (ClusterId c = 0; c < layout.cluster_count(); ++c) {
    for (const NodeId client : layout.clients_of(c)) {
      for (const NodeId reflector : layout.reflectors_of(c)) {
        if (!sessions.has_session(client, reflector)) {
          report.errors.push_back("missing client session " + node_name(client) + " — " +
                                  node_name(reflector) + " (cluster " + std::to_string(c) +
                                  ")");
        }
      }
    }
  }

  // Constraint 3: clients never peer outside their cluster.
  for (const auto& edge : sessions.edges()) {
    const bool u_client = layout.is_client(edge.u);
    const bool v_client = layout.is_client(edge.v);
    if ((u_client || v_client) && !layout.same_cluster(edge.u, edge.v)) {
      report.errors.push_back("session " + node_name(edge.u) + " — " + node_name(edge.v) +
                              " crosses clusters but involves a client");
    }
    if (u_client && v_client && !layout.same_cluster(edge.u, edge.v)) {
      report.errors.push_back("client-client session " + node_name(edge.u) + " — " +
                              node_name(edge.v) + " crosses clusters");
    }
  }

  return true;
}

void check_igp(const PhysicalGraph& physical, const ShortestPaths& igp,
               ValidationReport& report) {
  if (!physical.connected()) {
    report.warnings.push_back(
        "physical graph is disconnected: some exit points are unreachable");
    return;
  }
  // Triangle-inequality check over directly linked pairs (footnote: I-BGP
  // sessions ride shortest IGP paths, so direct costs should not exceed the
  // shortest-path cost).
  for (const auto& link : physical.links()) {
    if (igp.cost(link.a, link.b) < link.cost) {
      report.warnings.push_back("physical link " + node_name(link.a) + " — " +
                                node_name(link.b) + " (cost " + std::to_string(link.cost) +
                                ") is costlier than the shortest path between its ends (" +
                                std::to_string(igp.cost(link.a, link.b)) +
                                "); triangle inequality violated");
    }
  }
}

ValidationReport validate(const PhysicalGraph& physical, const ClusterLayout& layout,
                          const SessionGraph& sessions) {
  ValidationReport report;
  if (check_structure(physical, layout, sessions, report)) {
    check_igp(physical, ShortestPaths(physical), report);
  }
  return report;
}

}  // namespace ibgp::netsim
