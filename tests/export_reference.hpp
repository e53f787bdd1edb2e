#pragma once
// Test-only reference for the event engine's export rules: the per-(peer,
// path) announcement check, the lowest-BGP-id source attribution and the
// candidate gathering, frozen in their plain original form.  The engine
// decides export once per path and skips peers whose set is unchanged; the
// differential suite (test_export.cpp) holds it to exactly what these
// functions say, evaluated on a captured EngineState.

#include <algorithm>
#include <limits>
#include <vector>

#include "bgp/selection.hpp"
#include "core/instance.hpp"
#include "engine/event_engine.hpp"
#include "util/types.hpp"

namespace ibgp::reference {

using NodeSnapshot = engine::NodeState;

/// The peer whose copy of p the node has attributed (lowest BGP id holder,
/// first in node order on a tie), or kNoNode when nobody holds p.
inline NodeId attributed_source(const core::Instance& inst, const NodeSnapshot& node,
                                PathId p) {
  NodeId best = kNoNode;
  BgpId best_id = std::numeric_limits<BgpId>::max();
  for (const NodeId v : node.holders[p]) {
    if (inst.bgp_id(v) < best_id) {
      best_id = inst.bgp_id(v);
      best = v;
    }
  }
  return best;
}

/// Whether node u announces advertised path p to session peer `peer`.
inline bool may_send(const core::Instance& inst, const NodeSnapshot& node, NodeId u,
                     NodeId peer, PathId p) {
  const auto& clusters = inst.clusters();
  const NodeId exit_point = inst.exits()[p].exit_point;

  if (exit_point == u) return true;  // own E-BGP route: to every peer

  // Never back to the exit point (ORIGINATOR_ID suppression).
  if (exit_point == peer) return false;

  if (clusters.is_client(u)) return false;  // clients never forward I-BGP routes

  // CLUSTER_LIST: a route exiting inside this cluster never bounces between
  // the cluster's reflectors.
  if (clusters.is_reflector(peer) && clusters.same_cluster(u, peer) &&
      clusters.same_cluster(exit_point, u)) {
    return false;
  }

  const NodeId src = attributed_source(inst, node, p);
  if (src == kNoNode) return false;  // nothing to forward
  if (src == peer) return false;     // never echo to the originator session

  const bool src_is_my_client = clusters.is_client(src) && clusters.same_cluster(src, u);
  if (src_is_my_client) return true;  // reflect to all peers except originator

  // Learned from a non-client: reflect to own clients only.
  return clusters.is_client(peer) && clusters.same_cluster(peer, u);
}

/// PossibleExits with learnedFrom: own injected exits (attributed to their
/// E-BGP peer) plus every path some session peer announces (attributed to
/// the lowest holder BGP id), ascending path order.
inline std::vector<bgp::Candidate> candidates(const core::Instance& inst,
                                              const NodeSnapshot& node) {
  std::vector<bgp::Candidate> out;
  for (PathId p = 0; p < inst.exits().size(); ++p) {
    if (node.own[p]) {
      out.push_back({p, inst.exits()[p].ebgp_peer});
    } else if (!node.holders[p].empty()) {
      BgpId lowest = std::numeric_limits<BgpId>::max();
      for (const NodeId v : node.holders[p]) lowest = std::min(lowest, inst.bgp_id(v));
      out.push_back({p, lowest});
    }
  }
  return out;
}

/// The subset of `advertised` node u announces to `peer`, in order.
inline std::vector<PathId> export_target(const core::Instance& inst, const NodeSnapshot& node,
                                         NodeId u, NodeId peer,
                                         const std::vector<PathId>& advertised) {
  std::vector<PathId> target;
  for (const PathId p : advertised) {
    if (may_send(inst, node, u, peer, p)) target.push_back(p);
  }
  return target;
}

}  // namespace ibgp::reference
