// Unit tests for the network substrate: physical graph, deterministic
// shortest paths, cluster layout, session graph and Section 4 validation.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "netsim/cluster_layout.hpp"
#include "netsim/link_state.hpp"
#include "netsim/physical_graph.hpp"
#include "netsim/session_graph.hpp"
#include "netsim/shortest_paths.hpp"
#include "netsim/validate.hpp"

namespace ibgp::netsim {
namespace {

// --- PhysicalGraph -----------------------------------------------------------

TEST(PhysicalGraph, AddAndQueryLinks) {
  PhysicalGraph g(3);
  g.add_link(0, 1, 5);
  g.add_link(1, 2, 7);
  EXPECT_EQ(g.link_cost(0, 1), 5);
  EXPECT_EQ(g.link_cost(1, 0), 5);
  EXPECT_EQ(g.link_cost(0, 2), kInfCost);
  EXPECT_TRUE(g.has_link(1, 2));
  EXPECT_EQ(g.link_count(), 2u);
}

TEST(PhysicalGraph, ParallelLinksKeepCheapest) {
  PhysicalGraph g(2);
  g.add_link(0, 1, 9);
  g.add_link(0, 1, 4);
  g.add_link(0, 1, 6);
  EXPECT_EQ(g.link_cost(0, 1), 4);
  EXPECT_EQ(g.link_count(), 1u);
}

TEST(PhysicalGraph, RejectsBadInput) {
  PhysicalGraph g(2);
  EXPECT_THROW(g.add_link(0, 0, 1), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_link(0, 5, 1), std::invalid_argument);  // out of range
  EXPECT_THROW(g.add_link(0, 1, 0), std::invalid_argument);  // non-positive
  EXPECT_THROW(g.add_link(0, 1, -3), std::invalid_argument);
  // Not finite: kInfCost would read as "no link", and anything above it
  // overflows path sums.
  EXPECT_THROW(g.add_link(0, 1, kInfCost), std::invalid_argument);
  EXPECT_THROW(g.add_link(0, 1, std::numeric_limits<Cost>::max()), std::invalid_argument);
  g.add_link(0, 1, kInfCost - 1);  // the largest finite cost
  EXPECT_TRUE(g.has_link(0, 1));
  EXPECT_TRUE(ShortestPaths(g).reachable(0, 1));
}

TEST(PhysicalGraph, Connectivity) {
  PhysicalGraph g(4);
  g.add_link(0, 1, 1);
  g.add_link(2, 3, 1);
  EXPECT_FALSE(g.connected());
  g.add_link(1, 2, 1);
  EXPECT_TRUE(g.connected());
}

TEST(PhysicalGraph, AddNodeGrows) {
  PhysicalGraph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1u);
  g.add_link(0, v, 2);
  EXPECT_TRUE(g.connected());
}

// --- ShortestPaths -----------------------------------------------------------

TEST(ShortestPaths, SimpleChain) {
  PhysicalGraph g(4);
  g.add_link(0, 1, 1);
  g.add_link(1, 2, 2);
  g.add_link(2, 3, 3);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.cost(0, 3), 6);
  EXPECT_EQ(sp.cost(3, 0), 6);
  EXPECT_EQ(sp.cost(1, 1), 0);
  EXPECT_EQ(sp.next_hop(0, 3), 1u);
  EXPECT_EQ(sp.path(0, 3), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(sp.hop_count(0, 3), 3u);
}

TEST(ShortestPaths, PicksCheaperOfTwoRoutes) {
  PhysicalGraph g(4);
  g.add_link(0, 1, 10);
  g.add_link(1, 3, 10);
  g.add_link(0, 2, 3);
  g.add_link(2, 3, 3);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.cost(0, 3), 6);
  EXPECT_EQ(sp.next_hop(0, 3), 2u);
}

TEST(ShortestPaths, DeterministicTieBreakLowestNeighbor) {
  // Two equal-cost paths 0-1-3 and 0-2-3; the deterministic choice must be
  // via node 1 (lowest next hop id).
  PhysicalGraph g(4);
  g.add_link(0, 1, 5);
  g.add_link(1, 3, 5);
  g.add_link(0, 2, 5);
  g.add_link(2, 3, 5);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.cost(0, 3), 10);
  EXPECT_EQ(sp.next_hop(0, 3), 1u);
  EXPECT_EQ(sp.path(0, 3), (std::vector<NodeId>{0, 1, 3}));
}

TEST(ShortestPaths, UnreachableReported) {
  PhysicalGraph g(3);
  g.add_link(0, 1, 1);
  const ShortestPaths sp(g);
  EXPECT_FALSE(sp.reachable(0, 2));
  EXPECT_EQ(sp.cost(0, 2), kInfCost);
  EXPECT_EQ(sp.next_hop(0, 2), kNoNode);
  EXPECT_TRUE(sp.path(0, 2).empty());
  EXPECT_FALSE(sp.hop_count(0, 2).has_value());
}

TEST(ShortestPaths, PathToSelf) {
  PhysicalGraph g(2);
  g.add_link(0, 1, 1);
  const ShortestPaths sp(g);
  EXPECT_EQ(sp.path(1, 1), (std::vector<NodeId>{1}));
  EXPECT_EQ(sp.next_hop(1, 1), kNoNode);
}

TEST(ShortestPaths, RejectsBadEffectiveCosts) {
  PhysicalGraph g(3);
  g.add_link(0, 1, 2);
  g.add_link(1, 2, 3);
  EXPECT_THROW(ShortestPaths(g, std::vector<Cost>{2}), std::invalid_argument);  // size
  EXPECT_THROW(ShortestPaths(g, std::vector<Cost>{2, 0}), std::invalid_argument);
  EXPECT_THROW(ShortestPaths(g, std::vector<Cost>{-5, 3}), std::invalid_argument);
  EXPECT_THROW(ShortestPaths(g, std::vector<Cost>{2, kInfCost + 1}), std::invalid_argument);
  const ShortestPaths down(g, std::vector<Cost>{2, kInfCost});  // link 1-2 down
  EXPECT_EQ(down.cost(0, 1), 2);
  EXPECT_FALSE(down.reachable(0, 2));
}

TEST(ShortestPaths, HopByHopConsistency) {
  // Following next_hop from any node must realize exactly cost(u,v).
  PhysicalGraph g(6);
  g.add_link(0, 1, 2);
  g.add_link(1, 2, 2);
  g.add_link(0, 3, 1);
  g.add_link(3, 4, 1);
  g.add_link(4, 2, 1);
  g.add_link(1, 4, 5);
  g.add_link(2, 5, 4);
  const ShortestPaths sp(g);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = 0; v < 6; ++v) {
      if (u == v) continue;
      Cost walked = 0;
      NodeId cur = u;
      while (cur != v) {
        const NodeId next = sp.next_hop(cur, v);
        ASSERT_NE(next, kNoNode);
        walked += g.link_cost(cur, next);
        cur = next;
      }
      EXPECT_EQ(walked, sp.cost(u, v)) << u << "->" << v;
    }
  }
}

// --- ClusterLayout -----------------------------------------------------------

TEST(ClusterLayout, AssignAndQuery) {
  ClusterLayout layout(4);
  layout.assign(0, 0, Role::kReflector);
  layout.assign(1, 0, Role::kClient);
  layout.assign(2, 1, Role::kReflector);
  layout.assign(3, 1, Role::kClient);
  EXPECT_TRUE(layout.complete());
  EXPECT_EQ(layout.cluster_count(), 2u);
  EXPECT_TRUE(layout.is_reflector(0));
  EXPECT_TRUE(layout.is_client(3));
  EXPECT_TRUE(layout.same_cluster(0, 1));
  EXPECT_FALSE(layout.same_cluster(1, 2));
  EXPECT_EQ(layout.reflectors_of(0), (std::vector<NodeId>{0}));
  EXPECT_EQ(layout.clients_of(1), (std::vector<NodeId>{3}));
  EXPECT_EQ(layout.all_reflectors(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(layout.all_clients(), (std::vector<NodeId>{1, 3}));
}

TEST(ClusterLayout, IncompleteDetected) {
  ClusterLayout layout(2);
  layout.assign(0, 0, Role::kReflector);
  EXPECT_FALSE(layout.complete());  // node 1 unassigned
}

TEST(ClusterLayout, ReflectorlessClusterDetected) {
  ClusterLayout layout(2);
  layout.assign(0, 0, Role::kClient);
  layout.assign(1, 0, Role::kClient);
  EXPECT_FALSE(layout.complete());
}

TEST(ClusterLayout, RejectsDoubleAssignAndSparseIds) {
  ClusterLayout layout(3);
  layout.assign(0, 0, Role::kReflector);
  EXPECT_THROW(layout.assign(0, 0, Role::kClient), std::invalid_argument);
  EXPECT_THROW(layout.assign(1, 5, Role::kReflector), std::invalid_argument);
}

TEST(ClusterLayout, FullMeshFactory) {
  const auto layout = ClusterLayout::full_mesh(3);
  EXPECT_TRUE(layout.complete());
  EXPECT_EQ(layout.cluster_count(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_TRUE(layout.is_reflector(v));
}

// --- SessionGraph ------------------------------------------------------------

ClusterLayout two_cluster_layout() {
  ClusterLayout layout(5);
  layout.assign(0, 0, Role::kReflector);
  layout.assign(1, 0, Role::kClient);
  layout.assign(2, 0, Role::kClient);
  layout.assign(3, 1, Role::kReflector);
  layout.assign(4, 1, Role::kClient);
  return layout;
}

TEST(SessionGraph, BuildsMeshAndSpokes) {
  const auto sessions = build_session_graph(two_cluster_layout());
  EXPECT_TRUE(sessions.has_session(0, 3));   // reflector mesh
  EXPECT_TRUE(sessions.has_session(0, 1));   // client spokes
  EXPECT_TRUE(sessions.has_session(0, 2));
  EXPECT_TRUE(sessions.has_session(3, 4));
  EXPECT_FALSE(sessions.has_session(1, 2));  // no client-client by default
  EXPECT_FALSE(sessions.has_session(1, 3));  // never cross-cluster client
  EXPECT_FALSE(sessions.has_session(1, 4));
  EXPECT_EQ(sessions.session_count(), 4u);
}

TEST(SessionGraph, OptionalClientClientSameCluster) {
  const std::vector<std::pair<NodeId, NodeId>> extra{{1, 2}};
  const auto sessions = build_session_graph(two_cluster_layout(), extra);
  EXPECT_TRUE(sessions.has_session(1, 2));
}

TEST(SessionGraph, RejectsCrossClusterClientSession) {
  const std::vector<std::pair<NodeId, NodeId>> extra{{1, 4}};
  EXPECT_THROW(build_session_graph(two_cluster_layout(), extra), std::invalid_argument);
}

TEST(SessionGraph, RejectsClientSessionOnReflector) {
  const std::vector<std::pair<NodeId, NodeId>> extra{{0, 1}};
  EXPECT_THROW(build_session_graph(two_cluster_layout(), extra), std::invalid_argument);
}

TEST(SessionGraph, MultiReflectorClusterMeshed) {
  ClusterLayout layout(3);
  layout.assign(0, 0, Role::kReflector);
  layout.assign(1, 0, Role::kReflector);
  layout.assign(2, 0, Role::kClient);
  const auto sessions = build_session_graph(layout);
  EXPECT_TRUE(sessions.has_session(0, 1));  // same-cluster reflectors meshed
  EXPECT_TRUE(sessions.has_session(2, 0));  // client to BOTH reflectors
  EXPECT_TRUE(sessions.has_session(2, 1));
}

TEST(SessionGraph, PeersSortedAscending) {
  const auto sessions = build_session_graph(two_cluster_layout());
  const auto peers = sessions.peers(0);
  EXPECT_TRUE(std::is_sorted(peers.begin(), peers.end()));
}

TEST(SessionGraph, InsertsKeepPeersSortedAndEdgesInInsertionOrder) {
  SessionGraph sessions(6);
  sessions.add_session(0, 5, SessionKind::kReflectorMesh);
  sessions.add_session(3, 0, SessionKind::kReflectorClient);
  sessions.add_session(0, 1, SessionKind::kReflectorClient);
  sessions.add_session(5, 0, SessionKind::kReflectorMesh);  // duplicate: ignored
  sessions.add_session(4, 0, SessionKind::kReflectorClient);
  const auto peers = sessions.peers(0);
  EXPECT_EQ(std::vector<NodeId>(peers.begin(), peers.end()), (std::vector<NodeId>{1, 3, 4, 5}));
  ASSERT_EQ(sessions.session_count(), 4u);
  EXPECT_EQ(sessions.edges()[1].u, 0u);
  EXPECT_EQ(sessions.edges()[1].v, 3u);
  EXPECT_EQ(sessions.peers(3).size(), 1u);
}

// --- LinkState ---------------------------------------------------------------

TEST(LinkState, RejectsNonFiniteCosts) {
  PhysicalGraph g(2);
  g.add_link(0, 1, 4);
  LinkState state(g);
  EXPECT_THROW(state.set_cost(0, 0), std::invalid_argument);
  EXPECT_THROW(state.set_cost(0, kInfCost), std::invalid_argument);
  EXPECT_THROW(state.set_cost(0, kInfCost + 1), std::invalid_argument);
  EXPECT_THROW(state.set_cost(0, std::numeric_limits<Cost>::max()), std::invalid_argument);
  EXPECT_EQ(state.cost(0), 4);
  EXPECT_TRUE(state.set_cost(0, kInfCost - 1));
  EXPECT_EQ(state.effective()[0], kInfCost - 1);
}

// --- validate ----------------------------------------------------------------

TEST(Validate, AcceptsWellFormed) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(5);
  g.add_link(0, 1, 1);
  g.add_link(0, 2, 1);
  g.add_link(0, 3, 1);
  g.add_link(3, 4, 1);
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.warnings.empty());
}

TEST(Validate, DetectsMissingMeshSession) {
  const auto layout = two_cluster_layout();
  SessionGraph sessions(5);  // empty: everything missing
  PhysicalGraph g(5);
  g.add_link(0, 1, 1);
  const auto report = validate(g, layout, sessions);
  EXPECT_FALSE(report.ok());
}

TEST(Validate, WarnsOnDisconnectedPhysical) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(5);  // no links at all
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.warnings.empty());
}

TEST(Validate, WarnsOnTriangleViolation) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(5);
  g.add_link(0, 1, 1);
  g.add_link(1, 2, 1);
  g.add_link(0, 2, 100);  // direct link costlier than the 2-hop path
  g.add_link(0, 3, 1);
  g.add_link(3, 4, 1);
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_TRUE(report.ok());
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("triangle"), std::string::npos);
}

TEST(Validate, DetectsNodeCountMismatch) {
  const auto layout = two_cluster_layout();
  PhysicalGraph g(3);
  const auto report = validate(g, layout, build_session_graph(layout));
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace ibgp::netsim
