#pragma once
// Forwarding-plane ("real route", Section 7) analysis.
//
// BGP routers forward hop-by-hop: a packet for destination d at node w is
// sent toward the exit point of *w's own* best route, one IGP hop at a time.
// Because intermediate nodes consult their own best routes, the realized
// path can differ from what the source expected (Fig 12) and, for badly
// configured systems, can loop (Fig 14).  Lemma 7.6/7.7 prove the modified
// protocol loop-free; analyze_forwarding() is the machine check.

#include <span>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "util/types.hpp"

namespace ibgp::analysis {

enum class ForwardOutcome {
  kExits,    ///< reached a node whose best route exits there
  kLoop,     ///< revisited a node: forwarding loop
  kNoRoute,  ///< reached a node with no best route (packet dropped)
};

struct ForwardTrace {
  NodeId source = kNoNode;
  ForwardOutcome outcome = ForwardOutcome::kNoRoute;
  /// Node sequence the packet visited (source first; on kLoop the repeated
  /// node appears twice, closing the cycle).
  std::vector<NodeId> hops;
  /// For kExits: where the packet left AS0 and over which exit path.
  NodeId exit_node = kNoNode;
  PathId exit_path = kNoPath;
};

/// Traces one packet from `source` into `trace`, given each node's best
/// exit path (kNoPath = node has no route).  Hop-by-hop next hops and
/// reachability come from `igp`: the instance's base igp(), or the epoch in
/// force once link faults have churned the topology.
///
/// `visited` holds the walk's per-node marks: sized on first use and left
/// all clear, so a replay reuses one buffer and one trace for every walk
/// and allocates only while the trace's hop list grows.  Throws
/// std::invalid_argument when `best` lacks an entry for some node or
/// `source` is not a node.
void trace_forwarding(const core::Instance& inst, const netsim::ShortestPaths& igp,
                      std::span<const PathId> best, NodeId source,
                      std::vector<bool>& visited, ForwardTrace& trace);

struct ForwardingReport {
  std::vector<ForwardTrace> traces;  ///< one per node, in node order
  std::size_t loops = 0;
  std::size_t no_route = 0;

  [[nodiscard]] bool loop_free() const { return loops == 0; }
};

/// Traces from every node.
ForwardingReport analyze_forwarding(const core::Instance& inst, std::span<const PathId> best);

/// Traces from every node against an explicit IGP epoch.
ForwardingReport analyze_forwarding(const core::Instance& inst,
                                    const netsim::ShortestPaths& igp,
                                    std::span<const PathId> best);

/// "c1 -> c2 -> c1 (LOOP)" style rendering for reports.
std::string describe_trace(const core::Instance& inst, const ForwardTrace& trace);

}  // namespace ibgp::analysis
