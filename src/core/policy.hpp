#pragma once
// Advertisement policies: what a router announces to its I-BGP peers
// (before the per-peer Transfer filtering).
//
//  - kStandard: classic I-BGP — the single best route (Section 2).
//  - kWalton:   the Walton et al. proposal (Section 8) — for each neighboring
//               AS, the best route through that AS, provided it matches the
//               overall best route's LOCAL-PREF and AS-path length.
//  - kModified: the paper's protocol (Section 6) — GoodExits =
//               Choose^B(PossibleExits), i.e. every path surviving selection
//               rules 1-3.  The best route is then chosen from GoodExits.

#include <optional>
#include <span>
#include <vector>

#include "bgp/selection.hpp"
#include "core/instance.hpp"
#include "util/types.hpp"

namespace ibgp::core {

enum class ProtocolKind {
  kStandard,
  kWalton,
  kModified,
};

/// Display name ("standard", "walton", "modified").
const char* protocol_name(ProtocolKind kind);

/// Everything a node derives from its current PossibleExits in one step.
struct NodeDecision {
  /// The set the node offers to peers (Transfer still filters per peer);
  /// ascending path ids.
  std::vector<PathId> advertised;
  /// The node's best route, if any candidate is usable.
  std::optional<bgp::RouteView> best;
};

/// Computes best route + advertised set for `node` under `kind` into the
/// caller's `out`, pricing candidates with `igp` (the instance's base igp(),
/// or the engine's current epoch once link faults have churned it).
///
/// `possible` is PossibleExits(node) with the learnedFrom attribution the
/// engine tracked for each path.  For kModified the best route is chosen
/// from GoodExits, exactly as Section 6 prescribes.
///
/// When `provenance` is non-null it receives the elimination record of the
/// Choose_best invocation that produced `best`.  For kModified that is the
/// call over the GoodExits survivors — rules 1-3 then rarely decide, which
/// is the point of the fix and exactly what the per-rule breakdown should
/// show (see EXPERIMENTS.md E17).
///
/// Filtering runs in per-thread scratch and `out` keeps its capacity, so a
/// caller that reuses one NodeDecision makes no allocation per call once
/// the buffers have grown.
void decide(const Instance& inst, const netsim::ShortestPaths& igp, ProtocolKind kind,
            NodeId node, std::span<const bgp::Candidate> possible, NodeDecision& out,
            bgp::SelectionProvenance* provenance = nullptr);

/// The Walton advertised set, written to `out` in ascending order: the best
/// route per neighboring AS among `possible`, kept when it matches the
/// LOCAL-PREF and AS-path length of `overall`, Choose_best over all of
/// `possible` (decide passes the best route it already computed).  Empty
/// when `overall` is.
void walton_advertised(const Instance& inst, const netsim::ShortestPaths& igp, NodeId node,
                       std::span<const bgp::Candidate> possible,
                       const std::optional<bgp::RouteView>& overall,
                       std::vector<PathId>& out);

}  // namespace ibgp::core
