#pragma once
// Mutable runtime view of the physical graph's link metrics.
//
// The paper parameterizes every route by IGP shortest-path distances
// (Section 4), and the base PhysicalGraph is immutable by design — an
// Instance is the static tuple SR.  IGP churn (metric changes, link
// failures) is therefore modeled as a *state vector over the base graph's
// links*: per link, the currently configured cost and an up/down flag.
// The effective cost vector (kInfCost where down) is the canonical key of
// an IGP epoch: two states with equal effective vectors yield identical
// shortest paths, which is what SpfCache memoizes on.

#include <span>
#include <vector>

#include "netsim/physical_graph.hpp"
#include "util/types.hpp"

namespace ibgp::netsim {

class LinkState {
 public:
  LinkState() = default;

  /// Starts with every link up at its base-graph cost.
  explicit LinkState(const PhysicalGraph& graph);

  [[nodiscard]] std::size_t link_count() const { return cost_.size(); }

  [[nodiscard]] bool is_down(std::size_t link) const { return down_.at(link); }

  /// The configured (administrative) cost — retained while the link is down
  /// so a later link-up restores it.
  [[nodiscard]] Cost cost(std::size_t link) const { return cost_.at(link); }

  /// Per-link effective costs, index-aligned with graph.links():
  /// the configured cost where up, kInfCost where down.  This vector is the
  /// IGP-epoch cache key.
  [[nodiscard]] std::span<const Cost> effective() const { return effective_; }

  /// Sets the configured cost (must be positive and below kInfCost; throws
  /// otherwise).
  /// Returns true iff the *effective* vector changed (a cost change on a
  /// down link only retargets the eventual link-up).
  bool set_cost(std::size_t link, Cost cost);

  /// Fails the link.  Returns true iff it was up (effective change).
  bool set_down(std::size_t link);

  /// Restores the link at its configured cost.  Returns true iff it was
  /// down (effective change).
  bool set_up(std::size_t link);

 private:
  std::vector<Cost> cost_;       // configured cost per link
  std::vector<bool> down_;       // failure flag per link
  std::vector<Cost> effective_;  // cost_ masked by down_
};

}  // namespace ibgp::netsim
