#pragma once
// An Instance bundles everything static about one experiment: the physical
// graph G_P, the cluster layout, the logical session graph G_I, the universe
// of exit paths, per-node BGP identifiers and the selection policy.  It
// corresponds to the tuple SR = (G_P, G_I, config(0)) of Section 5 minus the
// mutable parts of config(t) (which exits are currently announced and each
// node's PossibleExits/BestRoute live in the engines).

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/exit_table.hpp"
#include "bgp/route_map.hpp"
#include "bgp/selection.hpp"
#include "netsim/cluster_layout.hpp"
#include "netsim/physical_graph.hpp"
#include "netsim/session_graph.hpp"
#include "netsim/shortest_paths.hpp"
#include "netsim/spf_cache.hpp"
#include "netsim/validate.hpp"
#include "util/types.hpp"

namespace ibgp::core {

class Instance {
 public:
  /// Assembles and finalizes an instance.  Computes all-pairs shortest
  /// paths, assigns default BGP identifiers (bgp_id(v) = v) when `bgp_ids`
  /// is empty, and validates:
  ///   - structural session constraints (netsim::check_structure),
  ///   - every exit point names an existing node.
  /// Throws std::invalid_argument on any validation error.  The IGP
  /// warnings (netsim::check_igp) are taken against the base epoch, so the
  /// all-pairs table is built once.
  ///
  /// `ingress_maps` (empty, or one RouteMap per node) are per-node E-BGP
  /// import route-maps: map v is applied once, here, to every exit path
  /// whose exit point is v, producing the *effective* attributes that
  /// exits() reports and every engine selects on.  raw_exits() keeps the
  /// pre-rewrite table so serializers can round-trip config rather than its
  /// consequence.
  Instance(std::string name, netsim::PhysicalGraph physical, netsim::ClusterLayout clusters,
           netsim::SessionGraph sessions, bgp::ExitTable exits,
           bgp::SelectionPolicy policy = {}, std::vector<BgpId> bgp_ids = {},
           std::vector<std::string> node_names = {},
           std::vector<bgp::RouteMap> ingress_maps = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t node_count() const { return physical_.node_count(); }

  [[nodiscard]] const netsim::PhysicalGraph& physical() const { return physical_; }
  [[nodiscard]] const netsim::ClusterLayout& clusters() const { return clusters_; }
  [[nodiscard]] const netsim::SessionGraph& sessions() const { return sessions_; }
  [[nodiscard]] const bgp::ExitTable& exits() const { return exits_; }
  [[nodiscard]] const netsim::ShortestPaths& igp() const { return *igp_; }
  [[nodiscard]] const bgp::SelectionPolicy& policy() const { return policy_; }

  /// The exit table as configured, before ingress route-maps rewrote any
  /// attributes.  Identical to exits() when no node has an ingress policy.
  [[nodiscard]] const bgp::ExitTable& raw_exits() const { return raw_exits_; }

  /// Per-node ingress route-maps (empty span when none were configured).
  [[nodiscard]] std::span<const bgp::RouteMap> ingress_maps() const { return ingress_maps_; }

  /// True iff any node carries a non-empty ingress route-map.
  [[nodiscard]] bool has_ingress_policy() const {
    for (const auto& map : ingress_maps_) {
      if (!map.empty()) return true;
    }
    return false;
  }

  // --- IGP epochs (runtime topology churn) ----------------------------------
  //
  // The Instance itself stays the paper's static tuple: physical() and
  // igp() never change.  Engines that model IGP churn hold an *epoch
  // handle* — a shared_ptr to the ShortestPaths matching the currently
  // effective link costs — and swap it on link faults.  Epochs are
  // materialized through a memoized SPF cache shared by every copy of this
  // instance (and thus by every cell of a sweep over it), so repeated
  // recomputation of the same link-state vector runs Dijkstra once.

  /// The epoch handle for the unchurned base graph; igp() dereferences it.
  [[nodiscard]] std::shared_ptr<const netsim::ShortestPaths> igp_handle() const {
    return igp_;
  }

  /// The epoch for an arbitrary effective link-cost vector (index-aligned
  /// with physical().links(), kInfCost = link down), memoized.  Reverting
  /// to previously seen costs returns the identical object — restoring the
  /// base costs returns igp_handle() itself.  Thread-safe.
  [[nodiscard]] std::shared_ptr<const netsim::ShortestPaths> igp_epoch(
      std::span<const Cost> effective_costs) const {
    return spf_cache_->get(effective_costs);
  }

  /// Distinct IGP epochs materialized so far across all holders.
  [[nodiscard]] std::size_t igp_epoch_count() const { return spf_cache_->size(); }

  /// The shared SPF cache itself, for observability hookups (hit/miss
  /// counters via SpfCache::attach_metrics).  Shared by every copy of this
  /// instance; mutating attachments affects all holders.
  [[nodiscard]] netsim::SpfCache& spf_cache() const { return *spf_cache_; }

  [[nodiscard]] BgpId bgp_id(NodeId v) const { return bgp_ids_.at(v); }

  /// Human-readable node label ("RR1", "c2", ...); defaults to "n<v>".
  [[nodiscard]] const std::string& node_name(NodeId v) const { return node_names_.at(v); }

  /// Node id for a label, or kNoNode.
  [[nodiscard]] NodeId find_node(std::string_view label) const;

  /// Structural warnings gathered during validation (non-fatal).
  [[nodiscard]] std::span<const std::string> warnings() const { return warnings_; }

  /// Convenience: a copy of this instance with a different selection policy
  /// (used by the rule-ordering experiments, e.g. Fig 1(b)).
  [[nodiscard]] Instance with_policy(bgp::SelectionPolicy policy) const;

 private:
  std::string name_;
  netsim::PhysicalGraph physical_;
  netsim::ClusterLayout clusters_;
  netsim::SessionGraph sessions_;
  bgp::ExitTable exits_;      // effective (post-route-map) attributes
  bgp::ExitTable raw_exits_;  // as configured; == exits_ without ingress policy
  std::vector<bgp::RouteMap> ingress_maps_;
  bgp::SelectionPolicy policy_;
  std::vector<BgpId> bgp_ids_;
  std::vector<std::string> node_names_;
  std::vector<std::string> warnings_;
  std::shared_ptr<const netsim::ShortestPaths> igp_;  // shared so copies are cheap
  std::shared_ptr<netsim::SpfCache> spf_cache_;  // churn epochs; shared by copies
};

}  // namespace ibgp::core
