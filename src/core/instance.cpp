#include "core/instance.hpp"

#include <stdexcept>

#include "netsim/link_state.hpp"

namespace ibgp::core {

Instance::Instance(std::string name, netsim::PhysicalGraph physical,
                   netsim::ClusterLayout clusters, netsim::SessionGraph sessions,
                   bgp::ExitTable exits, bgp::SelectionPolicy policy,
                   std::vector<BgpId> bgp_ids, std::vector<std::string> node_names,
                   std::vector<bgp::RouteMap> ingress_maps)
    : name_(std::move(name)),
      physical_(std::move(physical)),
      clusters_(std::move(clusters)),
      sessions_(std::move(sessions)),
      exits_(std::move(exits)),
      ingress_maps_(std::move(ingress_maps)),
      policy_(std::move(policy)),
      bgp_ids_(std::move(bgp_ids)),
      node_names_(std::move(node_names)) {
  // Structural checks now; the IGP checks wait for the base epoch below, so
  // the all-pairs table is built once.
  netsim::ValidationReport report;
  netsim::check_structure(physical_, clusters_, sessions_, report);
  if (!report.ok()) {
    std::string message = "Instance '" + name_ + "' invalid:";
    for (const auto& error : report.errors) message += "\n  - " + error;
    throw std::invalid_argument(message);
  }

  for (const auto& path : exits_.all()) {
    if (path.exit_point >= physical_.node_count()) {
      throw std::invalid_argument("Instance '" + name_ + "': exit path " + path.name +
                                  " names non-existent node " +
                                  std::to_string(path.exit_point));
    }
    // Route pricing adds the exit cost to an IGP cost below kInfCost.
    if (path.exit_cost >= kInfCost) {
      throw std::invalid_argument("Instance '" + name_ + "': exit path " + path.name +
                                  " has exit cost " + std::to_string(path.exit_cost) +
                                  ", not below " + std::to_string(kInfCost));
    }
  }

  // The incoming table carries the configured (raw) attributes; ingress
  // route-maps rewrite them once, here, into the effective table every
  // engine selects on.  The rewrite is keyed on the exit point only, so the
  // effective attributes are identical at every evaluating node — the
  // node-independence the modified protocol's proof needs survives any map.
  raw_exits_ = exits_;
  if (!ingress_maps_.empty()) {
    if (ingress_maps_.size() != physical_.node_count()) {
      throw std::invalid_argument("Instance '" + name_ + "': ingress_maps size mismatch");
    }
    bgp::ExitTable effective;
    for (const auto& path : raw_exits_.all()) {
      effective.add(ingress_maps_[path.exit_point].apply(path));
    }
    exits_ = std::move(effective);
  }

  if (bgp_ids_.empty()) {
    bgp_ids_.resize(physical_.node_count());
    for (NodeId v = 0; v < bgp_ids_.size(); ++v) bgp_ids_[v] = v;
  } else if (bgp_ids_.size() != physical_.node_count()) {
    throw std::invalid_argument("Instance '" + name_ + "': bgp_ids size mismatch");
  }

  if (node_names_.empty()) {
    node_names_.reserve(physical_.node_count());
    for (NodeId v = 0; v < physical_.node_count(); ++v) {
      node_names_.push_back("n" + std::to_string(v));
    }
  } else if (node_names_.size() != physical_.node_count()) {
    throw std::invalid_argument("Instance '" + name_ + "': node_names size mismatch");
  }

  spf_cache_ = std::make_shared<netsim::SpfCache>(physical_);
  // Seed the cache with the base epoch so a churn sequence that restores the
  // original costs gets back this very object (pointer-equal to igp_).
  igp_ = spf_cache_->get(netsim::LinkState(physical_).effective());
  netsim::check_igp(physical_, *igp_, report);
  warnings_ = std::move(report.warnings);
}

NodeId Instance::find_node(std::string_view label) const {
  for (NodeId v = 0; v < node_names_.size(); ++v) {
    if (node_names_[v] == label) return v;
  }
  return kNoNode;
}

Instance Instance::with_policy(bgp::SelectionPolicy policy) const {
  Instance copy = *this;
  copy.policy_ = policy;
  return copy;
}

}  // namespace ibgp::core
