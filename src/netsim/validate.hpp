#pragma once
// Structural validation of an I-BGP-with-route-reflection substrate against
// the constraints of Section 4.  Returns human-readable violations rather
// than throwing, so tools can report all problems at once.

#include <string>
#include <vector>

#include "netsim/cluster_layout.hpp"
#include "netsim/physical_graph.hpp"
#include "netsim/session_graph.hpp"
#include "netsim/shortest_paths.hpp"

namespace ibgp::netsim {

struct ValidationReport {
  std::vector<std::string> errors;
  std::vector<std::string> warnings;

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Structural checks (errors):
///  - node counts agree and the layout is complete (every node assigned,
///    every cluster has a reflector) — otherwise nothing else is checked
///    and this returns false
///  - E_I constraint 1: reflector full mesh present
///  - E_I constraint 2: every client peers with every reflector of its cluster
///  - E_I constraint 3: no client session leaves its cluster
bool check_structure(const PhysicalGraph& physical, const ClusterLayout& layout,
                     const SessionGraph& sessions, ValidationReport& report);

/// IGP checks (warnings) against the base shortest paths of `physical`:
///  - physical graph disconnected (some routes will be unusable)
///  - triangle-inequality violations on physical link costs (the paper's
///    NP-hardness construction requires the triangle inequality because
///    I-BGP sessions ride shortest IGP paths)
void check_igp(const PhysicalGraph& physical, const ShortestPaths& igp,
               ValidationReport& report);

/// check_structure, then, unless it returned false, check_igp on a freshly
/// built all-pairs table.  core::Instance runs the two halves itself so
/// that the IGP checks reuse its own base epoch.
ValidationReport validate(const PhysicalGraph& physical, const ClusterLayout& layout,
                          const SessionGraph& sessions);

}  // namespace ibgp::netsim
