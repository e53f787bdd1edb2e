#include "analysis/forwarding.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

namespace ibgp::analysis {

void trace_forwarding(const core::Instance& inst, const netsim::ShortestPaths& igp,
                      std::span<const PathId> best, NodeId source,
                      std::vector<bool>& visited, ForwardTrace& trace) {
  const std::size_t n = inst.node_count();
  if (best.size() < n) {
    throw std::invalid_argument("trace_forwarding: " + std::to_string(best.size()) +
                                " best routes for " + std::to_string(n) + " nodes");
  }
  if (source >= n) {
    throw std::invalid_argument("trace_forwarding: source " + std::to_string(source) +
                                " is not one of the " + std::to_string(n) + " nodes");
  }
  if (visited.size() != n) visited.assign(n, false);
  trace.source = source;
  trace.hops.clear();
  trace.exit_node = kNoNode;
  trace.exit_path = kNoPath;

  NodeId cur = source;
  while (true) {
    trace.hops.push_back(cur);
    if (visited[cur]) {
      trace.outcome = ForwardOutcome::kLoop;
      break;
    }
    visited[cur] = true;

    const PathId b = best[cur];
    if (b == kNoPath) {
      trace.outcome = ForwardOutcome::kNoRoute;
      break;
    }
    const NodeId exit_point = inst.exits()[b].exit_point;
    if (exit_point == cur) {
      trace.outcome = ForwardOutcome::kExits;
      trace.exit_node = cur;
      trace.exit_path = b;
      break;
    }
    const NodeId next = igp.next_hop(cur, exit_point);
    if (next == kNoNode) {
      trace.outcome = ForwardOutcome::kNoRoute;  // IGP-unreachable exit point
      break;
    }
    cur = next;
  }
  for (const NodeId hop : trace.hops) visited[hop] = false;
}

ForwardingReport analyze_forwarding(const core::Instance& inst,
                                    std::span<const PathId> best) {
  return analyze_forwarding(inst, inst.igp(), best);
}

ForwardingReport analyze_forwarding(const core::Instance& inst,
                                    const netsim::ShortestPaths& igp,
                                    std::span<const PathId> best) {
  ForwardingReport report;
  report.traces.resize(inst.node_count());
  std::vector<bool> visited;
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    ForwardTrace& trace = report.traces[v];
    trace_forwarding(inst, igp, best, v, visited, trace);
    switch (trace.outcome) {
      case ForwardOutcome::kLoop: ++report.loops; break;
      case ForwardOutcome::kNoRoute: ++report.no_route; break;
      case ForwardOutcome::kExits: break;
    }
  }
  return report;
}

std::string describe_trace(const core::Instance& inst, const ForwardTrace& trace) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    if (i > 0) oss << " -> ";
    oss << inst.node_name(trace.hops[i]);
  }
  switch (trace.outcome) {
    case ForwardOutcome::kExits:
      oss << " => exits via " << inst.exits()[trace.exit_path].name;
      break;
    case ForwardOutcome::kLoop:
      oss << " (LOOP)";
      break;
    case ForwardOutcome::kNoRoute:
      oss << " (no route)";
      break;
  }
  return oss.str();
}

}  // namespace ibgp::analysis
