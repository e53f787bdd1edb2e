#pragma once
// Test-only reference for the forwarding-plane analyses: the hop-by-hop
// walk, the all-sources report and the continuity replay, frozen in their
// plain original form — a fresh trace and visited vector for every (interval,
// source) pair of the replay.  The product code walks into one reused trace
// and visited buffer; the differential suite (test_forwarding_diff.cpp)
// holds every ContinuityReport field and every trace to these functions.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/continuity.hpp"
#include "analysis/forwarding.hpp"
#include "core/instance.hpp"
#include "engine/event_engine.hpp"
#include "netsim/shortest_paths.hpp"
#include "util/types.hpp"

namespace ibgp::reference {

/// One packet from `source`, with a fresh visited vector.
inline analysis::ForwardTrace trace_forwarding(const core::Instance& inst,
                                               const netsim::ShortestPaths& igp,
                                               std::span<const PathId> best, NodeId source) {
  analysis::ForwardTrace trace;
  trace.source = source;
  std::vector<bool> visited(inst.node_count(), false);

  NodeId cur = source;
  while (true) {
    trace.hops.push_back(cur);
    if (visited[cur]) {
      trace.outcome = analysis::ForwardOutcome::kLoop;
      return trace;
    }
    visited[cur] = true;

    const PathId b = best[cur];
    if (b == kNoPath) {
      trace.outcome = analysis::ForwardOutcome::kNoRoute;
      return trace;
    }
    const NodeId exit_point = inst.exits()[b].exit_point;
    if (exit_point == cur) {
      trace.outcome = analysis::ForwardOutcome::kExits;
      trace.exit_node = cur;
      trace.exit_path = b;
      return trace;
    }
    const NodeId next = igp.next_hop(cur, exit_point);
    if (next == kNoNode) {
      trace.outcome = analysis::ForwardOutcome::kNoRoute;  // IGP-unreachable exit point
      return trace;
    }
    cur = next;
  }
}

/// Traces from every node.
inline analysis::ForwardingReport analyze_forwarding(const core::Instance& inst,
                                                     const netsim::ShortestPaths& igp,
                                                     std::span<const PathId> best) {
  analysis::ForwardingReport report;
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    report.traces.push_back(reference::trace_forwarding(inst, igp, best, v));
    switch (report.traces.back().outcome) {
      case analysis::ForwardOutcome::kLoop: ++report.loops; break;
      case analysis::ForwardOutcome::kNoRoute: ++report.no_route; break;
      case analysis::ForwardOutcome::kExits: break;
    }
  }
  return report;
}

namespace detail {

/// A router's life state as far as the forwarding plane is concerned.
enum class Mode : std::uint8_t {
  kUp,    // forwarding on the control plane's current best route
  kCold,  // crashed: forwards nothing, originates nothing
  kGr,    // graceful restart: forwards on the frozen (stale) FIB entry
};

struct ModeChange {
  engine::SimTime time = 0;
  NodeId node = kNoNode;
  Mode mode = Mode::kUp;
};

}  // namespace detail

/// Replays the engine's FIB + fault + IGP history over [0, horizon),
/// tracing every live source in every interval afresh.
inline analysis::ContinuityReport check_continuity(const engine::EventEngine& engine,
                                                  engine::SimTime horizon) {
  using detail::Mode;
  using engine::FaultKind;
  using engine::SimTime;
  const core::Instance& inst = engine.instance();
  const auto fib_log = engine.fib_log();

  analysis::ContinuityReport report;
  report.horizon = horizon;
  if (horizon == 0) return report;

  // Router mode transitions, derived from the fault log (chronological).
  // kStaleExpire changes retention at *peers*, which the FIB log already
  // captures; the router's own mode is untouched by it.
  std::vector<detail::ModeChange> mode_changes;
  for (const auto& fault : engine.fault_log()) {
    switch (fault.kind) {
      case FaultKind::kCrash:
        mode_changes.push_back({fault.time, fault.a, Mode::kCold});
        break;
      case FaultKind::kGracefulDown:
        mode_changes.push_back({fault.time, fault.a, Mode::kGr});
        break;
      case FaultKind::kRestart:
        mode_changes.push_back({fault.time, fault.a, Mode::kUp});
        break;
      case FaultKind::kSessionDown:
      case FaultKind::kSessionUp:
      case FaultKind::kStaleExpire:
        break;
      case FaultKind::kLinkCostChange:
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
        // Link faults change the IGP epoch (handled below via igp_log), and
        // each opens a pricing window attributing transient damage to it.
        report.churn_events.push_back({fault.time, fault.kind, fault.a, fault.b});
        break;
    }
  }

  // The IGP epoch timeline: epoch [k] is in force from igp_log[k].time until
  // the next record; the instance's base epoch before the first.  Epoch
  // swaps are interval boundaries even when no FIB entry moved — the same
  // FIB forwards differently under new distances.
  const auto igp_log = engine.igp_log();
  std::shared_ptr<const netsim::ShortestPaths> igp = inst.igp_handle();

  // Boundaries of the piecewise-constant forwarding state.
  std::vector<SimTime> times;
  times.reserve(fib_log.size() + mode_changes.size() + 2);
  times.push_back(0);
  times.push_back(horizon);
  for (const auto& record : fib_log) {
    if (record.time < horizon) times.push_back(record.time);
  }
  for (const auto& change : mode_changes) {
    if (change.time < horizon) times.push_back(change.time);
  }
  for (const auto& record : igp_log) {
    if (record.time < horizon) times.push_back(record.time);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  const std::size_t n = inst.node_count();
  std::vector<PathId> fib(n, kNoPath);
  std::vector<Mode> mode(n, Mode::kUp);
  std::vector<bool> had_route(n, false);
  std::vector<SimTime> blackhole_run(n, 0);
  std::vector<SimTime> deflection_run(n, 0);

  std::size_t next_fib = 0;
  std::size_t next_mode = 0;
  std::size_t next_igp = 0;
  // Index of the link fault whose pricing window covers the current
  // interval; npos before the first one.
  std::size_t cur_churn = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    const SimTime start = times[i];
    const SimTime len = times[i + 1] - start;

    // Events at `start` take effect for [start, next boundary).
    while (next_fib < fib_log.size() && fib_log[next_fib].time <= start) {
      const auto& record = fib_log[next_fib++];
      fib[record.node] = record.new_path;
      if (record.new_path != kNoPath) had_route[record.node] = true;
    }
    while (next_mode < mode_changes.size() && mode_changes[next_mode].time <= start) {
      const auto& change = mode_changes[next_mode++];
      mode[change.node] = change.mode;
    }
    while (next_igp < igp_log.size() && igp_log[next_igp].time <= start) {
      igp = igp_log[next_igp++].igp;
    }
    while (cur_churn + 1 < report.churn_events.size() &&
           report.churn_events[cur_churn + 1].time <= start) {
      ++cur_churn;
    }
    analysis::ChurnEventCost* churn =
        cur_churn < report.churn_events.size() ? &report.churn_events[cur_churn] : nullptr;
    ++report.intervals;

    for (NodeId v = 0; v < n; ++v) {
      if (mode[v] == Mode::kCold || !had_route[v]) {
        blackhole_run[v] = 0;  // dead or pre-convergence: originates nothing
        deflection_run[v] = 0;
        continue;
      }
      const analysis::ForwardTrace trace = reference::trace_forwarding(inst, *igp, fib, v);
      bool blackhole = false;
      bool deflected = false;
      switch (trace.outcome) {
        case analysis::ForwardOutcome::kExits: {
          bool stale_hop = false;
          for (const NodeId hop : trace.hops) {
            if (mode[hop] == Mode::kGr) stale_hop = true;
          }
          if (stale_hop) {
            report.stale_ticks += len;
          } else {
            report.ok_ticks += len;
          }
          // Deflection: the packet left the AS, but not where the source's
          // own route intended (intermediate nodes' best routes disagree —
          // the Fig 12 phenomenon, priced per churn event below).
          const NodeId intended = fib[v] != kNoPath
                                      ? inst.exits()[fib[v]].exit_point
                                      : kNoNode;
          if (trace.exit_node != intended) {
            deflected = true;
            report.deflection_ticks += len;
            if (churn) churn->deflection_ticks += len;
          }
          break;
        }
        case analysis::ForwardOutcome::kNoRoute:
          report.blackhole_ticks += len;
          if (churn) churn->blackhole_ticks += len;
          blackhole = true;
          break;
        case analysis::ForwardOutcome::kLoop:
          report.loop_ticks += len;
          if (churn) churn->loop_ticks += len;
          break;
      }
      if (blackhole) {
        blackhole_run[v] += len;
        report.max_blackhole_window = std::max(report.max_blackhole_window, blackhole_run[v]);
      } else {
        blackhole_run[v] = 0;
      }
      if (deflected) {
        deflection_run[v] += len;
        report.max_deflection_window =
            std::max(report.max_deflection_window, deflection_run[v]);
      } else {
        deflection_run[v] = 0;
      }
    }
  }
  return report;
}

}  // namespace ibgp::reference
