#include "analysis/continuity.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "analysis/forwarding.hpp"
#include "util/hash.hpp"

namespace ibgp::analysis {

namespace {

using engine::EventEngine;
using engine::FaultKind;
using engine::SimTime;

/// A router's life state as far as the forwarding plane is concerned.
enum class Mode : std::uint8_t {
  kUp,    // forwarding on the control plane's current best route
  kCold,  // crashed: forwards nothing, originates nothing
  kGr,    // graceful restart: forwards on the frozen (stale) FIB entry
};

struct ModeChange {
  SimTime time = 0;
  NodeId node = kNoNode;
  Mode mode = Mode::kUp;
};

/// What one source's packets did during an interval.  It is a pure function
/// of the interval's forwarding state (epoch, FIB, modes, which sources
/// ever had a route), so a state that recurs reuses its outcomes.
enum Outcome : std::uint8_t {
  kSilent,     // cold-down or never had a route: originates nothing
  kExits,      // delivered over fresh state only
  kStaleExit,  // delivered, but some hop was inside a graceful restart
  kNoRoute,    // dropped
  kLoop,
  kDeflected = 8,  // flag on the two delivered kinds: left where the source did not intend
};

/// The last kSlots distinct forwarding states of one replay, each with its
/// per-source outcomes, in storage allocated once per call.  A state is
/// its epoch plus one packed word per node (FIB entry, mode, had_route);
/// slots are replaced round robin.
class StateMemo {
 public:
  static constexpr std::size_t kSlots = 16;

  explicit StateMemo(std::size_t n) : n_(n), words_(kSlots * n), outcomes_(kSlots * n) {}

  /// The outcomes stored for this state, or nullptr.
  [[nodiscard]] const Outcome* find(std::uint64_t hash, const netsim::ShortestPaths* igp,
                                    std::span<const std::uint64_t> words) const {
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (slots_[s].igp == igp && slots_[s].hash == hash &&
          std::equal(words.begin(), words.end(), words_.begin() + s * n_)) {
        return outcomes_.data() + s * n_;
      }
    }
    return nullptr;
  }

  /// Stores the state in the next slot; returns its outcomes to fill in.
  Outcome* insert(std::uint64_t hash, const netsim::ShortestPaths* igp,
                  std::span<const std::uint64_t> words) {
    const std::size_t s = next_;
    next_ = (next_ + 1) % kSlots;
    slots_[s] = {hash, igp};
    std::copy(words.begin(), words.end(), words_.begin() + s * n_);
    return outcomes_.data() + s * n_;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    const netsim::ShortestPaths* igp = nullptr;  // nullptr: empty
  };
  std::size_t n_;
  std::array<Slot, kSlots> slots_{};
  std::size_t next_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<Outcome> outcomes_;
};

}  // namespace

ContinuityReport check_continuity(const engine::EventEngine& engine, SimTime horizon) {
  const core::Instance& inst = engine.instance();
  const auto fib_log = engine.fib_log();

  ContinuityReport report;
  report.horizon = horizon;
  if (horizon == 0) return report;

  // Router mode transitions, derived from the fault log (chronological).
  // kStaleExpire changes retention at *peers*, which the FIB log already
  // captures; the router's own mode is untouched by it.
  std::vector<ModeChange> mode_changes;
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
  times.reserve(fib_log.size() + mode_changes.size() + igp_log.size() + 2);
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
  // One walk buffer and trace serve every (interval, source) pair.
  std::vector<bool> visited;
  ForwardTrace trace;
  // An oscillation revisits a few forwarding states over and over: each
  // distinct recent state is traced once (DESIGN.md §13).
  std::vector<std::uint64_t> words(n);
  StateMemo memo(n);

  // Source v's outcome under the current state.
  const auto classify = [&](NodeId v) -> Outcome {
    if (mode[v] == Mode::kCold || !had_route[v]) return kSilent;
    trace_forwarding(inst, *igp, fib, v, visited, trace);
    switch (trace.outcome) {
      case ForwardOutcome::kExits: {
        bool stale_hop = false;
        for (const NodeId hop : trace.hops) {
          if (mode[hop] == Mode::kGr) stale_hop = true;
        }
        // Deflection: the packet left the AS, but not where the source's
        // own route intended (intermediate nodes' best routes disagree —
        // the Fig 12 phenomenon, priced per churn event below).
        const NodeId intended = fib[v] != kNoPath ? inst.exits()[fib[v]].exit_point : kNoNode;
        const int deflected = trace.exit_node != intended ? kDeflected : 0;
        return static_cast<Outcome>((stale_hop ? kStaleExit : kExits) | deflected);
      }
      case ForwardOutcome::kNoRoute:
        return kNoRoute;
      case ForwardOutcome::kLoop:
        return kLoop;
    }
    return kNoRoute;
  };

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
    ChurnEventCost* churn =
        cur_churn < report.churn_events.size() ? &report.churn_events[cur_churn] : nullptr;
    ++report.intervals;

    std::uint64_t hash = reinterpret_cast<std::uintptr_t>(igp.get());
    for (NodeId v = 0; v < n; ++v) {
      words[v] = std::uint64_t{fib[v]} | std::uint64_t{static_cast<std::uint8_t>(mode[v])} << 32 |
                 std::uint64_t{had_route[v]} << 34;
      hash = util::hash_combine(hash, words[v]);
    }
    const Outcome* outcomes = memo.find(hash, igp.get(), words);
    if (outcomes == nullptr) {
      Outcome* traced = memo.insert(hash, igp.get(), words);
      for (NodeId v = 0; v < n; ++v) traced[v] = classify(v);
      outcomes = traced;
    }

    for (NodeId v = 0; v < n; ++v) {
      const Outcome outcome = outcomes[v];
      if (outcome == kSilent) {
        blackhole_run[v] = 0;  // dead or pre-convergence: originates nothing
        deflection_run[v] = 0;
        continue;
      }
      switch (outcome & ~kDeflected) {
        case kExits:
          report.ok_ticks += len;
          break;
        case kStaleExit:
          report.stale_ticks += len;
          break;
        case kNoRoute:
          report.blackhole_ticks += len;
          if (churn) churn->blackhole_ticks += len;
          break;
        case kLoop:
          report.loop_ticks += len;
          if (churn) churn->loop_ticks += len;
          break;
      }
      const bool deflected = (outcome & kDeflected) != 0;
      if (deflected) {
        report.deflection_ticks += len;
        if (churn) churn->deflection_ticks += len;
      }
      if (outcome == kNoRoute) {
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

std::string describe_continuity(const ContinuityReport& report) {
  if (report.continuous() && report.stale_ticks == 0 && report.deflection_ticks == 0) {
    return "continuous";
  }
  std::string out;
  const auto item = [&out](const char* label, std::uint64_t n) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += label;
    out += "=";
    out += std::to_string(n);
  };
  item("blackhole", report.blackhole_ticks);
  item("loop", report.loop_ticks);
  item("stale", report.stale_ticks);
  item("deflection", report.deflection_ticks);
  if (out.empty()) return "continuous";
  if (report.max_blackhole_window > 0) {
    out += ", max-blackhole-window=" + std::to_string(report.max_blackhole_window);
  }
  if (report.max_deflection_window > 0) {
    out += ", max-deflection-window=" + std::to_string(report.max_deflection_window);
  }
  return out;
}

}  // namespace ibgp::analysis
