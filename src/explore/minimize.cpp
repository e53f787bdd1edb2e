#include "explore/minimize.hpp"

#include <utility>

namespace ibgp::explore {

namespace {

/// try_build + satisfies in one step.
bool spec_satisfies(const InstanceSpec& spec, const MinimizeGoal& goal,
                    MinimizeStats* stats) {
  if (stats != nullptr) ++stats->candidates_tried;
  const auto inst = try_build(spec);
  return inst && satisfies(*inst, goal);
}

/// Tries candidate; on success replaces spec and returns true.
bool accept_if_better(InstanceSpec& spec, InstanceSpec candidate, const MinimizeGoal& goal,
                      MinimizeStats* stats) {
  if (!spec_satisfies(candidate, goal, stats)) return false;
  spec = std::move(candidate);
  if (stats != nullptr) ++stats->accepted;
  return true;
}

/// One greedy pass over every shrink move; returns whether anything shrank.
bool shrink_pass(InstanceSpec& spec, const MinimizeGoal& goal, MinimizeStats* stats) {
  bool changed = false;

  // Routers first: removing one drops its links, sessions, exits and maps
  // in a single oracle call.  High-to-low keeps earlier indices valid.
  for (std::size_t v = spec.nodes.size(); v-- > 0;) {
    InstanceSpec candidate = spec;
    remove_node(candidate, static_cast<NodeId>(v));
    changed |= accept_if_better(spec, std::move(candidate), goal, stats);
  }
  for (std::size_t i = spec.exits.size(); i-- > 0;) {
    InstanceSpec candidate = spec;
    candidate.exits.erase(candidate.exits.begin() + static_cast<std::ptrdiff_t>(i));
    changed |= accept_if_better(spec, std::move(candidate), goal, stats);
  }
  for (std::size_t i = spec.route_maps.size(); i-- > 0;) {
    InstanceSpec candidate = spec;
    candidate.route_maps.erase(candidate.route_maps.begin() +
                               static_cast<std::ptrdiff_t>(i));
    changed |= accept_if_better(spec, std::move(candidate), goal, stats);
  }
  for (std::size_t i = spec.client_sessions.size(); i-- > 0;) {
    InstanceSpec candidate = spec;
    candidate.client_sessions.erase(candidate.client_sessions.begin() +
                                    static_cast<std::ptrdiff_t>(i));
    changed |= accept_if_better(spec, std::move(candidate), goal, stats);
  }
  for (std::size_t i = spec.links.size(); i-- > 0;) {
    InstanceSpec candidate = spec;
    candidate.links.erase(candidate.links.begin() + static_cast<std::ptrdiff_t>(i));
    changed |= accept_if_better(spec, std::move(candidate), goal, stats);
  }
  for (std::size_t i = spec.policy.med_overrides.size(); i-- > 0;) {
    InstanceSpec candidate = spec;
    candidate.policy.med_overrides.erase(candidate.policy.med_overrides.begin() +
                                         static_cast<std::ptrdiff_t>(i));
    changed |= accept_if_better(spec, std::move(candidate), goal, stats);
  }

  // Attribute flattening: drive every value to its least-interesting form
  // that still reproduces the signature.
  for (std::size_t i = 0; i < spec.exits.size(); ++i) {
    // A copy: an accepted candidate is moved into spec, which frees the
    // exits a reference would point into.
    const ExitSpec exit = spec.exits[i];
    if (exit.med != 0) {
      InstanceSpec candidate = spec;
      candidate.exits[i].med = 0;
      changed |= accept_if_better(spec, std::move(candidate), goal, stats);
    }
    if (exit.local_pref != 100) {
      InstanceSpec candidate = spec;
      candidate.exits[i].local_pref = 100;
      changed |= accept_if_better(spec, std::move(candidate), goal, stats);
    }
    if (exit.as_path_length != 3) {
      InstanceSpec candidate = spec;
      candidate.exits[i].as_path_length = 3;
      changed |= accept_if_better(spec, std::move(candidate), goal, stats);
    }
    if (exit.exit_cost != 0) {
      InstanceSpec candidate = spec;
      candidate.exits[i].exit_cost = 0;
      changed |= accept_if_better(spec, std::move(candidate), goal, stats);
    }
    if (exit.communities != 0) {
      InstanceSpec candidate = spec;
      candidate.exits[i].communities = 0;
      changed |= accept_if_better(spec, std::move(candidate), goal, stats);
    }
  }
  for (std::size_t i = 0; i < spec.links.size(); ++i) {
    if (spec.links[i].cost != 1) {
      InstanceSpec candidate = spec;
      candidate.links[i].cost = 1;
      changed |= accept_if_better(spec, std::move(candidate), goal, stats);
    }
  }
  return changed;
}

}  // namespace

bool satisfies(const core::Instance& inst, const MinimizeGoal& goal) {
  const auto sig = analysis::classify(inst, goal.protocol, goal.max_steps);
  // Exact per-schedule match; a kStepLimit verdict only equals kStepLimit,
  // so a truncated run can never stand in for a proven cycle.
  if (sig.round_robin != goal.signature.round_robin) return false;
  if (sig.synchronous != goal.signature.synchronous) return false;
  if (goal.modified_converges) {
    const auto modified =
        analysis::classify(inst, core::ProtocolKind::kModified, goal.max_steps);
    if (!modified.converges_always_tested()) return false;
  }
  if (goal.med_induced) {
    bgp::SelectionPolicy no_med = inst.policy();
    no_med.med = bgp::MedMode::kIgnore;
    no_med.med_overrides.clear();
    const auto without =
        analysis::classify(inst.with_policy(no_med), goal.protocol, goal.max_steps);
    if (!without.converges_always_tested()) return false;
  }
  return true;
}

InstanceSpec minimize(InstanceSpec spec, const MinimizeGoal& goal, MinimizeStats* stats) {
  if (!spec_satisfies(spec, goal, stats)) return spec;  // precondition violated
  while (shrink_pass(spec, goal, stats)) {
    if (stats != nullptr) ++stats->passes;
  }
  if (stats != nullptr) ++stats->passes;  // the final no-change pass
  return spec;
}

}  // namespace ibgp::explore
