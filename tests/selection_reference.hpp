#pragma once
// Test-only reference for route selection: Choose_best (Fig 6), Choose^B
// (Fig 10), the per-protocol decision and the Walton advertised set, frozen
// in their plain original form — a std::map per MED elimination, a fresh
// vector per filtering stage, a map of per-AS candidate vectors for Walton,
// and Walton's own second Choose_best over the full set.  The product code
// filters in reused scratch; the differential suite (test_selection_diff.cpp)
// holds it to exactly what these functions say: best route, advertised set
// and the whole SelectionProvenance.

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "bgp/selection.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "netsim/shortest_paths.hpp"
#include "util/types.hpp"

namespace ibgp::reference {

namespace detail {

using bgp::ExitTable;
using bgp::MedMode;
using bgp::RouteView;
using bgp::SelectionPolicy;
using bgp::SelectionProvenance;
using bgp::SelectionRule;

template <typename Key>
void keep_min(std::vector<RouteView>& views, Key key) {
  if (views.empty()) return;
  auto best = key(views.front());
  for (const auto& view : views) best = std::min(best, key(view));
  std::erase_if(views, [&](const RouteView& view) { return key(view) != best; });
}

template <typename Key>
void keep_max(std::vector<RouteView>& views, Key key) {
  if (views.empty()) return;
  auto best = key(views.front());
  for (const auto& view : views) best = std::max(best, key(view));
  std::erase_if(views, [&](const RouteView& view) { return key(view) != best; });
}

inline constexpr std::uint64_t kSharedMedGroup = std::uint64_t{1} << 32;

inline std::optional<std::uint64_t> med_group(const SelectionPolicy& policy, AsId as) {
  switch (policy.med_mode_for(as)) {
    case MedMode::kIgnore: return std::nullopt;
    case MedMode::kAlwaysCompare: return kSharedMedGroup;
    case MedMode::kPerNeighborAs: return as;
  }
  return as;
}

template <typename Seq, typename AsOf, typename MedOf>
void med_eliminate_range(Seq& items, const SelectionPolicy& policy, AsOf as_of,
                         MedOf med_of) {
  if (items.empty()) return;
  std::map<std::uint64_t, Med> group_min;
  for (const auto& item : items) {
    const auto group = med_group(policy, as_of(item));
    if (!group) continue;
    const auto it = group_min.find(*group);
    if (it == group_min.end() || med_of(item) < it->second) group_min[*group] = med_of(item);
  }
  std::erase_if(items, [&](const auto& item) {
    const auto group = med_group(policy, as_of(item));
    if (!group) return false;
    return med_of(item) != group_min.at(*group);
  });
}

inline void keep_ebgp(std::vector<RouteView>& views) {
  const bool any_ebgp =
      std::any_of(views.begin(), views.end(), [](const RouteView& v) { return v.is_ebgp; });
  if (any_ebgp) {
    std::erase_if(views, [](const RouteView& v) { return !v.is_ebgp; });
  }
}

inline std::vector<RouteView> usable_views(const ExitTable& table,
                                           const netsim::ShortestPaths& igp, NodeId u,
                                           std::span<const bgp::Candidate> candidates) {
  std::vector<RouteView> views;
  views.reserve(candidates.size());
  for (const auto& candidate : candidates) {
    if (auto view = bgp::make_route_view(table, igp, u, candidate)) views.push_back(*view);
  }
  return views;
}

inline std::optional<RouteView> finish(const ExitTable& table, std::vector<RouteView> views,
                                       const SelectionPolicy& policy,
                                       SelectionProvenance* provenance) {
  if (provenance != nullptr) provenance->usable = views.size();
  auto charge = [&](SelectionRule rule, std::size_t before) {
    if (provenance == nullptr || views.size() >= before) return;
    provenance->eliminated[bgp::rule_index(rule)] +=
        static_cast<std::uint32_t>(before - views.size());
    provenance->decisive = rule;
  };

  std::size_t before = views.size();
  keep_max(views, [&](const RouteView& v) { return table[v.path].local_pref; });
  charge(SelectionRule::kLocalPref, before);

  before = views.size();
  keep_min(views, [&](const RouteView& v) { return table[v.path].as_path_length; });
  charge(SelectionRule::kAsPathLength, before);

  before = views.size();
  med_eliminate_range(
      views, policy, [&](const RouteView& v) { return table[v.path].next_as; },
      [&](const RouteView& v) { return table[v.path].med; });
  charge(SelectionRule::kMed, before);

  if (policy.order == bgp::RuleOrder::kPreferEbgpFirst) {
    before = views.size();
    keep_ebgp(views);
    charge(SelectionRule::kEbgpOverIbgp, before);
    before = views.size();
    keep_min(views, [](const RouteView& v) { return v.metric; });
    charge(SelectionRule::kIgpCost, before);
  } else {
    before = views.size();
    keep_min(views, [](const RouteView& v) { return v.metric; });
    charge(SelectionRule::kIgpCost, before);
    before = views.size();
    keep_ebgp(views);
    charge(SelectionRule::kEbgpOverIbgp, before);
  }
  before = views.size();
  keep_min(views, [](const RouteView& v) { return v.learned_from; });
  charge(SelectionRule::kBgpIdTieBreak, before);

  if (views.empty()) return std::nullopt;
  const auto best =
      std::min_element(views.begin(), views.end(), [](const RouteView& a, const RouteView& b) {
        return a.path < b.path;
      });
  if (provenance != nullptr) {
    if (views.size() > 1) {
      provenance->eliminated[bgp::rule_index(SelectionRule::kPathIdTieBreak)] +=
          static_cast<std::uint32_t>(views.size() - 1);
      provenance->decisive = SelectionRule::kPathIdTieBreak;
    }
    provenance->selected = true;
  }
  return *best;
}

}  // namespace detail

/// Rules 1-3 over bare exit paths; surviving ids ascending.
inline std::vector<PathId> choose_survivors(const bgp::ExitTable& table,
                                            std::span<const PathId> paths,
                                            const bgp::SelectionPolicy& policy) {
  if (paths.empty()) return {};

  LocalPref best_lp = 0;
  for (const PathId id : paths) best_lp = std::max(best_lp, table[id].local_pref);
  std::vector<PathId> alive;
  for (const PathId id : paths) {
    if (table[id].local_pref == best_lp) alive.push_back(id);
  }

  std::uint32_t best_len = std::numeric_limits<std::uint32_t>::max();
  for (const PathId id : alive) best_len = std::min(best_len, table[id].as_path_length);
  std::erase_if(alive, [&](PathId id) { return table[id].as_path_length != best_len; });

  detail::med_eliminate_range(
      alive, policy, [&](PathId id) { return table[id].next_as; },
      [&](PathId id) { return table[id].med; });

  std::sort(alive.begin(), alive.end());
  alive.erase(std::unique(alive.begin(), alive.end()), alive.end());
  return alive;
}

/// Full Choose_best at node u; overwrites `provenance` when non-null.
inline std::optional<bgp::RouteView> choose_best(const bgp::ExitTable& table,
                                                 const netsim::ShortestPaths& igp, NodeId u,
                                                 std::span<const bgp::Candidate> candidates,
                                                 const bgp::SelectionPolicy& policy,
                                                 bgp::SelectionProvenance* provenance = nullptr) {
  if (provenance != nullptr) {
    *provenance = bgp::SelectionProvenance{};
    provenance->candidates = candidates.size();
  }
  auto views = detail::usable_views(table, igp, u, candidates);
  if (provenance != nullptr) provenance->unreachable = candidates.size() - views.size();
  return detail::finish(table, std::move(views), policy, provenance);
}

/// Best route per neighboring AS, kept when it matches the overall best's
/// LOCAL-PREF and AS-path length (the overall best computed afresh).
inline std::vector<PathId> walton_advertised(const core::Instance& inst,
                                             const netsim::ShortestPaths& igp, NodeId node,
                                             std::span<const bgp::Candidate> possible) {
  const auto& table = inst.exits();
  const auto overall = reference::choose_best(table, igp, node, possible, inst.policy());
  if (!overall) return {};
  const LocalPref best_lp = table[overall->path].local_pref;
  const std::uint32_t best_len = table[overall->path].as_path_length;

  std::map<AsId, std::vector<bgp::Candidate>> by_as;
  for (const auto& candidate : possible) {
    by_as[table[candidate.path].next_as].push_back(candidate);
  }

  std::vector<PathId> advertised;
  for (const auto& [as, group] : by_as) {
    const auto group_best = reference::choose_best(table, igp, node, group, inst.policy());
    if (!group_best) continue;
    const auto& path = table[group_best->path];
    if (path.local_pref == best_lp && path.as_path_length == best_len) {
      advertised.push_back(group_best->path);
    }
  }
  std::sort(advertised.begin(), advertised.end());
  advertised.erase(std::unique(advertised.begin(), advertised.end()), advertised.end());
  return advertised;
}

/// Best route + advertised set under `kind`, by value.
inline core::NodeDecision decide(const core::Instance& inst, const netsim::ShortestPaths& igp,
                                 core::ProtocolKind kind, NodeId node,
                                 std::span<const bgp::Candidate> possible,
                                 bgp::SelectionProvenance* provenance = nullptr) {
  core::NodeDecision decision;
  const auto& table = inst.exits();

  switch (kind) {
    case core::ProtocolKind::kStandard: {
      decision.best = reference::choose_best(table, igp, node, possible, inst.policy(), provenance);
      if (decision.best) decision.advertised.push_back(decision.best->path);
      break;
    }
    case core::ProtocolKind::kWalton: {
      decision.best = reference::choose_best(table, igp, node, possible, inst.policy(), provenance);
      decision.advertised = reference::walton_advertised(inst, igp, node, possible);
      break;
    }
    case core::ProtocolKind::kModified: {
      std::vector<PathId> ids;
      ids.reserve(possible.size());
      for (const auto& candidate : possible) ids.push_back(candidate.path);
      decision.advertised = reference::choose_survivors(table, ids, inst.policy());

      std::vector<bgp::Candidate> good;
      for (const auto& candidate : possible) {
        if (std::binary_search(decision.advertised.begin(), decision.advertised.end(),
                               candidate.path)) {
          good.push_back(candidate);
        }
      }
      decision.best = reference::choose_best(table, igp, node, good, inst.policy(), provenance);
      break;
    }
  }
  return decision;
}

}  // namespace ibgp::reference
