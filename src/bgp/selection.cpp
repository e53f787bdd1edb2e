#include "bgp/selection.hpp"

#include <algorithm>
#include <limits>
#include <optional>

namespace ibgp::bgp {

namespace {

// Every rule returns at once on a set of at most one route, which no rule
// can narrow: on the paper's oscillating figures about a third of all
// selections start with one usable route.

/// Keeps only the elements of `views` minimizing key(view).
template <typename Key>
void keep_min(std::vector<RouteView>& views, Key key) {
  if (views.size() <= 1) return;
  auto best = key(views.front());
  for (const auto& view : views) best = std::min(best, key(view));
  std::erase_if(views, [&](const RouteView& view) { return key(view) != best; });
}

/// Keeps only the elements maximizing key(view).
template <typename Key>
void keep_max(std::vector<RouteView>& views, Key key) {
  if (views.size() <= 1) return;
  auto best = key(views.front());
  for (const auto& view : views) best = std::max(best, key(view));
  std::erase_if(views, [&](const RouteView& view) { return key(view) != best; });
}

/// The MED elimination group of a route through `as` under `policy`:
/// nullopt = exempt (kIgnore); a shared sentinel group for every
/// kAlwaysCompare AS; the AS itself under kPerNeighborAs.  The sentinel is
/// outside the AsId range so mixes can never collide with a per-AS group.
constexpr std::uint64_t kSharedMedGroup = std::uint64_t{1} << 32;

std::optional<std::uint64_t> med_group(const SelectionPolicy& policy, AsId as) {
  switch (policy.med_mode_for(as)) {
    case MedMode::kIgnore: return std::nullopt;
    case MedMode::kAlwaysCompare: return kSharedMedGroup;
    case MedMode::kPerNeighborAs: return as;
  }
  return as;
}

/// One MED elimination group's minimum MED so far.
struct GroupMin {
  std::uint64_t group = 0;
  Med med = 0;
};

/// Selection scratch, one set per thread (sweeps run cells on worker
/// threads): the usable routes being filtered and the per-group minimum
/// MEDs.  Both keep their capacity between calls.
struct Scratch {
  std::vector<RouteView> views;
  std::vector<GroupMin> group_min;
};

Scratch& scratch() {
  thread_local Scratch buffers;
  return buffers;
}

/// Rule 3 over an arbitrary range: computes per-group minimum MEDs with
/// `as_of`/`med_of` accessors, then erases non-minimal members.  Exempt
/// (kIgnore) members never participate and are never erased.  A selection
/// meets few neighbor ASes, so the minima sit in a flat array searched
/// linearly.
template <typename Seq, typename AsOf, typename MedOf>
void med_eliminate_range(Seq& items, const SelectionPolicy& policy, AsOf as_of,
                         MedOf med_of) {
  if (items.size() <= 1) return;
  std::vector<GroupMin>& group_min = scratch().group_min;
  group_min.clear();
  const auto find = [&](std::uint64_t group) {
    return std::find_if(group_min.begin(), group_min.end(),
                        [group](const GroupMin& entry) { return entry.group == group; });
  };
  for (const auto& item : items) {
    const auto group = med_group(policy, as_of(item));
    if (!group) continue;
    const auto it = find(*group);
    if (it == group_min.end()) {
      group_min.push_back({*group, med_of(item)});
    } else {
      it->med = std::min(it->med, med_of(item));
    }
  }
  std::erase_if(items, [&](const auto& item) {
    const auto group = med_group(policy, as_of(item));
    if (!group) return false;
    return med_of(item) != find(*group)->med;
  });
}

/// Rule 4: when any E-BGP route survives, I-BGP routes are out.
void keep_ebgp(std::vector<RouteView>& views) {
  if (views.size() <= 1) return;
  const bool any_ebgp =
      std::any_of(views.begin(), views.end(), [](const RouteView& v) { return v.is_ebgp; });
  if (any_ebgp) {
    std::erase_if(views, [](const RouteView& v) { return !v.is_ebgp; });
  }
}

std::vector<PathId> ids_of(const std::vector<RouteView>& views) {
  std::vector<PathId> ids;
  ids.reserve(views.size());
  for (const auto& view : views) ids.push_back(view.path);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

void choose_survivors(const ExitTable& table, std::span<const PathId> paths,
                      const SelectionPolicy& policy, std::vector<PathId>& out) {
  out.clear();
  if (paths.empty()) return;

  // Rule 1: highest LOCAL-PREF.
  LocalPref best_lp = 0;
  for (const PathId id : paths) best_lp = std::max(best_lp, table[id].local_pref);
  for (const PathId id : paths) {
    if (table[id].local_pref == best_lp) out.push_back(id);
  }

  // Rule 2: shortest AS-path.
  std::uint32_t best_len = std::numeric_limits<std::uint32_t>::max();
  for (const PathId id : out) best_len = std::min(best_len, table[id].as_path_length);
  std::erase_if(out, [&](PathId id) { return table[id].as_path_length != best_len; });

  // Rule 3: MED elimination under the (possibly mixed) regime.
  med_eliminate_range(
      out, policy, [&](PathId id) { return table[id].next_as; },
      [&](PathId id) { return table[id].med; });

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::optional<RouteView> make_route_view(const ExitTable& table,
                                         const netsim::ShortestPaths& igp, NodeId u,
                                         const Candidate& candidate) {
  const ExitPath& path = table[candidate.path];
  if (!igp.reachable(u, path.exit_point)) return std::nullopt;
  RouteView view;
  view.path = candidate.path;
  view.metric = igp.cost(u, path.exit_point) + path.exit_cost;
  view.learned_from = candidate.learned_from;
  view.is_ebgp = (path.exit_point == u);
  return view;
}

namespace {

/// Fills `views` with the candidates whose exit point u can reach.
void usable_views(const ExitTable& table, const netsim::ShortestPaths& igp, NodeId u,
                  std::span<const Candidate> candidates, std::vector<RouteView>& views) {
  views.clear();
  for (const auto& candidate : candidates) {
    if (auto view = make_route_view(table, igp, u, candidate)) views.push_back(*view);
  }
}

// The rule cascade, specialized at compile time on whether a provenance
// record is attached.  choose_best runs on every reconsideration of every
// node of every cell of a sweep; when no sink is attached (Walton's per-AS
// sub-selections, fixed-point search, stable-configuration enumeration) the
// kProvenance=false instantiation carries zero counting code instead of a
// provenance branch per rule.
template <bool kProvenance>
std::optional<RouteView> finish(const ExitTable& table, std::vector<RouteView>& views,
                                const SelectionPolicy& policy,
                                SelectionExplanation* explanation,
                                SelectionProvenance* provenance) {
  auto record = [&](const char* stage) {
    if (explanation != nullptr) explanation->stages.emplace_back(stage, ids_of(views));
  };
  if constexpr (kProvenance) provenance->usable = views.size();
  // Charges `before - views.size()` eliminations to `rule`; the last rule
  // that narrows the set is the decisive one.
  auto charge = [&]([[maybe_unused]] SelectionRule rule, [[maybe_unused]] std::size_t before) {
    if constexpr (kProvenance) {
      if (views.size() >= before) return;
      provenance->eliminated[rule_index(rule)] +=
          static_cast<std::uint32_t>(before - views.size());
      provenance->decisive = rule;
    }
  };
  record("input (usable)");

  // Rule 1.
  std::size_t before = views.size();
  keep_max(views, [&](const RouteView& v) { return table[v.path].local_pref; });
  charge(SelectionRule::kLocalPref, before);
  record("rule 1: max LOCAL-PREF");

  // Rule 2.
  before = views.size();
  keep_min(views, [&](const RouteView& v) { return table[v.path].as_path_length; });
  charge(SelectionRule::kAsPathLength, before);
  record("rule 2: min AS-path length");

  // Rule 3.
  before = views.size();
  med_eliminate_range(
      views, policy, [&](const RouteView& v) { return table[v.path].next_as; },
      [&](const RouteView& v) { return table[v.path].med; });
  charge(SelectionRule::kMed, before);
  record("rule 3: per-AS MED elimination");

  // Rules 4-6 (rules 4 and 5 swap under the RFC ordering; footnote 4).
  if (policy.order == RuleOrder::kPreferEbgpFirst) {
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
  record("rules 4-6: E-BGP/IGP-cost/BGP-id");

  if (views.empty()) return std::nullopt;
  // learned_from is usually unique by now; break pathological duplicate
  // announcements by path id for full determinism.
  const auto best =
      std::min_element(views.begin(), views.end(), [](const RouteView& a, const RouteView& b) {
        return a.path < b.path;
      });
  if constexpr (kProvenance) {
    if (views.size() > 1) {
      provenance->eliminated[rule_index(SelectionRule::kPathIdTieBreak)] +=
          static_cast<std::uint32_t>(views.size() - 1);
      provenance->decisive = SelectionRule::kPathIdTieBreak;
    }
    provenance->selected = true;
  }
  return *best;
}

}  // namespace

std::string_view selection_rule_name(SelectionRule rule) {
  switch (rule) {
    case SelectionRule::kSoleCandidate: return "sole-candidate";
    case SelectionRule::kLocalPref: return "local-pref";
    case SelectionRule::kAsPathLength: return "as-path-length";
    case SelectionRule::kMed: return "med";
    case SelectionRule::kEbgpOverIbgp: return "ebgp-over-ibgp";
    case SelectionRule::kIgpCost: return "igp-cost";
    case SelectionRule::kBgpIdTieBreak: return "bgp-id-tie-break";
    case SelectionRule::kPathIdTieBreak: return "path-id-tie-break";
  }
  return "?";
}

std::optional<RouteView> choose_best(const ExitTable& table, const netsim::ShortestPaths& igp,
                                     NodeId u, std::span<const Candidate> candidates,
                                     const SelectionPolicy& policy,
                                     SelectionProvenance* provenance) {
  std::vector<RouteView>& views = scratch().views;
  usable_views(table, igp, u, candidates, views);
  if (provenance != nullptr) {
    *provenance = SelectionProvenance{};
    provenance->candidates = candidates.size();
    provenance->unreachable = candidates.size() - views.size();
    return finish<true>(table, views, policy, nullptr, provenance);
  }
  return finish<false>(table, views, policy, nullptr, nullptr);
}

SelectionExplanation explain_selection(const ExitTable& table,
                                       const netsim::ShortestPaths& igp, NodeId u,
                                       std::span<const Candidate> candidates,
                                       const SelectionPolicy& policy) {
  SelectionExplanation explanation;
  std::vector<RouteView> views;
  usable_views(table, igp, u, candidates, views);
  explanation.best = finish<false>(table, views, policy, &explanation, nullptr);
  return explanation;
}

}  // namespace ibgp::bgp
