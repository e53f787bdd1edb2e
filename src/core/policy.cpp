#include "core/policy.hpp"

#include <algorithm>
#include <tuple>

namespace ibgp::core {

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kStandard: return "standard";
    case ProtocolKind::kWalton: return "walton";
    case ProtocolKind::kModified: return "modified";
  }
  return "?";
}

namespace {

/// Per-thread decide scratch (sweeps run cells on worker threads): the
/// candidate paths fed to Choose^B, and the candidates a protocol selects
/// over — GoodExits, or Walton's candidates sorted by neighboring AS.
struct Scratch {
  std::vector<PathId> ids;
  std::vector<bgp::Candidate> candidates;
};

Scratch& scratch() {
  thread_local Scratch buffers;
  return buffers;
}

}  // namespace

void walton_advertised(const Instance& inst, const netsim::ShortestPaths& igp, NodeId node,
                       std::span<const bgp::Candidate> possible,
                       const std::optional<bgp::RouteView>& overall,
                       std::vector<PathId>& out) {
  out.clear();
  if (!overall) return;
  const auto& table = inst.exits();
  const LocalPref best_lp = table[overall->path].local_pref;
  const std::uint32_t best_len = table[overall->path].as_path_length;

  // Group candidates by neighboring AS with one sort on (next AS, path,
  // learnedFrom); the copies keep the attribution the per-AS selection needs.
  auto& sorted = scratch().candidates;
  sorted.assign(possible.begin(), possible.end());
  const auto key = [&](const bgp::Candidate& c) {
    return std::tuple(table[c.path].next_as, c.path, c.learned_from);
  };
  std::sort(sorted.begin(), sorted.end(),
            [&](const bgp::Candidate& a, const bgp::Candidate& b) { return key(a) < key(b); });

  for (auto first = sorted.begin(); first != sorted.end();) {
    const AsId as = table[first->path].next_as;
    const auto last = std::find_if(first, sorted.end(), [&](const bgp::Candidate& c) {
      return table[c.path].next_as != as;
    });
    const auto group_best =
        bgp::choose_best(table, igp, node, std::span(first, last), inst.policy());
    first = last;
    if (!group_best) continue;
    // Only announced when it matches the overall best's LOCAL-PREF and
    // AS-path length (Section 8, "Brief Overview of the Walton et al.
    // Solution").
    const auto& path = table[group_best->path];
    if (path.local_pref == best_lp && path.as_path_length == best_len) {
      out.push_back(group_best->path);
    }
  }
  // One path per AS group, so the set holds no duplicates.
  std::sort(out.begin(), out.end());
}

void decide(const Instance& inst, const netsim::ShortestPaths& igp, ProtocolKind kind,
            NodeId node, std::span<const bgp::Candidate> possible, NodeDecision& out,
            bgp::SelectionProvenance* provenance) {
  const auto& table = inst.exits();
  out.advertised.clear();

  switch (kind) {
    case ProtocolKind::kStandard: {
      out.best = bgp::choose_best(table, igp, node, possible, inst.policy(), provenance);
      if (out.best) out.advertised.push_back(out.best->path);
      break;
    }
    case ProtocolKind::kWalton: {
      out.best = bgp::choose_best(table, igp, node, possible, inst.policy(), provenance);
      walton_advertised(inst, igp, node, possible, out.best, out.advertised);
      break;
    }
    case ProtocolKind::kModified: {
      // GoodExits = Choose^B(PossibleExits): rules 1-3 over bare paths.
      auto& ids = scratch().ids;
      ids.clear();
      for (const auto& candidate : possible) ids.push_back(candidate.path);
      bgp::choose_survivors(table, ids, inst.policy(), out.advertised);

      // BestRoute is chosen from GoodExits (Section 6), so restrict the
      // candidate set to the survivors while keeping learnedFrom intact.
      auto& good = scratch().candidates;
      good.clear();
      for (const auto& candidate : possible) {
        if (std::binary_search(out.advertised.begin(), out.advertised.end(),
                               candidate.path)) {
          good.push_back(candidate);
        }
      }
      out.best = bgp::choose_best(table, igp, node, good, inst.policy(), provenance);
      break;
    }
  }
}

}  // namespace ibgp::core
