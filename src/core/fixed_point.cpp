#include "core/fixed_point.hpp"

#include <algorithm>
#include <limits>

#include "core/transfer.hpp"

namespace ibgp::core {

FixedPointPrediction predict_fixed_point(const Instance& inst,
                                         std::span<const PathId> announced) {
  const std::size_t n = inst.node_count();
  FixedPointPrediction prediction;
  bgp::choose_survivors(inst.exits(), announced, inst.policy(), prediction.s_prime);

  // Reachability closure of S' members over the Transfer relation: has[u][p]
  // becomes true when u's own E-BGP learned p or some peer that has p may
  // transfer it to u.  (Non-S' paths are not re-advertised at the fixed
  // point, so only MyExits contributes them.)
  std::vector<std::vector<bool>> has(n);
  for (auto& row : has) row.assign(inst.exits().size(), false);
  for (const PathId p : announced) has[inst.exits()[p].exit_point][p] = true;

  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId u = 0; u < n; ++u) {
      for (const PathId p : prediction.s_prime) {
        if (has[u][p]) continue;
        for (const NodeId v : inst.sessions().peers(u)) {
          if (has[v][p] && transfer_allowed(inst, v, u, p)) {
            has[u][p] = true;
            changed = true;
            break;
          }
        }
      }
    }
  }

  prediction.possible.resize(n);
  prediction.best.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    for (PathId p = 0; p < inst.exits().size(); ++p) {
      if (has[u][p]) prediction.possible[u].push_back(p);
    }

    // BestRoute(u) = best_u(route(GoodExits(u), u)) with GoodExits(u) = S'
    // (restricted to what is visible at u — for valid instances every S'
    // member is visible everywhere; the restriction matters only for
    // degenerate disconnected inputs).
    std::vector<bgp::Candidate> candidates;
    for (const PathId p : prediction.s_prime) {
      if (!has[u][p]) continue;
      const auto& path = inst.exits()[p];
      bgp::Candidate candidate;
      candidate.path = p;
      if (path.exit_point == u) {
        candidate.learned_from = path.ebgp_peer;
      } else {
        BgpId lowest = std::numeric_limits<BgpId>::max();
        for (const NodeId v : inst.sessions().peers(u)) {
          if (has[v][p] && transfer_allowed(inst, v, u, p)) {
            lowest = std::min(lowest, inst.bgp_id(v));
          }
        }
        candidate.learned_from = lowest;
      }
      candidates.push_back(candidate);
    }
    prediction.best[u] =
        bgp::choose_best(inst.exits(), inst.igp(), u, candidates, inst.policy());
  }
  return prediction;
}

FixedPointPrediction predict_fixed_point(const Instance& inst) {
  std::vector<PathId> all;
  all.reserve(inst.exits().size());
  for (PathId p = 0; p < inst.exits().size(); ++p) all.push_back(p);
  return predict_fixed_point(inst, all);
}

}  // namespace ibgp::core
