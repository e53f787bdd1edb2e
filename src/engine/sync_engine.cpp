#include "engine/sync_engine.hpp"

#include <algorithm>
#include <limits>

#include "core/transfer.hpp"
#include "util/hash.hpp"

namespace ibgp::engine {

SyncEngine::SyncEngine(const core::Instance& inst, core::ProtocolKind protocol)
    : inst_(&inst),
      protocol_(protocol),
      node_protocol_(inst.node_count(), protocol),
      nodes_(inst.node_count()),
      announced_(inst.exits().size(), true),
      flips_by_node_(inst.node_count(), 0) {}

void SyncEngine::withdraw_exit(PathId p) { announced_.at(p) = false; }

void SyncEngine::announce_exit(PathId p) { announced_.at(p) = true; }

std::vector<PathId> SyncEngine::announced_exits() const {
  std::vector<PathId> out;
  for (PathId p = 0; p < announced_.size(); ++p) {
    if (announced_[p]) out.push_back(p);
  }
  return out;
}

void SyncEngine::crash_node(NodeId v) { nodes_.at(v) = NodeState{}; }

SyncEngine::NodeState SyncEngine::recompute(NodeId u) const {
  // PossibleExits(u) = MyExits(u) ∪ ⋃_v Transfer_{v→u}(Advertised(v)),
  // with learnedFrom = min BGP id over supplying peers.
  constexpr BgpId kUnset = std::numeric_limits<BgpId>::max();
  std::vector<BgpId> learned(inst_->exits().size(), kUnset);
  std::vector<bool> mine(inst_->exits().size(), false);

  for (const auto& path : inst_->exits().all()) {
    if (path.exit_point == u && announced_[path.id]) {
      mine[path.id] = true;
      learned[path.id] = path.ebgp_peer;
    }
  }
  for (const NodeId v : inst_->sessions().peers(u)) {
    for (const PathId p : nodes_[v].advertised) {
      if (!core::transfer_allowed(*inst_, v, u, p)) continue;
      if (mine[p]) continue;  // cannot happen under the formal Transfer; guard anyway
      learned[p] = std::min(learned[p], inst_->bgp_id(v));
    }
  }

  NodeState state;
  for (PathId p = 0; p < learned.size(); ++p) {
    if (learned[p] != kUnset) state.possible.push_back({p, learned[p]});
  }
  core::NodeDecision decision;
  core::decide(*inst_, inst_->igp(), node_protocol_[u], u, state.possible, decision);
  state.best = decision.best;
  state.advertised = std::move(decision.advertised);
  return state;
}

bool SyncEngine::step(const ActivationSet& sigma) {
  ++steps_;
  // Simultaneous semantics: compute every new state from the pre-step
  // configuration, then commit.
  std::vector<std::pair<NodeId, NodeState>> updates;
  updates.reserve(sigma.size());
  for (const NodeId u : sigma) updates.emplace_back(u, recompute(u));

  bool changed = false;
  for (auto& [u, state] : updates) {
    if (state == nodes_[u]) continue;
    changed = true;
    const PathId old_best = nodes_[u].best ? nodes_[u].best->path : kNoPath;
    const PathId new_best = state.best ? state.best->path : kNoPath;
    if (old_best != new_best) {
      ++best_flips_;
      ++flips_by_node_[u];
    }
    nodes_[u] = std::move(state);
  }
  return changed;
}

std::vector<PathId> SyncEngine::possible_ids(NodeId v) const {
  std::vector<PathId> out;
  out.reserve(nodes_.at(v).possible.size());
  for (const auto& candidate : nodes_[v].possible) out.push_back(candidate.path);
  return out;
}

std::uint64_t SyncEngine::state_hash() const {
  util::Fingerprint fp;
  for (const auto& node : nodes_) {
    fp.add(0xA11CE);  // node separator
    for (const auto& candidate : node.possible) {
      fp.add(candidate.path).add(candidate.learned_from);
    }
    fp.add(0xBE57);
    if (node.best) {
      fp.add(node.best->path).add(static_cast<std::uint64_t>(node.best->metric));
      fp.add(node.best->learned_from);
    } else {
      fp.add(0xDEAD);
    }
    fp.add(0xAD5);
    for (const PathId p : node.advertised) fp.add(p);
  }
  for (const bool a : announced_) fp.add(a ? 1 : 0);
  for (const auto kind : node_protocol_) fp.add(static_cast<std::uint64_t>(kind));
  return fp.value();
}

}  // namespace ibgp::engine
