#pragma once
// The synchronous engine: a faithful executable of Section 4's operational
// semantics.
//
// State per node u at (virtual) time t:
//   PossibleExits(u,t) — exit paths visible to u, each with learnedFrom,
//   BestRoute(u,t)     — Choose_best over the protocol-visible candidates,
//   Advertised(u,t)    — what u offers to peers (protocol-dependent; the
//                        Transfer relation filters per receiving peer).
//
// One step with activation set sigma: every u in sigma simultaneously
// recomputes
//   PossibleExits(u,t) = MyExits(u)  union  U_v Transfer_{v->u}(Advertised(v, t-1))
// and re-decides; nodes outside sigma keep their state.  The recomputation
// is from scratch (the model is memoryless), which is what makes withdrawn
// routes flush (Lemma 7.2).
//
// learnedFrom determinism: a path obtainable from several peers in the same
// step is attributed to the advertising peer with the lowest BGP identifier;
// a node's own exits are attributed to their E-BGP peer.  Under the formal
// Transfer relation a node never receives its own exit back, so the two
// cases never collide.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/selection.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "engine/activation.hpp"
#include "util/types.hpp"

namespace ibgp::engine {

class SyncEngine {
 public:
  /// Starts from config(0): every exit announced, every node empty-handed
  /// (BestRoute = none, PossibleExits = MyExits discovered on first
  /// activation).
  SyncEngine(const core::Instance& inst, core::ProtocolKind protocol);

  [[nodiscard]] const core::Instance& instance() const { return *inst_; }
  [[nodiscard]] core::ProtocolKind protocol() const { return protocol_; }

  /// Per-node protocol override: the Section 10 "trigger the extra routes
  /// only when oscillation is detected" deployment runs most nodes on the
  /// standard protocol and upgrades flapping ones to the modified protocol.
  void set_node_protocol(NodeId v, core::ProtocolKind kind) { node_protocol_.at(v) = kind; }

  // --- E-BGP dynamics -----------------------------------------------------

  /// Withdraws an exit path: it leaves MyExits(exitPoint) and will be
  /// flushed from the system by subsequent activations (Lemma 7.2).
  void withdraw_exit(PathId p);

  /// (Re-)announces a withdrawn exit path.
  void announce_exit(PathId p);

  /// Ids of currently announced exits, ascending.
  [[nodiscard]] std::vector<PathId> announced_exits() const;

  /// Simulates a crash: the node forgets all BGP state and stops advertising
  /// until its next activation (its E-BGP sessions are assumed to re-deliver
  /// MyExits on restart).
  void crash_node(NodeId v);

  // --- stepping -----------------------------------------------------------

  /// Executes one activation step.  Returns true iff any activated node's
  /// state changed.
  bool step(const ActivationSet& sigma);

  /// Total steps executed so far.
  [[nodiscard]] std::size_t steps() const { return steps_; }

  // --- state inspection ---------------------------------------------------

  /// PossibleExits(v) with learnedFrom attribution, sorted by path id.
  [[nodiscard]] std::span<const bgp::Candidate> possible(NodeId v) const {
    return nodes_.at(v).possible;
  }

  /// Bare path ids of PossibleExits(v), ascending.
  [[nodiscard]] std::vector<PathId> possible_ids(NodeId v) const;

  [[nodiscard]] const std::optional<bgp::RouteView>& best(NodeId v) const {
    return nodes_.at(v).best;
  }

  /// The advertised set (GoodExits for the modified protocol), ascending.
  [[nodiscard]] std::span<const PathId> advertised(NodeId v) const {
    return nodes_.at(v).advertised;
  }

  /// Exit path id of v's best route, or kNoPath.
  [[nodiscard]] PathId best_path(NodeId v) const {
    const auto& best = nodes_.at(v).best;
    return best ? best->path : kNoPath;
  }

  /// Order-sensitive fingerprint of the entire routing configuration
  /// (possible sets with attribution, best routes, advertised sets).
  [[nodiscard]] std::uint64_t state_hash() const;

  /// Cumulative count of best-route changes across all nodes ("route flaps").
  [[nodiscard]] std::size_t best_flips() const { return best_flips_; }

  /// Per-node count of best-route changes.
  [[nodiscard]] std::span<const std::size_t> best_flips_by_node() const {
    return flips_by_node_;
  }

 private:
  struct NodeState {
    std::vector<bgp::Candidate> possible;  // sorted by path id
    std::optional<bgp::RouteView> best;
    std::vector<PathId> advertised;  // ascending

    friend bool operator==(const NodeState&, const NodeState&) = default;
  };

  [[nodiscard]] NodeState recompute(NodeId u) const;

  const core::Instance* inst_;
  core::ProtocolKind protocol_;
  std::vector<core::ProtocolKind> node_protocol_;
  std::vector<NodeState> nodes_;
  std::vector<bool> announced_;
  std::size_t steps_ = 0;
  std::size_t best_flips_ = 0;
  std::vector<std::size_t> flips_by_node_;
};

}  // namespace ibgp::engine
