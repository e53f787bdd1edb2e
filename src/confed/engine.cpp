#include "confed/engine.hpp"

#include <algorithm>
#include <limits>

#include "util/rng.hpp"

namespace ibgp::confed {

ConfedEngine::ConfedEngine(const ConfedInstance& inst, ConfedProtocol protocol,
                           DelayFn delay)
    : inst_(&inst),
      protocol_(protocol),
      delay_(delay ? std::move(delay)
                   : [](NodeId, NodeId, std::uint64_t) -> SimTime { return 1; }),
      nodes_(inst.node_count()),
      flips_by_node_(inst.node_count(), 0) {
  for (auto& node : nodes_) node.own.assign(inst.exits().size(), false);
}

void ConfedEngine::inject_exit(PathId p, SimTime when) {
  Event event;
  event.time = when;
  event.seq = next_seq_++;
  event.kind = Event::Kind::kInject;
  event.to = inst_->exits()[p].exit_point;
  event.path = p;
  queue_.push(event);
}

void ConfedEngine::inject_all_exits(SimTime when) {
  for (PathId p = 0; p < inst_->exits().size(); ++p) inject_exit(p, when);
}

void ConfedEngine::withdraw_exit(PathId p, SimTime when) {
  Event event;
  event.time = when;
  event.seq = next_seq_++;
  event.kind = Event::Kind::kWithdrawExit;
  event.to = inst_->exits()[p].exit_point;
  event.path = p;
  queue_.push(event);
}

std::optional<ConfedEngine::View> ConfedEngine::view_of(NodeId u, PathId p) const {
  const NodeState& node = nodes_[u];
  if (node.own[p]) {
    View view;
    view.route_class = RouteClass::kOwnEbgp;
    view.learned_from = inst_->exits()[p].ebgp_peer;
    view.confed_path = nullptr;
    return view;
  }
  // Attribution among copies: prefer the SHORTEST AS_CONFED_SEQUENCE (the
  // most direct copy — its presence depends only on the most direct
  // propagation chain, so the chosen copy is stable while longer echoes come
  // and go; preferring by class/peer first makes two borders re-attribute
  // each other's echoes forever and livelocks the advertisement diffs).
  // Ties break by class, then lowest BGP id — fully deterministic.
  std::optional<View> best;
  std::size_t best_len = std::numeric_limits<std::size_t>::max();
  RouteClass best_class = RouteClass::kInternal;
  BgpId best_id = std::numeric_limits<BgpId>::max();
  for (const auto& [peer, table] : node.rib_in) {
    const auto it = table.find(p);
    if (it == table.end()) continue;
    const RouteClass route_class = inst_->is_border_session(u, peer)
                                       ? RouteClass::kConfedExternal
                                       : RouteClass::kInternal;
    const BgpId id = inst_->bgp_id(peer);
    const std::size_t len = it->second.confed_path.size();
    if (!best || len < best_len || (len == best_len && route_class < best_class) ||
        (len == best_len && route_class == best_class && id < best_id)) {
      best = View{route_class, id, &it->second.confed_path};
      best_len = len;
      best_class = route_class;
      best_id = id;
    }
  }
  return best;
}

std::optional<PathId> ConfedEngine::select_best(
    NodeId u, std::span<const PathId> candidates) const {
  // Rules 1-3 are attribute-only.
  std::vector<PathId> survivors;
  bgp::choose_survivors(inst_->exits(), candidates, inst_->policy(), survivors);

  // Rules 4-6 with the IOS confederation semantics: own E-BGP routes beat
  // everything; confed-external and internal routes compare by IGP metric to
  // the exit point (the confed class is NOT "external" for rule 4).
  std::optional<PathId> best;
  bool best_own = false;
  Cost best_metric = kInfCost;
  BgpId best_id = std::numeric_limits<BgpId>::max();
  for (const PathId p : survivors) {
    const auto view = view_of(u, p);
    if (!view) continue;
    const auto& path = inst_->exits()[p];
    if (!inst_->igp().reachable(u, path.exit_point)) continue;
    const Cost metric = inst_->igp().cost(u, path.exit_point) + path.exit_cost;
    const bool own = view->route_class == RouteClass::kOwnEbgp;
    const BgpId id = view->learned_from;

    bool better = false;
    if (!best) {
      better = true;
    } else if (own != best_own) {
      better = own;
    } else if (metric != best_metric) {
      better = metric < best_metric;
    } else if (id != best_id) {
      better = id < best_id;
    } else {
      better = p < *best;
    }
    if (better) {
      best = p;
      best_own = own;
      best_metric = metric;
      best_id = id;
    }
  }
  return best;
}

std::vector<PathId> ConfedEngine::advertised_set(NodeId u,
                                                 std::span<const PathId> visible) const {
  if (protocol_ == ConfedProtocol::kModified) {
    std::vector<PathId> survivors;
    bgp::choose_survivors(inst_->exits(), visible, inst_->policy(), survivors);
    return survivors;
  }
  const auto best = select_best(u, visible);
  if (!best) return {};
  return {*best};
}

bool ConfedEngine::may_send(NodeId u, NodeId peer, PathId p) const {
  const auto view = view_of(u, p);
  if (!view) return false;
  if (inst_->exits()[p].exit_point == peer) return false;

  if (inst_->is_border_session(u, peer)) {
    // Confed-E-BGP: anything goes, except announcements whose extended
    // AS_CONFED_SEQUENCE would loop through the receiver's sub-AS.
    if (view->confed_path != nullptr) {
      const SubAsId target = inst_->sub_as_of(peer);
      for (const SubAsId s : *view->confed_path) {
        if (s == target) return false;
      }
    }
    return true;
  }
  // Sub-AS mesh: classic I-BGP — never re-forward mesh-learned routes.
  return view->route_class != RouteClass::kInternal;
}

void ConfedEngine::enqueue_update(NodeId from, NodeId to, PathId p, bool announce,
                                  SimTime now) {
  Event event;
  event.kind = Event::Kind::kUpdate;
  event.from = from;
  event.to = to;
  event.path = p;
  event.announce = announce;
  event.seq = next_seq_++;
  if (announce) {
    const auto view = view_of(from, p);
    if (view && view->confed_path != nullptr) event.confed_path = *view->confed_path;
    if (inst_->is_border_session(from, to)) {
      event.confed_path.push_back(inst_->sub_as_of(from));
    }
  }
  SimTime& last = session_last_[{from, to}];
  event.time = std::max(now + delay_(from, to, next_seq_), last);
  last = event.time;
  queue_.push(event);
  ++updates_sent_;
}

void ConfedEngine::reconsider(NodeId u, SimTime now) {
  NodeState& node = nodes_[u];

  std::vector<PathId> visible;
  for (PathId p = 0; p < inst_->exits().size(); ++p) {
    if (node.own[p] || view_of(u, p)) visible.push_back(p);
  }

  const auto best = select_best(u, visible);
  const PathId old_best = node.best ? *node.best : kNoPath;
  const PathId new_best = best ? *best : kNoPath;
  if (old_best != new_best) {
    ++best_flips_;
    ++flips_by_node_[u];
  }
  node.best = best;

  const auto advertised = advertised_set(u, visible);
  for (const NodeId peer : inst_->peers(u)) {
    std::vector<PathId> target;
    for (const PathId p : advertised) {
      if (may_send(u, peer, p)) target.push_back(p);
    }
    std::vector<PathId>& current = node.advertised_out[peer];
    for (const PathId p : current) {
      if (!std::binary_search(target.begin(), target.end(), p)) {
        enqueue_update(u, peer, p, /*announce=*/false, now);
      }
    }
    for (const PathId p : target) {
      if (!std::binary_search(current.begin(), current.end(), p)) {
        enqueue_update(u, peer, p, /*announce=*/true, now);
      }
    }
    current = std::move(target);
  }
}

ConfedEngine::Result ConfedEngine::run(std::size_t max_deliveries) {
  Result result;
  while (!queue_.empty() && result.deliveries < max_deliveries) {
    const Event event = queue_.top();
    queue_.pop();
    ++result.deliveries;

    switch (event.kind) {
      case Event::Kind::kInject:
        nodes_[event.to].own[event.path] = true;
        reconsider(event.to, event.time);
        break;
      case Event::Kind::kWithdrawExit:
        nodes_[event.to].own[event.path] = false;
        reconsider(event.to, event.time);
        break;
      case Event::Kind::kUpdate: {
        NodeState& node = nodes_[event.to];
        if (event.announce) {
          // AS_CONFED_SEQUENCE loop detection, receiver side.
          bool loops = false;
          for (const SubAsId s : event.confed_path) {
            if (s == inst_->sub_as_of(event.to)) loops = true;
          }
          if (loops) {
            node.rib_in[event.from].erase(event.path);
          } else {
            node.rib_in[event.from][event.path] = Copy{event.confed_path};
          }
        } else {
          node.rib_in[event.from].erase(event.path);
        }
        reconsider(event.to, event.time);
        break;
      }
    }
  }

  result.converged = queue_.empty();
  result.updates_sent = updates_sent_;
  result.best_flips = best_flips_;
  for (NodeId v = 0; v < nodes_.size(); ++v) result.final_best.push_back(best_path(v));
  return result;
}

ConfedInstance rfc3345_confederation() {
  // Fig 1(a) with clusters replaced by member sub-ASes: border routers A and
  // B in place of the route reflectors; exits and metrics unchanged.
  netsim::PhysicalGraph physical(5);
  const NodeId a = 0, c1 = 1, c2 = 2, b = 3, c3 = 4;
  physical.add_link(a, c1, 5);
  physical.add_link(a, c2, 4);
  physical.add_link(a, c3, 13);
  physical.add_link(a, b, 6);
  physical.add_link(b, c3, 12);

  std::vector<SubAsId> sub_as{0, 0, 0, 1, 1};

  bgp::ExitTable exits;
  bgp::ExitPath r1;
  r1.name = "r1";
  r1.exit_point = c1;
  r1.next_as = 1;
  r1.med = 0;
  r1.ebgp_peer = 1001;
  exits.add(r1);
  bgp::ExitPath r2;
  r2.name = "r2";
  r2.exit_point = c2;
  r2.next_as = 2;
  r2.med = 10;
  r2.ebgp_peer = 1002;
  exits.add(r2);
  bgp::ExitPath r3;
  r3.name = "r3";
  r3.exit_point = c3;
  r3.next_as = 2;
  r3.med = 0;
  r3.ebgp_peer = 1003;
  exits.add(r3);

  return ConfedInstance("rfc3345-confed", std::move(physical), std::move(sub_as),
                        {{a, b}}, std::move(exits), {},
                        {"A", "c1", "c2", "B", "c3"});
}

ConfedInstance random_confederation(const RandomConfedConfig& config, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);

  // Roster: a chain of sub-ASes, each with 1..max routers.
  std::vector<SubAsId> sub_as_of;
  std::vector<std::vector<NodeId>> members(config.sub_ases);
  std::vector<std::string> names;
  for (SubAsId s = 0; s < config.sub_ases; ++s) {
    const auto count = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(config.min_routers),
                  static_cast<std::int64_t>(config.max_routers)));
    for (std::size_t i = 0; i < count; ++i) {
      members[s].push_back(static_cast<NodeId>(sub_as_of.size()));
      names.push_back("s" + std::to_string(s) + "r" + std::to_string(i));
      sub_as_of.push_back(s);
    }
  }
  const std::size_t n = sub_as_of.size();

  // Physical skeleton: a chain within each sub-AS, chained across sub-AS
  // boundaries, plus random shortcuts.
  netsim::PhysicalGraph physical(n);
  auto rand_cost = [&]() {
    return static_cast<Cost>(rng.range(1, static_cast<std::int64_t>(config.max_link_cost)));
  };
  for (SubAsId s = 0; s < config.sub_ases; ++s) {
    for (std::size_t i = 1; i < members[s].size(); ++i) {
      physical.add_link(members[s][i - 1], members[s][i], rand_cost());
    }
    if (s > 0) physical.add_link(members[s - 1][0], members[s][0], rand_cost());
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (!physical.has_link(a, b) && rng.chance(0.2)) physical.add_link(a, b, rand_cost());
    }
  }

  // Borders: one session between adjacent chain neighbors (random router
  // pair), plus optional extra sessions between random sub-AS pairs.
  std::vector<std::pair<NodeId, NodeId>> borders;
  for (SubAsId s = 1; s < config.sub_ases; ++s) {
    borders.emplace_back(members[s - 1][rng.pick_index(members[s - 1])],
                         members[s][rng.pick_index(members[s])]);
  }
  for (SubAsId a = 0; a < config.sub_ases; ++a) {
    for (SubAsId b = a + 2; b < config.sub_ases; ++b) {
      if (rng.chance(config.extra_border_prob)) {
        borders.emplace_back(members[a][rng.pick_index(members[a])],
                             members[b][rng.pick_index(members[b])]);
      }
    }
  }

  bgp::ExitTable exits;
  for (std::size_t i = 0; i < config.exits; ++i) {
    bgp::ExitPath path;
    path.name = "r" + std::to_string(i + 1);
    path.exit_point = static_cast<NodeId>(rng.below(n));
    path.next_as = static_cast<AsId>(1 + rng.below(std::max<std::size_t>(1, config.neighbor_ases)));
    path.med = static_cast<Med>(rng.range(0, static_cast<std::int64_t>(config.max_med)));
    path.exit_cost = static_cast<Cost>(rng.range(0, static_cast<std::int64_t>(config.max_exit_cost)));
    path.ebgp_peer = static_cast<BgpId>(1000 + i);
    exits.add(std::move(path));
  }

  return ConfedInstance("random-confed-" + std::to_string(seed), std::move(physical),
                        std::move(sub_as_of), std::move(borders), std::move(exits),
                        config.policy, std::move(names));
}

}  // namespace ibgp::confed
