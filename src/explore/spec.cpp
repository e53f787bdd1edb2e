#include "explore/spec.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "topo/builder.hpp"

namespace ibgp::explore {

core::Instance build(const InstanceSpec& spec) {
  topo::InstanceBuilder builder;
  for (std::size_t v = 0; v < spec.nodes.size(); ++v) {
    const NodeSpec& node = spec.nodes[v];
    std::string label = node.label.empty() ? "n" + std::to_string(v) : node.label;
    if (node.reflector) {
      builder.reflector(std::move(label), node.cluster);
    } else {
      builder.client(std::move(label), node.cluster);
    }
  }
  const auto label_of = [&](NodeId v) -> std::string {
    if (v >= spec.nodes.size()) {
      throw std::invalid_argument("InstanceSpec: dangling node id " + std::to_string(v));
    }
    return spec.nodes[v].label.empty() ? "n" + std::to_string(v) : spec.nodes[v].label;
  };
  for (std::size_t v = 0; v < spec.nodes.size(); ++v) {
    builder.bgp_id(label_of(static_cast<NodeId>(v)), spec.nodes[v].bgp_id);
  }
  for (const LinkSpec& link : spec.links) {
    builder.link(label_of(link.a), label_of(link.b), link.cost);
  }
  for (const SessionSpec& session : spec.client_sessions) {
    builder.client_session(label_of(session.a), label_of(session.b));
  }
  for (std::size_t i = 0; i < spec.exits.size(); ++i) {
    const ExitSpec& exit = spec.exits[i];
    topo::ExitSpec out;
    out.name = exit.name.empty() ? "r" + std::to_string(i) : exit.name;
    out.at = label_of(exit.at);
    out.next_as = exit.next_as;
    out.med = exit.med;
    out.local_pref = exit.local_pref;
    out.as_path_length = exit.as_path_length;
    out.exit_cost = exit.exit_cost;
    out.ebgp_peer = exit.ebgp_peer;
    out.communities = exit.communities;
    builder.exit(std::move(out));
  }
  for (const RouteMapSpec& entry : spec.route_maps) {
    builder.route_map(label_of(entry.node), entry.clause);
  }
  return builder.build(spec.name, spec.policy);
}

std::optional<core::Instance> try_build(const InstanceSpec& spec) {
  try {
    return build(spec);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

namespace {

ExitSpec exit_spec(const bgp::ExitPath& path) {
  return {.name = path.name,
          .at = path.exit_point,
          .next_as = path.next_as,
          .med = path.med,
          .local_pref = path.local_pref,
          .as_path_length = path.as_path_length,
          .exit_cost = path.exit_cost,
          .ebgp_peer = path.ebgp_peer,
          .communities = path.communities};
}

}  // namespace

InstanceSpec spec_of(const core::Instance& inst) {
  InstanceSpec spec;
  spec.name = inst.name();
  spec.policy = inst.policy();
  spec.nodes.reserve(inst.node_count());
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    NodeSpec node;
    node.label = inst.node_name(v);
    node.cluster = inst.clusters().cluster_of(v);
    node.reflector = inst.clusters().is_reflector(v);
    node.bgp_id = inst.bgp_id(v);
    spec.nodes.push_back(std::move(node));
  }
  for (const auto& link : inst.physical().links()) {
    spec.links.push_back({link.a, link.b, link.cost});
  }
  for (const auto& edge : inst.sessions().edges()) {
    if (edge.kind == netsim::SessionKind::kClientClient) {
      spec.client_sessions.push_back({edge.u, edge.v});
    }
  }
  for (const auto& path : inst.raw_exits().all()) spec.exits.push_back(exit_spec(path));
  const auto maps = inst.ingress_maps();
  for (NodeId v = 0; v < maps.size(); ++v) {
    for (const auto& clause : maps[v].clauses) {
      spec.route_maps.push_back({v, clause});
    }
  }
  return spec;
}

void normalize_clusters(InstanceSpec& spec) {
  std::vector<netsim::ClusterId> order;
  for (const NodeSpec& node : spec.nodes) {
    if (std::find(order.begin(), order.end(), node.cluster) == order.end()) {
      order.push_back(node.cluster);
    }
  }
  for (NodeSpec& node : spec.nodes) {
    const auto it = std::find(order.begin(), order.end(), node.cluster);
    node.cluster = static_cast<netsim::ClusterId>(it - order.begin());
  }
}

void remove_node(InstanceSpec& spec, NodeId v) {
  if (v >= spec.nodes.size()) return;
  spec.nodes.erase(spec.nodes.begin() + static_cast<std::ptrdiff_t>(v));
  const auto touches = [v](NodeId a, NodeId b) { return a == v || b == v; };
  std::erase_if(spec.links, [&](const LinkSpec& l) { return touches(l.a, l.b); });
  std::erase_if(spec.client_sessions,
                [&](const SessionSpec& s) { return touches(s.a, s.b); });
  std::erase_if(spec.exits, [&](const ExitSpec& e) { return e.at == v; });
  std::erase_if(spec.route_maps, [&](const RouteMapSpec& r) { return r.node == v; });
  const auto remap = [v](NodeId& id) {
    if (id > v) --id;
  };
  for (LinkSpec& l : spec.links) {
    remap(l.a);
    remap(l.b);
  }
  for (SessionSpec& s : spec.client_sessions) {
    remap(s.a);
    remap(s.b);
  }
  for (ExitSpec& e : spec.exits) remap(e.at);
  for (RouteMapSpec& r : spec.route_maps) remap(r.node);
  normalize_clusters(spec);
}

InstanceSpec hybrid_spec(const confed::ConfedInstance& confed) {
  InstanceSpec spec;
  spec.name = confed.name() + "-hybrid";
  spec.policy = confed.policy();

  // Border routers become the reflectors of their sub-AS's cluster.
  std::vector<bool> border(confed.node_count(), false);
  for (NodeId v = 0; v < confed.node_count(); ++v) {
    for (const NodeId peer : confed.peers(v)) {
      if (confed.is_border_session(v, peer)) {
        border[v] = true;
        break;
      }
    }
  }
  // A sub-AS with no border router still needs a reflector: promote its
  // lowest-numbered router.
  std::vector<bool> has_reflector(confed.sub_as_count(), false);
  for (NodeId v = 0; v < confed.node_count(); ++v) {
    if (border[v]) has_reflector[confed.sub_as_of(v)] = true;
  }
  for (NodeId v = 0; v < confed.node_count(); ++v) {
    const auto sub = confed.sub_as_of(v);
    if (!has_reflector[sub]) {
      border[v] = true;
      has_reflector[sub] = true;
    }
  }

  spec.nodes.reserve(confed.node_count());
  for (NodeId v = 0; v < confed.node_count(); ++v) {
    NodeSpec node;
    node.label = confed.node_name(v);
    node.cluster = confed.sub_as_of(v);
    node.reflector = border[v];
    node.bgp_id = confed.bgp_id(v);
    spec.nodes.push_back(std::move(node));
  }
  for (const auto& link : confed.physical().links()) {
    spec.links.push_back({link.a, link.b, link.cost});
  }
  // The intra-sub-AS full mesh: reflector-reflector and client-reflector
  // sessions come with the layout; client pairs need explicit sessions.
  for (NodeId u = 0; u < confed.node_count(); ++u) {
    for (NodeId v = u + 1; v < confed.node_count(); ++v) {
      if (confed.same_sub_as(u, v) && !border[u] && !border[v]) {
        spec.client_sessions.push_back({u, v});
      }
    }
  }
  for (const auto& path : confed.exits().all()) spec.exits.push_back(exit_spec(path));
  return spec;
}

}  // namespace ibgp::explore
