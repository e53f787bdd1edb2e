#include "topo/dsl.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topo/builder.hpp"
#include "util/strings.hpp"

namespace ibgp::topo {

namespace {

using util::parse_i64;
using util::parse_u64;

// Clusters index a per-cluster membership table, so an absurd id from a
// hostile/corrupt file would translate into an absurd allocation.  Real
// instances use a handful of clusters; 4096 is beyond generous.
constexpr std::uint64_t kMaxClusterId = 4096;

// Where an error happened: the source label (file path, corpus entry name,
// or "<topo>" for inline text) plus the 1-based line.
struct LineRef {
  std::string_view source;
  std::size_t line = 0;
};

[[noreturn]] void fail(const LineRef& at, const std::string& message) {
  throw std::runtime_error(std::string(at.source) + ":" + std::to_string(at.line) +
                           ": topo parse error: " + message);
}

std::int64_t need_int(const LineRef& at, std::string_view token, const char* what) {
  const auto value = parse_i64(token);
  if (!value) {
    fail(at, std::string("expected integer for ") + what + ", got '" + std::string(token) +
                 "'");
  }
  return *value;
}

// Link and exit costs are summed along paths, so both must stay below
// kInfCost, the "unreachable" sentinel.
Cost need_cost(const LineRef& at, std::string_view token, const char* what) {
  const Cost value = need_int(at, token, what);
  if (value >= kInfCost) {
    fail(at, std::string(what) + " must be below " + std::to_string(kInfCost) + ", got " +
                 std::string(token));
  }
  return value;
}

// Unsigned fields (node/cluster indices, ids, attribute values) reject
// negatives and anything that would wrap the 32-bit representation instead
// of silently truncating through a cast.
std::uint32_t need_u32(const LineRef& at, std::string_view token, const char* what,
                       std::uint64_t max = 0xFFFFFFFFull) {
  const auto value = parse_u64(token);
  if (!value || *value > max) {
    fail(at, std::string(what) + " must be an integer in [0, " + std::to_string(max) +
                 "], got '" + std::string(token) + "'");
  }
  return static_cast<std::uint32_t>(*value);
}

bgp::MedMode need_med_mode(const LineRef& at, std::string_view token) {
  if (token == "per-as") return bgp::MedMode::kPerNeighborAs;
  if (token == "always") return bgp::MedMode::kAlwaysCompare;
  if (token == "ignore") return bgp::MedMode::kIgnore;
  fail(at, "unknown med mode (want per-as|always|ignore)");
}

const char* med_mode_name(bgp::MedMode mode) {
  switch (mode) {
    case bgp::MedMode::kPerNeighborAs: return "per-as";
    case bgp::MedMode::kAlwaysCompare: return "always";
    case bgp::MedMode::kIgnore: return "ignore";
  }
  return "per-as";
}

// Parses "1,3,17" into a community bitmask (tags are bit positions 0-31).
std::uint32_t need_comm_list(const LineRef& at, std::string_view token) {
  std::uint32_t mask = 0;
  for (std::string_view part : util::split(token, ',')) {
    const auto tag = parse_u64(part);
    if (!tag || *tag >= 32) fail(at, "community tag must be an integer in [0, 32)");
    mask |= 1u << *tag;
  }
  if (mask == 0) fail(at, "empty community list");
  return mask;
}

// Inverse of need_comm_list: "1,3,17" from a bitmask.
std::string comm_list(std::uint32_t mask) {
  std::string out;
  for (std::uint32_t tag = 0; tag < 32; ++tag) {
    if ((mask & (1u << tag)) == 0) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(tag);
  }
  return out;
}

}  // namespace

core::Instance parse_topo(std::string_view text, std::string_view source) {
  InstanceBuilder builder;
  std::string instance_name = "unnamed";
  bgp::SelectionPolicy policy;
  LineRef at{source, 0};
  bool any_node = false;

  for (std::string_view raw_line : util::split(text, '\n')) {
    ++at.line;
    std::string_view line = raw_line;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const auto tokens = util::split_ws(line);
    if (tokens.empty()) continue;
    const std::string_view directive = tokens[0];

    try {
    if (directive == "instance") {
      if (tokens.size() != 2) fail(at, "usage: instance NAME");
      instance_name = std::string(tokens[1]);
    } else if (directive == "policy") {
      for (std::size_t i = 1; i + 1 < tokens.size(); i += 2) {
        if (tokens[i] == "order") {
          if (tokens[i + 1] == "ebgp-first") {
            policy.order = bgp::RuleOrder::kPreferEbgpFirst;
          } else if (tokens[i + 1] == "igp-first") {
            policy.order = bgp::RuleOrder::kIgpCostFirst;
          } else {
            fail(at, "unknown order (want ebgp-first|igp-first)");
          }
        } else if (tokens[i] == "med") {
          policy.med = need_med_mode(at, tokens[i + 1]);
        } else {
          fail(at, "unknown policy key '" + std::string(tokens[i]) + "'");
        }
      }
    } else if (directive == "med-override") {
      if (tokens.size() != 3) fail(at, "usage: med-override AS per-as|always|ignore");
      bgp::MedOverride override;
      override.as = need_u32(at, tokens[1], "as");
      override.mode = need_med_mode(at, tokens[2]);
      policy.med_overrides.push_back(override);
    } else if (directive == "node") {
      if (tokens.size() < 4) fail(at, "usage: node LABEL reflector|client CLUSTER");
      const std::string label(tokens[1]);
      const auto cluster =
          static_cast<netsim::ClusterId>(need_u32(at, tokens[3], "cluster", kMaxClusterId));
      NodeId v = kNoNode;
      if (tokens[2] == "reflector") {
        v = builder.reflector(label, cluster);
      } else if (tokens[2] == "client") {
        v = builder.client(label, cluster);
      } else {
        fail(at, "node role must be reflector|client");
      }
      (void)v;
      any_node = true;
      for (std::size_t i = 4; i + 1 < tokens.size(); i += 2) {
        if (tokens[i] == "bgp-id") {
          builder.bgp_id(label, need_u32(at, tokens[i + 1], "bgp-id"));
        } else {
          fail(at, "unknown node option '" + std::string(tokens[i]) + "'");
        }
      }
    } else if (directive == "link") {
      if (tokens.size() != 4) fail(at, "usage: link A B COST");
      const Cost cost = need_cost(at, tokens[3], "link cost");
      if (cost <= 0) fail(at, "link cost must be positive, got " + std::to_string(cost));
      builder.link(tokens[1], tokens[2], cost);
    } else if (directive == "session") {
      if (tokens.size() != 3) fail(at, "usage: session A B");
      builder.client_session(tokens[1], tokens[2]);
    } else if (directive == "exit") {
      // exit NAME at LABEL as AS [med M] [lp L] [len K] [cost C] [peer P]
      if (tokens.size() < 6 || tokens[2] != "at" || tokens[4] != "as") {
        fail(at, "usage: exit NAME at LABEL as AS [med M] [lp L] [len K] [cost C] [peer P]");
      }
      ExitSpec spec;
      spec.name = std::string(tokens[1]);
      spec.at = std::string(tokens[3]);
      spec.next_as = need_u32(at, tokens[5], "as");
      for (std::size_t i = 6; i + 1 < tokens.size(); i += 2) {
        if (tokens[i] == "med") {
          spec.med = need_u32(at, tokens[i + 1], "med");
        } else if (tokens[i] == "lp") {
          spec.local_pref = need_u32(at, tokens[i + 1], "lp");
        } else if (tokens[i] == "len") {
          spec.as_path_length = need_u32(at, tokens[i + 1], "len");
        } else if (tokens[i] == "cost") {
          spec.exit_cost = need_cost(at, tokens[i + 1], "exit cost");
        } else if (tokens[i] == "peer") {
          spec.ebgp_peer = need_u32(at, tokens[i + 1], "peer");
        } else if (tokens[i] == "comm") {
          spec.communities = need_comm_list(at, tokens[i + 1]);
        } else {
          fail(at, "unknown exit option '" + std::string(tokens[i]) + "'");
        }
      }
      builder.exit(std::move(spec));
    } else if (directive == "route-map") {
      // route-map LABEL [match-as A] [match-comm LIST] [set-lp L] [set-med M]
      //                 [add-comm LIST]
      if (tokens.size() < 4 || tokens.size() % 2 != 0) {
        fail(at,
             "usage: route-map LABEL [match-as A] [match-comm LIST] [set-lp L] [set-med M] "
             "[add-comm LIST]");
      }
      bgp::RouteMapClause clause;
      for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
        if (tokens[i] == "match-as") {
          clause.match_as = need_u32(at, tokens[i + 1], "match-as");
        } else if (tokens[i] == "match-comm") {
          clause.match_communities = need_comm_list(at, tokens[i + 1]);
        } else if (tokens[i] == "set-lp") {
          clause.set_local_pref = need_u32(at, tokens[i + 1], "set-lp");
        } else if (tokens[i] == "set-med") {
          clause.set_med = need_u32(at, tokens[i + 1], "set-med");
        } else if (tokens[i] == "add-comm") {
          clause.add_communities = need_comm_list(at, tokens[i + 1]);
        } else {
          fail(at, "unknown route-map option '" + std::string(tokens[i]) + "'");
        }
      }
      builder.route_map(tokens[1], std::move(clause));
    } else {
      fail(at, "unknown directive '" + std::string(directive) + "'");
    }
    } catch (const std::invalid_argument& e) {
      // Builder errors (unknown labels, duplicate nodes, bad links) get the
      // source:line attached; our own fail() errors pass through unchanged.
      fail(at, e.what());
    } catch (const std::out_of_range& e) {
      fail(at, e.what());
    }
  }

  if (!any_node) {
    throw std::runtime_error(std::string(source) + ": topo parse error: no nodes defined" +
                             (text.empty() ? " (empty input)" : ""));
  }
  return builder.build(instance_name, policy);
}

core::Instance load_topo_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open topo file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_topo(buffer.str(), path);
}

std::string write_topo(const core::Instance& inst) {
  std::ostringstream out;
  out << "# generated by ibgp-rr\n";
  out << "instance " << inst.name() << "\n";
  out << "policy order "
      << (inst.policy().order == bgp::RuleOrder::kPreferEbgpFirst ? "ebgp-first" : "igp-first")
      << " med "
      << med_mode_name(inst.policy().med) << "\n";
  for (const auto& override : inst.policy().med_overrides) {
    out << "med-override " << override.as << ' ' << med_mode_name(override.mode) << "\n";
  }
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    out << "node " << inst.node_name(v) << ' '
        << (inst.clusters().is_reflector(v) ? "reflector" : "client") << ' '
        << inst.clusters().cluster_of(v) << " bgp-id " << inst.bgp_id(v) << "\n";
  }
  for (const auto& link : inst.physical().links()) {
    out << "link " << inst.node_name(link.a) << ' ' << inst.node_name(link.b) << ' '
        << link.cost << "\n";
  }
  for (const auto& edge : inst.sessions().edges()) {
    if (edge.kind == netsim::SessionKind::kClientClient) {
      out << "session " << inst.node_name(edge.u) << ' ' << inst.node_name(edge.v) << "\n";
    }
  }
  // Exits are written with their RAW (pre-route-map) attributes so the maps
  // below are not applied twice on re-parse.
  for (const auto& path : inst.raw_exits().all()) {
    out << "exit " << path.name << " at " << inst.node_name(path.exit_point) << " as "
        << path.next_as << " med " << path.med << " lp " << path.local_pref << " len "
        << path.as_path_length << " cost " << path.exit_cost << " peer " << path.ebgp_peer;
    if (path.communities != 0) out << " comm " << comm_list(path.communities);
    out << "\n";
  }
  const auto maps = inst.ingress_maps();
  for (NodeId v = 0; v < maps.size(); ++v) {
    for (const auto& clause : maps[v].clauses) {
      // An all-empty clause matches everything and changes nothing; it has
      // no serializable body, so drop it (the instance is unaffected).
      if (!clause.match_as && clause.match_communities == 0 && !clause.set_local_pref &&
          !clause.set_med && clause.add_communities == 0) {
        continue;
      }
      out << "route-map " << inst.node_name(v);
      if (clause.match_as) out << " match-as " << *clause.match_as;
      if (clause.match_communities != 0) {
        out << " match-comm " << comm_list(clause.match_communities);
      }
      if (clause.set_local_pref) out << " set-lp " << *clause.set_local_pref;
      if (clause.set_med) out << " set-med " << *clause.set_med;
      if (clause.add_communities != 0) out << " add-comm " << comm_list(clause.add_communities);
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace ibgp::topo
