// trace_inspect — offline analysis of an ibgp-trace-v1/v2 JSONL stream.
//
//   trace_inspect TRACE.jsonl [--top N] [--blame]
//
// Reads a trace produced with --trace (bench binaries) or TraceSink
// directly and prints:
//   - the event-type census (how many records of each "ev"),
//   - the per-rule decision histogram (which selection rule decided each
//     Choose_best — the paper's Figure 1/2 diagnosis reads straight off
//     this: vanilla I-BGP oscillations decide on igp-cost / bgp-id at the
//     reflectors, the modified protocol's extra state moves decisions to
//     the sole-candidate rule),
//   - per-node oscillation cycles: the smallest repeating period in each
//     node's best-route flip sequence (period >= 2 over at least two full
//     repetitions = the node is orbiting a cycle, the paper's Section 3
//     phenomenon),
//   - top talkers (UPDATE senders, voided deliveries included), and
//   - the fault census by kind.
//
// With --blame (needs a v2 trace carrying lid/pid causality): for every
// oscillating node, walk the causal parent links back from its most recent
// flip and print the minimal sustaining cycle of (node, session, rule)
// hops — *which* update, relayed over *which* session, decided by *which*
// rule keeps the orbit alive.  On Figure 3 this names the B:r3<->r4 and
// C:r5<->r6 orbits directly.
//
// Node and path ids are labeled through the trace's own "node"/"path"
// directory records (emitted by the engine preamble), so the instance
// definition is not needed to read a trace.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/trace.hpp"

namespace {

std::string label(const std::map<std::int64_t, std::string>& names, std::int64_t id) {
  const auto it = names.find(id);
  if (it != names.end()) return it->second;
  if (id < 0) return "(none)";
  return "#" + std::to_string(id);
}

/// Smallest period p (1 <= p <= len/2) such that the last 2*p entries of
/// `seq` repeat with period p; 0 when the tail is aperiodic.  Two full
/// repetitions is the bar for calling something a cycle rather than a
/// coincidence.
std::size_t smallest_tail_period(const std::vector<std::int64_t>& seq) {
  for (std::size_t p = 1; 2 * p <= seq.size(); ++p) {
    bool periodic = true;
    for (std::size_t i = seq.size() - p; i < seq.size(); ++i) {
      if (seq[i] != seq[i - p]) {
        periodic = false;
        break;
      }
    }
    if (periodic) return p;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  std::size_t top = 10;
  bool blame = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--blame") == 0) {
      blame = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s TRACE.jsonl [--top N] [--blame]\n", argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s TRACE.jsonl [--top N] [--blame]\n", argv[0]);
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_inspect: cannot open %s\n", path);
    return 1;
  }

  std::map<std::string, std::uint64_t> event_census;
  std::map<std::string, std::uint64_t> rule_census;
  std::map<std::string, std::uint64_t> fault_census;
  std::map<std::int64_t, std::uint64_t> update_senders;
  std::map<std::int64_t, std::string> node_names;
  std::map<std::int64_t, std::string> path_names;
  // Per-node best-route sequence, appended only on flips (decision records
  // with "flip": true), so a repeating tail is a genuine orbit.
  std::map<std::int64_t, std::vector<std::int64_t>> flip_sequences;

  ibgp::obs::CausalGraph graph;
  std::uint64_t lines = 0, bad = 0;
  bool saw_header = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const auto record = ibgp::obs::parse_trace_line(line);
    if (!record) {
      ++bad;
      continue;
    }
    if (blame) graph.add(*record);
    if (const auto* schema = record->find("schema"); schema != nullptr) {
      saw_header = true;
      continue;  // header line carries no event
    }
    const std::string ev(record->str("ev"));
    ++event_census[ev];
    if (ev == "node") {
      node_names[record->num("id")] = std::string(record->str("name"));
    } else if (ev == "path") {
      path_names[record->num("id")] = std::string(record->str("name"));
    } else if (ev == "decision") {
      ++rule_census[std::string(record->str("rule"))];
      const auto* flip = record->find("flip");
      if (flip != nullptr && flip->is_bool() && flip->as_bool()) {
        flip_sequences[record->num("node")].push_back(record->num("best", -1));
      }
    } else if (ev == "update" || ev == "update-voided") {
      ++update_senders[record->num("from")];
    } else if (ev == "fault") {
      ++fault_census[std::string(record->str("kind"))];
    }
  }

  std::printf("%s: %llu lines (%llu unparseable)%s\n", path,
              static_cast<unsigned long long>(lines),
              static_cast<unsigned long long>(bad),
              saw_header ? "" : " [warning: no ibgp-trace header]");

  std::printf("\nevent census:\n");
  for (const auto& [ev, count] : event_census) {
    std::printf("  %-16s %llu\n", ev.c_str(), static_cast<unsigned long long>(count));
  }

  if (!rule_census.empty()) {
    std::uint64_t total = 0;
    for (const auto& [rule, count] : rule_census) total += count;
    std::printf("\ndecision histogram (%llu decisions):\n",
                static_cast<unsigned long long>(total));
    for (const auto& [rule, count] : rule_census) {
      std::printf("  %-18s %8llu  (%.1f%%)\n", rule.c_str(),
                  static_cast<unsigned long long>(count),
                  100.0 * static_cast<double>(count) / static_cast<double>(total));
    }
  }

  // Oscillation cycles: nodes whose flip tail repeats with period >= 2.
  bool any_cycle = false;
  for (const auto& [node, seq] : flip_sequences) {
    if (seq.size() < 4) continue;
    const std::size_t period = smallest_tail_period(seq);
    if (period < 2) continue;
    if (!any_cycle) {
      std::printf("\noscillation cycles (smallest repeating period of each "
                  "node's best-route flips):\n");
      any_cycle = true;
    }
    std::printf("  %-8s period=%zu over %zu flips, cycle:", label(node_names, node).c_str(),
                period, seq.size());
    for (std::size_t i = seq.size() - period; i < seq.size(); ++i) {
      std::printf(" %s", label(path_names, seq[i]).c_str());
    }
    std::printf("\n");
  }
  if (!flip_sequences.empty() && !any_cycle) {
    std::printf("\nno repeating best-route cycles detected\n");
  }

  if (!update_senders.empty()) {
    std::vector<std::pair<std::int64_t, std::uint64_t>> talkers(update_senders.begin(),
                                                                update_senders.end());
    std::sort(talkers.begin(), talkers.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    std::printf("\ntop talkers (UPDATE senders):\n");
    for (std::size_t i = 0; i < talkers.size() && i < top; ++i) {
      std::printf("  %-8s %llu updates\n", label(node_names, talkers[i].first).c_str(),
                  static_cast<unsigned long long>(talkers[i].second));
    }
  }

  if (!fault_census.empty()) {
    std::printf("\nfault census:\n");
    for (const auto& [kind, count] : fault_census) {
      std::printf("  %-16s %llu\n", kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  if (blame) {
    const auto oscillating = graph.oscillating_nodes();
    if (graph.update_count() == 0) {
      std::printf("\nblame: trace carries no lid/pid causality "
                  "(ibgp-trace-v1? regenerate with a v2 writer)\n");
    } else if (oscillating.empty()) {
      std::printf("\nblame: no oscillating nodes\n");
    } else {
      std::printf("\nblame chains (minimal sustaining causal cycle per "
                  "oscillating node):\n");
      for (const std::int64_t node : oscillating) {
        const auto chain = graph.blame(node);
        if (!chain) {
          std::printf("  %-8s no periodic causal cycle within the walk window\n",
                      graph.node_name(node).c_str());
          continue;
        }
        std::printf("  %-8s period=%zu (over %zu causal hops):\n",
                    graph.node_name(node).c_str(), chain->period,
                    chain->chain_length);
        for (const auto& hop : chain->cycle) {
          std::printf("    %s\n", graph.format_hop(hop).c_str());
        }
      }
    }
  }
  return 0;
}
