// Differential selection suite: Choose_best, Choose^B, the per-protocol
// decision and the Walton advertised set filter in reused per-thread
// scratch, and decide fills a caller-owned NodeDecision.  On every input
// below they must equal the frozen plain forms in selection_reference.hpp:
// the best route, the advertised set and the whole SelectionProvenance
// (candidates, unreachable, usable, eliminated per rule, decisive rule,
// selected), under all three protocols.
//
// Inputs: random candidate subsets (duplicate announcements and shared
// learnedFrom values included, so the BGP-id and path-id tie-breaks fire)
// of topo::random_instance seeds with unequal LOCAL-PREF and AS-path
// length, mixed MED regimes and both rule orders, priced under the base IGP
// and under a churned epoch that leaves exits unreachable; the engine's own
// candidate sets on the six figures; every corpus entry.  One case runs the
// comparison on util::parallel_for workers against a serial pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/selection.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "explore/corpus.hpp"
#include "export_reference.hpp"
#include "selection_reference.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef IBGP_CORPUS_DIR
#define IBGP_CORPUS_DIR "examples/data/corpus"
#endif

namespace ibgp {
namespace {

using core::ProtocolKind;

constexpr ProtocolKind kProtocols[] = {ProtocolKind::kStandard, ProtocolKind::kWalton,
                                       ProtocolKind::kModified};

/// What the compared inputs exercised, so a generator change that stops
/// reaching a rule fails loudly instead of passing vacuously.
struct Coverage {
  std::array<std::size_t, bgp::kSelectionRuleCount> decisive{};
  std::size_t unreachable = 0;  ///< selections that dropped an unreachable route
  std::size_t empty = 0;        ///< selections with no usable route
  std::size_t compared = 0;     ///< inputs compared

  void merge(const Coverage& other) {
    for (std::size_t r = 0; r < decisive.size(); ++r) decisive[r] += other.decisive[r];
    unreachable += other.unreachable;
    empty += other.empty;
    compared += other.compared;
  }
};

std::string describe(const core::Instance& inst, NodeId node,
                     std::span<const bgp::Candidate> possible) {
  std::ostringstream out;
  out << inst.name() << " node " << inst.node_name(node) << " candidates {";
  for (std::size_t i = 0; i < possible.size(); ++i) {
    out << (i ? "," : "") << possible[i].path << "@" << possible[i].learned_from;
  }
  out << "}";
  return out.str();
}

std::string provenance_text(const bgp::SelectionProvenance& p) {
  std::ostringstream out;
  out << "candidates=" << p.candidates << " unreachable=" << p.unreachable
      << " usable=" << p.usable << " eliminated=[";
  for (std::size_t r = 0; r < p.eliminated.size(); ++r) {
    out << (r ? "," : "") << p.eliminated[r];
  }
  out << "] decisive=" << bgp::selection_rule_name(p.decisive) << " selected=" << p.selected;
  return out.str();
}

bool same_provenance(const bgp::SelectionProvenance& a, const bgp::SelectionProvenance& b) {
  return a.candidates == b.candidates && a.unreachable == b.unreachable &&
         a.usable == b.usable && a.eliminated == b.eliminated && a.decisive == b.decisive &&
         a.selected == b.selected;
}

void add_best(util::Fingerprint& fp, const std::optional<bgp::RouteView>& best) {
  if (!best) {
    fp.add(0xDEAD);
    return;
  }
  fp.add(best->path).add(static_cast<std::uint64_t>(best->metric));
  fp.add(best->learned_from).add(best->is_ebgp ? 1 : 0);
}

/// Compares every selection entry point against the reference on one input.
/// `out` is reused across calls, as the engine reuses its decision buffer.
/// Folds the reference results into `fp` and tallies `coverage`.
::testing::AssertionResult same_selection(const core::Instance& inst,
                                          const netsim::ShortestPaths& igp, NodeId node,
                                          std::span<const bgp::Candidate> possible,
                                          core::NodeDecision& out, util::Fingerprint& fp,
                                          Coverage& coverage) {
  const auto& table = inst.exits();
  const auto& policy = inst.policy();
  const auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure() << describe(inst, node, possible) << ": " << what;
  };

  bgp::SelectionProvenance ref_prov;
  bgp::SelectionProvenance prov;
  const auto ref_best = reference::choose_best(table, igp, node, possible, policy, &ref_prov);
  const auto best = bgp::choose_best(table, igp, node, possible, policy, &prov);
  if (best != ref_best) return fail("choose_best picked a different route");
  if (!same_provenance(prov, ref_prov)) {
    return fail("choose_best provenance " + provenance_text(prov) + ", reference " +
                provenance_text(ref_prov));
  }
  if (bgp::choose_best(table, igp, node, possible, policy) != ref_best) {
    return fail("choose_best without provenance picked a different route");
  }

  std::vector<PathId> ids;
  for (const auto& candidate : possible) ids.push_back(candidate.path);
  std::vector<PathId> survivors{kNoPath};  // stale contents must be replaced
  bgp::choose_survivors(table, ids, policy, survivors);
  if (survivors != reference::choose_survivors(table, ids, policy)) {
    return fail("choose_survivors differs");
  }

  std::vector<PathId> walton{kNoPath};
  core::walton_advertised(inst, igp, node, possible, best, walton);
  if (walton != reference::walton_advertised(inst, igp, node, possible)) {
    return fail("walton_advertised differs");
  }

  for (const ProtocolKind kind : kProtocols) {
    const std::string name = core::protocol_name(kind);
    bgp::SelectionProvenance ref_decided;
    bgp::SelectionProvenance decided;
    const auto ref = reference::decide(inst, igp, kind, node, possible, &ref_decided);
    core::decide(inst, igp, kind, node, possible, out, &decided);
    if (out.best != ref.best) return fail(name + " decide picked a different best route");
    if (out.advertised != ref.advertised) return fail(name + " decide advertised differs");
    if (!same_provenance(decided, ref_decided)) {
      return fail(name + " decide provenance " + provenance_text(decided) + ", reference " +
                  provenance_text(ref_decided));
    }
    core::decide(inst, igp, kind, node, possible, out);
    if (out.best != ref.best || out.advertised != ref.advertised) {
      return fail(name + " decide without provenance differs");
    }

    add_best(fp, ref.best);
    fp.add_range(ref.advertised);
    fp.add(ref_decided.usable).add(static_cast<std::uint64_t>(ref_decided.decisive));
    if (ref_decided.selected) {
      ++coverage.decisive[bgp::rule_index(ref_decided.decisive)];
    } else {
      ++coverage.empty;
    }
    if (ref_decided.unreachable > 0) ++coverage.unreachable;
  }
  ++coverage.compared;
  return ::testing::AssertionSuccess();
}

/// A random subset of the exits in random order.  learnedFrom comes from a
/// small pool, and some paths are announced twice, so BGP-id ties and the
/// path-id tie-break both occur.
std::vector<bgp::Candidate> random_candidates(const core::Instance& inst,
                                              util::Xoshiro256& rng) {
  std::vector<bgp::Candidate> out;
  const double density = 0.2 + 0.8 * rng.uniform01();
  const auto pooled = [&] { return static_cast<BgpId>(1 + rng.below(3)); };
  for (PathId p = 0; p < inst.exits().size(); ++p) {
    if (!rng.chance(density)) continue;
    const BgpId from = rng.chance(0.3) ? inst.exits()[p].ebgp_peer : pooled();
    out.push_back({p, from});
    if (rng.chance(0.15)) out.push_back({p, rng.chance(0.5) ? from : pooled()});
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// Both rule orders, a global MED regime and per-AS overrides of it.
bgp::SelectionPolicy random_policy(const core::Instance& inst, util::Xoshiro256& rng) {
  bgp::SelectionPolicy policy;
  policy.order = rng.chance(0.5) ? bgp::RuleOrder::kPreferEbgpFirst
                                 : bgp::RuleOrder::kIgpCostFirst;
  policy.med = static_cast<bgp::MedMode>(rng.below(3));
  std::vector<AsId> ases;
  for (const auto& path : inst.exits().all()) ases.push_back(path.next_as);
  std::sort(ases.begin(), ases.end());
  ases.erase(std::unique(ases.begin(), ases.end()), ases.end());
  for (const AsId as : ases) {
    if (rng.chance(0.5)) {
      policy.med_overrides.push_back({as, static_cast<bgp::MedMode>(rng.below(3))});
    }
  }
  return policy;
}

/// An epoch with about a third of the links down, so some exits become
/// unreachable from some nodes.
std::shared_ptr<const netsim::ShortestPaths> churned_epoch(const core::Instance& inst,
                                                           util::Xoshiro256& rng) {
  std::vector<Cost> costs;
  for (const auto& link : inst.physical().links()) {
    costs.push_back(rng.chance(0.35) ? kInfCost : link.cost);
  }
  return inst.igp_epoch(costs);
}

topo::RandomConfig random_config(std::uint64_t seed) {
  topo::RandomConfig config;
  config.clusters = 2 + seed % 4;
  config.min_clients = 1;
  config.max_clients = 1 + seed % 3;
  config.second_reflector_prob = seed % 3 == 0 ? 0.5 : 0.0;
  config.neighbor_ases = 1 + seed % 4;
  config.exits = seed % 8 == 0 ? 64 : 4 + seed % 13;
  config.max_med = 1 + seed % 3;
  config.max_link_cost = 1 + seed % 3;  // small costs: IGP ties reach rule 6
  config.max_exit_cost = static_cast<Cost>(seed % 3);
  config.equal_local_pref = seed % 2 == 0;
  config.equal_as_path_length = seed % 3 == 0;
  return config;
}

struct Outcome {
  std::uint64_t digest = 0;
  Coverage coverage;
  std::string failure;  ///< empty when every comparison matched
};

/// Every node of one random instance, under four policies and two IGP
/// epochs, several candidate subsets each.
Outcome run_random(std::uint64_t seed) {
  Outcome outcome;
  util::Xoshiro256 rng(util::hash_combine(seed, 0x5E1EC7));
  const auto base = topo::random_instance(random_config(seed), seed);
  util::Fingerprint fp;
  core::NodeDecision out;
  for (int variant = 0; variant < 4; ++variant) {
    const auto inst = variant == 0 ? base : base.with_policy(random_policy(base, rng));
    const auto churned = churned_epoch(inst, rng);
    for (const netsim::ShortestPaths* igp : {&inst.igp(), churned.get()}) {
      for (NodeId u = 0; u < inst.node_count(); ++u) {
        for (int draw = 0; draw < 4; ++draw) {
          const auto possible = random_candidates(inst, rng);
          const auto verdict =
              same_selection(inst, *igp, u, possible, out, fp, outcome.coverage);
          if (!verdict) {
            outcome.failure = verdict.message();
            return outcome;
          }
        }
      }
    }
  }
  outcome.digest = fp.value();
  return outcome;
}

constexpr std::uint64_t kSeeds = 24;

class RandomSelection : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSelection, MatchesReference) {
  const Outcome outcome = run_random(GetParam());
  EXPECT_EQ(outcome.failure, "");
  EXPECT_GT(outcome.coverage.compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSelection, ::testing::Range<std::uint64_t>(1, kSeeds + 1));

TEST(SelectionDiff, InputsReachEveryRuleAndUnreachableExits) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    coverage.merge(run_random(seed).coverage);
  }
  for (std::size_t r = 0; r < bgp::kSelectionRuleCount; ++r) {
    EXPECT_GT(coverage.decisive[r], 0u)
        << "no input was decided by " << bgp::selection_rule_name(bgp::SelectionRule(r));
  }
  EXPECT_GT(coverage.unreachable, 0u);
  EXPECT_GT(coverage.empty, 0u);
}

TEST(SelectionDiff, ParallelWorkersMatchSerialPass) {
  // Each worker thread selects in its own scratch; per-seed digests of the
  // reference results must equal the serial pass, and every comparison
  // made on a worker must match.
  std::vector<Outcome> serial(kSeeds);
  for (std::uint64_t i = 0; i < kSeeds; ++i) serial[i] = run_random(i + 1);
  std::vector<Outcome> parallel(kSeeds);
  util::parallel_for(kSeeds, 4, [&](std::size_t i) { parallel[i] = run_random(i + 1); });
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    SCOPED_TRACE("seed " + std::to_string(i + 1));
    EXPECT_EQ(parallel[i].failure, "");
    EXPECT_EQ(serial[i].failure, "");
    EXPECT_EQ(parallel[i].digest, serial[i].digest);
    EXPECT_EQ(parallel[i].coverage.compared, serial[i].coverage.compared);
  }
}

/// The engine's own candidate sets: every node's PossibleExits (via the
/// frozen gathering in export_reference.hpp) after each of the first
/// `deliveries` deliveries of a run under `kind`.
void compare_along_run(const core::Instance& inst, ProtocolKind kind, std::size_t deliveries,
                       Coverage& coverage) {
  engine::EventEngine engine(inst, kind);
  engine.inject_all_exits(0);
  util::Fingerprint fp;
  core::NodeDecision out;
  for (std::size_t step = 0; step < deliveries && engine.run(1).deliveries == 1; ++step) {
    const auto state = engine.capture();
    for (NodeId u = 0; u < inst.node_count(); ++u) {
      const auto possible = reference::candidates(inst, state.nodes[u]);
      ASSERT_TRUE(same_selection(inst, engine.igp(), u, possible, out, fp, coverage))
          << core::protocol_name(kind) << " after delivery " << step + 1;
    }
  }
}

TEST(FigureSelection, MatchesReferenceOnEngineCandidatesAndSubsets) {
  Coverage coverage;
  util::Xoshiro256 rng(2002);
  util::Fingerprint fp;
  core::NodeDecision out;
  for (const auto& [name, inst] : topo::all_figures()) {
    SCOPED_TRACE(name);
    for (const ProtocolKind kind : kProtocols) compare_along_run(inst, kind, 300, coverage);
    for (NodeId u = 0; u < inst.node_count(); ++u) {
      for (int draw = 0; draw < 8; ++draw) {
        const auto possible = random_candidates(inst, rng);
        ASSERT_TRUE(same_selection(inst, inst.igp(), u, possible, out, fp, coverage));
      }
    }
  }
  EXPECT_GT(coverage.compared, 0u);
}

TEST(CorpusSelection, MatchesReferenceOnEveryEntry) {
  const auto entries = explore::load_corpus_dir(IBGP_CORPUS_DIR);
  ASSERT_EQ(entries.size(), 60u);
  Coverage coverage;
  util::Xoshiro256 rng(60);
  util::Fingerprint fp;
  core::NodeDecision out;
  for (const auto& entry : entries) {
    SCOPED_TRACE(entry.name);
    const auto inst = topo::parse_topo(entry.topo_text);
    compare_along_run(inst, ProtocolKind::kStandard, 40, coverage);
    for (NodeId u = 0; u < inst.node_count(); ++u) {
      for (int draw = 0; draw < 3; ++draw) {
        const auto possible = random_candidates(inst, rng);
        ASSERT_TRUE(same_selection(inst, inst.igp(), u, possible, out, fp, coverage));
      }
    }
  }
  EXPECT_GT(coverage.compared, entries.size());
}

}  // namespace
}  // namespace ibgp
