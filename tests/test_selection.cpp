// The BGP route-selection procedure (Section 2 / Fig 6 / Fig 10): every rule
// in isolation, MED semantics, both rule orderings, and the structural
// properties behind the paper's analysis — without MED the preference is a
// total preorder; with MED, independence-of-irrelevant-alternatives fails
// (the root cause of every oscillation in the paper).

#include <gtest/gtest.h>

#include <vector>

#include "bgp/exit_table.hpp"
#include "bgp/selection.hpp"
#include "netsim/physical_graph.hpp"
#include "netsim/shortest_paths.hpp"
#include "util/rng.hpp"

namespace ibgp::bgp {
namespace {

struct Fixture {
  netsim::PhysicalGraph graph;
  ExitTable table;
  std::unique_ptr<netsim::ShortestPaths> igp;

  // Line 0-1-2-3 with unit costs; evaluating node is usually 0.
  Fixture() : graph(4) {
    graph.add_link(0, 1, 1);
    graph.add_link(1, 2, 1);
    graph.add_link(2, 3, 1);
  }

  PathId add(NodeId exit_point, AsId as, Med med, LocalPref lp = 100,
             std::uint32_t len = 3, Cost exit_cost = 0, BgpId peer = 0) {
    ExitPath path;
    path.exit_point = exit_point;
    path.next_as = as;
    path.med = med;
    path.local_pref = lp;
    path.as_path_length = len;
    path.exit_cost = exit_cost;
    path.ebgp_peer = peer == 0 ? static_cast<BgpId>(500 + table.size()) : peer;
    return table.add(std::move(path));
  }

  void finalize() { igp = std::make_unique<netsim::ShortestPaths>(graph); }

  std::optional<RouteView> best(NodeId at, std::vector<Candidate> candidates,
                                SelectionPolicy policy = {}) {
    if (!igp) finalize();
    return choose_best(table, *igp, at, candidates, policy);
  }

  std::vector<PathId> survivors(std::vector<PathId> paths) const {
    std::vector<PathId> out;
    choose_survivors(table, paths, {}, out);
    return out;
  }
};

// --- rule 1: LOCAL-PREF ------------------------------------------------------

TEST(Selection, Rule1HighestLocalPrefWins) {
  Fixture f;
  const auto lo = f.add(1, 1, 0, 90);
  const auto hi = f.add(3, 2, 0, 200);  // farther but higher LOCAL-PREF
  const auto best = f.best(0, {{lo, 10}, {hi, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, hi);
}

// --- rule 2: AS-path length --------------------------------------------------

TEST(Selection, Rule2ShorterAsPathWins) {
  Fixture f;
  const auto longer = f.add(1, 1, 0, 100, 2);
  const auto shorter = f.add(3, 2, 0, 100, 1);
  const auto best = f.best(0, {{longer, 10}, {shorter, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, shorter);
}

TEST(Selection, Rule2OnlyAmongMaxLocalPref) {
  Fixture f;
  const auto short_but_low = f.add(1, 1, 0, 90, 1);
  const auto long_but_high = f.add(3, 2, 0, 100, 9);
  const auto best = f.best(0, {{short_but_low, 10}, {long_but_high, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, long_but_high);
}

// --- rule 3: MED -------------------------------------------------------------

TEST(Selection, Rule3MedEliminatesWithinSameAs) {
  Fixture f;
  const auto near_but_high_med = f.add(1, 7, 5);
  const auto far_but_low_med = f.add(3, 7, 1);
  const auto best = f.best(0, {{near_but_high_med, 10}, {far_but_low_med, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, far_but_low_med) << "lower MED must win within one AS";
}

TEST(Selection, Rule3MedNotComparedAcrossAses) {
  Fixture f;
  const auto near_high_med = f.add(1, 1, 5);
  const auto far_low_med = f.add(3, 2, 0);
  const auto best = f.best(0, {{near_high_med, 10}, {far_low_med, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, near_high_med) << "different AS: MED ignored, IGP cost decides";
}

TEST(Selection, Rule3AlwaysCompareMedMode) {
  Fixture f;
  const auto near_high_med = f.add(1, 1, 5);
  const auto far_low_med = f.add(3, 2, 0);
  SelectionPolicy policy;
  policy.med = MedMode::kAlwaysCompare;
  const auto best = f.best(0, {{near_high_med, 10}, {far_low_med, 11}}, policy);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, far_low_med) << "always-compare-med: one global MED group";
}

TEST(Selection, Rule3IgnoreMedMode) {
  Fixture f;
  const auto near_high_med = f.add(1, 7, 5);
  const auto far_low_med = f.add(3, 7, 0);
  SelectionPolicy policy;
  policy.med = MedMode::kIgnore;
  const auto best = f.best(0, {{near_high_med, 10}, {far_low_med, 11}}, policy);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, near_high_med) << "MEDs disabled: IGP cost decides";
}

TEST(Selection, Rule3MinimumPerGroupSurvives) {
  Fixture f;
  const auto a0 = f.add(1, 1, 3);
  const auto a1 = f.add(2, 1, 1);  // min of AS1
  const auto b0 = f.add(3, 2, 7);  // alone in AS2, survives with any MED
  const auto survivors = f.survivors({a0, a1, b0});
  EXPECT_EQ(survivors, (std::vector<PathId>{a1, b0}));
}

// --- rules 4/5: E-BGP preference and IGP metric --------------------------------

TEST(Selection, Rule4EbgpBeatsIbgpUnderDefaultOrder) {
  Fixture f;
  const auto own = f.add(0, 1, 0, 100, 3, /*exit_cost=*/50);  // expensive but E-BGP
  const auto remote = f.add(1, 2, 0);                         // metric 1, I-BGP
  const auto best = f.best(0, {{own, 99}, {remote, 10}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, own);
  EXPECT_TRUE(best->is_ebgp);
}

TEST(Selection, Rule4IgpCostFirstOrderPrefersCheaper) {
  Fixture f;
  const auto own = f.add(0, 1, 0, 100, 3, /*exit_cost=*/50);
  const auto remote = f.add(1, 2, 0);
  SelectionPolicy policy;
  policy.order = RuleOrder::kIgpCostFirst;
  const auto best = f.best(0, {{own, 99}, {remote, 10}}, policy);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, remote) << "RFC ordering: IGP cost before E-BGP preference";
}

TEST(Selection, IgpCostFirstTieBrokenByEbgp) {
  Fixture f;
  const auto own = f.add(0, 1, 0, 100, 3, /*exit_cost=*/1);
  const auto remote = f.add(1, 2, 0);  // metric 1 == own's exit cost
  SelectionPolicy policy;
  policy.order = RuleOrder::kIgpCostFirst;
  const auto best = f.best(0, {{own, 99}, {remote, 10}}, policy);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, own);
}

TEST(Selection, Rule5MinimumMetricAmongIbgp) {
  Fixture f;
  const auto near = f.add(1, 1, 0);
  const auto far = f.add(3, 2, 0);
  const auto best = f.best(0, {{near, 10}, {far, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, near);
  EXPECT_EQ(best->metric, 1);
}

TEST(Selection, ExitCostAddsToMetric) {
  Fixture f;
  const auto cheap_link_far_exit = f.add(2, 1, 0, 100, 3, 0);   // metric 2
  const auto near_costly_exit = f.add(1, 2, 0, 100, 3, 5);      // metric 6
  const auto best = f.best(0, {{cheap_link_far_exit, 10}, {near_costly_exit, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, cheap_link_far_exit);
}

// --- rule 6: BGP identifier ---------------------------------------------------

TEST(Selection, Rule6LowestLearnedFromWins) {
  Fixture f;
  const auto a = f.add(1, 1, 0);
  const auto b = f.add(1, 2, 0);  // same exit point: identical metric
  const auto best = f.best(0, {{a, 42}, {b, 7}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, b);
}

TEST(Selection, DuplicateLearnedFromFallsBackToPathId) {
  Fixture f;
  const auto a = f.add(1, 1, 0);
  const auto b = f.add(1, 2, 0);
  const auto best = f.best(0, {{a, 7}, {b, 7}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, std::min(a, b));
}

// --- edge cases ----------------------------------------------------------------

TEST(Selection, EmptyCandidatesGiveNothing) {
  Fixture f;
  f.add(1, 1, 0);
  EXPECT_FALSE(f.best(0, {}));
}

TEST(Selection, UnreachableExitPointSkipped) {
  Fixture f;
  f.graph = netsim::PhysicalGraph(4);  // no links: nothing reachable
  const auto own = f.add(0, 1, 0);
  const auto remote = f.add(3, 2, 0);
  const auto best = f.best(0, {{own, 10}, {remote, 11}});
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, own) << "own exit survives; unreachable remote dropped";
  EXPECT_FALSE(f.best(1, {{remote, 11}}));
}

TEST(Selection, ChooseSurvivorsIsNodeIndependent) {
  // Choose^B ignores metrics and learnedFrom entirely — key to Lemma 7.4.
  Fixture f;
  const auto a = f.add(1, 1, 2);
  const auto b = f.add(3, 1, 1);
  const auto c = f.add(2, 2, 9);
  const auto survivors = f.survivors({a, b, c});
  EXPECT_EQ(survivors, (std::vector<PathId>{b, c}));
}

TEST(Selection, ChooseSurvivorsEmptyInput) {
  Fixture f;
  EXPECT_TRUE(f.survivors({}).empty());
}

TEST(Selection, ExplanationRecordsStages) {
  Fixture f;
  const auto a = f.add(1, 1, 5, 100);
  const auto b = f.add(2, 1, 0, 100);
  const auto c = f.add(3, 2, 0, 90);
  f.finalize();
  const auto explanation = explain_selection(
      f.table, *f.igp, 0, std::vector<Candidate>{{a, 1}, {b, 2}, {c, 3}}, {});
  ASSERT_TRUE(explanation.best);
  EXPECT_EQ(explanation.best->path, b);
  ASSERT_EQ(explanation.stages.size(), 5u);
  EXPECT_EQ(explanation.stages[0].second.size(), 3u);  // input
  EXPECT_EQ(explanation.stages[1].second.size(), 2u);  // rule 1 kills c (lp 90)
  EXPECT_EQ(explanation.stages[3].second.size(), 1u);  // MED kills a
}

// --- the IIA story ----------------------------------------------------------

TEST(Selection, MedViolatesIndependenceOfIrrelevantAlternatives) {
  // The Fig 1(a) core: between r1 and r2 alone, r2 wins; adding r3 (which
  // itself loses) flips the winner to r1.  This is impossible for any
  // single-valued ranking and is exactly why SPVP-style fixed-preference
  // models cannot express MED (Section 4).
  Fixture g;
  const auto s1 = g.add(2, 1, 0);      // AS1, metric 2
  const auto s2 = g.add(1, 2, 10);     // AS2, metric 1 -> pairwise winner
  const auto s3 = g.add(3, 2, 0);      // AS2, MED 0, metric 3 -> kills s2
  const auto pairwise = g.best(0, {{s1, 10}, {s2, 11}});
  ASSERT_TRUE(pairwise);
  ASSERT_EQ(pairwise->path, s2);
  const auto with_extra = g.best(0, {{s1, 10}, {s2, 11}, {s3, 12}});
  ASSERT_TRUE(with_extra);
  EXPECT_EQ(with_extra->path, s1) << "adding a losing alternative flipped the winner";
}

TEST(Selection, WithoutMedSelectionIsIiaConsistent) {
  // Property: with MedMode::kIgnore, the winner among any subset containing
  // the full-set winner is that same winner (choose_best is induced by a
  // total preorder).  Randomized over many path sets.
  util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    Fixture f;
    std::vector<Candidate> all;
    const int n = 2 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n; ++i) {
      const auto exit_point = static_cast<NodeId>(rng.below(4));
      const auto p = f.add(exit_point, static_cast<AsId>(1 + rng.below(3)),
                           static_cast<Med>(rng.below(4)), 100, 3,
                           static_cast<Cost>(rng.below(3)));
      all.push_back({p, static_cast<BgpId>(10 + i)});
    }
    SelectionPolicy policy;
    policy.med = MedMode::kIgnore;
    const auto full = f.best(0, all, policy);
    ASSERT_TRUE(full);
    // Any subset containing the winner must keep the same winner.
    for (int mask = 1; mask < (1 << n); ++mask) {
      std::vector<Candidate> subset;
      bool has_winner = false;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) {
          subset.push_back(all[i]);
          has_winner |= (all[i].path == full->path);
        }
      }
      if (!has_winner) continue;
      const auto sub = f.best(0, subset, policy);
      ASSERT_TRUE(sub);
      ASSERT_EQ(sub->path, full->path) << "IIA violated without MED (trial " << trial << ")";
    }
  }
}

}  // namespace
}  // namespace ibgp::bgp
