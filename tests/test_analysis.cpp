// Analysis-module tests: exact stable-configuration search, forwarding-plane
// loop detection (Fig 14 / Fig 12), determinism measurement, and the
// counterexample finder/classifier.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/finder.hpp"
#include "analysis/forwarding.hpp"
#include "analysis/stable_search.hpp"
#include "engine/activation.hpp"
#include "engine/oscillation.hpp"
#include "topo/builder.hpp"
#include "topo/figures.hpp"

namespace ibgp::analysis {
namespace {

using core::ProtocolKind;

// --- stable search ---------------------------------------------------------------

TEST(StableSearch, Fig1aHasNoStableSolution) {
  const auto result = enumerate_stable_standard(topo::fig1a());
  EXPECT_TRUE(result.exhaustive);
  EXPECT_TRUE(result.solutions.empty());
}

TEST(StableSearch, Fig2HasExactlyTwo) {
  const auto inst = topo::fig2();
  const auto result = enumerate_stable_standard(inst);
  ASSERT_TRUE(result.exhaustive);
  ASSERT_EQ(result.solutions.size(), 2u);
  const PathId r1 = inst.exits().find_by_name("r1");
  const PathId r2 = inst.exits().find_by_name("r2");
  const NodeId rr1 = inst.find_node("RR1");
  const NodeId rr2 = inst.find_node("RR2");
  // One all-r1, one all-r2 (clients keep their own E-BGP routes).
  std::set<std::pair<PathId, PathId>> reflector_choices;
  for (const auto& solution : result.solutions) {
    reflector_choices.insert({solution[rr1], solution[rr2]});
  }
  EXPECT_TRUE(reflector_choices.count({r1, r1}) == 1);
  EXPECT_TRUE(reflector_choices.count({r2, r2}) == 1);
}

TEST(StableSearch, Fig3HasExactlyTwo) {
  const auto result = enumerate_stable_standard(topo::fig3());
  ASSERT_TRUE(result.exhaustive);
  EXPECT_EQ(result.solutions.size(), 2u);
}

TEST(StableSearch, Fig13HasNone) {
  const auto result = enumerate_stable_standard(topo::fig13());
  EXPECT_TRUE(result.exhaustive);
  EXPECT_TRUE(result.solutions.empty());
}

TEST(StableSearch, Fig14HasExactlyOne) {
  const auto result = enumerate_stable_standard(topo::fig14());
  ASSERT_TRUE(result.exhaustive);
  ASSERT_EQ(result.solutions.size(), 1u);
}

TEST(StableSearch, SolutionsVerifyAsStable) {
  for (const auto& [name, inst] : topo::all_figures()) {
    const auto result = enumerate_stable_standard(inst);
    for (const auto& solution : result.solutions) {
      EXPECT_TRUE(is_stable_standard(inst, solution)) << name;
    }
  }
}

TEST(StableSearch, EngineFixedPointsAreFound) {
  // Whenever the standard protocol converges on a figure, the resulting
  // configuration must appear in the enumerated solution set.
  for (const auto& [name, inst] : topo::all_figures()) {
    auto rr = engine::make_round_robin(inst.node_count());
    const auto outcome = engine::run_protocol(inst, ProtocolKind::kStandard, *rr);
    if (outcome.status != engine::RunStatus::kConverged) continue;
    const auto result = enumerate_stable_standard(inst);
    ASSERT_TRUE(result.exhaustive) << name;
    EXPECT_NE(std::find(result.solutions.begin(), result.solutions.end(),
                        outcome.final_best),
              result.solutions.end())
        << name << ": engine fixed point missing from enumeration";
  }
}

TEST(StableSearch, IsStableRejectsPerturbations) {
  const auto inst = topo::fig2();
  const auto result = enumerate_stable_standard(inst);
  ASSERT_FALSE(result.solutions.empty());
  auto perturbed = result.solutions.front();
  // Swap a reflector's choice to the other exit: no longer a fixed point.
  const NodeId rr1 = inst.find_node("RR1");
  perturbed[rr1] = perturbed[rr1] == inst.exits().find_by_name("r1")
                       ? inst.exits().find_by_name("r2")
                       : inst.exits().find_by_name("r1");
  EXPECT_FALSE(is_stable_standard(inst, perturbed));
}

TEST(StableSearch, BudgetHonored) {
  StableSearchLimits limits;
  limits.max_nodes = 10;
  const auto result = enumerate_stable_standard(topo::fig13(), limits);
  EXPECT_FALSE(result.exhaustive);
  EXPECT_LE(result.nodes_explored, 11u);
}

TEST(StableSearch, WrongSizeRejected) {
  EXPECT_FALSE(is_stable_standard(topo::fig2(), StableSolution{}));
}

// --- forwarding -------------------------------------------------------------------

TEST(Forwarding, Fig14StandardLoops) {
  const auto inst = topo::fig14();
  auto rr = engine::make_round_robin(inst.node_count());
  const auto outcome = engine::run_protocol(inst, ProtocolKind::kStandard, *rr);
  ASSERT_EQ(outcome.status, engine::RunStatus::kConverged);
  const auto report = analyze_forwarding(inst, outcome.final_best);
  EXPECT_FALSE(report.loop_free());
  // Both clients are caught in the c1 <-> c2 loop.
  EXPECT_EQ(report.traces[inst.find_node("c1")].outcome, ForwardOutcome::kLoop);
  EXPECT_EQ(report.traces[inst.find_node("c2")].outcome, ForwardOutcome::kLoop);
  // The reflectors themselves exit fine (they own the routes).
  EXPECT_EQ(report.traces[inst.find_node("RR1")].outcome, ForwardOutcome::kExits);
}

TEST(Forwarding, Fig14ModifiedLoopFree) {
  const auto inst = topo::fig14();
  auto rr = engine::make_round_robin(inst.node_count());
  const auto outcome = engine::run_protocol(inst, ProtocolKind::kModified, *rr);
  ASSERT_EQ(outcome.status, engine::RunStatus::kConverged);
  const auto report = analyze_forwarding(inst, outcome.final_best);
  EXPECT_TRUE(report.loop_free());
  for (const auto& trace : report.traces) {
    EXPECT_EQ(trace.outcome, ForwardOutcome::kExits);
  }
}

TEST(Forwarding, NoRouteDetected) {
  const auto inst = topo::fig14();
  std::vector<PathId> best(inst.node_count(), kNoPath);
  const auto report = analyze_forwarding(inst, best);
  EXPECT_EQ(report.no_route, inst.node_count());
}

TEST(Forwarding, TraceRendering) {
  const auto inst = topo::fig14();
  auto rr = engine::make_round_robin(inst.node_count());
  const auto outcome = engine::run_protocol(inst, ProtocolKind::kStandard, *rr);
  std::vector<bool> visited;
  ForwardTrace trace;
  trace_forwarding(inst, inst.igp(), outcome.final_best, inst.find_node("c1"), visited, trace);
  const auto text = describe_trace(inst, trace);
  EXPECT_NE(text.find("LOOP"), std::string::npos);
  EXPECT_NE(text.find("c1"), std::string::npos);
}

TEST(Forwarding, IntermediateNodeDivertsViaOwnExit) {
  // The Fig 12 phenomenon: an intermediate node with its own E-BGP route
  // sends the packet out itself rather than following the source's plan.
  topo::InstanceBuilder b;
  b.reflector("u", 0);
  b.reflector("w", 1);
  b.reflector("x", 2);
  b.link("u", "w", 1);
  b.link("w", "x", 1);
  b.exit({.name = "far", .at = "x", .next_as = 1, .med = 0});
  b.exit({.name = "mid", .at = "w", .next_as = 2, .med = 0});
  const auto inst = b.build("fig12");
  std::vector<PathId> best(3, kNoPath);
  best[inst.find_node("u")] = inst.exits().find_by_name("far");
  best[inst.find_node("w")] = inst.exits().find_by_name("mid");
  best[inst.find_node("x")] = inst.exits().find_by_name("far");
  std::vector<bool> visited;
  ForwardTrace trace;
  trace_forwarding(inst, inst.igp(), best, inst.find_node("u"), visited, trace);
  EXPECT_EQ(trace.outcome, ForwardOutcome::kExits);
  EXPECT_EQ(trace.exit_node, inst.find_node("w"))
      << "packet must leave at w's exit, not reach x";
  EXPECT_EQ(trace.exit_path, inst.exits().find_by_name("mid"));
}

TEST(Forwarding, RejectsBestRoutesMissingANode) {
  const auto inst = topo::fig14();
  const std::vector<PathId> best(inst.node_count() - 1, kNoPath);
  std::vector<bool> visited;
  ForwardTrace trace;
  EXPECT_THROW(trace_forwarding(inst, inst.igp(), best, 0, visited, trace),
               std::invalid_argument);
  EXPECT_THROW(trace_forwarding(inst, inst.igp(), {}, 0, visited, trace),
               std::invalid_argument);
  EXPECT_THROW((void)analyze_forwarding(inst, best), std::invalid_argument);
}

TEST(Forwarding, RejectsASourceOutsideTheInstance) {
  const auto inst = topo::fig14();
  const std::vector<PathId> best(inst.node_count(), kNoPath);
  std::vector<bool> visited;
  ForwardTrace trace;
  const auto n = static_cast<NodeId>(inst.node_count());
  EXPECT_THROW(trace_forwarding(inst, inst.igp(), best, n, visited, trace),
               std::invalid_argument);
  EXPECT_THROW(trace_forwarding(inst, inst.igp(), best, kNoNode, visited, trace),
               std::invalid_argument);
  // The buffers stay usable: the next valid walk starts from clear marks.
  trace_forwarding(inst, inst.igp(), best, n - 1, visited, trace);
  EXPECT_EQ(trace.outcome, ForwardOutcome::kNoRoute);
  EXPECT_EQ(trace.hops, (std::vector<NodeId>{n - 1}));
}

// --- determinism --------------------------------------------------------------------

TEST(Determinism, ModifiedIsDeterministicOnFigures) {
  for (const auto& [name, inst] : topo::all_figures()) {
    DeterminismOptions options;
    options.runs = 60;
    const auto report = check_determinism(inst, ProtocolKind::kModified, options);
    EXPECT_TRUE(report.deterministic()) << name << ": " << report.outcomes.size()
                                        << " outcomes, " << report.not_converged
                                        << " non-converged";
    EXPECT_EQ(report.converged, 60u) << name;
  }
}

TEST(Determinism, ModifiedSurvivesCrashes) {
  DeterminismOptions options;
  options.runs = 60;
  options.crash_prob = 1.0;  // crash a random node mid-run, every run
  const auto report = check_determinism(topo::fig2(), ProtocolKind::kModified, options);
  EXPECT_TRUE(report.deterministic());
}

TEST(Determinism, StandardIsNondeterministicOnFig2) {
  DeterminismOptions options;
  options.runs = 120;
  const auto report = check_determinism(topo::fig2(), ProtocolKind::kStandard, options);
  EXPECT_GE(report.outcomes.size(), 2u)
      << "fig2 must reach both stable solutions across random schedules";
}

TEST(Determinism, StepStatisticsPopulated) {
  DeterminismOptions options;
  options.runs = 20;
  const auto report = check_determinism(topo::fig14(), ProtocolKind::kModified, options);
  EXPECT_EQ(report.converged, 20u);
  EXPECT_GT(report.mean_steps, 0.0);
  EXPECT_LE(report.min_steps, report.max_steps);
}

// --- classifier / finder --------------------------------------------------------------

TEST(Classifier, FigureSignatures) {
  EXPECT_TRUE(classify(topo::fig1a(), ProtocolKind::kStandard).oscillates());
  EXPECT_TRUE(classify(topo::fig1a(), ProtocolKind::kWalton).converges_always_tested());
  EXPECT_TRUE(classify(topo::fig1a(), ProtocolKind::kModified).converges_always_tested());
  EXPECT_TRUE(classify(topo::fig13(), ProtocolKind::kWalton).oscillates());
  EXPECT_TRUE(classify(topo::fig13(), ProtocolKind::kModified).converges_always_tested());
}

TEST(Finder, FindsStandardOscillatorQuickly) {
  topo::RandomConfig config;
  config.clusters = 3;
  config.max_clients = 2;
  config.exits = 4;
  FinderCriteria criteria;
  criteria.protocol = ProtocolKind::kStandard;
  criteria.med_induced = false;
  criteria.modified_converges = true;
  criteria.max_steps = 2000;
  const auto result = find_counterexample(config, criteria, /*seed=*/1, /*attempts=*/5000);
  ASSERT_TRUE(result.found.has_value()) << "no standard-protocol oscillator in 5000 tries";
  EXPECT_TRUE(classify(*result.found, ProtocolKind::kStandard, 2000).oscillates());
  EXPECT_TRUE(
      classify(*result.found, ProtocolKind::kModified, 2000).converges_always_tested());
}

TEST(Finder, ReturnsEmptyWhenCriteriaImpossible) {
  topo::RandomConfig config;
  config.clusters = 2;
  config.exits = 1;  // a single route cannot oscillate
  FinderCriteria criteria;
  criteria.protocol = ProtocolKind::kModified;  // provably never oscillates
  const auto result = find_counterexample(config, criteria, 1, 200);
  EXPECT_FALSE(result.found.has_value());
  EXPECT_EQ(result.attempts_used, 200u);
}

}  // namespace
}  // namespace ibgp::analysis
