// Tests for the adversarial policy-space explorer: spec genotypes, the
// mutation menu, the delta-debugging minimizer, coverage-guided search, and
// the satellite regression that a step-budget-truncated run is never
// classified as oscillating.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "analysis/finder.hpp"
#include "confed/engine.hpp"
#include "explore/corpus.hpp"
#include "explore/explorer.hpp"
#include "explore/minimize.hpp"
#include "explore/mutate.hpp"
#include "explore/spec.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"
#include "util/rng.hpp"

namespace ibgp::explore {
namespace {

// --- spec <-> instance ---------------------------------------------------------------

TEST(Spec, RoundTripsFig1a) {
  const auto inst = topo::fig1a();
  const auto spec = spec_of(inst);
  const auto rebuilt = build(spec);
  EXPECT_EQ(topo::write_topo(rebuilt), topo::write_topo(inst));
}

TEST(Spec, RoundTripsRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    topo::RandomConfig config;
    config.clusters = 2 + seed % 3;
    config.max_clients = 2;
    const auto inst = topo::random_instance(config, seed);
    const auto rebuilt = build(spec_of(inst));
    EXPECT_EQ(topo::write_topo(rebuilt), topo::write_topo(inst)) << seed;
  }
}

TEST(Spec, TryBuildRejectsBrokenSpecs) {
  InstanceSpec spec;
  spec.nodes.push_back({.label = "a", .cluster = 0, .reflector = true});
  spec.links.push_back({0, 5, 1});  // dangling node id
  EXPECT_FALSE(try_build(spec).has_value());

  spec.links.clear();
  spec.exits.push_back({.name = "x", .at = 9, .next_as = 1});  // dangling exit
  EXPECT_FALSE(try_build(spec).has_value());
}

TEST(Spec, RemoveNodeRemapsReferences) {
  auto spec = spec_of(topo::fig1a());
  const std::size_t nodes_before = spec.nodes.size();
  const std::size_t exits_before = spec.exits.size();
  // Remove node 0; everything referring to higher ids shifts down.
  remove_node(spec, 0);
  EXPECT_EQ(spec.nodes.size(), nodes_before - 1);
  for (const auto& link : spec.links) {
    EXPECT_LT(link.a, spec.nodes.size());
    EXPECT_LT(link.b, spec.nodes.size());
  }
  for (const auto& exit : spec.exits) EXPECT_LT(exit.at, spec.nodes.size());
  EXPECT_LE(spec.exits.size(), exits_before);
  // Clusters stay dense after removal.
  std::set<netsim::ClusterId> clusters;
  for (const auto& node : spec.nodes) clusters.insert(node.cluster);
  for (netsim::ClusterId c = 0; c < clusters.size(); ++c) EXPECT_TRUE(clusters.count(c));
}

TEST(Spec, HybridSpecMapsConfederation) {
  const auto confed = confed::rfc3345_confederation();
  const auto spec = hybrid_spec(confed);
  ASSERT_EQ(spec.nodes.size(), confed.node_count());
  const auto inst = try_build(spec);
  ASSERT_TRUE(inst.has_value());
  // Sub-AS partition becomes the cluster partition.
  for (NodeId u = 0; u < confed.node_count(); ++u) {
    for (NodeId v = 0; v < confed.node_count(); ++v) {
      EXPECT_EQ(confed.same_sub_as(u, v), inst->clusters().same_cluster(u, v));
    }
  }
  // Every cluster got at least one reflector (or build would have thrown),
  // and the exits carried over.
  EXPECT_EQ(inst->exits().size(), confed.exits().size());
}

// --- mutation ------------------------------------------------------------------------

TEST(Mutate, DeterministicPerSeed) {
  const auto parent = spec_of(topo::fig1a());
  const auto a = mutate(parent, 42);
  const auto b = mutate(parent, 42);
  const auto ia = try_build(a);
  const auto ib = try_build(b);
  ASSERT_EQ(ia.has_value(), ib.has_value());
  if (ia) EXPECT_EQ(topo::write_topo(*ia), topo::write_topo(*ib));
}

TEST(Mutate, ProducesMostlyValidVariedOffspring) {
  const auto parent = spec_of(topo::fig1a());
  std::size_t valid = 0;
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto child = mutate(parent, seed);
    if (const auto inst = try_build(child)) {
      ++valid;
      distinct.insert(topo::write_topo(*inst));
    }
  }
  EXPECT_GE(valid, 150u);     // the menu rarely breaks structure
  EXPECT_GE(distinct.size(), 50u);  // and actually explores
}

TEST(Mutate, ReachesPolicyKnobs) {
  const auto parent = spec_of(topo::fig1a());
  bool saw_route_map = false, saw_override = false, saw_community = false;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto child = mutate(parent, seed);
    saw_route_map |= !child.route_maps.empty();
    saw_override |= !child.policy.med_overrides.empty();
    for (const auto& exit : child.exits) saw_community |= exit.communities != 0;
  }
  EXPECT_TRUE(saw_route_map);
  EXPECT_TRUE(saw_override);
  EXPECT_TRUE(saw_community);
}

// --- satellite: truncation is never oscillation --------------------------------------

TEST(Classify, StepBudgetExhaustionIsNotOscillation) {
  // Fig 1(a) provably cycles with a real budget; with a starvation budget
  // the verdict must be kStepLimit — truncated, NOT oscillating.
  const auto inst = topo::fig1a();
  const auto full = analysis::classify(inst, core::ProtocolKind::kStandard, 2000);
  EXPECT_TRUE(full.oscillates());
  EXPECT_FALSE(full.truncated());

  const auto starved = analysis::classify(inst, core::ProtocolKind::kStandard, 2);
  EXPECT_FALSE(starved.oscillates());
  EXPECT_TRUE(starved.truncated());
  EXPECT_TRUE(starved.indeterminate());
  EXPECT_EQ(starved.round_robin, engine::RunStatus::kStepLimit);
  EXPECT_EQ(starved.synchronous, engine::RunStatus::kStepLimit);
}

TEST(Classify, MixedTruncationStillReportsProvenCycle) {
  // oscillates() may hold alongside truncated() only when the OTHER
  // schedule proved a cycle.
  analysis::ConvergenceSignature sig;
  sig.round_robin = engine::RunStatus::kCycleDetected;
  sig.synchronous = engine::RunStatus::kStepLimit;
  EXPECT_TRUE(sig.oscillates());
  EXPECT_TRUE(sig.truncated());
  EXPECT_FALSE(sig.indeterminate());
}

TEST(Explorer, StarvedBudgetYieldsNoHits) {
  // With a 1-step budget nothing can be proven to cycle, so the explorer
  // must record truncations and zero hits — never misreading a truncated
  // run as a counterexample.
  ExploreConfig config;
  config.budget = 60;
  config.batch = 20;
  config.max_steps = 1;
  config.max_deliveries = 500;
  config.random_seeds = 4;
  config.hybrid_seeds = 1;
  const auto result = explore(config);
  EXPECT_EQ(result.hits.size(), 0u);
  EXPECT_GT(result.stats.truncated_runs, 0u);
}

// --- minimizer -----------------------------------------------------------------------

TEST(Minimize, StripsJunkFromInflatedOscillator) {
  // Inflate Fig 1(a) with irrelevant structure, then check the minimizer
  // strips it while preserving the exact signature.
  auto spec = spec_of(topo::fig1a());
  const std::size_t true_nodes = spec.nodes.size();
  const std::size_t true_exits = spec.exits.size();

  // Junk: an extra cluster with client, an unused exit, a pointless
  // route-map on the new client, and a MED override for an unused AS.
  const auto base = static_cast<NodeId>(spec.nodes.size());
  const auto cluster = static_cast<netsim::ClusterId>(1 +
      std::max_element(spec.nodes.begin(), spec.nodes.end(),
                       [](const NodeSpec& a, const NodeSpec& b) {
                         return a.cluster < b.cluster;
                       })->cluster);
  spec.nodes.push_back({.label = "junkR", .cluster = cluster, .reflector = true,
                        .bgp_id = 90});
  spec.nodes.push_back({.label = "junkC", .cluster = cluster, .reflector = false,
                        .bgp_id = 91});
  spec.links.push_back({base, 0, 7});
  spec.links.push_back({base, static_cast<NodeId>(base + 1), 3});
  spec.exits.push_back({.name = "junkX", .at = static_cast<NodeId>(base + 1),
                        .next_as = 3, .med = 1, .local_pref = 50, .ebgp_peer = 1999});
  spec.route_maps.push_back(
      {.node = static_cast<NodeId>(base + 1),
       .clause = {.match_as = 3, .set_local_pref = 60}});
  spec.policy.med_overrides.push_back({.as = 3, .mode = bgp::MedMode::kIgnore});

  const auto inflated = build(spec);
  MinimizeGoal goal;
  goal.protocol = core::ProtocolKind::kStandard;
  goal.signature = analysis::classify(inflated, goal.protocol, 2000);
  goal.max_steps = 2000;
  ASSERT_TRUE(goal.signature.oscillates());

  MinimizeStats stats;
  const auto minimized = minimize(spec, goal, &stats);
  EXPECT_GT(stats.candidates_tried, 0u);
  EXPECT_GT(stats.accepted, 0u);
  // All the junk is gone (the true core may shrink further, never grow).
  EXPECT_LE(minimized.nodes.size(), true_nodes);
  EXPECT_LE(minimized.exits.size(), true_exits);
  EXPECT_TRUE(minimized.route_maps.empty());
  EXPECT_TRUE(minimized.policy.med_overrides.empty());
  // And the minimized instance still shows the exact signature.
  const auto inst = try_build(minimized);
  ASSERT_TRUE(inst.has_value());
  EXPECT_TRUE(satisfies(*inst, goal));
}

TEST(Minimize, ReadsLaterFieldsAfterAnAcceptedFlattening) {
  // r1 is Fig 1(a)'s only AS1 path, so its MED never meets another under
  // per-AS MED comparison: flattening it is accepted, which replaces the
  // spec, and the pass must then go on reading r1's remaining fields from
  // the new spec (the community tag here) rather than from the old one.
  auto spec = spec_of(topo::fig1a());
  const auto r1 = std::find_if(spec.exits.begin(), spec.exits.end(),
                               [](const ExitSpec& exit) { return exit.name == "r1"; });
  ASSERT_NE(r1, spec.exits.end());
  r1->med = 7;
  r1->communities = 5;

  MinimizeGoal goal;
  goal.protocol = core::ProtocolKind::kStandard;
  goal.max_steps = 2000;
  goal.signature = analysis::classify(build(spec), goal.protocol, goal.max_steps);
  ASSERT_TRUE(goal.signature.oscillates());

  MinimizeStats stats;
  const auto minimized = minimize(spec, goal, &stats);
  EXPECT_GT(stats.accepted, 0u);
  const auto kept = std::find_if(minimized.exits.begin(), minimized.exits.end(),
                                 [](const ExitSpec& exit) { return exit.name == "r1"; });
  ASSERT_NE(kept, minimized.exits.end());
  EXPECT_EQ(kept->med, 0u);
  EXPECT_EQ(kept->communities, 0u);
  const auto inst = try_build(minimized);
  ASSERT_TRUE(inst.has_value());
  EXPECT_TRUE(satisfies(*inst, goal));
}

TEST(Minimize, ReturnsInputWhenPreconditionFails) {
  // A converging instance cannot satisfy an oscillation goal: minimize()
  // must hand the spec back unchanged rather than shrink toward nonsense.
  auto spec = spec_of(topo::fig1a());
  MinimizeGoal goal;
  goal.protocol = core::ProtocolKind::kModified;  // converges on fig1a
  goal.signature.round_robin = engine::RunStatus::kCycleDetected;
  goal.signature.synchronous = engine::RunStatus::kCycleDetected;
  goal.max_steps = 2000;
  const auto out = minimize(spec, goal);
  EXPECT_EQ(out.nodes.size(), spec.nodes.size());
  EXPECT_EQ(out.exits.size(), spec.exits.size());
}

// --- explorer end-to-end -------------------------------------------------------------

TEST(Explorer, FindsAndMinimizesOscillators) {
  ExploreConfig config;
  config.seed = 7;
  config.budget = 300;
  config.batch = 50;
  config.max_steps = 2000;
  config.max_deliveries = 10000;
  config.random_seeds = 6;
  config.hybrid_seeds = 2;
  const auto result = explore(config);
  EXPECT_EQ(result.stats.evaluated, 300u);
  EXPECT_GT(result.stats.new_coverage, 0u);
  EXPECT_GT(result.stats.hits_raw, 0u);
  ASSERT_FALSE(result.hits.empty());
  EXPECT_EQ(result.stats.theorem_violations, 0u);

  std::set<std::uint64_t> fingerprints;
  for (const auto& hit : result.hits) {
    EXPECT_TRUE(fingerprints.insert(hit.fingerprint).second) << "dedup failed";
    const auto inst = try_build(hit.spec);
    ASSERT_TRUE(inst.has_value());
    // Hits really oscillate (proven cycle, not truncation)...
    EXPECT_TRUE(hit.signature.oscillates());
    const auto replay =
        analysis::classify(*inst, core::ProtocolKind::kStandard, config.max_steps);
    EXPECT_EQ(replay.round_robin, hit.signature.round_robin);
    EXPECT_EQ(replay.synchronous, hit.signature.synchronous);
    // ...and the paper's modified protocol settles every one of them.
    EXPECT_TRUE(analysis::classify(*inst, core::ProtocolKind::kModified, config.max_steps)
                    .converges_always_tested());
  }
}

TEST(Explorer, DeterministicAcrossJobs) {
  ExploreConfig config;
  config.seed = 11;
  config.budget = 150;
  config.batch = 50;
  config.max_steps = 1000;
  config.max_deliveries = 5000;
  config.random_seeds = 4;
  config.hybrid_seeds = 1;
  config.jobs = 1;
  const auto serial = explore(config);
  config.jobs = 8;
  const auto parallel = explore(config);
  ASSERT_EQ(serial.hits.size(), parallel.hits.size());
  for (std::size_t i = 0; i < serial.hits.size(); ++i) {
    EXPECT_EQ(serial.hits[i].fingerprint, parallel.hits[i].fingerprint);
  }
  EXPECT_EQ(serial.stats.evaluated, parallel.stats.evaluated);
  EXPECT_EQ(serial.stats.new_coverage, parallel.stats.new_coverage);
  EXPECT_EQ(serial.stats.hits_raw, parallel.stats.hits_raw);
}

TEST(Explorer, ResumedRunEqualsUninterruptedRun) {
  // The checkpoint contract: an interrupted search resumed from disk must be
  // bit-for-bit the run that was never interrupted.  Run budget 128 with a
  // checkpoint, then resume with budget 256, and compare against a straight
  // budget-256 run.
  ExploreConfig config;
  config.seed = 11;
  config.batch = 50;
  config.max_steps = 1000;
  config.max_deliveries = 5000;
  config.random_seeds = 4;
  config.hybrid_seeds = 1;

  config.budget = 256;
  const auto uninterrupted = explore(config);

  const std::string path =
      std::string(testing::TempDir()) + "/explore_resume_ckpt.json";
  std::remove(path.c_str());
  config.checkpoint_path = path;
  config.budget = 128;
  config.resume = false;
  const auto partial = explore(config);
  EXPECT_LE(partial.stats.evaluated, 128u + config.batch);

  config.budget = 256;
  config.resume = true;
  const auto resumed = explore(config);

  EXPECT_EQ(resumed.stats.evaluated, uninterrupted.stats.evaluated);
  EXPECT_EQ(resumed.stats.invalid, uninterrupted.stats.invalid);
  EXPECT_EQ(resumed.stats.new_coverage, uninterrupted.stats.new_coverage);
  EXPECT_EQ(resumed.stats.hits_raw, uninterrupted.stats.hits_raw);
  EXPECT_EQ(resumed.stats.truncated_runs, uninterrupted.stats.truncated_runs);
  ASSERT_EQ(resumed.hits.size(), uninterrupted.hits.size());
  for (std::size_t i = 0; i < resumed.hits.size(); ++i) {
    EXPECT_EQ(resumed.hits[i].fingerprint, uninterrupted.hits[i].fingerprint);
    EXPECT_EQ(resumed.hits[i].med_induced, uninterrupted.hits[i].med_induced);
    EXPECT_EQ(resumed.hits[i].hybrid, uninterrupted.hits[i].hybrid);
  }
  std::remove(path.c_str());
}

TEST(Explorer, MismatchedCheckpointStartsFresh) {
  // A checkpoint written under a different seed must be ignored (identity
  // guard), not loaded into a differently-seeded search.
  ExploreConfig config;
  config.seed = 11;
  config.budget = 60;
  config.batch = 20;
  config.max_steps = 500;
  config.max_deliveries = 2000;
  config.random_seeds = 2;
  config.hybrid_seeds = 1;

  const std::string path =
      std::string(testing::TempDir()) + "/explore_mismatch_ckpt.json";
  std::remove(path.c_str());
  config.checkpoint_path = path;
  const auto first = explore(config);
  (void)first;

  config.seed = 12;  // identity mismatch: checkpoint must be discarded
  config.resume = true;
  const auto fresh = explore(config);
  config.checkpoint_path.clear();
  config.resume = false;
  const auto reference = explore(config);
  EXPECT_EQ(fresh.stats.evaluated, reference.stats.evaluated);
  EXPECT_EQ(fresh.stats.new_coverage, reference.stats.new_coverage);
  EXPECT_EQ(fresh.stats.hits_raw, reference.stats.hits_raw);
  ASSERT_EQ(fresh.hits.size(), reference.hits.size());
  for (std::size_t i = 0; i < fresh.hits.size(); ++i) {
    EXPECT_EQ(fresh.hits[i].fingerprint, reference.hits[i].fingerprint);
  }
  std::remove(path.c_str());
}

TEST(Explorer, TornCheckpointStartsFresh) {
  // Half a checkpoint (torn write) must never crash or poison the search.
  ExploreConfig config;
  config.seed = 5;
  config.budget = 40;
  config.batch = 20;
  config.max_steps = 500;
  config.max_deliveries = 2000;
  config.random_seeds = 2;
  config.hybrid_seeds = 1;

  const std::string path =
      std::string(testing::TempDir()) + "/explore_torn_ckpt.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\": \"ibgp-explore-ckpt-v1\", \"round\": 3, \"fron";
  }
  config.checkpoint_path = path;
  config.resume = true;
  const auto resumed = explore(config);
  config.checkpoint_path.clear();
  config.resume = false;
  const auto reference = explore(config);
  EXPECT_EQ(resumed.stats.evaluated, reference.stats.evaluated);
  EXPECT_EQ(resumed.stats.hits_raw, reference.stats.hits_raw);
  std::remove(path.c_str());
}

TEST(Explorer, CheckpointWithATooWideNodeIdStartsFresh) {
  // A frontier link endpoint past the 32-bit id range used to narrow into a
  // valid id (2^32 read back as node 0) while the rest of the checkpoint
  // loaded beside it.  It must be refused, and the search start fresh.
  ExploreConfig config;
  config.seed = 11;
  config.budget = 60;
  config.batch = 20;
  config.max_steps = 500;
  config.max_deliveries = 2000;
  config.random_seeds = 2;
  config.hybrid_seeds = 1;

  const std::string path = std::string(testing::TempDir()) + "/explore_wide_id_ckpt.json";
  std::remove(path.c_str());
  config.checkpoint_path = path;
  (void)explore(config);

  std::string text;
  {
    std::ifstream in(path);
    ASSERT_TRUE(std::getline(in, text));
  }
  // Replaces the number that follows the first occurrence of `prefix`.
  const auto replace_number = [&](std::string_view prefix, std::string_view value) {
    const auto at = text.find(prefix);
    ASSERT_NE(at, std::string::npos) << prefix;
    const auto begin = at + prefix.size();
    const auto end = text.find_first_not_of("0123456789", begin);
    text.replace(begin, end - begin, value);
  };
  replace_number("\"links\": [[", "4294967296");  // the first frontier spec's
  replace_number("\"evaluated\": ", "987654321");  // marks the loaded stats
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  config.resume = true;
  const auto resumed = explore(config);
  config.checkpoint_path.clear();
  config.resume = false;
  const auto reference = explore(config);
  EXPECT_EQ(resumed.stats.evaluated, reference.stats.evaluated);
  EXPECT_EQ(resumed.stats.new_coverage, reference.stats.new_coverage);
  EXPECT_EQ(resumed.stats.hits_raw, reference.stats.hits_raw);
  std::remove(path.c_str());
}

// --- mutated-spec DSL round-trip (byte identity under the new knobs) -----------------

TEST(Explorer, MutantTopoRoundTripsByteIdentical) {
  const auto parent = spec_of(topo::fig1a());
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const auto child = mutate(parent, seed);
    const auto inst = try_build(child);
    if (!inst) continue;
    ++checked;
    const std::string text = topo::write_topo(*inst);
    EXPECT_EQ(topo::write_topo(topo::parse_topo(text)), text) << "seed " << seed;
  }
  EXPECT_GT(checked, 80u);
}

}  // namespace
}  // namespace ibgp::explore
