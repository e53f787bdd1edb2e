// IGP topology churn tests — runtime link-cost/link-failure faults with
// deterministic SPF recomputation and deflection-aware continuity.
//
// The paper prices every route by its IGP shortest-path distance (Section
// 4), so the underlay is a decision input: these suites verify that link
// faults swap in memoized ShortestPaths epochs deterministically, that
// sessions riding a dead shortest path sever and resume with reachability,
// that the post-quiescence IGP-metric currency invariant holds on random
// topologies under churn, that reverting the underlay restores the original
// stable state (pointer-identical base epoch included), and that the MRAI
// hold-down machinery cannot leak a stale scheduled advertisement across a
// session reset (the flush-epoch regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/continuity.hpp"
#include "analysis/invariants.hpp"
#include "engine/event_engine.hpp"
#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "fault/sweep.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"

namespace ibgp {
namespace {

using core::ProtocolKind;
using engine::EventEngine;
using fault::FaultAction;

// --- epoch swaps -------------------------------------------------------------------

TEST(Churn, CostChangeSwapsEpochAndRepricesEveryRoute) {
  const auto inst = topo::fig1a();
  const NodeId a = inst.find_node("A");
  const NodeId b = inst.find_node("B");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  // Cheapening the A—B mesh link from 6 to 1 re-prices every route that
  // crosses it without a single session fault.
  engine.schedule_link_cost_change(a, b, 1, 1000);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.igp_epoch_swaps, 1u);
  EXPECT_EQ(result.faults_applied, 1u);

  // A fresh epoch is in force: not the instance's base shortest paths.
  EXPECT_NE(engine.igp_handle(), inst.igp_handle());
  EXPECT_EQ(engine.igp().cost(a, b), 1u);
  ASSERT_EQ(engine.igp_log().size(), 1u);
  EXPECT_EQ(engine.igp_log()[0].time, 1000u);
  EXPECT_NE(engine.igp_log()[0].fingerprint, inst.igp().fingerprint());

  // The fault log records the metric, and the metric-currency invariant
  // (check 5) holds against the NEW distances for every selected route.
  ASSERT_EQ(engine.fault_log().size(), 1u);
  EXPECT_EQ(engine.fault_log()[0].cost, 1u);
  const auto report = analysis::check_invariants(engine);
  EXPECT_TRUE(report.clean()) << analysis::describe_report(report);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const auto& best = engine.best(v);
    ASSERT_TRUE(best.has_value()) << inst.node_name(v);
    const auto& exit = inst.exits()[best->path];
    EXPECT_EQ(best->metric, engine.igp().cost(v, exit.exit_point) + exit.exit_cost)
        << inst.node_name(v);
  }
}

TEST(Churn, RevertingChurnRestoresTheBaseEpochPointerIdentically) {
  const auto inst = topo::fig1a();
  const NodeId a = inst.find_node("A");
  const NodeId b = inst.find_node("B");
  const NodeId c1 = inst.find_node("c1");

  EventEngine baseline(inst, ProtocolKind::kModified);
  baseline.inject_all_exits(0);
  const auto base_result = baseline.run();
  ASSERT_TRUE(base_result.converged);

  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.schedule_link_cost_change(a, b, 1, 1000);  // jolt ...
  engine.schedule_link_cost_change(a, b, 6, 1100);  // ... and revert
  engine.schedule_link_down(a, c1, 1200);           // fail ...
  engine.schedule_link_up(a, c1, 1300);             // ... and repair
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.igp_epoch_swaps, 4u);

  // Back on the base cost vector, the SPF cache returns the instance's own
  // base epoch — the very same object, not an equal recomputation.
  EXPECT_EQ(engine.igp_handle(), inst.igp_handle());
  // Cache contents: base (seeded) + the jolted vector + the failed vector.
  EXPECT_EQ(inst.igp_epoch_count(), 3u);

  // And the original stable state is restored exactly.
  EXPECT_EQ(result.final_best, base_result.final_best);
  const auto report = analysis::check_invariants(engine);
  EXPECT_TRUE(report.clean()) << analysis::describe_report(report);
}

TEST(Churn, NoOpLinkFaultsInstallNoEpochAndLogNothing) {
  const auto inst = topo::fig1a();
  const NodeId a = inst.find_node("A");
  const NodeId b = inst.find_node("B");
  const NodeId c3 = inst.find_node("c3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.schedule_link_cost_change(a, b, 6, 1000);  // current cost: no-op
  engine.schedule_link_down(a, c3, 1100);
  engine.schedule_link_down(a, c3, 1150);  // already down: no-op
  engine.schedule_link_up(a, c3, 1200);
  engine.schedule_link_up(a, c3, 1250);  // already up: no-op
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.faults_applied, 2u);  // only the effective down + up
  EXPECT_EQ(result.igp_epoch_swaps, 2u);
  EXPECT_EQ(engine.igp_handle(), inst.igp_handle());
}

TEST(Churn, ScheduleValidationRejectsBadLinksAndMetrics) {
  const auto inst = topo::fig1a();
  const NodeId a = inst.find_node("A");
  const NodeId c1 = inst.find_node("c1");
  const NodeId c2 = inst.find_node("c2");
  EventEngine engine(inst, ProtocolKind::kModified);
  // c1—c2 is not a physical link in Fig 1(a).
  EXPECT_THROW(engine.schedule_link_down(c1, c2, 10), std::invalid_argument);
  EXPECT_THROW(engine.schedule_link_up(c1, c2, 10), std::invalid_argument);
  EXPECT_THROW(engine.schedule_link_cost_change(c1, c2, 3, 10), std::invalid_argument);
  // IGP metrics must be positive and finite.
  EXPECT_THROW(engine.schedule_link_cost_change(a, c1, 0, 10), std::invalid_argument);
  EXPECT_THROW(engine.schedule_link_cost_change(a, c1, kInfCost, 10),
               std::invalid_argument);
}

// --- partitions sever sessions -----------------------------------------------------

TEST(Churn, PartitionSeversIgpUnreachableSessions) {
  // Downing A—c3 and B—c3 isolates c3 from the IGP: the B—c3 I-BGP session
  // rides a now-dead shortest path and must sever exactly as a session
  // fault would.  c3 keeps its own E-BGP exit r3; everyone else must stop
  // selecting it.
  const auto inst = topo::fig1a();
  const NodeId a = inst.find_node("A");
  const NodeId b = inst.find_node("B");
  const NodeId c3 = inst.find_node("c3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.schedule_link_down(a, c3, 1000);
  engine.schedule_link_down(b, c3, 1000);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_FALSE(engine.session_up(b, c3));
  EXPECT_FALSE(engine.igp().reachable(b, c3));

  const PathId r3 = 2;  // third registered exit, at c3
  ASSERT_EQ(inst.exits()[r3].exit_point, c3);
  EXPECT_EQ(result.final_best[c3], r3);  // own E-BGP route survives
  for (const NodeId v : {a, b, inst.find_node("c1"), inst.find_node("c2")}) {
    EXPECT_NE(result.final_best[v], r3) << inst.node_name(v);
  }
  const auto report = analysis::check_invariants(engine);
  EXPECT_TRUE(report.clean()) << analysis::describe_report(report);
}

TEST(Churn, LinkUpRestoresSeveredSessionsAndTheOriginalState) {
  const auto inst = topo::fig1a();
  const NodeId a = inst.find_node("A");
  const NodeId b = inst.find_node("B");
  const NodeId c3 = inst.find_node("c3");

  EventEngine baseline(inst, ProtocolKind::kModified);
  baseline.inject_all_exits(0);
  const auto base_result = baseline.run();
  ASSERT_TRUE(base_result.converged);

  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.schedule_link_down(a, c3, 1000);
  engine.schedule_link_down(b, c3, 1000);
  engine.schedule_link_up(a, c3, 1100);
  engine.schedule_link_up(b, c3, 1100);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(engine.session_up(b, c3));
  EXPECT_EQ(engine.igp_handle(), inst.igp_handle());
  EXPECT_EQ(result.final_best, base_result.final_best);
  const auto report = analysis::check_invariants(engine);
  EXPECT_TRUE(report.clean()) << analysis::describe_report(report);
}

// --- MRAI flush vs session reset (regression) --------------------------------------

TEST(Churn, MraiFlushDoesNotLeakAcrossSessionReset) {
  // Regression: a kMraiFlush scheduled while a hold-down window was open
  // must NOT fire into a re-established session.  Sequence: a withdraw +
  // re-inject pair opens A's window toward B and queues a flush; the A—B
  // session then flaps BEFORE the flush matures.  The re-sync on session-up
  // already replayed the full table, so the matured flush must be voided
  // (stamped with the pre-reset session epoch), not leaked as a stale
  // scheduled advertisement into the new session epoch.
  const auto inst = topo::fig1b();
  const NodeId a = inst.find_node("A");
  const NodeId b = inst.find_node("B");
  const PathId ra1 = 0;  // first registered exit, at A

  EventEngine baseline(inst, ProtocolKind::kModified);
  baseline.set_mrai(200);
  baseline.inject_all_exits(0);
  const auto base_result = baseline.run();
  ASSERT_TRUE(base_result.converged);

  EventEngine engine(inst, ProtocolKind::kModified);
  engine.set_mrai(200);
  engine.inject_all_exits(0);
  engine.withdraw_exit(ra1, 1000);  // first change sends, arms the window
  engine.inject_exit(ra1, 1005);    // second change queues the flush
  engine.schedule_session_down(a, b, 1010);  // reset before the flush matures
  engine.schedule_session_up(a, b, 1050);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);

  // The stale flush (and any in-flight updates) died with the old epoch.
  EXPECT_GE(engine.counters().deliveries_voided, 1u);
  // The re-established session carries exactly the baseline state: same
  // fixed point, consistent RIBs, no duplicate or stale advertisement.
  EXPECT_EQ(result.final_best, base_result.final_best);
  const auto report = analysis::check_invariants(engine);
  EXPECT_TRUE(report.clean()) << analysis::describe_report(report);
}

// --- continuity: deflections are detected and priced -------------------------------

TEST(Churn, StandardOscillationDeflectsForwardingWithoutLoops) {
  // Fig 1(a) under standard I-BGP oscillates with NO faults at all: the
  // continuity replay must price the oscillation as deflected forwarding
  // (packets delivered at exits the source never selected — Fig 12's
  // phenomenon), not as loops or blackholes.
  const auto inst = topo::fig1a();
  fault::FaultScript script;  // empty: no faults, pure protocol dynamics
  fault::CampaignOptions options;
  options.max_deliveries = 100000;
  const auto campaign =
      fault::run_campaign(inst, ProtocolKind::kStandard, script, options);
  EXPECT_FALSE(campaign.reconverged());
  EXPECT_GT(campaign.continuity.deflection_ticks, 0u);
  EXPECT_EQ(campaign.continuity.loop_ticks, 0u);
  EXPECT_TRUE(campaign.continuity.churn_events.empty());  // no churn to price
}

TEST(Churn, ContinuityPricesEachChurnEventWindow) {
  // Every installed IGP epoch opens a pricing window: the per-churn-event
  // breakdown must be index-aligned with the epoch swaps, and its summed
  // damage must not exceed the campaign totals.
  const auto inst = topo::fig1a();
  fault::FaultScriptConfig config;
  config.seed = 2;
  config.window_start = 20;
  config.window_end = 400;
  config.link_downs = 3;
  const auto script = fault::make_fault_script(inst, config);
  fault::CampaignOptions options;
  options.max_deliveries = 100000;
  const auto campaign =
      fault::run_campaign(inst, ProtocolKind::kModified, script, options);
  ASSERT_TRUE(campaign.reconverged());
  EXPECT_EQ(campaign.continuity.churn_events.size(), campaign.run.igp_epoch_swaps);
  EXPECT_GT(campaign.run.igp_epoch_swaps, 0u);

  std::uint64_t loops = 0, blackholes = 0, deflections = 0;
  for (const auto& event : campaign.continuity.churn_events) {
    loops += event.loop_ticks;
    blackholes += event.blackhole_ticks;
    deflections += event.deflection_ticks;
  }
  EXPECT_LE(loops, campaign.continuity.loop_ticks);
  EXPECT_LE(blackholes, campaign.continuity.blackhole_ticks);
  EXPECT_LE(deflections, campaign.continuity.deflection_ticks);
  // This cell is known-deflecting: a link failure moves B's shortest path
  // mid-convergence and the replay must catch the transient.
  EXPECT_GT(campaign.continuity.deflection_ticks, 0u);
}

// --- fault scripts: churn knobs & paired-RNG discipline ----------------------------

TEST(Churn, ChurnKnobsLeaveEarlierFaultFamiliesByteIdentical) {
  // The churn families draw AFTER every pre-existing family, so enabling
  // them must not perturb the session-flap / crash / exit-flap schedules a
  // seed produced before churn existed.
  const auto inst = topo::fig3();
  fault::FaultScriptConfig base;
  base.seed = 7;
  base.session_flaps = 2;
  base.crashes = 1;
  base.exit_flaps = 1;
  fault::FaultScriptConfig churned = base;
  churned.link_cost_changes = 2;
  churned.link_downs = 1;
  churned.partitions = 1;

  const auto strip_churn = [](const fault::FaultScript& script) {
    std::vector<FaultAction> kept;
    for (const auto& action : script.actions) {
      if (action.kind == FaultAction::Kind::kLinkCostChange ||
          action.kind == FaultAction::Kind::kLinkDown ||
          action.kind == FaultAction::Kind::kLinkUp) {
        continue;
      }
      kept.push_back(action);
    }
    return kept;
  };
  const auto before = strip_churn(make_fault_script(inst, base));
  const auto after = strip_churn(make_fault_script(inst, churned));
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].time, after[i].time) << i;
    EXPECT_EQ(before[i].kind, after[i].kind) << i;
    EXPECT_EQ(before[i].a, after[i].a) << i;
    EXPECT_EQ(before[i].b, after[i].b) << i;
    EXPECT_EQ(before[i].path, after[i].path) << i;
  }
}

TEST(Churn, CostChangesAndLinkDownsSharePairedDraws) {
  // Paired discipline: (changes=N, downs=0) and (changes=0, downs=N) with
  // the same seed must hit the SAME links at the SAME times for the SAME
  // durations, differing only in severity — the controlled comparison the
  // churn bench relies on.
  const auto inst = topo::fig3();
  fault::FaultScriptConfig jolts;
  jolts.seed = 11;
  jolts.link_cost_changes = 3;
  fault::FaultScriptConfig outages = jolts;
  outages.link_cost_changes = 0;
  outages.link_downs = 3;

  auto jolt_script = make_fault_script(inst, jolts);
  auto outage_script = make_fault_script(inst, outages);
  ASSERT_EQ(jolt_script.actions.size(), 6u);  // 3 jolt/revert pairs
  ASSERT_EQ(outage_script.actions.size(), 6u);
  std::stable_sort(jolt_script.actions.begin(), jolt_script.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.time < y.time;
                   });
  std::stable_sort(outage_script.actions.begin(), outage_script.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.time < y.time;
                   });
  for (std::size_t i = 0; i < jolt_script.actions.size(); ++i) {
    EXPECT_EQ(jolt_script.actions[i].time, outage_script.actions[i].time) << i;
    EXPECT_EQ(jolt_script.actions[i].a, outage_script.actions[i].a) << i;
    EXPECT_EQ(jolt_script.actions[i].b, outage_script.actions[i].b) << i;
  }
  for (const auto& action : jolt_script.actions) {
    EXPECT_TRUE(action.kind == FaultAction::Kind::kLinkCostChange);
    EXPECT_GT(action.cost, 0u);
  }
}

TEST(Churn, PartitionDownsEveryIncidentLinkOfOneVictim) {
  const auto inst = topo::fig1a();
  fault::FaultScriptConfig config;
  config.seed = 3;
  config.partitions = 1;
  const auto script = make_fault_script(inst, config);
  ASSERT_FALSE(script.actions.empty());

  // All downs share one start time, all ups one repair time, and together
  // they cover exactly the victim's incident links.
  std::vector<const FaultAction*> downs, ups;
  for (const auto& action : script.actions) {
    if (action.kind == FaultAction::Kind::kLinkDown) downs.push_back(&action);
    if (action.kind == FaultAction::Kind::kLinkUp) ups.push_back(&action);
  }
  ASSERT_FALSE(downs.empty());
  ASSERT_EQ(downs.size(), ups.size());
  for (const auto* action : downs) EXPECT_EQ(action->time, downs.front()->time);
  for (const auto* action : ups) EXPECT_EQ(action->time, ups.front()->time);
  EXPECT_GT(ups.front()->time, downs.front()->time);

  // The victim is a node that every downed link touches and whose entire
  // incidence list is covered — one of the two endpoints of the first down.
  const auto is_victim = [&](NodeId v) {
    if (inst.physical().neighbors(v).size() != downs.size()) return false;
    return std::all_of(downs.begin(), downs.end(), [&](const FaultAction* action) {
      return action->a == v || action->b == v;
    });
  };
  EXPECT_TRUE(is_victim(downs.front()->a) || is_victim(downs.front()->b));
}

// --- acceptance: mixed churn + flaps + graceful restarts ---------------------------

TEST(Churn, MixedChurnFlapAndGracefulCampaignsStayClean) {
  // The acceptance campaign: link churn layered over session flaps and
  // graceful restarts.  The modified protocol must reconverge and pass the
  // full churn-aware invariant suite — including the IGP-metric currency
  // check — on every seed.
  const auto inst = topo::fig3();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    fault::FaultScriptConfig config;
    config.seed = seed;
    config.window_start = 20;
    config.window_end = 400;
    config.session_flaps = 2;
    config.graceful_restarts = 1;
    config.link_cost_changes = 2;
    config.link_downs = 1;
    config.partitions = 1;
    const auto script = make_fault_script(inst, config);
    fault::CampaignOptions options;
    options.max_deliveries = 200000;
    const auto campaign =
        fault::run_campaign(inst, ProtocolKind::kModified, script, options);
    ASSERT_TRUE(campaign.reconverged()) << "seed " << seed;
    EXPECT_TRUE(campaign.invariants.clean())
        << "seed " << seed << "\n"
        << analysis::describe_report(campaign.invariants);
    EXPECT_EQ(campaign.invariants.igp_mismatch, 0u) << "seed " << seed;
  }
}

// --- determinism: churn cells, serial vs parallel ----------------------------------

TEST(Churn, ChurnSweepIsByteIdenticalSerialVsParallel) {
  // The SPF cache is shared across worker threads; hashes cover the full
  // IGP epoch timeline — so any schedule-dependence in the churn path would
  // surface as a serial-vs-parallel trace divergence here.
  const auto fig1a = topo::fig1a();
  const auto fig3 = topo::fig3();
  std::vector<fault::SweepCell> cells;
  for (const core::Instance* inst : {&fig1a, &fig3}) {
    for (const auto protocol : {ProtocolKind::kStandard, ProtocolKind::kModified}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        fault::FaultScriptConfig config;
        config.seed = seed;
        config.window_start = 20;
        config.window_end = 400;
        config.link_cost_changes = 2;
        config.link_downs = 1;
        config.partitions = 1;
        config.session_flaps = 1;
        fault::SweepCell cell;
        cell.instance = inst;
        cell.protocol = protocol;
        cell.script = make_fault_script(*inst, config);
        cell.options.max_deliveries = 60000;
        cell.seed = seed;
        cells.push_back(std::move(cell));
      }
    }
  }
  const auto serial = fault::run_sweep(cells, 1);
  const auto parallel = fault::run_sweep(cells, 4);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].trace_hash, parallel.cells[i].trace_hash) << i;
  }
}

// --- properties over random topologies ---------------------------------------------

topo::RandomConfig churn_ensemble(std::uint64_t seed) {
  topo::RandomConfig config;
  config.clusters = 2 + seed % 3;
  config.max_clients = 1 + seed % 3;
  config.neighbor_ases = 1 + seed % 3;
  config.exits = 3 + seed % 4;
  config.max_med = 1 + static_cast<Med>(seed % 3);
  config.max_exit_cost = static_cast<Cost>(seed % 5);
  config.extra_link_prob = 0.2 + 0.1 * static_cast<double>(seed % 3);
  return config;
}

class RandomChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  core::Instance make_instance() const {
    return topo::random_instance(churn_ensemble(GetParam()), GetParam());
  }
};

TEST_P(RandomChurnProperty, PostQuiescenceMetricsMatchTheCurrentGraph) {
  // After any churn campaign that reconverges, every selected route's
  // metric must equal the CURRENT graph's shortest-path distance to its
  // exit plus the exit cost — the IGP-metric currency invariant, checked
  // across all three protocols.
  const auto inst = make_instance();
  fault::FaultScriptConfig config;
  config.seed = GetParam();
  config.window_start = 20;
  config.window_end = 300;
  config.link_cost_changes = 2;
  config.link_downs = 1;
  const auto script = make_fault_script(inst, config);
  fault::CampaignOptions options;
  options.max_deliveries = 150000;
  for (const auto protocol :
       {ProtocolKind::kStandard, ProtocolKind::kWalton, ProtocolKind::kModified}) {
    const auto campaign = fault::run_campaign(inst, protocol, script, options);
    if (!campaign.reconverged()) continue;  // oscillation: invariants inexact
    EXPECT_EQ(campaign.invariants.igp_mismatch, 0u)
        << core::protocol_name(protocol) << "\n"
        << analysis::describe_report(campaign.invariants);
    if (protocol == ProtocolKind::kModified) {
      EXPECT_TRUE(campaign.invariants.clean())
          << analysis::describe_report(campaign.invariants);
    }
  }
}

TEST_P(RandomChurnProperty, RevertedChurnRestoresTheOriginalStableState) {
  // link_up (and cost reverts) restoring the original cost vector must
  // restore the original stable state on oscillation-free instances — and
  // hand back the instance's base epoch pointer-identically.
  const auto inst = make_instance();
  EventEngine baseline(inst, ProtocolKind::kModified);
  baseline.inject_all_exits(0);
  const auto base_result = baseline.run();
  ASSERT_TRUE(base_result.converged);

  const auto links = inst.physical().links();
  ASSERT_FALSE(links.empty());
  const auto& first = links.front();
  const auto& last = links.back();

  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.schedule_link_cost_change(first.a, first.b, first.cost + 3, 1000);
  engine.schedule_link_down(last.a, last.b, 1100);
  engine.schedule_link_cost_change(first.a, first.b, first.cost, 1200);
  engine.schedule_link_up(last.a, last.b, 1300);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(engine.igp_handle(), inst.igp_handle());
  EXPECT_EQ(result.final_best, base_result.final_best);
  const auto report = analysis::check_invariants(engine);
  EXPECT_TRUE(report.clean()) << analysis::describe_report(report);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurnProperty, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace ibgp
