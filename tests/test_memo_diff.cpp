// Differential suite for the event engine's stepped decisions and the
// continuity memo (DESIGN.md §13).  reconsider() decides with core::decide
// on every delivery it steps, and check_continuity traces each recent
// forwarding state once.  Neither may change one observable byte:
//
//   - after every delivery, every up node's best route and its per-peer
//     desired sets equal the frozen reference decide over the frozen
//     candidate gathering (selection_reference.hpp, export_reference.hpp),
//     priced with the engine's current epoch, and a twin restored from the
//     capture taken just before the delivery (restore clears the derived
//     export caches) steps to the same captured state, counters included —
//     on the six figures, every corpus entry and random instances, under
//     full fault scripts (link-cost jolt/revert pairs, link failures,
//     partitions, graceful restarts, crashes, loss and duplication), all
//     three protocols, with and without an MRAI, and across a restore from
//     a mid-orbit capture;
//   - on budget-bound orbits (Fig 3 standard, Fig 13 Walton), the Result
//     and trace hash equal those of a chain of engines each restored from
//     the previous one's capture every few hundred deliveries;
//   - check_continuity equals the frozen replay (forwarding_reference.hpp)
//     field for field, on orbits whose forwarding states recur under
//     several epochs and through graceful-restart and cold-down modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/continuity.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "explore/corpus.hpp"
#include "export_reference.hpp"
#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "fault/sweep.hpp"
#include "forwarding_reference.hpp"
#include "scenarios.hpp"
#include "obs/metrics.hpp"
#include "selection_reference.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"
#include "util/hash.hpp"

#ifndef IBGP_CORPUS_DIR
#define IBGP_CORPUS_DIR "examples/data/corpus"
#endif

namespace ibgp {
namespace {

using core::ProtocolKind;
using engine::EngineState;
using engine::EventEngine;
using engine::SimTime;
using scenarios::describe;
using scenarios::differential_config;
using scenarios::full_fault_script;
using scenarios::jittered_delay;
using scenarios::kVariants;
using scenarios::Scripted;
using scenarios::scripted_engine;
using scenarios::Variant;

std::string path_list(const std::vector<PathId>& paths) {
  std::string out = "{";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out += (i ? "," : "") + std::to_string(paths[i]);
  }
  return out + "}";
}

std::string route(const std::optional<bgp::RouteView>& view) {
  if (!view) return "none";
  return "path " + std::to_string(view->path) + " metric " + std::to_string(view->metric) +
         " from " + std::to_string(view->learned_from) + (view->is_ebgp ? " ebgp" : "");
}

/// Every up node's best route and per-peer desired sets against the frozen
/// reference decision over the captured RIB, priced with the current epoch.
::testing::AssertionResult matches_reference(const core::Instance& inst,
                                             const EventEngine& engine,
                                             ProtocolKind protocol, const EngineState& state) {
  for (NodeId u = 0; u < inst.node_count(); ++u) {
    if (!state.node_up[u]) continue;
    const auto& node = state.nodes[u];
    const auto want = reference::decide(inst, engine.igp(), protocol, u,
                                        reference::candidates(inst, node));
    if (node.best != want.best) {
      return ::testing::AssertionFailure() << inst.node_name(u) << ": best " << route(node.best)
                                           << ", reference " << route(want.best);
    }
    const auto peers = inst.sessions().peers(u);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const auto target = reference::export_target(inst, node, u, peers[i], want.advertised);
      const auto& desired = node.desired_out[i];
      const bool up = engine.session_up(u, peers[i]);
      if (up ? desired != target : !desired.empty() && desired != target) {
        return ::testing::AssertionFailure()
               << inst.node_name(u) << " -> " << inst.node_name(peers[i]) << ": desired "
               << path_list(desired) << ", reference " << path_list(target);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::string state_json(EngineState state) {
  state.deliveries = 0;  // a restored run continues the count; the rest must agree
  return ckpt::engine_state_text(state);
}

/// What the differential runs reached, summed over a test.
struct Coverage {
  std::size_t deliveries = 0;
  std::size_t epoch_swaps = 0;
  std::size_t graceful_downs = 0;
  std::size_t restores = 0;  // runs that continued on a mid-run restore
};

/// Steps one scripted run a delivery at a time (or until the budget, for
/// protocols that oscillate), checking every delivery against the reference
/// and, when `twins` is set, against a twin restored from the capture
/// taken just before it.  Halfway through, the run itself moves to
/// an engine restored from its capture.
void run_differential(const core::Instance& inst, const Variant& variant, std::uint64_t seed,
                      std::size_t max_deliveries, bool twins, Coverage& coverage) {
  const auto script = full_fault_script(inst, seed);
  const auto delay = jittered_delay(seed);
  obs::MetricsRegistry registry;
  Scripted run = scripted_engine(inst, variant, script, delay, &registry);
  std::size_t restored_at = 0;
  for (std::size_t delivery = 1; delivery <= max_deliveries; ++delivery) {
    const EngineState before = run.engine->capture();
    // A restored engine's first run continues the count it resumed from.
    std::size_t budget = 1;
    if (delivery == max_deliveries / 2) {
      // Continue on an engine restored mid-run: its export caches start cold.
      run = scripted_engine(inst, variant, script, delay, &registry, &before);
      restored_at = delivery;
      budget = before.deliveries + 1;
    }
    if (run.engine->run(budget).deliveries < budget) break;  // drained
    const EngineState after = run.engine->capture();
    const auto verdict = matches_reference(inst, *run.engine, variant.protocol, after);
    if (!verdict) {
      ADD_FAILURE() << inst.name() << " seed " << seed << " " << describe(variant)
                    << ", after delivery " << delivery << ": " << verdict.message();
      return;
    }
    if (twins) {
      Scripted twin = scripted_engine(inst, variant, script, delay, nullptr, &before);
      twin.engine->run(before.deliveries + 1);
      if (state_json(twin.engine->capture()) != state_json(after)) {
        ADD_FAILURE() << inst.name() << " seed " << seed << " " << describe(variant)
                      << ": a restored twin diverged at delivery " << delivery;
        return;
      }
    }
    ++coverage.deliveries;
  }
  coverage.restores += restored_at > 0 ? 1 : 0;
  coverage.epoch_swaps += run.engine->counters().igp_epoch_swaps;
  for (const auto& fault : run.engine->fault_log()) {
    if (fault.kind == engine::FaultKind::kGracefulDown) ++coverage.graceful_downs;
  }
}

TEST(MemoDiff, FiguresMatchReferenceAndColdTwinsAfterEveryDelivery) {
  Coverage coverage;
  for (const auto& [name, inst] : topo::all_figures()) {
    SCOPED_TRACE(name);
    for (const Variant& variant : kVariants) {
      SCOPED_TRACE(describe(variant));
      run_differential(inst, variant, 31, 700, /*twins=*/true, coverage);
    }
  }
  EXPECT_GT(coverage.deliveries, 5'000u);
  EXPECT_GT(coverage.epoch_swaps, 0u);
  EXPECT_GT(coverage.graceful_downs, 0u);
  EXPECT_GT(coverage.restores, 0u);
}

class RandomMemoDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMemoDiff, MatchesReferenceAndColdTwinsAfterEveryDelivery) {
  const std::uint64_t seed = GetParam();
  const auto inst = topo::random_instance(differential_config(seed), seed);
  Coverage coverage;
  for (const Variant& variant : kVariants) {
    SCOPED_TRACE(describe(variant));
    run_differential(inst, variant, seed, 500, /*twins=*/true, coverage);
  }
  EXPECT_GT(coverage.epoch_swaps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMemoDiff, ::testing::Range<std::uint64_t>(1, 9));

TEST(MemoDiff, CorpusMatchesReferenceAfterEveryDelivery) {
  const auto entries = explore::load_corpus_dir(IBGP_CORPUS_DIR);
  ASSERT_EQ(entries.size(), 60u);
  Coverage coverage;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    SCOPED_TRACE(entries[k].name);
    const auto inst = topo::parse_topo(entries[k].topo_text);
    const Variant& variant = kVariants[k % std::size(kVariants)];
    SCOPED_TRACE(describe(variant));
    run_differential(inst, variant, 2000 + k, 400, /*twins=*/k % 4 == 0, coverage);
  }
  EXPECT_GT(coverage.deliveries, entries.size() * 50);
}

// --- budget-bound orbits --------------------------------------------------------

struct Orbit {
  const char* name;
  core::Instance inst;
  ProtocolKind protocol;
  fault::FaultScriptConfig config;
};

/// The paper's persistent oscillations, with churn that moves each orbit
/// across IGP epochs (jolt/revert pairs, failures) and, on Fig 1(a),
/// through graceful-restart and flapped sessions while it keeps cycling.
std::vector<Orbit> orbits() {
  fault::FaultScriptConfig churn;
  churn.seed = 2;
  churn.window_start = 20;
  churn.window_end = 400;
  churn.link_cost_changes = 3;
  churn.link_downs = 2;
  fault::FaultScriptConfig mixed = churn;
  mixed.seed = 1;
  mixed.link_cost_changes = 2;
  mixed.session_flaps = 2;
  mixed.graceful_restarts = 1;
  return {{"fig3-standard", topo::fig3(), ProtocolKind::kStandard, churn},
          {"fig13-walton", topo::fig13(), ProtocolKind::kWalton, churn},
          {"fig1a-standard", topo::fig1a(), ProtocolKind::kStandard, mixed}};
}

::testing::AssertionResult same_report(const analysis::ContinuityReport& got,
                                       const analysis::ContinuityReport& want) {
  const auto same_events = [&] {
    if (got.churn_events.size() != want.churn_events.size()) return false;
    for (std::size_t i = 0; i < got.churn_events.size(); ++i) {
      const auto& a = got.churn_events[i];
      const auto& b = want.churn_events[i];
      if (a.time != b.time || a.kind != b.kind || a.a != b.a || a.b != b.b ||
          a.loop_ticks != b.loop_ticks || a.blackhole_ticks != b.blackhole_ticks ||
          a.deflection_ticks != b.deflection_ticks) {
        return false;
      }
    }
    return true;
  };
  if (got.horizon != want.horizon || got.intervals != want.intervals ||
      got.ok_ticks != want.ok_ticks || got.stale_ticks != want.stale_ticks ||
      got.blackhole_ticks != want.blackhole_ticks || got.loop_ticks != want.loop_ticks ||
      got.deflection_ticks != want.deflection_ticks ||
      got.max_blackhole_window != want.max_blackhole_window ||
      got.max_deflection_window != want.max_deflection_window || !same_events()) {
    return ::testing::AssertionFailure()
           << "ok/stale/blackhole/loop/deflection " << got.ok_ticks << "/" << got.stale_ticks
           << "/" << got.blackhole_ticks << "/" << got.loop_ticks << "/"
           << got.deflection_ticks << " over " << got.intervals << " intervals, reference "
           << want.ok_ticks << "/" << want.stale_ticks << "/" << want.blackhole_ticks << "/"
           << want.loop_ticks << "/" << want.deflection_ticks << " over " << want.intervals;
  }
  return ::testing::AssertionSuccess();
}

TEST(MemoDiff, LongOrbitsMatchAChainOfRestoredEngines) {
  constexpr std::size_t kBudget = 30'000;
  constexpr std::size_t kSegment = 300;
  for (const Orbit& orbit : orbits()) {
    SCOPED_TRACE(orbit.name);
    const auto script = fault::make_fault_script(orbit.inst, orbit.config);
    const Variant variant{orbit.protocol, 0};

    obs::MetricsRegistry registry;
    const Scripted whole = scripted_engine(orbit.inst, variant, script, {}, &registry);
    const auto want = whole.engine->run(kBudget);
    ASSERT_FALSE(want.converged) << "the orbit must spend its whole budget";
    ASSERT_GE(want.igp_epoch_swaps, 4u);

    Scripted link = scripted_engine(orbit.inst, variant, script, {});
    EventEngine::Result got;
    std::size_t restores = 0;
    for (std::size_t budget = kSegment;; budget += kSegment) {
      got = link.engine->run(std::min(budget, kBudget));
      if (got.deliveries >= kBudget || got.converged) break;
      const EngineState state = link.engine->capture();
      link = scripted_engine(orbit.inst, variant, script, {}, nullptr, &state);
      ++restores;
    }
    EXPECT_EQ(restores, kBudget / kSegment - 1);
    EXPECT_EQ(got.deliveries, want.deliveries);
    EXPECT_EQ(got.decisions_total, want.decisions_total);
    EXPECT_EQ(got.decisions_empty, want.decisions_empty);
    EXPECT_EQ(got.decisions_by_rule, want.decisions_by_rule);
    EXPECT_EQ(got.decisions_by_node, want.decisions_by_node);
    EXPECT_EQ(got.best_flips, want.best_flips);
    EXPECT_EQ(got.final_best, want.final_best);
    EXPECT_EQ(fault::trace_hash(*link.engine, got), fault::trace_hash(*whole.engine, want));

    // The forwarding states of an orbit recur under every epoch it visits.
    const auto full = reference::check_continuity(*whole.engine, want.end_time + 1);
    EXPECT_GT(full.intervals, 1000u);
    if (orbit.config.graceful_restarts > 0) {
      EXPECT_GT(full.stale_ticks, 0u) << "no interval crossed a restarting router";
    }
    for (const SimTime horizon : {want.end_time / 7, want.end_time / 2, want.end_time + 1}) {
      const auto reference = reference::check_continuity(*whole.engine, horizon);
      EXPECT_TRUE(same_report(analysis::check_continuity(*whole.engine, horizon), reference))
          << "horizon " << horizon;
      EXPECT_TRUE(same_report(analysis::check_continuity(*link.engine, horizon), reference))
          << "restored chain, horizon " << horizon;
    }
  }
}

// --- continuity states that differ only in mode or in route history -----------

TEST(MemoDiff, ContinuityTellsApartStatesThatDifferOnlyInModeOrRouteHistory) {
  // Fig 1(a) under the modified protocol converges, so a few forwarding
  // states recur exactly, told apart only by what the key must carry:
  //   - before the exits are injected nobody has a route yet (silent), and
  //     after all of them are withdrawn everyone has lost it (blackhole):
  //     the same FIB under the same epoch, different route history;
  //   - a graceful restart freezes the restarting router's FIB, so the
  //     state differs from the converged one only in that router's mode.
  const auto inst = topo::fig1a();
  EventEngine engine(inst, ProtocolKind::kModified, jittered_delay(3));
  engine.inject_all_exits(10);
  for (PathId p = 0; p < inst.exits().size(); ++p) engine.withdraw_exit(p, 200);
  engine.inject_all_exits(300);
  engine.schedule_graceful_down(0, 400);
  engine.schedule_restart(0, 500);
  engine.schedule_crash(1, 600);
  engine.schedule_restart(1, 650);
  engine.schedule_link_cost_change(inst.physical().links()[0].a,
                                   inst.physical().links()[0].b, 40, 700);
  engine.schedule_link_cost_change(inst.physical().links()[0].a,
                                   inst.physical().links()[0].b,
                                   inst.physical().links()[0].cost, 800);
  const auto result = engine.run(100'000);
  ASSERT_TRUE(result.converged);
  const auto want = reference::check_continuity(engine, result.end_time + 50);
  EXPECT_GT(want.blackhole_ticks, 0u);
  EXPECT_GT(want.stale_ticks, 0u);
  EXPECT_TRUE(same_report(analysis::check_continuity(engine, result.end_time + 50), want));
}

// --- sweep workers --------------------------------------------------------------

TEST(MemoDiff, SweepWorkersAgreeWithASerialPass) {
  // Engines run concurrently on sweep workers, each replaying continuity
  // with its own memo, and share the instances' SPF caches; the parallel
  // pass must reproduce the serial one's every trace hash and deterministic
  // metric.
  const auto fig3 = topo::fig3();
  const auto fig13 = topo::fig13();
  std::vector<fault::SweepCell> cells;
  for (const core::Instance* inst : {&fig3, &fig13}) {
    for (const ProtocolKind protocol :
         {ProtocolKind::kStandard, ProtocolKind::kWalton, ProtocolKind::kModified}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        fault::FaultScriptConfig config;
        config.seed = seed;
        config.link_cost_changes = 2;
        config.graceful_restarts = 1;
        fault::SweepCell cell;
        cell.instance = inst;
        cell.protocol = protocol;
        cell.script = fault::make_fault_script(*inst, config);
        cell.options.max_deliveries = 20'000;
        cell.group = inst->name();
        cell.seed = seed;
        cells.push_back(std::move(cell));
      }
    }
  }
  std::uint64_t fingerprints[2] = {};
  std::uint64_t metrics[2] = {};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    obs::MetricsRegistry registry;
    fault::register_sweep_metrics(registry);
    for (auto& cell : cells) cell.options.metrics = &registry;
    const auto result = fault::run_sweep(cells, jobs);
    fingerprints[jobs == 1 ? 0 : 1] = result.fingerprint;
    metrics[jobs == 1 ? 0 : 1] = registry.fingerprint();
  }
  EXPECT_EQ(fingerprints[1], fingerprints[0]);
  EXPECT_EQ(metrics[1], metrics[0]);
}

}  // namespace
}  // namespace ibgp
