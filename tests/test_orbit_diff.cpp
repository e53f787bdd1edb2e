// Differential suite for orbit jumps (DESIGN.md §15).  EventEngine::run
// proves a budget-bound orbit periodic at a tick boundary and accounts at
// once for every whole period the budget leaves before the next queued
// event that is not an UPDATE (the fence).  Nothing observable may change.
// Each case runs one schedule twice: on an engine free to jump, and on the
// same engine forced onto the stepping path by a pass-through
// FaultInjector (it delivers every message, so it changes nothing but the
// eligibility).  Every Result field, the ibgp-ckpt-v1 text of capture(),
// the trace hash, check_continuity at three horizons and flips_by_node()
// must be equal:
//
//   - on the E16 churn grid (Fig 1(a) and Fig 3, five churn levels, three
//     protocols, three seeds) at five budgets, and split into two run()
//     calls;
//   - on the six figures under all three protocols, every corpus entry and
//     random instances with an exit flap;
//   - on engines restored from a capture, or forked, mid-orbit;
//   - on Fig 3's orbit with an exit withdraw, a link-cost change or a
//     session flap queued far beyond its start: the fence.
//
// The jumping side must really jump on the churn grid, the corpus and
// before a fence, and no delivery may be skipped under an attachment that
// can tell two periods apart: an enabled trace sink, an MRAI, a DelayFn, a
// fault injector, or a run_until horizon.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "analysis/continuity.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "explore/corpus.hpp"
#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenarios.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"

#ifndef IBGP_CORPUS_DIR
#define IBGP_CORPUS_DIR "examples/data/corpus"
#endif

namespace ibgp {
namespace {

using core::ProtocolKind;
using engine::EventEngine;
using engine::SimTime;

constexpr ProtocolKind kProtocols[] = {ProtocolKind::kStandard, ProtocolKind::kWalton,
                                       ProtocolKind::kModified};

/// Delivers every message: attached, it only takes the run off the jump.
class PassThrough final : public engine::FaultInjector {
 public:
  engine::MessageFate classify(NodeId, NodeId, std::uint64_t) override {
    return engine::MessageFate::kDeliver;
  }
};

/// Schedules one run onto a fresh engine.
using Schedule = std::function<void(EventEngine&)>;

void exits_only(EventEngine& engine) { engine.inject_all_exits(0); }

Schedule scripted(fault::FaultScript script) {
  return [script = std::move(script)](EventEngine& engine) {
    if (script.stale_timer > 0) engine.set_stale_timer(script.stale_timer);
    engine.inject_all_exits(0);
    fault::apply_script(script, engine);
  };
}

std::string result_text(const EventEngine::Result& r) {
  std::string out;
  const auto put = [&out](const std::string& name, std::uint64_t value) {
    out += name + "=" + std::to_string(value) + " ";
  };
  put("converged", r.converged);
  put("budget_exhausted", r.budget_exhausted);
  put("events_pending", r.events_pending);
  put("faults_pending", r.faults_pending);
  put("next_fault_time", r.next_fault_time);
  put("deliveries", r.deliveries);
  put("end_time", r.end_time);
  for (const engine::CounterField& field : engine::kEngineCounters) {
    put(field.name, r.*field.member);
  }
  for (std::size_t rule = 0; rule < r.decisions_by_rule.size(); ++rule) {
    put("rule" + std::to_string(rule), r.decisions_by_rule[rule]);
  }
  for (std::size_t v = 0; v < r.decisions_by_node.size(); ++v) {
    for (std::size_t rule = 0; rule < r.decisions_by_node[v].size(); ++rule) {
      put("node" + std::to_string(v) + "." + std::to_string(rule), r.decisions_by_node[v][rule]);
    }
  }
  for (std::size_t v = 0; v < r.final_best.size(); ++v) {
    put("best" + std::to_string(v), r.final_best[v]);
  }
  return out;
}

std::string continuity_text(const analysis::ContinuityReport& c) {
  std::string out = std::to_string(c.horizon) + " " + std::to_string(c.intervals) + " " +
                    std::to_string(c.ok_ticks) + " " + std::to_string(c.stale_ticks) + " " +
                    std::to_string(c.blackhole_ticks) + " " + std::to_string(c.loop_ticks) + " " +
                    std::to_string(c.deflection_ticks) + " " +
                    std::to_string(c.max_blackhole_window) + " " +
                    std::to_string(c.max_deflection_window);
  for (const auto& e : c.churn_events) {
    out += " [" + std::to_string(e.time) + " " + std::to_string(static_cast<int>(e.kind)) + " " +
           std::to_string(e.a) + " " + std::to_string(e.b) + " " + std::to_string(e.loop_ticks) +
           " " + std::to_string(e.blackhole_ticks) + " " + std::to_string(e.deflection_ticks) +
           "]";
  }
  return out;
}

/// Where two long texts part, for a readable failure.
std::string first_difference(const std::string& got, const std::string& want) {
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const std::size_t from = at < 40 ? 0 : at - 40;
  return "differ at byte " + std::to_string(at) + ": ..." + got.substr(from, 80) + " vs ..." +
         want.substr(from, 80);
}

/// Everything a caller can observe of `engine` after the run that returned
/// `result`, against the same of the stepped twin.
::testing::AssertionResult same_observables(const EventEngine& engine,
                                            const EventEngine::Result& result,
                                            const EventEngine& stepped,
                                            const EventEngine::Result& want) {
  const std::string got_result = result_text(result);
  const std::string want_result = result_text(want);
  if (got_result != want_result) {
    return ::testing::AssertionFailure()
           << "Result " << first_difference(got_result, want_result);
  }
  const std::string got_state = ckpt::engine_state_text(engine.capture());
  const std::string want_state = ckpt::engine_state_text(stepped.capture());
  if (got_state != want_state) {
    return ::testing::AssertionFailure()
           << "capture() text " << first_difference(got_state, want_state);
  }
  if (fault::trace_hash(engine, result) != fault::trace_hash(stepped, want)) {
    return ::testing::AssertionFailure() << "trace hash differs";
  }
  for (const SimTime horizon : {want.end_time / 3, want.end_time / 2, want.end_time + 1}) {
    const std::string got_report = continuity_text(analysis::check_continuity(engine, horizon));
    const std::string want_report =
        continuity_text(analysis::check_continuity(stepped, horizon));
    if (got_report != want_report) {
      return ::testing::AssertionFailure() << "continuity at horizon " << horizon << ": "
                                           << got_report << " vs " << want_report;
    }
  }
  if (!std::ranges::equal(engine.flips_by_node(), stepped.flips_by_node())) {
    return ::testing::AssertionFailure() << "flips_by_node differs";
  }
  return ::testing::AssertionSuccess();
}

/// What the comparisons of one test reached.
struct Tally {
  std::size_t comparisons = 0;
  std::size_t jumped = 0;  // comparisons whose free run skipped deliveries
  std::uint64_t skipped = 0;

  void add(std::uint64_t run_skipped) {
    ++comparisons;
    jumped += run_skipped > 0 ? 1 : 0;
    skipped += run_skipped;
  }
};

std::uint64_t skipped(const obs::MetricsRegistry& registry) {
  return registry.counter_value("engine.orbit.skipped");
}

/// Runs `schedule` with the run() budgets in `budgets`, one call each, on an
/// engine free to jump and on its stepped twin; every call's Result and,
/// after the last, everything observable must agree.  Returns the last
/// Result of the engine free to jump.
EventEngine::Result expect_jumps_like_stepping(const core::Instance& inst, ProtocolKind protocol,
                                               const Schedule& schedule,
                                               std::span<const std::size_t> budgets,
                                               Tally& tally) {
  obs::MetricsRegistry registry;
  EventEngine engine(inst, protocol);
  engine.set_metrics(&registry);
  schedule(engine);
  PassThrough pass;
  EventEngine stepped(inst, protocol);
  stepped.set_fault_injector(&pass);
  schedule(stepped);
  EventEngine::Result got;
  EventEngine::Result want;
  for (const std::size_t budget : budgets) {
    got = engine.run(budget);
    want = stepped.run(budget);
    EXPECT_EQ(result_text(got), result_text(want)) << "run(" << budget << ")";
  }
  EXPECT_TRUE(same_observables(engine, got, stepped, want));
  tally.add(skipped(registry));
  return got;
}

EventEngine::Result expect_jumps_like_stepping(const core::Instance& inst, ProtocolKind protocol,
                                               const Schedule& schedule, std::size_t budget,
                                               Tally& tally) {
  const std::size_t budgets[] = {budget};
  return expect_jumps_like_stepping(inst, protocol, schedule, budgets, tally);
}

// --- the E16 churn grid ---------------------------------------------------------

struct ChurnLevel {
  std::size_t cost_changes, link_downs, partitions, session_flaps, graceful_restarts;
};

// bench_churn's levels: none, jitter, failures, partition, mixed.
constexpr ChurnLevel kChurnLevels[] = {
    {0, 0, 0, 0, 0}, {4, 0, 0, 0, 0}, {0, 3, 0, 0, 0}, {0, 0, 1, 0, 0}, {2, 2, 0, 2, 1},
};

struct ChurnCell {
  const core::Instance* inst;
  ProtocolKind protocol;
  fault::FaultScript script;
  std::string label;
};

/// bench_churn --smoke's 90 cells.
std::vector<ChurnCell> churn_grid(const core::Instance& fig1a, const core::Instance& fig3) {
  std::vector<ChurnCell> cells;
  for (const core::Instance* inst : {&fig1a, &fig3}) {
    for (std::size_t level = 0; level < std::size(kChurnLevels); ++level) {
      for (const ProtocolKind protocol : kProtocols) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const ChurnLevel& l = kChurnLevels[level];
          fault::FaultScriptConfig config;
          config.seed = seed;
          config.window_start = 20;
          config.window_end = 400;
          config.link_cost_changes = l.cost_changes;
          config.link_downs = l.link_downs;
          config.partitions = l.partitions;
          config.session_flaps = l.session_flaps;
          config.graceful_restarts = l.graceful_restarts;
          cells.push_back({inst, protocol, fault::make_fault_script(*inst, config),
                           inst->name() + " level " + std::to_string(level) + " " +
                               core::protocol_name(protocol) + " seed " +
                               std::to_string(seed)});
        }
      }
    }
  }
  return cells;
}

class ChurnGridOrbitDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChurnGridOrbitDiff, JumpedRunsEqualSteppedRuns) {
  const auto fig1a = topo::fig1a();
  const auto fig3 = topo::fig3();
  const auto cells = churn_grid(fig1a, fig3);
  ASSERT_EQ(cells.size(), 90u);
  Tally tally;
  for (const ChurnCell& cell : cells) {
    SCOPED_TRACE(cell.label);
    expect_jumps_like_stepping(*cell.inst, cell.protocol, scripted(cell.script), GetParam(),
                               tally);
  }
  EXPECT_EQ(tally.comparisons, 90u);
  EXPECT_GT(tally.skipped, 0u) << "no cell jumped: the suite would pass vacuously";
}

INSTANTIATE_TEST_SUITE_P(Budgets, ChurnGridOrbitDiff,
                         ::testing::Values<std::size_t>(777, 5'000, 9'999, 20'011, 100'000));

TEST(OrbitDiff, ChurnGridSplitRunEqualsSteppedSplitRun) {
  // The second call starts its own watch, so its jump spans the seam.
  const auto fig1a = topo::fig1a();
  const auto fig3 = topo::fig3();
  const std::size_t budgets[] = {3'001, 30'000};
  Tally tally;
  for (const ChurnCell& cell : churn_grid(fig1a, fig3)) {
    SCOPED_TRACE(cell.label);
    expect_jumps_like_stepping(*cell.inst, cell.protocol, scripted(cell.script), budgets,
                               tally);
  }
  EXPECT_GT(tally.jumped, 0u);
}

// --- figures, corpus, random instances -----------------------------------------------

TEST(OrbitDiff, FiguresUnderEveryProtocolEqualSteppedRuns) {
  Tally tally;
  for (const auto& [name, inst] : topo::all_figures()) {
    SCOPED_TRACE(name);
    for (const ProtocolKind protocol : kProtocols) {
      SCOPED_TRACE(core::protocol_name(protocol));
      for (const std::size_t budget : {4'321, 60'000}) {
        expect_jumps_like_stepping(inst, protocol, exits_only, budget, tally);
      }
    }
  }
  EXPECT_EQ(tally.comparisons, 36u);
  EXPECT_GT(tally.jumped, 0u) << "Fig 1(a) and Fig 3 oscillate under the standard protocol";
}

TEST(OrbitDiff, CorpusEntriesEqualSteppedRuns) {
  const auto entries = explore::load_corpus_dir(IBGP_CORPUS_DIR);
  ASSERT_EQ(entries.size(), 60u);
  Tally tally;
  for (const auto& entry : entries) {
    SCOPED_TRACE(entry.name);
    const auto inst = topo::parse_topo(entry.topo_text);
    for (const ProtocolKind protocol : kProtocols) {
      SCOPED_TRACE(core::protocol_name(protocol));
      expect_jumps_like_stepping(inst, protocol, exits_only, 20'000, tally);
    }
  }
  EXPECT_EQ(tally.comparisons, 180u);
  EXPECT_GT(tally.skipped, 0u) << "no corpus run jumped: the suite would pass vacuously";
}

class RandomOrbitDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomOrbitDiff, ExitFlapRunsEqualSteppedRuns) {
  // 50 seeds per case, each under every protocol: an exit withdrawn and
  // re-injected while the instance settles, orbits, or floods its queue
  // (an orbit whose queue grows every tick never recurs).
  Tally tally;
  for (std::uint64_t seed = GetParam(); seed < GetParam() + 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto inst = topo::random_instance(scenarios::differential_config(seed), seed);
    fault::FaultScriptConfig config;
    config.seed = seed;
    config.window_start = 5;
    config.window_end = 120;
    config.exit_flaps = 1;
    const Schedule schedule = scripted(fault::make_fault_script(inst, config));
    for (const ProtocolKind protocol : kProtocols) {
      SCOPED_TRACE(core::protocol_name(protocol));
      expect_jumps_like_stepping(inst, protocol, schedule, 2'000 + seed * 53, tally);
    }
  }
  EXPECT_EQ(tally.comparisons, 150u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOrbitDiff,
                         ::testing::Values<std::uint64_t>(1, 51, 101, 151));

// --- fences: events queued beyond the orbit ------------------------------------

TEST(OrbitDiff, OrbitsJumpUpToAQueuedEventAndApplyItOnTime) {
  // Fig 3's reflection orbit starts within a few ticks.  An event of any
  // other kind queued far beyond that is a fence: the run must jump up to
  // it, apply it at its own time as stepping does (the fault log is part of
  // the compared capture), and jump again past it.  Four consecutive fence
  // times cover every residue of the orbit's 2-4 tick period, so the last
  // jumped tick also falls right before the fence; a fence beyond the
  // budget must not stop the jump either.
  const auto inst = topo::fig3();
  const auto& link = inst.physical().links()[0];
  const auto& session = inst.sessions().edges()[0];
  struct Fence {
    const char* name;
    std::function<void(EventEngine&, SimTime)> schedule;
  };
  const Fence fences[] = {
      {"exit withdraw", [](EventEngine& e, SimTime at) { e.withdraw_exit(0, at); }},
      {"link-cost change",
       [&](EventEngine& e, SimTime at) {
         e.schedule_link_cost_change(link.a, link.b, link.cost + 1, at);
       }},
      {"session flap",
       [&](EventEngine& e, SimTime at) {
         e.schedule_session_down(session.u, session.v, at);
         e.schedule_session_up(session.u, session.v, at + 500);
       }},
  };
  constexpr std::size_t kBudget = 200'000;
  for (const Fence& fence : fences) {
    SCOPED_TRACE(fence.name);
    for (const SimTime at : {5'000, 5'001, 5'002, 5'003, 1'000'000}) {
      SCOPED_TRACE("fence at " + std::to_string(at));
      const Schedule schedule = [&](EventEngine& e) {
        e.inject_all_exits(0);
        fence.schedule(e, at);
      };
      EventEngine probe(inst, ProtocolKind::kStandard);
      schedule(probe);
      const std::size_t before_fence = probe.run_until(at - 1, kBudget).deliveries;
      Tally tally;
      const auto got =
          expect_jumps_like_stepping(inst, ProtocolKind::kStandard, schedule, kBudget, tally);
      // Jumps after the fence alone skip no more than the run made after it.
      EXPECT_GT(tally.skipped, got.deliveries - before_fence) << "no jump before the fence";
      EXPECT_LT(got.deliveries - tally.skipped, 1'000u) << "the orbit was stepped, not jumped";
    }
  }
}

// --- restored and forked mid-orbit ---------------------------------------------

TEST(OrbitDiff, EnginesRestoredOrForkedMidOrbitContinueAsStepping) {
  // A restored (or forked) engine continues the captured run's count, so
  // its run(budget) must equal one uninterrupted stepped run(budget).
  const auto fig1a = topo::fig1a();
  const auto fig3 = topo::fig3();
  const auto grid = churn_grid(fig1a, fig3);
  std::vector<const ChurnCell*> orbits;
  for (const ChurnCell& cell : grid) {
    if (cell.protocol != ProtocolKind::kModified) orbits.push_back(&cell);
  }
  constexpr std::size_t kBudget = 30'011;
  Tally tally;
  for (std::size_t i = 0; i < orbits.size(); i += 3) {
    const ChurnCell& cell = *orbits[i];
    SCOPED_TRACE(cell.label);
    const Schedule schedule = scripted(cell.script);
    PassThrough pass;
    EventEngine stepped(*cell.inst, cell.protocol);
    stepped.set_fault_injector(&pass);
    schedule(stepped);
    const auto want = stepped.run(kBudget);
    for (const std::size_t mid : {40, 777, 5'000}) {
      SCOPED_TRACE("mid-orbit at " + std::to_string(mid));
      EventEngine engine(*cell.inst, cell.protocol);
      schedule(engine);
      (void)engine.run(mid);

      obs::MetricsRegistry registry;
      EventEngine restored(*cell.inst, cell.protocol);
      restored.set_metrics(&registry);
      restored.restore(engine.capture());
      const auto got = restored.run(kBudget);
      EXPECT_TRUE(same_observables(restored, got, stepped, want)) << "restored";
      tally.add(skipped(registry));

      EventEngine forked = engine.fork();
      const auto forked_result = forked.run(kBudget);
      EXPECT_TRUE(same_observables(forked, forked_result, stepped, want)) << "forked";
    }
  }
  EXPECT_GT(tally.jumped, 0u);
}

// --- attachments that rule the jump out ----------------------------------------

TEST(OrbitDiff, IneligibleAttachmentsStepEveryDelivery) {
  // Fig 1(a) under the standard protocol has no stable state, so every run
  // below spends its budget on an orbit a bare engine would jump.
  const auto inst = topo::fig1a();
  constexpr std::size_t kBudget = 20'000;
  PassThrough pass;
  obs::TraceSink sink;
  sink.open_writer([](std::string_view) {});
  struct Case {
    const char* name;
    EventEngine::DelayFn delay;
    std::function<void(EventEngine&)> attach;
    bool until = false;
    bool jumps = false;
  };
  const Case cases[] = {
      {"bare engine (control)", {}, [](EventEngine&) {}, false, true},
      {"trace sink", {}, [&](EventEngine& e) { e.set_trace(&sink); }},
      {"mrai", {}, [](EventEngine& e) { e.set_mrai(6); }},
      {"delay function", scenarios::jittered_delay(5), [](EventEngine&) {}},
      {"fault injector", {}, [&](EventEngine& e) { e.set_fault_injector(&pass); }},
      {"run_until", {}, [](EventEngine&) {}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    obs::MetricsRegistry registry;
    EventEngine engine(inst, ProtocolKind::kStandard, c.delay);
    engine.set_metrics(&registry);
    c.attach(engine);
    engine.inject_all_exits(0);
    const auto result =
        c.until ? engine.run_until(std::numeric_limits<SimTime>::max(), kBudget)
                : engine.run(kBudget);
    ASSERT_TRUE(result.budget_exhausted) << "the orbit must spend the whole budget";
    if (c.jumps) {
      EXPECT_GT(skipped(registry), 0u);
    } else {
      EXPECT_EQ(skipped(registry), 0u);
    }
  }
}

}  // namespace
}  // namespace ibgp
