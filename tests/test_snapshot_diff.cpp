// Differential suite for the daemon's two snapshot paths (DESIGN.md §14).
//
//   - ckpt::engine_state_text writes ibgp-ckpt-v1 straight from an
//     EngineState.  Its bytes must equal the frozen tree encoder's
//     dump_compact() (ckpt_reference.hpp) on the golden state, after every
//     delivery of the six figures, every corpus entry and random instances
//     under full fault scripts (all three protocols, MRAI on and off,
//     pending events of every kind, graceful restarts, link churn), on an
//     instance name that needs escaping, and on int64-minimum costs and
//     uint64-maximum counters.
//   - EventEngine::fork() must continue exactly as capture() -> fresh
//     engine -> restore() does.  From points along the same runs, each side
//     schedules the same hypothetical fault and runs to a budget, one that
//     lets the run settle (or oscillate up to it) and one that cuts it off
//     after a few deliveries.  The Result, every best route, the four logs,
//     the trace hash and a later capture() must be equal.
//   - A forked run leaves the parent's metrics registry and trace sink as
//     they were.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt_reference.hpp"
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
#include "util/json.hpp"

#ifndef IBGP_CORPUS_DIR
#define IBGP_CORPUS_DIR "examples/data/corpus"
#endif
#ifndef IBGP_CKPT_GOLDEN
#define IBGP_CKPT_GOLDEN "tests/data/ckpt_v1_fig1a_golden.json"
#endif

namespace ibgp {
namespace {

using engine::EngineState;
using engine::EventEngine;
using engine::SimTime;
using scenarios::describe;
using scenarios::kVariants;
using scenarios::Variant;

std::string reference_text(const EngineState& state) {
  return reference::engine_state_json(state).dump_compact();
}

::testing::AssertionResult encodes_like_reference(const EngineState& state) {
  const std::string got = ckpt::engine_state_text(state);
  const std::string want = reference_text(state);
  if (got == want) return ::testing::AssertionSuccess();
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const std::size_t from = at < 40 ? 0 : at - 40;
  return ::testing::AssertionFailure()
         << "text and tree differ at byte " << at << ": ..." << got.substr(from, 80)
         << " vs ..." << want.substr(from, 80);
}

// --- fork() against capture -> restore ----------------------------------------

/// Schedules the `pick`-th hypothetical fault one tick past `now`: a crash,
/// a session down, a link down, a graceful restart or a link-cost change,
/// whichever the instance can host.
void schedule_probe(EventEngine& engine, const core::Instance& inst, std::size_t pick,
                    SimTime now) {
  const auto node = static_cast<NodeId>(pick % inst.node_count());
  const auto links = inst.physical().links();
  const auto peers = inst.sessions().peers(node);
  const SimTime when = now + 1;
  switch (pick % 5) {
    case 1:
      if (!peers.empty()) return engine.schedule_session_down(node, peers.front(), when);
      break;
    case 2:
      if (!links.empty()) {
        const auto& link = links[pick % links.size()];
        return engine.schedule_link_down(link.a, link.b, when);
      }
      break;
    case 3:
      return engine.schedule_graceful_down(node, when);
    case 4:
      if (!links.empty()) {
        const auto& link = links[pick % links.size()];
        return engine.schedule_link_cost_change(link.a, link.b, 7 + pick % 5, when);
      }
      break;
    default:
      break;
  }
  engine.schedule_crash(node, when);
}

template <typename Record, typename Key>
bool same_log(std::span<const Record> a, std::span<const Record> b, Key key) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (key(a[i]) != key(b[i])) return false;
  }
  return true;
}

/// Field-for-field equality of two engines after their runs.
::testing::AssertionResult same_continuation(const EventEngine& a, const EventEngine::Result& ra,
                                             const EventEngine& b,
                                             const EventEngine::Result& rb) {
  const auto fail = [](const char* what) { return ::testing::AssertionFailure() << what; };
  if (ra.converged != rb.converged) return fail("converged");
  if (ra.budget_exhausted != rb.budget_exhausted) return fail("budget_exhausted");
  if (ra.events_pending != rb.events_pending) return fail("events_pending");
  if (ra.faults_pending != rb.faults_pending) return fail("faults_pending");
  if (ra.next_fault_time != rb.next_fault_time) return fail("next_fault_time");
  if (ra.deliveries != rb.deliveries) {
    return fail("deliveries") << " " << ra.deliveries << " vs " << rb.deliveries;
  }
  if (ra.end_time != rb.end_time) return fail("end_time");
  if (ra.final_best != rb.final_best) return fail("final_best");
  for (const engine::CounterField& field : engine::kEngineCounters) {
    if (ra.*field.member != rb.*field.member) return fail(field.name);
  }
  if (ra.decisions_by_rule != rb.decisions_by_rule) return fail("decisions_by_rule");
  if (ra.decisions_by_node != rb.decisions_by_node) return fail("decisions_by_node");
  for (NodeId v = 0; v < a.instance().node_count(); ++v) {
    if (a.best(v) != b.best(v)) return fail("best route of node ") << v;
  }
  using Flap = EventEngine::FlapRecord;
  using Fault = EventEngine::FaultRecord;
  using Fib = EventEngine::FibRecord;
  using Igp = EventEngine::IgpRecord;
  if (!same_log(a.flap_log(), b.flap_log(), [](const Flap& r) {
        return std::tuple(r.time, r.node, r.old_best, r.new_best);
      })) {
    return fail("flap_log");
  }
  if (!same_log(a.fault_log(), b.fault_log(),
                [](const Fault& r) { return std::tuple(r.time, r.kind, r.a, r.b, r.cost); })) {
    return fail("fault_log");
  }
  if (!same_log(a.fib_log(), b.fib_log(), [](const Fib& r) {
        return std::tuple(r.time, r.node, r.old_path, r.new_path);
      })) {
    return fail("fib_log");
  }
  if (!same_log(a.igp_log(), b.igp_log(), [](const Igp& r) {
        return std::tuple(r.time, r.fingerprint, r.effective);
      })) {
    return fail("igp_log");
  }
  if (fault::trace_hash(a, ra) != fault::trace_hash(b, rb)) return fail("trace hash");
  if (ckpt::engine_state_text(a.capture()) != ckpt::engine_state_text(b.capture())) {
    return fail("a later capture");
  }
  return ::testing::AssertionSuccess();
}

/// fork() -> probe -> run(budget) against capture -> fresh engine ->
/// restore -> the same probe -> run(budget), at a budget that lets the run
/// go on and at one that cuts it off after a few deliveries.
::testing::AssertionResult fork_matches_restore(const EventEngine& live, const Variant& variant,
                                                const EventEngine::DelayFn& delay,
                                                std::size_t pick) {
  const core::Instance& inst = live.instance();
  const EngineState state = live.capture();
  for (const std::size_t extra : {std::size_t{2'000}, 1 + pick % 7}) {
    const std::size_t budget = state.deliveries + extra;
    EventEngine sandbox = live.fork();
    schedule_probe(sandbox, inst, pick, state.end_time);
    const auto got = sandbox.run(budget);

    EventEngine twin(inst, variant.protocol, delay);
    twin.restore(state);
    schedule_probe(twin, inst, pick, state.end_time);
    const auto want = twin.run(budget);

    auto verdict = same_continuation(sandbox, got, twin, want);
    if (!verdict) return verdict << " (budget +" << extra << ")";
  }
  return ::testing::AssertionSuccess();
}

// --- the sweep ----------------------------------------------------------------

struct Coverage {
  std::size_t encoded = 0;  // captures compared byte for byte
  std::size_t forks = 0;    // fork/restore pairs compared
  std::size_t graceful = 0;
  std::size_t epoch_swaps = 0;
};

/// Steps one scripted run a delivery at a time, comparing the text encoder
/// with the reference after every delivery and fork() with restore() every
/// `fork_every` deliveries.
void run_snapshot_diff(const core::Instance& inst, const Variant& variant, std::uint64_t seed,
                       std::size_t max_deliveries, std::size_t fork_every,
                       Coverage& coverage) {
  const auto script = scenarios::full_fault_script(inst, seed);
  const auto delay = scenarios::jittered_delay(seed);
  const auto run = scenarios::scripted_engine(inst, variant, script, delay);
  EventEngine& live = *run.engine;
  for (std::size_t delivery = 1; delivery <= max_deliveries; ++delivery) {
    if (live.run(1).deliveries < 1) break;  // drained
    const EngineState state = live.capture();
    const auto encoded = encodes_like_reference(state);
    if (!encoded) {
      ADD_FAILURE() << inst.name() << " seed " << seed << " " << describe(variant)
                    << ", after delivery " << delivery << ": " << encoded.message();
      return;
    }
    ++coverage.encoded;
    if (delivery % fork_every == 0) {
      const auto forked = fork_matches_restore(live, variant, delay, seed + delivery);
      if (!forked) {
        ADD_FAILURE() << inst.name() << " seed " << seed << " " << describe(variant)
                      << ", fork after delivery " << delivery << ": " << forked.message();
        return;
      }
      ++coverage.forks;
    }
  }
  coverage.epoch_swaps += live.counters().igp_epoch_swaps;
  for (const auto& fault : live.fault_log()) {
    if (fault.kind == engine::FaultKind::kGracefulDown) ++coverage.graceful;
  }
}

TEST(SnapshotDiff, FiguresEncodeAndForkLikeTheReferenceAfterEveryDelivery) {
  Coverage coverage;
  for (const auto& [name, inst] : topo::all_figures()) {
    SCOPED_TRACE(name);
    for (const Variant& variant : kVariants) {
      run_snapshot_diff(inst, variant, 41, 600, 11, coverage);
    }
  }
  EXPECT_GT(coverage.encoded, 5'000u);
  EXPECT_GT(coverage.forks, 500u);
  EXPECT_GT(coverage.graceful, 0u);
  EXPECT_GT(coverage.epoch_swaps, 0u);
}

TEST(SnapshotDiff, CorpusEncodesAndForksLikeTheReference) {
  const auto entries = explore::load_corpus_dir(IBGP_CORPUS_DIR);
  ASSERT_EQ(entries.size(), 60u);
  Coverage coverage;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    SCOPED_TRACE(entries[k].name);
    const auto inst = topo::parse_topo(entries[k].topo_text);
    run_snapshot_diff(inst, kVariants[k % std::size(kVariants)], 3000 + k, 300, 13, coverage);
  }
  EXPECT_GT(coverage.encoded, entries.size() * 150);
  EXPECT_GT(coverage.forks, entries.size() * 10);
}

class RandomSnapshotDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSnapshotDiff, EncodesAndForksLikeTheReference) {
  const std::uint64_t seed = GetParam();
  const auto inst = topo::random_instance(scenarios::differential_config(seed), seed);
  Coverage coverage;
  for (const Variant& variant : kVariants) {
    SCOPED_TRACE(describe(variant));
    run_snapshot_diff(inst, variant, seed, 300, 17, coverage);
  }
  EXPECT_GT(coverage.forks, 30u);
  EXPECT_GT(coverage.epoch_swaps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSnapshotDiff, ::testing::Range<std::uint64_t>(1, 9));

// --- the encoder on states no run reaches ---------------------------------------

EngineState golden_state() {
  std::string error;
  const auto doc = util::json::read_file(IBGP_CKPT_GOLDEN, &error);
  if (!doc) throw std::runtime_error(error);
  return ckpt::parse_engine_state(*doc);
}

TEST(SnapshotDiff, GoldenStateEncodesLikeTheReference) {
  EXPECT_TRUE(encodes_like_reference(golden_state()));
  EXPECT_EQ(ckpt::engine_state_json(golden_state()).dump_compact(),
            reference_text(golden_state()));
}

TEST(SnapshotDiff, NamesThatNeedEscapingEncodeLikeTheReference) {
  EngineState state = golden_state();
  state.instance = "fig\"1a\\ with\nnewline\ttab \x01\x1f ctl, \xc3\xa9 and /slash";
  state.protocol = "mod\"ified";
  EXPECT_TRUE(encodes_like_reference(state));
  EXPECT_EQ(ckpt::parse_engine_state(ckpt::engine_state_json(state)).instance, state.instance);
}

TEST(SnapshotDiff, ExtremeValuesEncodeLikeTheReference) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  EngineState state = golden_state();
  ASSERT_FALSE(state.queue.empty());
  ASSERT_FALSE(state.igp_log.empty());
  ASSERT_TRUE(state.nodes[0].best.has_value());
  state.queue[0].cost = kMin;
  state.queue[0].time = kMax;
  state.queue[0].seq = kMax;
  state.queue[0].epoch = kMax;
  state.queue[1].pid = kMax - 1;  // past int64: written as int64 wraps it
  state.queue[2].from = kNoNode;
  state.queue[2].path = kNoPath;
  state.nodes[0].best->metric = kMin;
  state.nodes[0].best->learned_from = std::numeric_limits<BgpId>::max();
  state.nodes[1].mrai_ready.assign(state.nodes[1].mrai_ready.size(), kMax);
  state.link_cost[0] = kMin;
  state.igp_log[0].effective[0] = kMin;
  state.fault_log.push_back({kMax, engine::FaultKind::kLinkCostChange, 0, kNoNode, kMin});
  state.updates_sent = kMax;
  state.decisions_total = kMax;
  state.decisions_by_rule[0] = kMax;
  state.decisions_by_node[0][1] = kMax;
  state.flips_by_node[0] = std::numeric_limits<std::size_t>::max();
  state.session_epoch.back() = kMax;
  state.session_last_delivery.front() = kMax;
  state.gr_generation[0] = kMax;
  state.next_seq = kMax;
  state.session_msg_seq = kMax;
  state.mrai = kMax;
  state.deliveries = kMax;
  state.end_time = kMax;
  EXPECT_TRUE(encodes_like_reference(state));
}

TEST(SnapshotDiff, EmptyStateEncodesLikeTheReference) {
  EXPECT_TRUE(encodes_like_reference(EngineState{}));
}

// --- what a fork carries and what it leaves behind --------------------------------

TEST(SnapshotDiff, ForkCarriesTheDeliveriesBaseOfTheLastRun) {
  const auto inst = topo::fig1a();
  const Variant variant{core::ProtocolKind::kStandard, 0};  // oscillates for ever
  const auto delay = scenarios::jittered_delay(5);
  EventEngine live(inst, variant.protocol, delay);
  live.inject_all_exits(0);
  ASSERT_EQ(live.run(37).deliveries, 37u);

  EventEngine sandbox = live.fork();
  EventEngine twin(inst, variant.protocol, delay);
  twin.restore(live.capture());
  const auto got = sandbox.run(40);
  EXPECT_EQ(got.deliveries, 40u) << "the budget counts from the last run's total";
  EXPECT_TRUE(same_continuation(sandbox, got, twin, twin.run(40)));

  // A fork of a fork that has not run yet carries the same base on.
  EventEngine second = live.fork().fork();
  EXPECT_EQ(second.run(39).deliveries, 39u);
}

TEST(SnapshotDiff, ForkedRunsLeaveTheParentsMetricsAndTraceAlone) {
  const auto inst = topo::fig3();
  const auto script = scenarios::full_fault_script(inst, 17);
  obs::MetricsRegistry registry;
  std::size_t trace_lines = 0;
  obs::TraceSink sink;
  sink.open_writer([&](std::string_view) { ++trace_lines; });
  fault::ScriptInjector injector(script);
  EventEngine parent(inst, core::ProtocolKind::kModified, scenarios::jittered_delay(17));
  parent.set_metrics(&registry);
  parent.set_profile(true);
  parent.set_trace(&sink);
  parent.set_fault_injector(&injector);
  parent.set_mrai(6);
  parent.inject_all_exits(0);
  fault::apply_script(script, parent);
  const auto before = parent.run(80);
  ASSERT_GT(trace_lines, 0u);

  const std::uint64_t fingerprint = registry.fingerprint();
  const std::string volatile_metrics = util::json::Value(registry.volatile_json()).dump_compact();
  const std::size_t lines = trace_lines;
  for (std::size_t pick = 0; pick < 5; ++pick) {
    EventEngine sandbox = parent.fork();
    schedule_probe(sandbox, inst, pick, before.end_time);
    EXPECT_GT(sandbox.run(10'000).deliveries, before.deliveries);
  }
  EXPECT_EQ(registry.fingerprint(), fingerprint);
  EXPECT_EQ(util::json::Value(registry.volatile_json()).dump_compact(), volatile_metrics);
  EXPECT_EQ(trace_lines, lines);
}

}  // namespace
}  // namespace ibgp
