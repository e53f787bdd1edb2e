// Event-driven engine tests: message-level convergence on the paper's
// figures, agreement with the synchronous engine where both converge,
// delay-script sensitivity (Fig 3 / Table 1 behavior), FIFO sessions, and
// E-BGP announce/withdraw dynamics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/fixed_point.hpp"
#include "engine/activation.hpp"
#include "engine/event_engine.hpp"
#include "engine/oscillation.hpp"
#include "topo/figures.hpp"
#include "util/rng.hpp"

namespace ibgp::engine {
namespace {

using core::ProtocolKind;

// --- basic convergence -----------------------------------------------------------

TEST(EventEngine, Fig14StandardConvergesToLoopyConfig) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.final_best[inst.find_node("c1")], inst.exits().find_by_name("r1"));
  EXPECT_EQ(result.final_best[inst.find_node("c2")], inst.exits().find_by_name("r2"));
}

TEST(EventEngine, Fig14ModifiedGivesCrossedChoices) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.final_best[inst.find_node("c1")], inst.exits().find_by_name("r2"));
  EXPECT_EQ(result.final_best[inst.find_node("c2")], inst.exits().find_by_name("r1"));
}

TEST(EventEngine, Fig1aStandardNeverDrains) {
  const auto inst = topo::fig1a();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  const auto result = engine.run(/*max_deliveries=*/20000);
  EXPECT_FALSE(result.converged) << "persistent oscillation must keep messages in flight";
  EXPECT_GT(result.best_flips, 100u);
}

TEST(EventEngine, Fig1aModifiedConvergesToPrediction) {
  const auto inst = topo::fig1a();
  const auto prediction = core::predict_fixed_point(inst);
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, Fig13WaltonNeverDrainsButModifiedDoes) {
  const auto inst = topo::fig13();
  {
    EventEngine walton(inst, ProtocolKind::kWalton);
    walton.inject_all_exits();
    const auto result = walton.run(/*max_deliveries=*/30000);
    EXPECT_FALSE(result.converged);
  }
  {
    EventEngine modified(inst, ProtocolKind::kModified);
    modified.inject_all_exits();
    const auto result = modified.run();
    EXPECT_TRUE(result.converged);
  }
}

// --- agreement with the synchronous engine ----------------------------------------

TEST(EventEngine, AgreesWithSyncEngineOnConvergentFigures) {
  for (const auto& [name, inst] : topo::all_figures()) {
    // The modified protocol converges everywhere, to the same configuration
    // in both semantics.
    const auto prediction = core::predict_fixed_point(inst);
    EventEngine event(inst, ProtocolKind::kModified);
    event.inject_all_exits();
    const auto event_result = event.run();
    ASSERT_TRUE(event_result.converged) << name;
    auto rr = make_round_robin(inst.node_count());
    const auto sync_result = run_protocol(inst, ProtocolKind::kModified, *rr);
    ASSERT_EQ(sync_result.status, RunStatus::kConverged) << name;
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
      EXPECT_EQ(event_result.final_best[v], expected) << name << " node " << v;
      EXPECT_EQ(sync_result.final_best[v], expected) << name << " node " << v;
    }
  }
}

// --- delay sensitivity (the Fig 3 / Table 1 phenomenon) -----------------------------

TEST(EventEngine, Fig3InjectionOrderSelectsStableSolution) {
  const auto inst = topo::fig3();
  const PathId r3 = inst.exits().find_by_name("r3");
  const PathId r4 = inst.exits().find_by_name("r4");
  const PathId r5 = inst.exits().find_by_name("r5");
  const PathId r6 = inst.exits().find_by_name("r6");
  const NodeId b = inst.find_node("B");
  const NodeId c = inst.find_node("C");

  // Everything at once with perfectly symmetric delays: B and C flip in
  // lockstep forever — the "timing coincidence" of Section 3 made permanent
  // by symmetry.  (The synchronous-activation model converges here; the
  // message-level model is exactly where the paper demonstrates Table 1.)
  {
    EventEngine engine(inst, ProtocolKind::kStandard);
    engine.inject_all_exits(0);
    const auto result = engine.run(/*max_deliveries=*/20000);
    EXPECT_FALSE(result.converged);
    EXPECT_GT(result.best_flips, 100u);
  }

  // Staggered injection breaks the symmetry: the MED-0 pair locks in.
  {
    EventEngine engine(inst, ProtocolKind::kStandard);
    for (PathId p = 0; p < inst.exits().size(); ++p) engine.inject_exit(p, 5 * p);
    const auto result = engine.run();
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.final_best[b], r3);
    EXPECT_EQ(result.final_best[c], r5);
  }

  // MED-0 pair injected LATE: the cheap exits (r4, r6) lock in first and
  // survive — a different stable solution, selected purely by timing.
  {
    EventEngine engine(inst, ProtocolKind::kStandard);
    for (const char* name : {"r1", "r2", "r4", "r6"}) {
      engine.inject_exit(inst.exits().find_by_name(name), 0);
    }
    engine.inject_exit(r3, 100);
    engine.inject_exit(r5, 100);
    const auto result = engine.run();
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.final_best[b], r4);
    EXPECT_EQ(result.final_best[c], r6);
  }
}

TEST(EventEngine, Fig3ModifiedIgnoresInjectionOrder) {
  const auto inst = topo::fig3();
  const auto prediction = core::predict_fixed_point(inst);
  util::Xoshiro256 rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    EventEngine engine(inst, ProtocolKind::kModified);
    for (PathId p = 0; p < inst.exits().size(); ++p) {
      engine.inject_exit(p, rng.below(200));
    }
    const auto result = engine.run();
    ASSERT_TRUE(result.converged);
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
      ASSERT_EQ(result.final_best[v], expected)
          << "trial " << trial << " node " << inst.node_name(v);
    }
  }
}

TEST(EventEngine, Fig3DelayedWithdrawCausesTransientFlaps) {
  // Steer into the (r3, r5) solution, then re-announce the cheap routes and
  // withdraw the MED-0 pair: B and C flap through intermediate choices —
  // transient oscillation, then stability.
  const auto inst = topo::fig3();
  EventEngine engine(inst, ProtocolKind::kStandard);
  for (const char* name : {"r1", "r2", "r3", "r5"}) {
    engine.inject_exit(inst.exits().find_by_name(name), 0);
  }
  engine.inject_exit(inst.exits().find_by_name("r4"), 50);
  engine.inject_exit(inst.exits().find_by_name("r6"), 50);
  engine.withdraw_exit(inst.exits().find_by_name("r3"), 120);
  engine.withdraw_exit(inst.exits().find_by_name("r5"), 180);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.final_best[inst.find_node("B")], inst.exits().find_by_name("r4"));
  EXPECT_EQ(result.final_best[inst.find_node("C")], inst.exits().find_by_name("r6"));
  EXPECT_GE(result.best_flips, 6u) << "withdraw churn should flap best routes";
  EXPECT_FALSE(engine.flap_log().empty());
}

TEST(EventEngine, RandomDelaysNeverChangeModifiedOutcome) {
  const auto inst = topo::fig2();
  const auto prediction = core::predict_fixed_point(inst);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto rng = std::make_shared<util::Xoshiro256>(seed);
    EventEngine engine(inst, ProtocolKind::kModified,
                       [rng](NodeId, NodeId, std::uint64_t) -> SimTime {
                         return 1 + rng->below(50);
                       });
    engine.inject_all_exits();
    const auto result = engine.run();
    ASSERT_TRUE(result.converged) << "seed " << seed;
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
      ASSERT_EQ(result.final_best[v], expected) << "seed " << seed;
    }
  }
}

TEST(EventEngine, RandomDelaysCanChangeStandardOutcomeOnFig2) {
  // Fig 2 has two stable solutions; with randomized delays the standard
  // protocol must reach both across seeds (schedule-dependence).
  const auto inst = topo::fig2();
  std::set<std::vector<PathId>> outcomes;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto rng = std::make_shared<util::Xoshiro256>(seed);
    EventEngine engine(inst, ProtocolKind::kStandard,
                       [rng](NodeId, NodeId, std::uint64_t) -> SimTime {
                         return 1 + rng->below(20);
                       });
    engine.inject_all_exits();
    const auto result = engine.run(200000);
    if (result.converged) outcomes.insert(result.final_best);
  }
  EXPECT_GE(outcomes.size(), 2u) << "expected both stable solutions across seeds";
}

// --- E-BGP dynamics ------------------------------------------------------------------

TEST(EventEngine, WithdrawFlushesRoute) {
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.withdraw_exit(r3, 1000);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  const auto prediction =
      core::predict_fixed_point(inst, std::vector<PathId>{
                                          inst.exits().find_by_name("r1"),
                                          inst.exits().find_by_name("r2")});
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, WithdrawFlushesEveryAdjRibIn) {
  // The operational analogue of Lemma 7.2: once an E-BGP withdrawal has
  // propagated, NO router may keep the path in any Adj-RIB-In, no session
  // may still carry it in an advertised set, and nobody selects it.
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.withdraw_exit(r3, 1000);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_FALSE(engine.ebgp_live(r3));
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    EXPECT_NE(result.final_best[v], r3) << inst.node_name(v);
    EXPECT_TRUE(engine.rib_in(v, r3).empty()) << inst.node_name(v);
    for (const NodeId peer : inst.sessions().peers(v)) {
      const auto sent = engine.advertised_to(v, peer);
      EXPECT_FALSE(std::binary_search(sent.begin(), sent.end(), r3))
          << inst.node_name(v) << " -> " << inst.node_name(peer);
    }
  }
}

TEST(EventEngine, WithdrawReinjectChurnNeverLeavesStaleState) {
  // E-BGP churn: flap r3 through several withdraw/re-inject rounds ending
  // withdrawn.  Every round's stale copies must flush; the survivors settle
  // on the fixed point over the remaining exits.
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  for (const ProtocolKind protocol : {ProtocolKind::kStandard, ProtocolKind::kWalton,
                                      ProtocolKind::kModified}) {
    EventEngine engine(inst, protocol);
    engine.inject_all_exits(0);
    for (SimTime t = 500; t < 900; t += 100) {
      engine.withdraw_exit(r3, t);
      engine.inject_exit(r3, t + 50);
    }
    engine.withdraw_exit(r3, 900);
    const auto result = engine.run(500000);
    // Standard I-BGP oscillates on fig1a only while r3 is announced (the
    // MED conflict needs it): with r3 finally gone, every protocol drains.
    ASSERT_TRUE(result.converged) << core::protocol_name(protocol);
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      EXPECT_NE(result.final_best[v], r3) << inst.node_name(v);
      EXPECT_TRUE(engine.rib_in(v, r3).empty()) << inst.node_name(v);
    }
  }
}

TEST(EventEngine, ReinjectAfterWithdrawRestoresFullFixedPoint) {
  const auto inst = topo::fig1a();
  const PathId r3 = inst.exits().find_by_name("r3");
  EventEngine engine(inst, ProtocolKind::kModified);
  engine.inject_all_exits(0);
  engine.withdraw_exit(r3, 600);
  engine.inject_exit(r3, 900);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  const auto prediction = core::predict_fixed_point(inst);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, SetMraiRejectedOnceEventsAreScheduled) {
  const auto inst = topo::fig1a();
  {
    EventEngine engine(inst, ProtocolKind::kModified);
    engine.inject_all_exits(0);
    EXPECT_THROW(engine.set_mrai(50), std::logic_error);
  }
  {
    EventEngine engine(inst, ProtocolKind::kModified);
    engine.set_mrai(50);  // before any event: fine
    engine.set_mrai(0);
    engine.inject_all_exits(0);
    EXPECT_NO_THROW(engine.run());
  }
  {
    // Processed events seal the engine too.
    EventEngine engine(inst, ProtocolKind::kModified);
    engine.run();
    EXPECT_THROW(engine.set_mrai(10), std::logic_error);
  }
}

TEST(EventEngine, NoRoutesMeansNoBest) {
  const auto inst = topo::fig1a();
  EventEngine engine(inst, ProtocolKind::kStandard);
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  for (const PathId best : result.final_best) EXPECT_EQ(best, kNoPath);
  EXPECT_EQ(result.deliveries, 0u);
}

TEST(EventEngine, UpdateCountsAreTracked) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  const auto result = engine.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.updates_sent, 0u);
  EXPECT_EQ(result.updates_sent, engine.counters().updates_sent);
  EXPECT_GE(result.deliveries, result.updates_sent);
}

TEST(EventEngine, FifoPreservedUnderShrinkingDelays) {
  // A later message with a smaller delay must not overtake an earlier one on
  // the same session: with shrinking delays, an early announce and its later
  // withdraw travel the same session, and an overtake would leave a stale
  // route in the receiver's Adj-RIB-In forever.  Run the modified protocol
  // (guaranteed to drain) and require the exact closed-form fixed point —
  // any FIFO violation shows up as a stale-route deviation.
  const auto inst = topo::fig2();
  const auto prediction = core::predict_fixed_point(inst);
  std::uint64_t call = 0;
  EventEngine engine(inst, ProtocolKind::kModified,
                     [&call](NodeId, NodeId, std::uint64_t) -> SimTime {
                       return call++ < 4 ? 100 : 1;  // early messages slow
                     });
  engine.inject_all_exits();
  const auto result = engine.run(200000);
  ASSERT_TRUE(result.converged);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, VoidedInFlightMessageNeverResurfacesAfterReUp) {
  // Epoch-semantics regression: an UPDATE in flight when its session resets
  // must be voided — it must NOT deliver after the session re-establishes,
  // even though its scheduled delivery time falls inside the new session's
  // lifetime.  Timeline (delay 50): announce sent at t=0 would land at 50;
  // the session flaps down at 10 / up at 20, so the resync replay lands at
  // 70.  Stepping one event at a time, the RIB must still be empty right
  // after the voided 50-tick delivery is consumed.
  const auto inst = topo::fig2();
  const PathId p0 = 0;
  const NodeId exit_point = inst.exits()[p0].exit_point;
  const NodeId peer = inst.sessions().peers(exit_point)[0];
  EventEngine engine(inst, ProtocolKind::kModified,
                     [](NodeId, NodeId, std::uint64_t) -> SimTime { return 50; });
  engine.inject_exit(p0, 0);
  engine.schedule_session_down(exit_point, peer, 10);
  engine.schedule_session_up(exit_point, peer, 20);

  bool checked_after_void = false;
  while (true) {
    const auto step = engine.run(/*max_deliveries=*/1);
    if (step.deliveries_voided > 0 && !checked_after_void) {
      checked_after_void = true;
      const auto holders = engine.rib_in(peer, p0);
      EXPECT_FALSE(std::binary_search(holders.begin(), holders.end(), exit_point))
          << "a voided pre-reset announce populated the re-established session";
    }
    if (step.converged) break;
  }
  ASSERT_TRUE(checked_after_void) << "scenario failed to void any delivery";

  // The resync replay (not the voided original) is what fills the RIB.
  const auto holders = engine.rib_in(peer, p0);
  EXPECT_TRUE(std::binary_search(holders.begin(), holders.end(), exit_point));
  const std::vector<PathId> live{p0};
  const auto prediction = core::predict_fixed_point(inst, live);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(engine.best_path(v), expected) << inst.node_name(v);
  }
}

namespace {
// Duplicates every message; used to stress per-session FIFO below.
class DuplicateEverything final : public FaultInjector {
 public:
  MessageFate classify(NodeId, NodeId, std::uint64_t) override {
    return MessageFate::kDuplicate;
  }
  void on_drop(EventEngine&, NodeId, NodeId, SimTime) override {}
};
}  // namespace

TEST(EventEngine, DuplicatedMessagesRespectPerSessionFifo) {
  // FIFO regression under duplication: every message is duplicated and the
  // per-message delay oscillates, so a duplicate drawn with a small delay
  // constantly tries to overtake earlier traffic on its session.  Combined
  // with announce/withdraw churn, any overtake resurrects a withdrawn route
  // or drops a live one — both show up as a deviation from the closed-form
  // fixed point.
  const auto inst = topo::fig2();
  const auto prediction = core::predict_fixed_point(inst);
  EventEngine engine(inst, ProtocolKind::kModified,
                     [](NodeId, NodeId, std::uint64_t seq) -> SimTime {
                       return (seq % 7) * 5 + 1;  // non-monotonic per session
                     });
  DuplicateEverything injector;
  engine.set_fault_injector(&injector);
  engine.inject_all_exits(0);
  engine.withdraw_exit(0, 40);
  engine.inject_exit(0, 80);
  const auto result = engine.run(200000);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.messages_duplicated, 0u);
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const PathId expected = prediction.best[v] ? prediction.best[v]->path : kNoPath;
    EXPECT_EQ(result.final_best[v], expected) << inst.node_name(v);
  }
}

TEST(EventEngine, FlapLogRecordsTransitions) {
  const auto inst = topo::fig14();
  EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits();
  engine.run();
  ASSERT_FALSE(engine.flap_log().empty());
  const auto& first = engine.flap_log().front();
  EXPECT_EQ(first.old_best, kNoPath);
  EXPECT_NE(first.new_best, kNoPath);
}

}  // namespace
}  // namespace ibgp::engine
