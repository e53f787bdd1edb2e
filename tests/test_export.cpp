// Differential export suite: the event engine decides export once per
// advertised path, skips peers whose set is unchanged and skips whole
// nodes whose verdicts are unchanged.  After every single delivery, under
// seeded fault scripts (session flaps, crash/restart, graceful restart,
// link cost/down/up, partitions, loss and duplication) with and without an
// MRAI, every up node's captured per-peer state must equal what the frozen
// per-(peer, path) rules in export_reference.hpp give for the same RIB:
//
//   - desired_out toward an up peer is the reference filter over
//     core::decide's advertised set (toward a down peer: that or empty);
//   - without an MRAI, advertised_out equals desired_out on up sessions.
//
// The suite also pins the per-session send state's translation to and from
// the dense ibgp-ckpt-v1 arrays.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "explore/corpus.hpp"
#include "export_reference.hpp"
#include "fault/script.hpp"
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

struct Variant {
  ProtocolKind protocol;
  SimTime mrai;
};

constexpr Variant kVariants[] = {
    {ProtocolKind::kStandard, 0}, {ProtocolKind::kWalton, 0},
    {ProtocolKind::kModified, 0}, {ProtocolKind::kModified, 6},
    {ProtocolKind::kStandard, 6},
};

std::string describe(const Variant& variant) {
  return std::string(core::protocol_name(variant.protocol)) +
         " mrai=" + std::to_string(variant.mrai);
}

std::string path_list(const std::vector<PathId>& paths) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < paths.size(); ++i) out << (i ? "," : "") << paths[i];
  out << '}';
  return out.str();
}

/// Per-message jitter, so updates on different sessions overtake each other.
EventEngine::DelayFn jittered_delay(std::uint64_t seed) {
  return [seed](NodeId from, NodeId to, std::uint64_t seq) -> SimTime {
    const std::uint64_t key =
        util::hash_combine(util::hash_combine(util::hash_combine(seed, from), to), seq);
    return 1 + util::mix64(key) % 5;
  };
}

/// Every fault kind the engine models, as far as the instance can host it.
fault::FaultScript full_fault_script(const core::Instance& inst, std::uint64_t seed) {
  const bool links = inst.physical().link_count() > 0;
  fault::FaultScriptConfig config;
  config.seed = seed;
  config.window_start = 5;
  config.window_end = 250;
  config.session_flaps = inst.sessions().session_count() > 0 ? 4 : 0;
  config.crashes = 2;
  config.graceful_restarts = 2;
  config.stale_timer = seed % 2 == 0 ? 30 : 0;
  config.exit_flaps = inst.exits().empty() ? 0 : 3;
  config.link_cost_changes = links ? 2 : 0;
  config.link_downs = links ? 2 : 0;
  config.partitions = links ? 1 : 0;
  config.loss_prob = 0.03;
  config.dup_prob = 0.03;
  return fault::make_fault_script(inst, config);
}

/// Compares every up node's captured send state with the reference rules.
::testing::AssertionResult export_matches_reference(const core::Instance& inst,
                                                    const EventEngine& engine,
                                                    const Variant& variant,
                                                    const EngineState& state) {
  for (NodeId u = 0; u < inst.node_count(); ++u) {
    if (!state.node_up[u]) continue;
    const auto& node = state.nodes[u];
    core::NodeDecision decision;
    core::decide(inst, engine.igp(), variant.protocol, u, reference::candidates(inst, node),
                 decision);
    const auto& advertised = decision.advertised;
    const auto peers = inst.sessions().peers(u);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const auto target = reference::export_target(inst, node, u, peers[i], advertised);
      const auto& desired = node.desired_out[i];
      const bool up = engine.session_up(u, peers[i]);
      const bool desired_ok = up ? desired == target : desired.empty() || desired == target;
      if (!desired_ok) {
        return ::testing::AssertionFailure()
               << inst.node_name(u) << " -> " << inst.node_name(peers[i])
               << (up ? " (up)" : " (down)") << ": desired " << path_list(desired)
               << ", reference " << path_list(target);
      }
      if (up && variant.mrai == 0 && node.advertised_out[i] != desired) {
        return ::testing::AssertionFailure()
               << inst.node_name(u) << " -> " << inst.node_name(peers[i])
               << ": advertised " << path_list(node.advertised_out[i]) << " but desired "
               << path_list(desired) << " with no MRAI";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Builds the scripted engine: jittered delays, optional MRAI and script.
void script_engine(EventEngine& engine, const Variant& variant,
                   const fault::FaultScript& script,
                   std::optional<fault::ScriptInjector>& injector) {
  if (variant.mrai > 0) engine.set_mrai(variant.mrai);
  if (script.stale_timer > 0) engine.set_stale_timer(script.stale_timer);
  injector.emplace(script);
  engine.set_fault_injector(&*injector);
  engine.inject_all_exits(0);
  fault::apply_script(script, engine);
}

/// Steps one scripted run a delivery at a time (or until the budget, for
/// protocols that oscillate) and checks export after each delivery.
/// Returns the deliveries checked.
std::size_t run_differential(const core::Instance& inst, const Variant& variant,
                             std::uint64_t seed, std::size_t max_deliveries) {
  const auto script = full_fault_script(inst, seed);
  EventEngine engine(inst, variant.protocol, jittered_delay(seed));
  std::optional<fault::ScriptInjector> injector;
  script_engine(engine, variant, script, injector);
  std::size_t deliveries = 0;
  while (deliveries < max_deliveries && engine.run(1).deliveries == 1) {
    ++deliveries;
    const auto verdict = export_matches_reference(inst, engine, variant, engine.capture());
    if (!verdict) {
      ADD_FAILURE() << inst.name() << " seed " << seed << " " << describe(variant)
                    << ", after delivery " << deliveries << ": " << verdict.message();
      break;
    }
  }
  return deliveries;
}

topo::RandomConfig differential_config(std::uint64_t seed) {
  topo::RandomConfig config;
  config.clusters = 3 + seed % 4;
  config.min_clients = 1;
  config.max_clients = 2 + seed % 3;
  config.second_reflector_prob = seed % 3 == 0 ? 0.5 : 0.0;  // same-cluster reflectors
  config.neighbor_ases = 1 + seed % 3;
  config.exits = 4 + seed % 4;
  config.exits_at_clients_only = seed % 4 == 1;
  config.max_exit_cost = static_cast<Cost>(seed % 4);
  return config;
}

class RandomExport : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomExport, MatchesReferenceAfterEveryDelivery) {
  const auto inst = topo::random_instance(differential_config(GetParam()), GetParam());
  for (const Variant& variant : kVariants) {
    SCOPED_TRACE(describe(variant));
    EXPECT_GT(run_differential(inst, variant, GetParam(), 1500), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExport, ::testing::Range<std::uint64_t>(1, 13));

TEST(CorpusExport, MatchesReferenceAfterEveryDelivery) {
  const auto entries = explore::load_corpus_dir(IBGP_CORPUS_DIR);
  ASSERT_FALSE(entries.empty());
  std::size_t checked = 0;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    SCOPED_TRACE(entries[k].name);
    const auto inst = topo::parse_topo(entries[k].topo_text);
    const Variant& variant = kVariants[k % std::size(kVariants)];
    checked += run_differential(inst, variant, 1000 + k, 400);
  }
  EXPECT_GT(checked, entries.size());
}

TEST(FigureExport, MatchesReferenceAfterEveryDelivery) {
  // Fig 1(a) and Fig 3 oscillate under the standard protocol; the budget
  // keeps the churn (and the export it drives) going past every fault.
  for (const auto& [name, inst] : topo::all_figures()) {
    SCOPED_TRACE(name);
    for (const Variant& variant : kVariants) {
      SCOPED_TRACE(describe(variant));
      EXPECT_GT(run_differential(inst, variant, 77, 600), 0u);
    }
  }
}

TEST(MraiExport, EveryPeerSyncInsideTheHoldDownStillCounts) {
  // With an MRAI every reconsider still passes every peer through the
  // hold-down bookkeeping, even when its set is unchanged, so the deferral
  // count is the plain per-(node, peer) one.  Pinned per seed.
  constexpr std::uint64_t kExpected[][2] = {
      // {modified, standard} deferrals under Variant mrai=6
      {230, 184}, {253, 163}, {649, 811}, {103, 72}, {127, 97}, {231, 214},
  };
  for (std::uint64_t seed = 1; seed <= std::size(kExpected); ++seed) {
    const auto inst = topo::random_instance(differential_config(seed), seed);
    const auto script = full_fault_script(inst, seed);
    const Variant variants[] = {kVariants[3], kVariants[4]};
    for (std::size_t k = 0; k < 2; ++k) {
      EventEngine engine(inst, variants[k].protocol, jittered_delay(seed));
      std::optional<fault::ScriptInjector> injector;
      script_engine(engine, variants[k], script, injector);
      const auto result = engine.run(3000);
      EXPECT_EQ(result.mrai_deferrals, kExpected[seed - 1][k])
          << "seed " << seed << " " << describe(variants[k]);
    }
  }
}

// --- per-session send state <-> dense checkpoint arrays ---------------------------

std::string state_json(const EngineState& state) {
  return ckpt::engine_state_text(state);
}

TEST(ExportState, RestoreAtEveryDeliveryStepsLikeTheOriginal) {
  // Capture before every delivery, restore into a fresh engine (every node
  // marked for a full resync, no verdicts), check the dense round trip is
  // byte-identical, then step both engines once: they must agree.
  for (const Variant& variant : {kVariants[2], kVariants[4]}) {
    const std::uint64_t seed = 5;
    SCOPED_TRACE(describe(variant));
    const auto inst = topo::random_instance(differential_config(seed), seed);
    const auto script = full_fault_script(inst, seed);
    EventEngine original(inst, variant.protocol, jittered_delay(seed));
    std::optional<fault::ScriptInjector> original_injector;
    script_engine(original, variant, script, original_injector);

    bool saw_session_reset = false;
    for (std::size_t delivery = 1; delivery <= 400; ++delivery) {
      const EngineState before = original.capture();
      for (const auto epoch : before.session_epoch) saw_session_reset |= epoch != 0;
      EventEngine restored(inst, variant.protocol, jittered_delay(seed));
      fault::ScriptInjector injector(script);
      restored.set_fault_injector(&injector);
      restored.restore(before);
      ASSERT_EQ(state_json(restored.capture()), state_json(before)) << "before " << delivery;

      if (original.run(1).deliveries == 0) break;
      restored.run(before.deliveries + 1);  // a restored run continues the count
      EngineState stepped = original.capture();
      EngineState resumed = restored.capture();
      stepped.deliveries = resumed.deliveries = 0;
      ASSERT_EQ(state_json(resumed), state_json(stepped)) << "delivery " << delivery;
    }
    EXPECT_TRUE(saw_session_reset);
  }
}

TEST(ExportState, RestoreRejectsSessionStateOffTheSessionGraph) {
  const std::uint64_t seed = 5;
  const Variant& variant = kVariants[3];
  const auto inst = topo::random_instance(differential_config(seed), seed);
  const auto script = full_fault_script(inst, seed);
  EventEngine engine(inst, variant.protocol, jittered_delay(seed));
  std::optional<fault::ScriptInjector> injector;
  script_engine(engine, variant, script, injector);
  engine.run(150);
  const EngineState captured = engine.capture();

  const std::size_t n = inst.node_count();
  // A non-session pair: the node itself, or any node it shares no session with.
  std::vector<std::pair<NodeId, NodeId>> strangers{{0, 0}};
  for (NodeId v = 1; v < n; ++v) {
    if (!inst.sessions().has_session(0, v)) {
      strangers.emplace_back(0, v);
      strangers.emplace_back(v, 0);
      break;
    }
  }
  ASSERT_GE(strangers.size(), 2u) << "instance has a node meshed with everyone";

  {
    EventEngine fresh(inst, variant.protocol);
    EXPECT_NO_THROW(fresh.restore(captured));  // the untouched capture is fine
  }
  for (const auto& [u, v] : strangers) {
    const std::size_t dense = u * n + v;
    for (int field = 0; field < 3; ++field) {
      SCOPED_TRACE(std::to_string(u) + "->" + std::to_string(v) + " field " +
                   std::to_string(field));
      EngineState state = captured;
      if (field == 0) state.session_last_delivery[dense] = 7;
      if (field == 1) state.session_epoch[dense] = 1;
      if (field == 2) state.session_admin_down[dense] = true;
      EventEngine fresh(inst, variant.protocol);
      try {
        fresh.restore(state);
        ADD_FAILURE() << "restore accepted state for a pair that is not a session";
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("not a session"), std::string::npos)
            << error.what();
      }
    }
  }
}

}  // namespace
}  // namespace ibgp
