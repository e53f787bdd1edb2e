#pragma once
// Test-only scenario builders shared by the differential suites that step
// scripted runs delivery by delivery (test_memo_diff.cpp,
// test_snapshot_diff.cpp): protocol/MRAI variants, a jittered delay, a
// fault script that uses every fault kind an instance can host, and the
// random-instance shape those suites sweep.

#include <cstdint>
#include <memory>
#include <string>

#include "core/instance.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "fault/script.hpp"
#include "obs/metrics.hpp"
#include "topo/random.hpp"
#include "util/hash.hpp"
#include "util/types.hpp"

namespace ibgp::scenarios {

struct Variant {
  core::ProtocolKind protocol;
  engine::SimTime mrai;
};

inline constexpr Variant kVariants[] = {
    {core::ProtocolKind::kStandard, 0}, {core::ProtocolKind::kWalton, 0},
    {core::ProtocolKind::kModified, 0}, {core::ProtocolKind::kStandard, 6},
    {core::ProtocolKind::kWalton, 6},   {core::ProtocolKind::kModified, 6},
};

inline std::string describe(const Variant& variant) {
  return std::string(core::protocol_name(variant.protocol)) +
         " mrai=" + std::to_string(variant.mrai);
}

/// Per-message jitter, so updates on different sessions overtake each other.
inline engine::EventEngine::DelayFn jittered_delay(std::uint64_t seed) {
  return [seed](NodeId from, NodeId to, std::uint64_t seq) -> engine::SimTime {
    const std::uint64_t key =
        util::hash_combine(util::hash_combine(util::hash_combine(seed, from), to), seq);
    return 1 + util::mix64(key) % 5;
  };
}

/// Every fault kind the engine models, as far as the instance can host it.
/// Each link-cost change is a jolt followed by its revert (A -> B -> A).
inline fault::FaultScript full_fault_script(const core::Instance& inst, std::uint64_t seed) {
  const bool links = inst.physical().link_count() > 0;
  fault::FaultScriptConfig config;
  config.seed = seed;
  config.window_start = 5;
  config.window_end = 250;
  config.session_flaps = inst.sessions().session_count() > 0 ? 3 : 0;
  config.crashes = 1;
  config.graceful_restarts = 2;
  config.stale_timer = seed % 2 == 0 ? 30 : 0;
  config.exit_flaps = inst.exits().empty() ? 0 : 2;
  config.link_cost_changes = links ? 3 : 0;
  config.link_downs = links ? 1 : 0;
  config.partitions = links ? 1 : 0;
  config.loss_prob = 0.02;
  config.dup_prob = 0.02;
  return fault::make_fault_script(inst, config);
}

/// A fresh engine carrying the scripted run's attachments; `restore`
/// (when given) replaces the scheduling.
struct Scripted {
  std::unique_ptr<engine::EventEngine> engine;
  std::unique_ptr<fault::ScriptInjector> injector;
};

inline Scripted scripted_engine(const core::Instance& inst, const Variant& variant,
                                const fault::FaultScript& script,
                                const engine::EventEngine::DelayFn& delay,
                                obs::MetricsRegistry* metrics = nullptr,
                                const engine::EngineState* restore = nullptr) {
  Scripted out{std::make_unique<engine::EventEngine>(inst, variant.protocol, delay),
               std::make_unique<fault::ScriptInjector>(script)};
  engine::EventEngine& engine = *out.engine;
  if (metrics != nullptr) engine.set_metrics(metrics);
  engine.set_fault_injector(out.injector.get());
  if (restore != nullptr) {
    engine.restore(*restore);
    return out;
  }
  if (variant.mrai > 0) engine.set_mrai(variant.mrai);
  if (script.stale_timer > 0) engine.set_stale_timer(script.stale_timer);
  engine.inject_all_exits(0);
  fault::apply_script(script, engine);
  return out;
}

/// The random-instance shape the differential suites sweep, by seed.
inline topo::RandomConfig differential_config(std::uint64_t seed) {
  topo::RandomConfig config;
  config.clusters = 3 + seed % 3;
  config.min_clients = 1;
  config.max_clients = 2 + seed % 3;
  config.second_reflector_prob = seed % 3 == 0 ? 0.5 : 0.0;
  config.neighbor_ases = 1 + seed % 3;
  config.exits = 4 + seed % 4;
  config.extra_link_prob = 0.3;
  config.max_exit_cost = static_cast<Cost>(seed % 4);
  return config;
}

}  // namespace ibgp::scenarios
