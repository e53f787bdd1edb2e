// Differential forwarding suite: trace_forwarding walks into a caller-owned
// trace and visited buffer, and check_continuity / analyze_forwarding reuse
// one of each across a whole replay.  Every ContinuityReport field (the
// tick counters, both max windows, intervals, the per-churn-event costs)
// and every analyze_forwarding trace (hops, outcome, exit node, exit path)
// must equal the frozen fresh-buffer forms in forwarding_reference.hpp, on
// campaigns that reach every outcome class: cold and graceful restarts
// (stale hops), a partition (blackholes), link churn (deflections) and
// Fig 14 under Walton (forwarding loops).

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/continuity.hpp"
#include "analysis/forwarding.hpp"
#include "engine/event_engine.hpp"
#include "fault/script.hpp"
#include "forwarding_reference.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"
#include "util/hash.hpp"

namespace ibgp {
namespace {

using core::ProtocolKind;
using engine::EventEngine;
using engine::SimTime;

struct Campaign {
  std::string name;
  core::Instance inst;
  ProtocolKind protocol;
  fault::FaultScriptConfig config;
  std::size_t budget;
};

fault::FaultScriptConfig script_config(std::uint64_t seed) {
  fault::FaultScriptConfig config;
  config.seed = seed;
  config.window_start = 5;
  config.window_end = 300;
  return config;
}

topo::RandomConfig campaign_topology() {
  topo::RandomConfig config;
  config.clusters = 4;
  config.min_clients = 1;
  config.max_clients = 3;
  config.neighbor_ases = 2;
  config.exits = 6;
  config.extra_link_prob = 0.4;
  return config;
}

/// The campaigns, several seeds per fault family.
std::vector<Campaign> campaigns() {
  std::vector<Campaign> out;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = topo::random_instance(campaign_topology(), seed);
    const auto protocol = static_cast<ProtocolKind>(seed % 3);

    auto cold = script_config(seed);
    cold.crashes = 2;
    cold.session_flaps = 2;
    out.push_back({"cold-restart", inst, protocol, cold, 4000});

    auto graceful = script_config(seed);
    graceful.graceful_restarts = 3;
    graceful.stale_timer = seed % 2 == 0 ? 40 : 0;
    out.push_back({"graceful-restart", inst, protocol, graceful, 4000});

    auto partition = script_config(seed);
    partition.partitions = 1;
    out.push_back({"partition", inst, protocol, partition, 4000});

    auto churn = script_config(seed);
    churn.link_cost_changes = 3;
    churn.link_downs = 2;
    out.push_back({"link-churn", inst, protocol, churn, 4000});
  }
  out.push_back({"fig14-walton", topo::fig14(), ProtocolKind::kWalton, script_config(14), 3000});
  auto fig3 = script_config(3);
  fig3.link_cost_changes = 2;
  fig3.crashes = 1;
  out.push_back({"fig3-standard", topo::fig3(), ProtocolKind::kStandard, fig3, 3000});
  return out;
}

std::string path_list(const std::vector<NodeId>& hops) {
  std::ostringstream out;
  for (std::size_t i = 0; i < hops.size(); ++i) out << (i ? "," : "") << hops[i];
  return out.str();
}

::testing::AssertionResult same_report(const analysis::ContinuityReport& got,
                                       const analysis::ContinuityReport& want) {
  const auto field = [](const char* name, auto a, auto b) {
    return ::testing::AssertionFailure() << name << " " << a << ", reference " << b;
  };
  if (got.horizon != want.horizon) return field("horizon", got.horizon, want.horizon);
  if (got.intervals != want.intervals) return field("intervals", got.intervals, want.intervals);
  if (got.ok_ticks != want.ok_ticks) return field("ok_ticks", got.ok_ticks, want.ok_ticks);
  if (got.stale_ticks != want.stale_ticks) {
    return field("stale_ticks", got.stale_ticks, want.stale_ticks);
  }
  if (got.blackhole_ticks != want.blackhole_ticks) {
    return field("blackhole_ticks", got.blackhole_ticks, want.blackhole_ticks);
  }
  if (got.loop_ticks != want.loop_ticks) {
    return field("loop_ticks", got.loop_ticks, want.loop_ticks);
  }
  if (got.deflection_ticks != want.deflection_ticks) {
    return field("deflection_ticks", got.deflection_ticks, want.deflection_ticks);
  }
  if (got.max_blackhole_window != want.max_blackhole_window) {
    return field("max_blackhole_window", got.max_blackhole_window, want.max_blackhole_window);
  }
  if (got.max_deflection_window != want.max_deflection_window) {
    return field("max_deflection_window", got.max_deflection_window,
                 want.max_deflection_window);
  }
  if (got.churn_events.size() != want.churn_events.size()) {
    return field("churn events", got.churn_events.size(), want.churn_events.size());
  }
  for (std::size_t i = 0; i < got.churn_events.size(); ++i) {
    const auto& a = got.churn_events[i];
    const auto& b = want.churn_events[i];
    if (a.time != b.time || a.kind != b.kind || a.a != b.a || a.b != b.b ||
        a.loop_ticks != b.loop_ticks || a.blackhole_ticks != b.blackhole_ticks ||
        a.deflection_ticks != b.deflection_ticks) {
      return ::testing::AssertionFailure() << "churn event " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_forwarding(const analysis::ForwardingReport& got,
                                           const analysis::ForwardingReport& want) {
  if (got.loops != want.loops || got.no_route != want.no_route) {
    return ::testing::AssertionFailure() << "loops/no_route " << got.loops << "/"
                                         << got.no_route << ", reference " << want.loops
                                         << "/" << want.no_route;
  }
  if (got.traces.size() != want.traces.size()) {
    return ::testing::AssertionFailure() << got.traces.size() << " traces, reference "
                                         << want.traces.size();
  }
  for (std::size_t v = 0; v < got.traces.size(); ++v) {
    const auto& a = got.traces[v];
    const auto& b = want.traces[v];
    if (a.source != b.source || a.outcome != b.outcome || a.hops != b.hops ||
        a.exit_node != b.exit_node || a.exit_path != b.exit_path) {
      return ::testing::AssertionFailure() << "trace from " << v << ": hops "
                                           << path_list(a.hops) << ", reference "
                                           << path_list(b.hops);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Outcome classes the campaigns reached, summed over every replay.
struct Reached {
  std::uint64_t stale = 0;
  std::uint64_t blackhole = 0;
  std::uint64_t loop = 0;
  std::uint64_t deflection = 0;
  std::size_t churn_events = 0;
  std::size_t forwarding_checks = 0;
};

/// One trace and visited buffer reused for every walk of a campaign, the
/// way the daemon's path query and the continuity replay reuse theirs.
struct ReusedWalk {
  std::vector<bool> visited;
  analysis::ForwardTrace trace;
};

/// Runs one campaign a delivery at a time, comparing analyze_forwarding and
/// a reused-buffer walk from every source on the control plane's best
/// routes after every delivery, then the continuity replay at the full
/// horizon and at two earlier ones.
void check_campaign(const Campaign& campaign, Reached& reached, ReusedWalk& walk) {
  SCOPED_TRACE(campaign.name + " seed " + std::to_string(campaign.config.seed) + " " +
               core::protocol_name(campaign.protocol));
  const auto& inst = campaign.inst;
  const auto script = fault::make_fault_script(inst, campaign.config);
  const std::uint64_t seed = campaign.config.seed;
  EventEngine engine(inst, campaign.protocol,
                     [seed](NodeId from, NodeId to, std::uint64_t msg) -> SimTime {
                       const auto key = util::hash_combine(
                           util::hash_combine(util::hash_combine(seed, from), to), msg);
                       return 1 + util::mix64(key) % 5;
                     });
  if (script.stale_timer > 0) engine.set_stale_timer(script.stale_timer);
  std::optional<fault::ScriptInjector> injector;
  injector.emplace(script);
  engine.set_fault_injector(&*injector);
  engine.inject_all_exits(0);
  fault::apply_script(script, engine);

  std::vector<PathId> best(inst.node_count());
  SimTime end_time = 0;
  for (std::size_t step = 0; step < campaign.budget; ++step) {
    const auto result = engine.run(1);
    if (result.deliveries == 0) break;
    end_time = result.end_time;
    for (NodeId v = 0; v < inst.node_count(); ++v) best[v] = engine.best_path(v);
    const auto want = reference::analyze_forwarding(inst, engine.igp(), best);
    ASSERT_TRUE(same_forwarding(analysis::analyze_forwarding(inst, engine.igp(), best), want))
        << "after delivery " << step + 1;
    analysis::ForwardingReport reused;
    reused.loops = want.loops;
    reused.no_route = want.no_route;
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      analysis::trace_forwarding(inst, engine.igp(), best, v, walk.visited, walk.trace);
      reused.traces.push_back(walk.trace);
    }
    ASSERT_TRUE(same_forwarding(reused, want)) << "reused buffers, after delivery " << step + 1;
    ++reached.forwarding_checks;
  }
  ASSERT_GT(end_time, 0u);

  for (const SimTime horizon : {end_time / 3, end_time / 2, end_time + 1}) {
    const auto want = reference::check_continuity(engine, horizon);
    ASSERT_TRUE(same_report(analysis::check_continuity(engine, horizon), want))
        << "horizon " << horizon;
    if (horizon == end_time + 1) {
      reached.stale += want.stale_ticks;
      reached.blackhole += want.blackhole_ticks;
      reached.loop += want.loop_ticks;
      reached.deflection += want.deflection_ticks;
      reached.churn_events += want.churn_events.size();
    }
  }
}

TEST(ForwardingDiff, ContinuityAndTracesMatchReferenceOnEveryCampaign) {
  Reached reached;
  ReusedWalk walk;
  for (const Campaign& campaign : campaigns()) {
    check_campaign(campaign, reached, walk);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(reached.stale, 0u) << "no graceful-restart stale hop was replayed";
  EXPECT_GT(reached.blackhole, 0u);
  EXPECT_GT(reached.loop, 0u) << "no forwarding loop was replayed";
  EXPECT_GT(reached.deflection, 0u);
  EXPECT_GT(reached.churn_events, 0u);
  EXPECT_GT(reached.forwarding_checks, 1000u);
}

TEST(ForwardingDiff, EmptyHorizonAndFaultFreeRunsMatchReference) {
  for (const auto& [name, inst] : topo::all_figures()) {
    SCOPED_TRACE(name);
    for (const ProtocolKind kind :
         {ProtocolKind::kStandard, ProtocolKind::kWalton, ProtocolKind::kModified}) {
      EventEngine engine(inst, kind);
      engine.inject_all_exits(0);
      const auto result = engine.run(2000);
      for (const SimTime horizon : {SimTime{0}, SimTime{1}, result.end_time + 1}) {
        EXPECT_TRUE(same_report(analysis::check_continuity(engine, horizon),
                                reference::check_continuity(engine, horizon)));
      }
      EXPECT_TRUE(
          same_forwarding(analysis::analyze_forwarding(inst, result.final_best),
                          reference::analyze_forwarding(inst, inst.igp(), result.final_best)));
    }
  }
}

}  // namespace
}  // namespace ibgp
