// Observability layer: the metrics registry's deterministic/volatile split,
// ibgp-trace-v1 emission and parsing, decision provenance, and the contract
// the whole subsystem exists to keep — instrumented counters byte-identical
// across --jobs 1 and --jobs N on a mixed churn+flap+GR sweep.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bgp/selection.hpp"
#include "engine/event_engine.hpp"
#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "fault/sweep.hpp"
#include "obs/causal.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "topo/figures.hpp"
#include "util/log.hpp"

namespace ibgp {
namespace {

using obs::MetricClass;
using obs::MetricsRegistry;
using obs::TraceSink;

// --- registry semantics ------------------------------------------------------

TEST(Metrics, CounterBasicsAndLookup) {
  MetricsRegistry reg;
  auto& c = reg.counter("engine.things");
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counter_value("engine.things"), 42u);
  // counter_value never registers: the name stays absent.
  EXPECT_EQ(reg.counter_value("engine.absent"), 0u);
  EXPECT_EQ(&reg.counter("engine.things"), &c) << "re-registration returns the same metric";
}

TEST(Metrics, ConflictingReRegistrationThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1, 2}), std::logic_error);
  EXPECT_THROW(reg.counter("x", MetricClass::kVolatile), std::logic_error)
      << "same kind, different class";
  reg.histogram("h", {1, 2, 3});
  EXPECT_THROW(reg.histogram("h", {1, 2}), std::logic_error) << "different bounds";
}

TEST(Metrics, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  auto& h = reg.histogram("h", {10, 20});
  // Upper-inclusive "le" semantics: bucket 0 counts <= 10, bucket 1 counts
  // (10, 20], bucket 2 (overflow) everything above.
  h.observe(-5);
  h.observe(10);
  h.observe(11);
  h.observe(20);
  h.observe(21);
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.sum(), -5 + 10 + 11 + 20 + 21);
}

TEST(Metrics, HistogramBoundsMustStrictlyIncrease) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {10, 10}), std::logic_error);
  EXPECT_THROW(reg.histogram("bad2", {20, 10}), std::logic_error);
  EXPECT_THROW(reg.histogram("empty", {}), std::logic_error);
}

TEST(Metrics, GaugeRecordMax) {
  MetricsRegistry reg;
  auto& g = reg.gauge("depth");
  g.record_max(7);
  g.record_max(3);
  EXPECT_EQ(g.value(), 7);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
}

TEST(Metrics, DeterministicVolatileSplit) {
  MetricsRegistry reg;
  reg.counter("det").add(1);
  reg.counter("vol", MetricClass::kVolatile).add(2);
  reg.gauge("g").set(3);
  const std::string det = util::json::Value(reg.deterministic_json()).dump();
  const std::string vol = util::json::Value(reg.volatile_json()).dump();
  EXPECT_NE(det.find("\"det\""), std::string::npos);
  EXPECT_EQ(det.find("\"vol\""), std::string::npos);
  EXPECT_EQ(det.find("\"g\""), std::string::npos) << "gauges are always volatile";
  EXPECT_NE(vol.find("\"vol\""), std::string::npos);
  EXPECT_NE(vol.find("\"g\""), std::string::npos);
  const std::string doc = util::json::Value(reg.json()).dump();
  EXPECT_NE(doc.find("ibgp-metrics-v1"), std::string::npos);
}

TEST(Metrics, FingerprintCoversDeterministicValuesOnly) {
  MetricsRegistry a, b;
  a.counter("c");
  b.counter("c");
  a.gauge("g").set(5);
  b.gauge("g").set(99);
  EXPECT_EQ(a.fingerprint(), b.fingerprint()) << "volatile values must not fold in";
  a.counter("c").increment();
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Metrics, ResetZeroesValuesKeepsStructure) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.histogram("h", {10}).observe(3);
  const auto before = util::json::Value(reg.deterministic_json()).dump();
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.histogram("h", {10}).total(), 0u) << "bounds survive reset";
  reg.counter("c").add(5);
  reg.histogram("h", {10}).observe(3);
  EXPECT_EQ(util::json::Value(reg.deterministic_json()).dump(), before)
      << "same recordings after reset reproduce the same snapshot";
}

TEST(Metrics, ConcurrentCounterAddsAreLossless) {
  MetricsRegistry reg;
  auto& c = reg.counter("c");
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

// --- trace sink & reader -----------------------------------------------------

TEST(Trace, WriterRoundTrip) {
  TraceSink sink;
  std::vector<std::string> lines;
  sink.open_writer([&](std::string_view line) { lines.emplace_back(line); });
  ASSERT_TRUE(sink.enabled());

  util::json::Object fields;
  fields.emplace_back("node", 3);
  fields.emplace_back("rule", "igp-cost");
  fields.emplace_back("flip", true);
  sink.emit(17, "decision", std::move(fields));
  sink.close();
  EXPECT_FALSE(sink.enabled());

  ASSERT_EQ(lines.size(), 2u) << "header + one record";
  const auto header = obs::parse_trace_line(lines[0]);
  ASSERT_TRUE(header);
  EXPECT_EQ(header->str("schema"), "ibgp-trace-v2");

  const auto record = obs::parse_trace_line(lines[1]);
  ASSERT_TRUE(record);
  EXPECT_EQ(record->str("ev"), "decision");
  EXPECT_EQ(record->num("seq"), 0);
  EXPECT_EQ(record->num("t"), 17);
  EXPECT_EQ(record->num("node"), 3);
  EXPECT_EQ(record->str("rule"), "igp-cost");
  const auto* flip = record->find("flip");
  ASSERT_NE(flip, nullptr);
  ASSERT_TRUE(flip->is_bool());
  EXPECT_TRUE(flip->as_bool());
}

TEST(Trace, DisabledSinkEmitsNothing) {
  TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  EXPECT_EQ(sink.events_emitted(), 0u);
}

TEST(Trace, ParseRejectsMalformedAndNested) {
  EXPECT_FALSE(obs::parse_trace_line("not json"));
  EXPECT_FALSE(obs::parse_trace_line("{\"unterminated\": "));
  EXPECT_FALSE(obs::parse_trace_line("{\"nested\": {\"a\": 1}}"))
      << "ibgp-trace-v1 records are flat by contract";
  EXPECT_FALSE(obs::parse_trace_line("{\"arr\": [1, 2]}"));
  EXPECT_FALSE(obs::parse_trace_line("{\"ev\": \"update\", \"meta\": {}}"))
      << "an empty container is still not a scalar";
  EXPECT_FALSE(obs::parse_trace_line("{\"ev\": \"update\", \"hops\": []}"));
  EXPECT_FALSE(obs::parse_trace_line("[]")) << "a record is an object";
  const auto ok = obs::parse_trace_line("{\"a\": 1, \"b\": -2.5, \"c\": null}");
  ASSERT_TRUE(ok);
  EXPECT_EQ(ok->num("a"), 1);
  const auto* b = ok->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->as_double(), -2.5);
  EXPECT_EQ(ok->num("b", 7), 7) << "a double is not an integer";
  const auto* c = ok->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->is_null());
}

TEST(Trace, ParseRefusesTrailingBytes) {
  EXPECT_FALSE(obs::parse_trace_line("{\"ev\": \"update\", \"seq\": 1}trailing garbage"));
  EXPECT_FALSE(obs::parse_trace_line("{\"ev\": \"update\"} {\"ev\": \"update\"}"));
  EXPECT_TRUE(obs::parse_trace_line("{\"ev\": \"update\", \"seq\": 1}\r"))
      << "trailing whitespace is not a second document";
}

TEST(Trace, ParseRefusesDuplicateKeys) {
  EXPECT_FALSE(obs::parse_trace_line("{\"ev\": \"update\", \"seq\": 1, \"ev\": \"decision\"}"))
      << "a duplicate key would silently shadow the second value";
}

TEST(Trace, ParseRefusesLeadingZeros) {
  EXPECT_FALSE(obs::parse_trace_line("{\"seq\": 01}"));
  EXPECT_FALSE(obs::parse_trace_line("{\"seq\": -01}"));
  const auto zero = obs::parse_trace_line("{\"seq\": 0}");
  ASSERT_TRUE(zero);
  EXPECT_EQ(zero->num("seq", 9), 0);
}

TEST(Trace, ParseDecodesUnicodeEscapesAsUtf8) {
  const auto record = obs::parse_trace_line("{\"name\": \"\\u0141\", \"tab\": \"a\\u0009b\"}");
  ASSERT_TRUE(record);
  EXPECT_EQ(record->str("name"), "\xC5\x81") << "U+0141 is two UTF-8 bytes";
  EXPECT_EQ(record->str("tab"), "a\tb");
}

TEST(Trace, NumReadsBoolsAndWrapsFingerprints) {
  const auto record = obs::parse_trace_line(
      "{\"announce\": false, \"flip\": true, \"fp\": 18446744073709551615, "
      "\"neg\": -3, \"rule\": \"med\"}");
  ASSERT_TRUE(record);
  EXPECT_EQ(record->num("announce", 5), 0);
  EXPECT_EQ(record->num("flip", 5), 1);
  EXPECT_EQ(record->num("fp"), -1) << "a uint64 above INT64_MAX wraps";
  EXPECT_EQ(record->num("neg"), -3);
  EXPECT_EQ(record->num("rule", 5), 5) << "a string is not a number";
  EXPECT_EQ(record->num("absent", 5), 5);
  EXPECT_EQ(record->str("flip", "x"), "x") << "a bool is not a string";
}

TEST(Trace, RingRetainsTailAndCountsDrops) {
  TraceSink sink;
  std::vector<std::string> dumped;
  sink.open_ring(3, [&](std::string_view line) { dumped.emplace_back(line); });
  ASSERT_TRUE(sink.enabled());
  ASSERT_TRUE(sink.ring_mode());
  for (int i = 0; i < 5; ++i) {
    util::json::Object fields;
    fields.emplace_back("i", i);
    sink.emit(static_cast<std::uint64_t>(i), "tick", std::move(fields));
  }
  EXPECT_TRUE(dumped.empty()) << "ring mode writes nothing until dump_ring()";
  EXPECT_EQ(sink.ring_dropped(), 2u);
  sink.dump_ring();
  // header + ring-dump marker + the 3 retained records, oldest first.
  ASSERT_EQ(dumped.size(), 5u);
  const auto marker = obs::parse_trace_line(dumped[1]);
  ASSERT_TRUE(marker);
  EXPECT_EQ(marker->str("ev"), "ring-dump");
  EXPECT_EQ(marker->num("retained"), 3);
  EXPECT_EQ(marker->num("dropped"), 2);
  for (int i = 0; i < 3; ++i) {
    const auto rec = obs::parse_trace_line(dumped[static_cast<std::size_t>(i) + 2]);
    ASSERT_TRUE(rec);
    EXPECT_EQ(rec->num("i"), i + 2) << "oldest retained record first";
  }
}

// --- selection provenance ----------------------------------------------------

struct SelectionFixture {
  netsim::PhysicalGraph graph;
  bgp::ExitTable table;
  std::unique_ptr<netsim::ShortestPaths> igp;

  SelectionFixture() : graph(4) {
    graph.add_link(0, 1, 1);
    graph.add_link(1, 2, 1);
    graph.add_link(2, 3, 1);
  }

  PathId add(NodeId exit_point, AsId as, Med med, LocalPref lp = 100,
             std::uint32_t len = 3) {
    bgp::ExitPath path;
    path.exit_point = exit_point;
    path.next_as = as;
    path.med = med;
    path.local_pref = lp;
    path.as_path_length = len;
    path.ebgp_peer = static_cast<BgpId>(500 + table.size());
    return table.add(std::move(path));
  }

  std::optional<bgp::RouteView> best(NodeId at, std::vector<bgp::Candidate> candidates,
                                     bgp::SelectionProvenance* provenance) {
    if (!igp) igp = std::make_unique<netsim::ShortestPaths>(graph);
    return bgp::choose_best(table, *igp, at, candidates, {}, provenance);
  }
};

TEST(Provenance, SoleCandidateIsItsOwnRule) {
  SelectionFixture f;
  const auto only = f.add(1, 1, 0);
  bgp::SelectionProvenance prov;
  const auto best = f.best(0, {{only, 10}}, &prov);
  ASSERT_TRUE(best);
  EXPECT_TRUE(prov.selected);
  EXPECT_EQ(prov.decisive, bgp::SelectionRule::kSoleCandidate);
  EXPECT_EQ(prov.candidates, 1u);
  EXPECT_EQ(prov.usable, 1u);
  EXPECT_EQ(prov.eliminated_total(), 0u);
}

TEST(Provenance, DecisiveRuleAndEliminationCounts) {
  SelectionFixture f;
  const auto lo = f.add(1, 1, 0, 90);
  const auto hi = f.add(3, 2, 0, 200);
  bgp::SelectionProvenance prov;
  const auto best = f.best(0, {{lo, 10}, {hi, 11}}, &prov);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, hi);
  EXPECT_EQ(prov.decisive, bgp::SelectionRule::kLocalPref);
  EXPECT_EQ(prov.eliminated[bgp::rule_index(bgp::SelectionRule::kLocalPref)], 1u);
  EXPECT_EQ(prov.usable, 1u + prov.eliminated_total()) << "the provenance invariant";
}

TEST(Provenance, IgpCostDecidesEqualAttributeRoutes) {
  SelectionFixture f;
  const auto near = f.add(1, 1, 0);
  const auto far = f.add(3, 2, 0);
  bgp::SelectionProvenance prov;
  const auto best = f.best(0, {{near, 10}, {far, 11}}, &prov);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->path, near);
  EXPECT_EQ(prov.decisive, bgp::SelectionRule::kIgpCost);
}

TEST(Provenance, BgpIdBreaksExactTies) {
  SelectionFixture f;
  // Same exit point seen via two peers: identical attributes and metric,
  // only learnedFrom differs.
  const auto p = f.add(2, 1, 0);
  bgp::SelectionProvenance prov;
  const auto best = f.best(0, {{p, 20}, {p, 10}}, &prov);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->learned_from, 10u);
  EXPECT_EQ(prov.decisive, bgp::SelectionRule::kBgpIdTieBreak);
}

TEST(Provenance, UnreachableAndEmptySetsAreAccounted) {
  SelectionFixture f;
  const auto p = f.add(3, 1, 0);
  f.graph = netsim::PhysicalGraph(4);  // no links: node 3 unreachable from 0
  bgp::SelectionProvenance prov;
  const auto best = f.best(0, {{p, 10}}, &prov);
  EXPECT_FALSE(best);
  EXPECT_FALSE(prov.selected);
  EXPECT_EQ(prov.candidates, 1u);
  EXPECT_EQ(prov.unreachable, 1u);
  EXPECT_EQ(prov.usable, 0u);
}

// --- engine-level provenance -------------------------------------------------

TEST(EngineProvenance, ByRuleAndByNodeSumToTotal) {
  const auto inst = topo::fig3();
  engine::EventEngine engine(inst, core::ProtocolKind::kStandard);
  engine.inject_all_exits(0);
  const auto result = engine.run(50000);

  EXPECT_GT(result.decisions_total, 0u);
  std::uint64_t by_rule = 0;
  for (const auto count : result.decisions_by_rule) by_rule += count;
  EXPECT_EQ(by_rule, result.decisions_total);

  ASSERT_EQ(result.decisions_by_node.size(), inst.node_count());
  std::array<std::uint64_t, bgp::kSelectionRuleCount> by_node_total{};
  std::uint64_t all_nodes = 0;
  for (const auto& node : result.decisions_by_node) {
    for (std::size_t r = 0; r < node.size(); ++r) {
      by_node_total[r] += node[r];
      all_nodes += node[r];
    }
  }
  EXPECT_EQ(all_nodes, result.decisions_total);
  EXPECT_EQ(by_node_total, result.decisions_by_rule);
}

TEST(EngineProvenance, MetricsMatchResultAndFlushOnceAcrossRuns) {
  const auto inst = topo::fig3();
  MetricsRegistry reg;
  fault::register_campaign_metrics(reg);

  fault::FaultScriptConfig config;
  config.seed = 3;
  config.session_flaps = 2;
  const auto script = fault::make_fault_script(inst, config);
  fault::CampaignOptions options;
  options.metrics = &reg;
  options.max_deliveries = 100000;

  const auto first = fault::run_campaign(inst, core::ProtocolKind::kModified, script, options);
  EXPECT_EQ(reg.counter_value("engine.decisions"), first.run.decisions_total);
  EXPECT_EQ(reg.counter_value("campaign.runs"), 1u);

  const auto second = fault::run_campaign(inst, core::ProtocolKind::kModified, script, options);
  EXPECT_EQ(second.trace_hash, first.trace_hash) << "same seed, same campaign";
  EXPECT_EQ(reg.counter_value("engine.decisions"),
            first.run.decisions_total + second.run.decisions_total)
      << "delta flushing: cumulative engine counters must not double-count";
  EXPECT_EQ(reg.counter_value("campaign.runs"), 2u);

  std::uint64_t decided = 0;
  for (std::size_t r = 0; r < bgp::kSelectionRuleCount; ++r) {
    const std::string name(bgp::selection_rule_name(static_cast<bgp::SelectionRule>(r)));
    decided += reg.counter_value("engine.decided." + name);
  }
  EXPECT_EQ(decided, reg.counter_value("engine.decisions"))
      << "provenance counters sum to total decisions";
}

// --- the headline contract: serial vs parallel byte-identity -----------------

std::vector<fault::SweepCell> mixed_sweep_cells(const core::Instance& inst,
                                                MetricsRegistry* registry) {
  // Mixed churn + flap + GR grid: every fault family that feeds counters.
  std::vector<fault::SweepCell> cells;
  for (const auto protocol : {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
                              core::ProtocolKind::kModified}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      fault::FaultScriptConfig config;
      config.seed = seed;
      config.session_flaps = 2;
      config.graceful_restarts = 1;
      config.stale_timer = 200;
      config.link_cost_changes = 2;
      config.loss_prob = 0.05;
      fault::SweepCell cell;
      cell.instance = &inst;
      cell.protocol = protocol;
      cell.script = fault::make_fault_script(inst, config);
      cell.options.max_deliveries = 60000;
      cell.options.metrics = registry;
      cell.group = "mixed";
      cell.seed = seed;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(Determinism, MetricSnapshotsByteIdenticalAcrossJobs) {
  const auto inst = topo::fig3();

  MetricsRegistry serial_reg;
  fault::register_sweep_metrics(serial_reg);
  const auto serial_cells = mixed_sweep_cells(inst, &serial_reg);
  const auto serial = fault::run_sweep(serial_cells, 1);

  MetricsRegistry parallel_reg;
  fault::register_sweep_metrics(parallel_reg);
  const auto parallel_cells = mixed_sweep_cells(inst, &parallel_reg);
  const auto parallel = fault::run_sweep(parallel_cells, 4);

  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial_reg.fingerprint(), parallel_reg.fingerprint());
  EXPECT_EQ(util::json::Value(serial_reg.deterministic_json()).dump(),
            util::json::Value(parallel_reg.deterministic_json()).dump())
      << "deterministic snapshot must be byte-identical across --jobs";
}

// --- flight recorder: ring dump on invariant violation -----------------------

TEST(FlightRecorder, RingDumpsOnInvariantViolation) {
  // The known unclean recipe (see test_faults UnrepairedLoss...): 30%
  // unrepaired loss desynchronizes a RIB on at least one of these seeds.
  const auto inst = topo::fig1a();
  TraceSink sink;
  std::vector<std::string> dumped;
  sink.open_ring(64, [&](std::string_view line) { dumped.emplace_back(line); });

  bool violated = false;
  for (std::uint64_t seed = 1; seed <= 10 && !violated; ++seed) {
    fault::FaultScriptConfig config;
    config.seed = seed;
    config.loss_prob = 0.3;
    config.loss_detect_delay = 0;  // no repair
    const auto script = fault::make_fault_script(inst, config);
    fault::CampaignOptions options;
    options.trace = &sink;
    const auto campaign =
        fault::run_campaign(inst, core::ProtocolKind::kModified, script, options);
    if (campaign.reconverged() && !campaign.invariants.clean()) violated = true;
  }
  ASSERT_TRUE(violated) << "recipe no longer triggers a violation";
  ASSERT_GE(dumped.size(), 3u) << "header + ring-dump marker + retained tail";
  const auto header = obs::parse_trace_line(dumped[0]);
  ASSERT_TRUE(header);
  EXPECT_EQ(header->str("schema"), "ibgp-trace-v2");
  const auto marker = obs::parse_trace_line(dumped[1]);
  ASSERT_TRUE(marker);
  EXPECT_EQ(marker->str("ev"), "ring-dump");
  EXPECT_LE(marker->num("retained"), 64);
  for (std::size_t i = 2; i < dumped.size(); ++i) {
    EXPECT_TRUE(obs::parse_trace_line(dumped[i])) << "ring line " << i << " unparseable";
  }
}

// --- SPF cache counters ------------------------------------------------------

TEST(SpfCacheMetrics, BaseEpochNeverCountsAsAMiss) {
  const auto inst = topo::fig1a();
  // Instance construction primes the cache with the base epoch: exactly one
  // miss (and its insert) happened before anyone could observe the cache.
  const auto at_start = inst.spf_cache().stats();
  EXPECT_EQ(at_start.misses, 1u);
  EXPECT_EQ(at_start.inserts, at_start.misses);

  MetricsRegistry reg;
  inst.spf_cache().attach_metrics(&reg);

  std::vector<Cost> base_costs;
  for (const auto& link : inst.physical().links()) base_costs.push_back(link.cost);

  const auto handle = inst.igp_epoch(base_costs);
  EXPECT_EQ(handle.get(), inst.igp_handle().get())
      << "base costs must resolve to the identical primed epoch";
  const auto after = inst.spf_cache().stats();
  EXPECT_EQ(after.misses, at_start.misses) << "base-epoch lookup must hit";
  EXPECT_EQ(after.hits, at_start.hits + 1);
  EXPECT_EQ(reg.counter_value("spf.hits"), 1u) << "mirror counts from attach time";
  EXPECT_EQ(reg.counter_value("spf.misses"), 0u);

  // A genuinely new cost vector is a miss + insert, mirrored too.
  std::vector<Cost> churned = base_costs;
  churned.front() += 7;
  (void)inst.igp_epoch(churned);
  EXPECT_EQ(inst.spf_cache().stats().misses, at_start.misses + 1);
  EXPECT_EQ(reg.counter_value("spf.misses"), 1u);
  EXPECT_EQ(reg.counter_value("spf.inserts"), 1u);
  inst.spf_cache().attach_metrics(nullptr);
}

TEST(SpfCacheMetrics, BoundedLruEvictsColdEpochsButNeverTheBase) {
  const auto inst = topo::fig1a();
  auto& cache = inst.spf_cache();
  MetricsRegistry reg;
  cache.attach_metrics(&reg);
  cache.set_capacity(3);  // base + 2 churn epochs

  std::vector<Cost> base_costs;
  for (const auto& link : inst.physical().links()) base_costs.push_back(link.cost);
  const auto base_epoch = inst.igp_handle();

  auto churned = [&](Cost delta) {
    auto costs = base_costs;
    costs.front() += delta;
    return costs;
  };

  const auto e1 = cache.get(churned(1));
  const auto e2 = cache.get(churned(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch e1 so e2 is the LRU victim when a fourth epoch arrives.
  EXPECT_EQ(cache.get(churned(1)).get(), e1.get());
  const auto e3 = cache.get(churned(3));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(reg.counter_value("spf.evictions"), 1u);

  // e1 survived (still the identical object); e2 was evicted, so asking
  // again recomputes — a fresh miss, not a corrupted epoch.
  EXPECT_EQ(cache.get(churned(1)).get(), e1.get());
  const auto before = cache.stats().misses;
  const auto e2_again = cache.get(churned(2));
  EXPECT_EQ(cache.stats().misses, before + 1);
  EXPECT_EQ(e2_again->cost(0, 1), e2->cost(0, 1));

  // The base epoch is pinned: however much churn flows through, base costs
  // still resolve to the primed object.
  for (Cost delta = 10; delta < 30; ++delta) (void)cache.get(churned(delta));
  EXPECT_EQ(cache.get(base_costs).get(), base_epoch.get());
  EXPECT_EQ(cache.size(), 3u);

  // Shrinking the cap evicts down to it immediately; the base survives.
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get(base_costs).get(), base_epoch.get());
  cache.set_capacity(0);
  cache.attach_metrics(nullptr);
}

TEST(SpfCacheMetrics, OneLinkMissesAreDerivedAndCountedAsVolatile) {
  const auto inst = topo::fig1a();
  auto& cache = inst.spf_cache();
  MetricsRegistry reg;
  cache.attach_metrics(&reg);
  const std::uint64_t clean_fingerprint = reg.fingerprint();

  std::vector<Cost> base_costs;
  for (const auto& link : inst.physical().links()) base_costs.push_back(link.cost);
  ASSERT_GE(base_costs.size(), 2u);
  const auto start = cache.stats();
  EXPECT_EQ(start.derived, 0u) << "the primed base epoch is computed in full";

  // One link from the base: a derived miss, which still counts as a miss
  // and is timed by spf.recompute_ns.
  auto one_link = base_costs;
  one_link[0] += 7;
  (void)cache.get(one_link);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, start.misses + 1);
  EXPECT_EQ(stats.derived, 1u);
  EXPECT_GE(stats.rows_rerun, 1u);
  EXPECT_LE(stats.rows_rerun, inst.node_count());
  EXPECT_EQ(reg.counter_value("spf.misses"), 1u);
  EXPECT_EQ(reg.counter_value("spf.derived"), 1u);
  EXPECT_EQ(reg.counter_value("spf.rows_rerun"), stats.rows_rerun);
  EXPECT_EQ(obs::span_histogram(reg, "spf.recompute_ns").total(), 1u);

  // Two links from every cached key: computed in full, not derived.
  auto two_links = base_costs;
  two_links[0] += 3;
  two_links[1] += 3;
  (void)cache.get(two_links);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, start.misses + 2);
  EXPECT_EQ(stats.derived, 1u);
  EXPECT_EQ(reg.counter_value("spf.derived"), 1u);
  EXPECT_EQ(obs::span_histogram(reg, "spf.recompute_ns").total(), 2u);

  // A key the kernel rejects throws and is not counted as a miss.
  auto bad = base_costs;
  bad[0] = -1;
  EXPECT_THROW((void)cache.get(bad), std::invalid_argument);
  EXPECT_EQ(cache.stats().misses, start.misses + 2);
  EXPECT_EQ(cache.stats().inserts, start.inserts + 2);

  // Schedule-dependent, so volatile: no fingerprint sees them.
  EXPECT_EQ(reg.fingerprint(), clean_fingerprint);
  for (const auto& sample : reg.snapshot()) {
    if (sample.name == "spf.derived" || sample.name == "spf.rows_rerun") {
      EXPECT_EQ(sample.metric_class, obs::MetricClass::kVolatile) << sample.name;
    }
  }
  cache.attach_metrics(nullptr);
}

// --- profiler spans ----------------------------------------------------------

TEST(Span, NestedSpansAggregatePerHistogram) {
  MetricsRegistry reg;
  auto& outer = obs::span_histogram(reg, "outer_ns");
  auto& inner = obs::span_histogram(reg, "inner_ns");
  {
    const obs::Span outer_span(&outer);
    { const obs::Span inner_span(&inner); }
    { const obs::Span disabled(nullptr); }  // null sink: no clock, no sample
  }
  EXPECT_EQ(outer.total(), 1u);
  EXPECT_EQ(inner.total(), 1u);
  // The outer extent contains the inner span, so per-histogram aggregation
  // must order their sums — that is the documented nesting semantics.
  EXPECT_GE(outer.sum(), inner.sum());
  EXPECT_GE(inner.sum(), 0);
}

TEST(Span, SpanHistogramsAreVolatile) {
  MetricsRegistry reg;
  const auto before = reg.fingerprint();
  obs::span_histogram(reg, "engine.span.delivery_ns").observe(12345);
  EXPECT_EQ(reg.fingerprint(), before) << "wall time must never enter a fingerprint";
  EXPECT_EQ(obs::span_histogram(reg, "engine.span.delivery_ns").bounds(),
            obs::span_bounds_ns());
}

TEST(Span, QuantileInterpolatesWithinBuckets) {
  const std::vector<std::int64_t> bounds{100, 200, 400};
  // 2 samples in (0,100], 2 in (100,200]: p50 rank=2 lands exactly on the
  // end of bucket 0, p75 rank=3 is halfway through bucket 1.
  const std::vector<std::uint64_t> counts{2, 2, 0, 0};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.50), 100.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.75), 150.0);
  // Overflow-bucket samples report the last finite bound.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, {0, 0, 0, 5}, 0.99), 400.0);
  // Empty histogram: 0, not NaN.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
}

TEST(Span, SummaryJsonCarriesCountSumAndQuantiles) {
  MetricsRegistry reg;
  auto& h = obs::span_histogram(reg, "s_ns");
  h.observe(150);
  h.observe(250);
  const std::string doc = obs::span_summary_json(h).dump();
  for (const char* key : {"\"count\"", "\"sum_ns\"", "\"p50_ns\"", "\"p95_ns\"",
                          "\"p99_ns\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

TEST(Span, ProfileRunKeepsDeterministicSnapshotIdentical) {
  // The zero-cost-when-off contract from the other side: profiling ON must
  // only add volatile histograms — the deterministic snapshot (and hence
  // the fingerprint CI diffs) stays byte-identical.
  const auto inst = topo::fig3();
  fault::FaultScriptConfig config;
  config.seed = 5;
  config.session_flaps = 2;
  const auto script = fault::make_fault_script(inst, config);

  MetricsRegistry plain_reg, profiled_reg;
  fault::register_campaign_metrics(plain_reg);
  fault::register_campaign_metrics(profiled_reg);

  fault::CampaignOptions options;
  options.max_deliveries = 60000;
  options.metrics = &plain_reg;
  (void)fault::run_campaign(inst, core::ProtocolKind::kModified, script, options);
  options.metrics = &profiled_reg;
  options.profile = true;
  (void)fault::run_campaign(inst, core::ProtocolKind::kModified, script, options);

  EXPECT_EQ(util::json::Value(plain_reg.deterministic_json()).dump(),
            util::json::Value(profiled_reg.deterministic_json()).dump());
  EXPECT_EQ(plain_reg.fingerprint(), profiled_reg.fingerprint());
  EXPECT_EQ(obs::span_histogram(plain_reg, "engine.span.delivery_ns").total(), 0u)
      << "no --profile: spans must never fire";
  EXPECT_GT(obs::span_histogram(profiled_reg, "engine.span.delivery_ns").total(), 0u);
  EXPECT_GT(obs::span_histogram(profiled_reg, "engine.span.decision_ns").total(), 0u);
  EXPECT_GT(obs::span_histogram(profiled_reg, "engine.span.transfer_ns").total(), 0u);
}

TEST(Span, SpfRecomputeTimedWheneverMetricsAttached) {
  const auto inst = topo::fig1a();
  MetricsRegistry reg;
  inst.spf_cache().attach_metrics(&reg);
  std::vector<Cost> costs;
  for (const auto& link : inst.physical().links()) costs.push_back(link.cost);
  costs.front() += 3;  // new cost vector: a miss, hence a timed recompute
  (void)inst.igp_epoch(costs);
  EXPECT_EQ(obs::span_histogram(reg, "spf.recompute_ns").total(), 1u);
  (void)inst.igp_epoch(costs);  // hit: no recompute, no sample
  EXPECT_EQ(obs::span_histogram(reg, "spf.recompute_ns").total(), 1u);
  inst.spf_cache().attach_metrics(nullptr);
}

// --- Prometheus exposition ---------------------------------------------------

// In-test exposition checker: every line is `# TYPE <name> <kind>` or
// `<name>[{label="v"}] <number>`; histogram buckets are cumulative and the
// +Inf bucket equals _count.
void check_exposition(const std::string& text) {
  std::size_t value_lines = 0;
  std::istringstream in(text);
  std::string line;
  std::uint64_t last_bucket = 0;
  std::int64_t inf_value = -1;
  std::string bucket_base;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "no blank lines in the exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      const auto rest = line.substr(7);
      const auto space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      const std::string kind = rest.substr(space + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram") << line;
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    ++value_lines;

    const auto brace = name.find('{');
    std::string labels;
    if (brace != std::string::npos) {
      ASSERT_EQ(name.back(), '}') << line;
      labels = name.substr(brace + 1, name.size() - brace - 2);
      name = name.substr(0, brace);
    }
    for (const char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')
          << "invalid exposition name char in: " << line;
    }
    if (name.size() > 7 && name.substr(name.size() - 7) == "_bucket") {
      const std::uint64_t v = std::stoull(value);
      if (name != bucket_base) {  // first bucket of a new histogram
        bucket_base = name;
        last_bucket = 0;
        inf_value = -1;
      }
      EXPECT_GE(v, last_bucket) << "buckets must be cumulative: " << line;
      last_bucket = v;
      if (labels == "le=\"+Inf\"") inf_value = static_cast<std::int64_t>(v);
    } else if (name.size() > 6 && name.substr(name.size() - 6) == "_count") {
      if (inf_value >= 0) {
        EXPECT_EQ(std::stoll(value), inf_value)
            << "+Inf bucket must equal _count: " << line;
      }
    }
  }
  EXPECT_GT(value_lines, 0u);
}

TEST(Exposition, NameManglingAndLabelEscaping) {
  EXPECT_EQ(obs::exposition_name("engine.span.delivery_ns"), "engine_span_delivery_ns");
  EXPECT_EQ(obs::exposition_name("9lives"), "_lives") << "leading digit is invalid";
  EXPECT_EQ(obs::exposition_name("ok_name:v2"), "ok_name:v2");
  EXPECT_EQ(obs::exposition_name(""), "_");
  EXPECT_EQ(obs::exposition_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(Exposition, RendersCounterGaugeHistogramThroughChecker) {
  MetricsRegistry reg;
  reg.counter("daemon.records").add(42);
  reg.gauge("daemon.queue_depth").set(7);
  auto& h = reg.histogram("daemon.latency_ns", {10, 20}, MetricClass::kVolatile);
  h.observe(5);
  h.observe(10);  // upper-inclusive: still bucket le="10"
  h.observe(15);
  h.observe(20);
  h.observe(99);  // overflow: only visible in +Inf/_count

  const std::string text = obs::render_exposition(reg.snapshot());
  EXPECT_NE(text.find("# TYPE daemon_records_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_records_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_queue_depth 7\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_latency_ns_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_latency_ns_bucket{le=\"20\"} 4\n"), std::string::npos)
      << "buckets are cumulative";
  EXPECT_NE(text.find("daemon_latency_ns_bucket{le=\"+Inf\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_latency_ns_sum 149\n"), std::string::npos);
  EXPECT_NE(text.find("daemon_latency_ns_count 5\n"), std::string::npos);
  check_exposition(text);
}

TEST(Exposition, SnapshotPreservesRegistrationOrderAndClasses) {
  MetricsRegistry reg;
  reg.counter("b.second");
  reg.counter("a.first");  // registration order, not name order
  reg.gauge("g");
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "b.second");
  EXPECT_EQ(samples[1].name, "a.first");
  EXPECT_EQ(samples[2].kind, obs::MetricSample::Kind::kGauge);
  EXPECT_EQ(samples[0].metric_class, MetricClass::kDeterministic);
}

// --- trace v2 forward compatibility ------------------------------------------

TEST(TraceV2, ReaderToleratesUnknownScalarFieldsAndEventNames) {
  // A v3 writer may add scalar fields and whole record types; a v2 reader
  // must read around both (exactly how v1 readers survive v2's lid/pid).
  const auto with_extras = obs::parse_trace_line(
      "{\"ev\": \"update\", \"seq\": 9, \"t\": 4, \"from\": 1, \"to\": 2, "
      "\"path\": 0, \"announce\": true, \"lid\": 7, \"pid\": 3, "
      "\"v3_hint\": 1.5, \"v3_tag\": \"x\"}");
  ASSERT_TRUE(with_extras);
  EXPECT_EQ(with_extras->num("from"), 1);
  EXPECT_EQ(with_extras->num("lid"), 7);
  EXPECT_DOUBLE_EQ(with_extras->find("v3_hint")->as_double(), 1.5);

  const auto unknown_ev = obs::parse_trace_line(
      "{\"ev\": \"quantum-flush\", \"seq\": 1, \"t\": 0, \"lid\": 5}");
  ASSERT_TRUE(unknown_ev) << "unknown ev names parse; consumers skip them";

  // The structured consumer honors the skip contract: an unknown ev adds no
  // update, no decision, no flip — and no error.
  obs::CausalGraph graph;
  graph.add(*unknown_ev);
  EXPECT_EQ(graph.update_count(), 0u);
  EXPECT_TRUE(graph.oscillating_nodes().empty());

  // Nesting stays out of the format in v2 exactly as in v1.
  EXPECT_FALSE(obs::parse_trace_line("{\"ev\": \"update\", \"meta\": {\"a\": 1}}"));
}

// --- causality: lid/pid DAG over a real churn run ---------------------------

std::vector<std::string> fig3_churn_trace(core::ProtocolKind protocol,
                                          std::size_t budget = 4000) {
  const auto inst = topo::fig3();
  engine::EventEngine engine(inst, protocol);
  TraceSink sink;
  std::vector<std::string> lines;
  sink.open_writer([&](std::string_view line) { lines.emplace_back(line); });
  engine.set_trace(&sink);
  engine.inject_all_exits(0);
  engine.withdraw_exit(0, 150);
  engine.inject_exit(0, 400);
  engine.withdraw_exit(1, 300);
  (void)engine.run(budget);
  sink.close();
  return lines;
}

TEST(Causality, EveryDeliveredUpdateHasALiveParentAndPidPrecedesLid) {
  const auto lines = fig3_churn_trace(core::ProtocolKind::kStandard);
  std::set<std::int64_t> seen_lids;
  std::size_t updates = 0, updates_with_pid = 0, roots = 0, flushes = 0;
  for (const auto& line : lines) {
    const auto record = obs::parse_trace_line(line);
    ASSERT_TRUE(record) << line;
    const auto* lid = record->find("lid");
    const auto* pid = record->find("pid");
    if (pid != nullptr) {
      ASSERT_NE(lid, nullptr) << "pid without lid: " << line;
      EXPECT_LT(record->num("pid"), record->num("lid"))
          << "parent must precede child (acyclic by construction): " << line;
      EXPECT_TRUE(seen_lids.count(record->num("pid")))
          << "pid must reference a lid already delivered (live parent): " << line;
    }
    if (lid != nullptr) seen_lids.insert(record->num("lid"));
    const std::string ev(record->str("ev"));
    if (ev == "update") {
      ++updates;
      if (pid != nullptr) ++updates_with_pid;
    } else if (ev == "ebgp-announce" || ev == "ebgp-withdraw") {
      ++roots;
      EXPECT_NE(lid, nullptr) << "injection roots carry a lid: " << line;
      EXPECT_EQ(pid, nullptr) << "injection roots have no causal parent: " << line;
    } else if (ev == "mrai-flush") {
      ++flushes;
      EXPECT_NE(pid, nullptr) << "a flush relays its scheduling delivery: " << line;
    }
  }
  EXPECT_GT(updates, 100u);
  EXPECT_EQ(updates, updates_with_pid)
      << "every delivered update was caused by some processed event";
  EXPECT_GE(roots, 4u) << "the churn script injects at least 4 roots";
  (void)flushes;  // no MRAI configured in this run; presence tested elsewhere
}

TEST(Causality, MraiFlushRelaysResolveToLiveParents) {
  const auto inst = topo::fig3();
  engine::EventEngine engine(inst, core::ProtocolKind::kModified);
  TraceSink sink;
  std::vector<std::string> lines;
  sink.open_writer([&](std::string_view line) { lines.emplace_back(line); });
  engine.set_trace(&sink);
  engine.set_mrai(30);
  engine.inject_all_exits(0);
  engine.withdraw_exit(0, 150);
  engine.inject_exit(0, 400);
  (void)engine.run(60000);
  sink.close();

  std::set<std::int64_t> seen_lids;
  std::size_t flushes = 0;
  for (const auto& line : lines) {
    const auto record = obs::parse_trace_line(line);
    ASSERT_TRUE(record);
    if (record->str("ev") == "mrai-flush") {
      ++flushes;
      EXPECT_TRUE(seen_lids.count(record->num("pid")))
          << "flush parent must be a previously delivered event: " << line;
    }
    if (record->find("lid") != nullptr) seen_lids.insert(record->num("lid"));
  }
  EXPECT_GT(flushes, 0u) << "MRAI=30 on churn must defer at least one flush";
}

TEST(Causality, BlameNamesTheFig3SustainingCycles) {
  // Vanilla I-BGP on Figure 3 oscillates forever: B orbits r3<->r4 and C
  // orbits r5<->r6 (the paper's Section 3 example).  The blame chain must
  // name the causal cycle that sustains each orbit — the reflected
  // advertisements bouncing over the B<->C mesh session — with the exact
  // session, payload, and decisive rule per hop.
  const auto inst = topo::fig3();
  engine::EventEngine engine(inst, core::ProtocolKind::kStandard);
  TraceSink sink;
  obs::CausalGraph graph;
  sink.open_writer([&](std::string_view line) { graph.add_line(line); });
  engine.set_trace(&sink);
  engine.inject_all_exits(0);
  (void)engine.run(4000);
  sink.close();

  const auto oscillating = graph.oscillating_nodes();
  ASSERT_EQ(oscillating.size(), 2u) << "exactly the two orbiting reflectors";
  EXPECT_EQ(graph.node_name(oscillating[0]), "B");
  EXPECT_EQ(graph.node_name(oscillating[1]), "C");

  const auto blame_b = graph.blame(oscillating[0]);
  ASSERT_TRUE(blame_b);
  EXPECT_EQ(blame_b->period, 2u);
  ASSERT_EQ(blame_b->cycle.size(), 2u);
  EXPECT_EQ(graph.format_hop(blame_b->cycle[0]), "B -> C withdraw r3 [rule igp-cost]");
  EXPECT_EQ(graph.format_hop(blame_b->cycle[1]), "C -> B withdraw r5 [rule igp-cost]");

  const auto blame_c = graph.blame(oscillating[1]);
  ASSERT_TRUE(blame_c);
  EXPECT_EQ(blame_c->period, 2u);
  ASSERT_EQ(blame_c->cycle.size(), 2u);
  EXPECT_EQ(graph.format_hop(blame_c->cycle[0]),
            "C -> B announce r5 [rule ebgp-over-ibgp]");
  EXPECT_EQ(graph.format_hop(blame_c->cycle[1]),
            "B -> C announce r3 [rule ebgp-over-ibgp]");

  // Every hop in a blame cycle is a real recorded delivery.
  for (const auto& hop : blame_b->cycle) EXPECT_TRUE(graph.knows_lid(hop.lid));
}

TEST(Causality, ConvergedRunHasNoOscillatingNodes) {
  obs::CausalGraph graph;
  const auto inst = topo::fig3();
  engine::EventEngine engine(inst, core::ProtocolKind::kModified);
  TraceSink sink;
  sink.open_writer([&](std::string_view line) { graph.add_line(line); });
  engine.set_trace(&sink);
  engine.inject_all_exits(0);
  (void)engine.run(60000);
  sink.close();
  EXPECT_TRUE(graph.oscillating_nodes(8).empty())
      << "the modified protocol converges on fig3 — no sustained orbit";
  EXPECT_FALSE(graph.blame(99).has_value()) << "unknown node: no chain";
}

// --- log level env & single write path ---------------------------------------

TEST(Log, EnvLevelParsingIsCaseInsensitive) {
  const auto saved = util::Logger::instance().level();
  ::setenv("IBGP_LOG_LEVEL", "info", 1);
  EXPECT_EQ(util::init_log_level_from_env(), util::LogLevel::kInfo);
  ::setenv("IBGP_LOG_LEVEL", "DEBUG", 1);
  EXPECT_EQ(util::init_log_level_from_env(), util::LogLevel::kDebug);
  ::setenv("IBGP_LOG_LEVEL", "Warn", 1);
  EXPECT_EQ(util::init_log_level_from_env(), util::LogLevel::kWarn);
  ::unsetenv("IBGP_LOG_LEVEL");
  EXPECT_EQ(util::init_log_level_from_env(), util::LogLevel::kWarn)
      << "unset leaves the level untouched";
  util::Logger::instance().set_level(saved);
}

TEST(Log, LineSinkIsTheSingleWritePath) {
  const auto saved = util::Logger::instance().level();
  std::vector<std::string> lines;
  util::Logger::instance().set_line_sink(
      [&](std::string_view line) { lines.emplace_back(line); });
  util::Logger::instance().set_level(util::LogLevel::kInfo);
  IBGP_INFO() << "hello " << 42;
  IBGP_DEBUG() << "suppressed";
  util::Logger::instance().set_line_sink(nullptr);
  util::Logger::instance().set_level(saved);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[INFO] hello 42");
}

}  // namespace
}  // namespace ibgp
