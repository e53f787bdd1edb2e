// Checkpoint/restore and supervised-sweep suite.
//
// The centerpiece is the kill-at-every-tick oracle: for every fault family
// (session flaps, cold crash/restart, graceful restart, message loss/dup +
// exit-flap storms, IGP churn + partition) the campaign is checkpointed
// after k deliveries for EVERY k in [1, D) and resumed; the resumed
// CampaignResult — engine Result, trace hash, decision-provenance
// histograms, continuity, settle time — and a fresh metrics registry must
// be identical to the uninterrupted run's.  Every third kill point routes
// the state through the full ibgp-ckpt-v1 JSON encode/decode, so the
// serializer is pinned by the same oracle.
//
// The supervisor half covers graceful degradation (a throwing cell becomes
// a structured CellError instead of sinking the sweep — the regression for
// the old lowest-index-exception-wins policy), strict mode, per-cell
// deadlines with retry, and the cell-completion journal: a sweep killed
// after journaling only some cells resumes to a byte-identical final JSON
// document, for --jobs 1 and --jobs N alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "fault/supervisor.hpp"
#include "fault/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenarios.hpp"
#include "topo/figures.hpp"
#include "util/json.hpp"

namespace ibgp::fault {
namespace {

using core::ProtocolKind;

// Unwraps util::json::parse for well-formed test inputs (throws
// std::bad_optional_access on malformed text, failing the test loudly).
util::json::Value parse_json(const std::string& text) {
  return util::json::parse(text).value();
}

// One fault family exercised by the oracle.
struct Family {
  const char* name;
  FaultScriptConfig config;
};

std::vector<Family> fault_families() {
  std::vector<Family> out;
  {
    FaultScriptConfig c;
    c.seed = 101;
    c.session_flaps = 2;
    c.window_end = 200;
    out.push_back({"session-flaps", c});
  }
  {
    FaultScriptConfig c;
    c.seed = 202;
    c.crashes = 1;
    c.window_end = 200;
    out.push_back({"crash-restart", c});
  }
  {
    FaultScriptConfig c;
    c.seed = 303;
    c.graceful_restarts = 1;
    c.stale_timer = 40;
    c.window_end = 200;
    out.push_back({"graceful-restart", c});
  }
  {
    FaultScriptConfig c;
    c.seed = 404;
    c.exit_flaps = 2;
    c.loss_prob = 0.15;
    c.dup_prob = 0.10;
    c.window_end = 200;
    out.push_back({"loss-dup-exit-flaps", c});
  }
  {
    FaultScriptConfig c;
    c.seed = 505;
    c.link_cost_changes = 1;
    c.link_downs = 1;
    c.partitions = 1;
    c.window_end = 200;
    out.push_back({"igp-churn-partition", c});
  }
  return out;
}

// Asserts `resumed` is indistinguishable from the uninterrupted `full`.
void expect_same_outcome(const CampaignResult& resumed, const CampaignResult& full) {
  ASSERT_EQ(resumed.trace_hash, full.trace_hash);
  ASSERT_EQ(resumed.run.converged, full.run.converged);
  ASSERT_EQ(resumed.run.budget_exhausted, full.run.budget_exhausted);
  ASSERT_EQ(resumed.run.deliveries, full.run.deliveries);
  ASSERT_EQ(resumed.run.end_time, full.run.end_time);
  ASSERT_EQ(resumed.run.updates_sent, full.run.updates_sent);
  ASSERT_EQ(resumed.run.best_flips, full.run.best_flips);
  ASSERT_EQ(resumed.run.final_best, full.run.final_best);
  ASSERT_EQ(resumed.run.faults_applied, full.run.faults_applied);
  ASSERT_EQ(resumed.run.faults_pending, full.run.faults_pending);
  ASSERT_EQ(resumed.run.messages_dropped, full.run.messages_dropped);
  ASSERT_EQ(resumed.run.messages_duplicated, full.run.messages_duplicated);
  ASSERT_EQ(resumed.run.deliveries_voided, full.run.deliveries_voided);
  ASSERT_EQ(resumed.run.eor_markers_sent, full.run.eor_markers_sent);
  ASSERT_EQ(resumed.run.stale_retained, full.run.stale_retained);
  ASSERT_EQ(resumed.run.stale_swept_eor, full.run.stale_swept_eor);
  ASSERT_EQ(resumed.run.stale_swept_expired, full.run.stale_swept_expired);
  ASSERT_EQ(resumed.run.igp_epoch_swaps, full.run.igp_epoch_swaps);
  // Decision provenance, in full.
  ASSERT_EQ(resumed.run.decisions_total, full.run.decisions_total);
  ASSERT_EQ(resumed.run.decisions_empty, full.run.decisions_empty);
  ASSERT_EQ(resumed.run.mrai_deferrals, full.run.mrai_deferrals);
  ASSERT_EQ(resumed.run.decisions_by_rule, full.run.decisions_by_rule);
  ASSERT_EQ(resumed.run.decisions_by_node, full.run.decisions_by_node);
  // Campaign-level verdicts.
  ASSERT_EQ(resumed.last_fault_time, full.last_fault_time);
  ASSERT_EQ(resumed.settle_time, full.settle_time);
  ASSERT_EQ(resumed.invariants.violations, full.invariants.violations);
  ASSERT_EQ(resumed.continuity.ok_ticks, full.continuity.ok_ticks);
  ASSERT_EQ(resumed.continuity.stale_ticks, full.continuity.stale_ticks);
  ASSERT_EQ(resumed.continuity.blackhole_ticks, full.continuity.blackhole_ticks);
  ASSERT_EQ(resumed.continuity.loop_ticks, full.continuity.loop_ticks);
  ASSERT_EQ(resumed.continuity.deflection_ticks, full.continuity.deflection_ticks);
}

// The oracle: kill after every single delivery count and resume; every
// third kill point additionally round-trips the state through the
// ibgp-ckpt-v1 JSON serializer.
void kill_at_every_tick(const core::Instance& inst, ProtocolKind protocol,
                        const FaultScriptConfig& config, std::size_t max_deliveries,
                        const char* label) {
  const FaultScript script = make_fault_script(inst, config);
  CampaignOptions options;
  options.max_deliveries = max_deliveries;

  obs::MetricsRegistry full_registry;
  register_campaign_metrics(full_registry);
  CampaignOptions full_options = options;
  full_options.metrics = &full_registry;
  const CampaignResult full = run_campaign(inst, protocol, script, full_options);
  ASSERT_GT(full.run.deliveries, 0u) << label;
  // The oracle is O(D^2); a family whose campaign balloons should be
  // re-tuned, not silently crawl through CI.
  ASSERT_LT(full.run.deliveries, 4000u) << label;

  for (std::size_t k = 1; k < full.run.deliveries; ++k) {
    SCOPED_TRACE(std::string(label) + " kill@" + std::to_string(k));
    engine::EngineState state = campaign_checkpoint(inst, protocol, script, options, k);
    if (k % 3 == 0) {
      state = ckpt::parse_engine_state(ckpt::engine_state_json(state));
    }
    obs::MetricsRegistry registry;
    register_campaign_metrics(registry);
    CampaignOptions resume_options = options;
    resume_options.metrics = &registry;
    const CampaignResult resumed =
        resume_campaign(inst, protocol, script, state, resume_options);
    expect_same_outcome(resumed, full);
    // The decision-provenance histogram and every other deterministic
    // counter land identically in a fresh registry.
    ASSERT_EQ(registry.fingerprint(), full_registry.fingerprint());
  }
}

TEST(CkptOracle, KillAtEveryTickAcrossFaultFamilies) {
  const auto inst = topo::fig1a();
  for (const auto& family : fault_families()) {
    kill_at_every_tick(inst, ProtocolKind::kModified, family.config, 1'000'000,
                       family.name);
  }
}

TEST(CkptOracle, KillAtEveryTickOnTruncatedRun) {
  // Standard I-BGP oscillates on Fig 1(a); cap the budget so the run is
  // budget-truncated and check resume ≡ uninterrupted holds for truncated
  // histories too (pending events, faults_pending, no settle time).
  const auto inst = topo::fig1a();
  FaultScriptConfig config;
  config.seed = 7;
  config.session_flaps = 1;
  config.window_end = 120;
  kill_at_every_tick(inst, ProtocolKind::kStandard, config, 600, "standard-truncated");
}

TEST(CkptOracle, ResumeEmitsTraceMarkers) {
  const auto inst = topo::fig1a();
  FaultScriptConfig config;
  config.seed = 101;
  config.session_flaps = 2;
  config.window_end = 200;
  const FaultScript script = make_fault_script(inst, config);

  std::string lines;
  obs::TraceSink sink;
  sink.open_writer([&](std::string_view line) { lines += line; });
  CampaignOptions options;
  options.trace = &sink;
  const auto state = campaign_checkpoint(inst, ProtocolKind::kModified, script, options, 25);
  EXPECT_NE(lines.find("\"checkpoint\""), std::string::npos);
  const auto resumed =
      resume_campaign(inst, ProtocolKind::kModified, script, state, options);
  EXPECT_NE(lines.find("\"resume\""), std::string::npos);
  EXPECT_TRUE(resumed.reconverged());
}

// --- ibgp-ckpt-v1 format -----------------------------------------------------------

engine::EngineState sample_state() {
  const auto inst = topo::fig1a();
  FaultScriptConfig config;
  config.seed = 404;
  config.exit_flaps = 2;
  config.loss_prob = 0.15;
  config.dup_prob = 0.10;
  config.window_end = 200;
  const FaultScript script = make_fault_script(inst, config);
  CampaignOptions options;
  return campaign_checkpoint(inst, ProtocolKind::kModified, script, options, 40);
}

TEST(CkptFormat, DiskRoundTripResumesIdentically) {
  const auto inst = topo::fig1a();
  FaultScriptConfig config;
  config.seed = 404;
  config.exit_flaps = 2;
  config.loss_prob = 0.15;
  config.dup_prob = 0.10;
  config.window_end = 200;
  const FaultScript script = make_fault_script(inst, config);
  CampaignOptions options;
  const auto full = run_campaign(inst, ProtocolKind::kModified, script, options);

  const std::string path = testing::TempDir() + "ibgp_ckpt_roundtrip.json";
  const auto state = campaign_checkpoint(inst, ProtocolKind::kModified, script, options, 40);
  ASSERT_TRUE(ckpt::save_checkpoint(path, state));
  const auto loaded = ckpt::load_checkpoint(path);
  const auto resumed = resume_campaign(inst, ProtocolKind::kModified, script, loaded, options);
  expect_same_outcome(resumed, full);
  std::remove(path.c_str());
}

TEST(CkptFormat, RejectsWrongSchemaVersion) {
  const auto doc = ckpt::engine_state_json(sample_state());
  std::string text = doc.dump_compact();
  const auto pos = text.find("ibgp-ckpt-v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "ibgp-ckpt-v2");
  try {
    (void)ckpt::parse_engine_state(parse_json(text));
    FAIL() << "expected schema rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("schema"), std::string::npos) << e.what();
  }
}

TEST(CkptFormat, MissingFieldIsNamedInDiagnostic) {
  const auto doc = ckpt::engine_state_json(sample_state());
  std::string text = doc.dump_compact();
  // Renaming a required key makes it "missing"; the diagnostic must name it.
  const auto pos = text.find("\"mrai\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "\"mraj\"");
  try {
    (void)ckpt::parse_engine_state(parse_json(text));
    FAIL() << "expected missing-field rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mrai"), std::string::npos) << e.what();
  }
}

TEST(CkptFormat, UnknownKeysWithinV1AreIgnored) {
  // Additive evolution: an extra key must not break older readers.
  const auto doc = ckpt::engine_state_json(sample_state());
  std::string text = doc.dump_compact();
  const auto pos = text.find("\"schema\"");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "\"ckpt_future_extension\": 1, ");
  const auto state = ckpt::parse_engine_state(parse_json(text));
  EXPECT_EQ(state.instance, sample_state().instance);
}

TEST(CkptFormat, TornFileYieldsNulloptNotCrash) {
  const auto doc = ckpt::engine_state_json(sample_state());
  const std::string text = doc.dump_compact();
  const std::string path = testing::TempDir() + "ibgp_ckpt_torn.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << text.substr(0, text.size() / 2);  // torn mid-write
  }
  std::string error;
  const auto state = ckpt::try_load_checkpoint(path, &error);
  EXPECT_FALSE(state.has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());

  std::string missing_error;
  EXPECT_FALSE(ckpt::try_load_checkpoint(path + ".does-not-exist", &missing_error));
  EXPECT_FALSE(missing_error.empty());
  EXPECT_THROW((void)ckpt::load_checkpoint(path + ".does-not-exist"), std::runtime_error);
}

TEST(CkptFormat, RestoreRefusesMismatchedInstance) {
  const auto state = sample_state();  // captured over fig1a
  const auto other = topo::fig3();
  engine::EventEngine engine(other, ProtocolKind::kModified);
  EXPECT_THROW(engine.restore(state), std::runtime_error);
}

TEST(CkptFormat, RestoreRefusesMismatchedProtocol) {
  const auto inst = topo::fig1a();
  const auto state = sample_state();  // captured under kModified
  engine::EventEngine engine(inst, ProtocolKind::kStandard);
  EXPECT_THROW(engine.restore(state), std::runtime_error);
}

// --- golden ibgp-ckpt-v1 file ------------------------------------------------------
//
// tests/data/ckpt_v1_fig1a_golden.json was written by an earlier build: the
// campaign below, checkpointed after 17 deliveries.  At that point c1 is
// inside a graceful restart, two MRAI holds are open with a flush pending,
// one IGP epoch swap has happened, a dropped message has armed a repair
// reset, and ten different event kinds are queued.

// fig1a: A=0 c1=1 c2=2 B=3 c3=4.
FaultScript golden_script() {
  using Kind = FaultAction::Kind;
  FaultScript script;
  script.seed = 77;
  script.loss_prob = 0.08;
  script.dup_prob = 0.08;
  script.loss_detect_delay = 25;
  script.repair_downtime = 10;
  script.stale_timer = 120;
  script.actions = {
      {4, Kind::kLinkCostChange, 0, 4, kNoPath, 20},
      {9, Kind::kGracefulDown, 1, kNoNode, kNoPath, 0},
      {14, Kind::kExitWithdraw, kNoNode, kNoNode, 1, 0},
      {18, Kind::kSessionDown, 0, 3, kNoPath, 0},
      {40, Kind::kSessionUp, 0, 3, kNoPath, 0},
      {60, Kind::kRestart, 1, kNoNode, kNoPath, 0},
      {70, Kind::kExitInject, kNoNode, kNoNode, 1, 0},
      {80, Kind::kLinkDown, 3, 4, kNoPath, 0},
      {95, Kind::kLinkUp, 3, 4, kNoPath, 0},
  };
  return script;
}

CampaignOptions golden_options() {
  CampaignOptions options;
  options.mrai = 6;
  options.delay = [](NodeId from, NodeId to, std::uint64_t seq) -> engine::SimTime {
    return 1 + (from * 7 + to * 3 + seq) % 4;
  };
  return options;
}

util::json::Value golden_doc() {
  std::string error;
  auto doc = util::json::read_file(IBGP_CKPT_GOLDEN, &error);
  if (!doc) throw std::runtime_error(error);
  return *std::move(doc);
}

// Dumps `value` with every object's keys sorted, so two documents compare
// equal exactly when they hold the same keys and values.
std::string canonical(const util::json::Value& value) {
  if (value.is_object()) {
    auto members = value.as_object();
    std::sort(members.begin(), members.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string out = "{";
    for (const auto& [key, member] : members) {
      out += util::json::escape(key) + ":" + canonical(member) + ",";
    }
    return out + "}";
  }
  if (value.is_array()) {
    std::string out = "[";
    for (const auto& element : value.as_array()) out += canonical(element) + ",";
    return out + "]";
  }
  return value.dump_compact();
}

TEST(CkptGolden, EarlierBuildsV1FileResumesToTheUninterruptedRun) {
  const auto inst = topo::fig1a();
  const auto state = ckpt::parse_engine_state(golden_doc());
  EXPECT_EQ(state.deliveries, 17u);

  const auto full = run_campaign(inst, ProtocolKind::kModified, golden_script(), golden_options());
  EXPECT_TRUE(full.reconverged());
  EXPECT_EQ(full.trace_hash, 0xdbee737461eda3c8u);
  const auto resumed =
      resume_campaign(inst, ProtocolKind::kModified, golden_script(), state, golden_options());
  expect_same_outcome(resumed, full);
}

TEST(CkptGolden, CaptureAfterRestoreReencodesTheSameKeysAndValues) {
  const auto inst = topo::fig1a();
  const auto doc = golden_doc();
  engine::EventEngine engine(inst, ProtocolKind::kModified, golden_options().delay);
  engine.restore(ckpt::parse_engine_state(doc));
  EXPECT_EQ(canonical(ckpt::engine_state_json(engine.capture())), canonical(doc));
}

// --- restore validation ------------------------------------------------------------
//
// Each case corrupts one id inside the golden state and expects restore to
// refuse it with a diagnostic naming the field, instead of running on (or
// indexing out of bounds on the next run()).

engine::EngineState golden_state() { return ckpt::parse_engine_state(golden_doc()); }

void expect_rejected(const engine::EngineState& state, const std::string& field) {
  const auto inst = topo::fig1a();
  engine::EventEngine engine(inst, ProtocolKind::kModified);
  try {
    engine.restore(state);
    ADD_FAILURE() << "restore accepted a corrupt " << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

// The first pending event of `kind`.
engine::Event& pending(engine::EngineState& state, engine::EventKind kind) {
  const auto it = std::find_if(state.queue.begin(), state.queue.end(),
                               [&](const engine::Event& e) { return e.kind == kind; });
  if (it == state.queue.end()) throw std::logic_error("golden queue lacks the kind");
  return *it;
}

using engine::EventKind;

TEST(CkptRestore, GoldenStateIsAccepted) {
  const auto inst = topo::fig1a();
  engine::EventEngine engine(inst, ProtocolKind::kModified);
  EXPECT_NO_THROW(engine.restore(golden_state()));
}

TEST(CkptRestore, RejectsAnUpdateToANodeOutOfRange) {
  auto state = golden_state();
  pending(state, EventKind::kUpdate).to = 99;
  expect_rejected(state, "queue");
}

TEST(CkptRestore, RejectsAnUpdateForAPathOutOfRange) {
  auto state = golden_state();
  pending(state, EventKind::kUpdate).path = 99;
  expect_rejected(state, "queue");
}

TEST(CkptRestore, RejectsAnAnnounceForAPathOutOfRange) {
  auto state = golden_state();
  pending(state, EventKind::kEbgpAnnounce).path = 99;
  expect_rejected(state, "queue");
}

TEST(CkptRestore, RejectsAnAnnounceAwayFromItsExitPoint) {
  auto state = golden_state();
  pending(state, EventKind::kEbgpAnnounce).to = 0;  // r2 exits at c2
  expect_rejected(state, "queue");
}

TEST(CkptRestore, RejectsAnUpdateOverANonSession) {
  auto state = golden_state();
  auto& event = pending(state, EventKind::kUpdate);
  event.from = 1;  // c1 and c3 share no session
  event.to = 4;
  expect_rejected(state, "not a session");
}

TEST(CkptRestore, RejectsAFlushOverANonSession) {
  auto state = golden_state();
  auto& event = pending(state, EventKind::kMraiFlush);
  event.from = 1;
  event.to = 2;
  expect_rejected(state, "not a session");
}

TEST(CkptRestore, RejectsAnEndOfRibOverANonSession) {
  auto state = golden_state();
  auto& event = pending(state, EventKind::kUpdate);
  event.kind = EventKind::kEndOfRib;
  event.from = 4;
  event.to = 1;
  expect_rejected(state, "not a session");
}

TEST(CkptRestore, RejectsARestartOfANodeOutOfRange) {
  auto state = golden_state();
  pending(state, EventKind::kRestart).from = 99;
  expect_rejected(state, "queue");
}

TEST(CkptRestore, RejectsAStaleTimerOfANodeOutOfRange) {
  auto state = golden_state();
  pending(state, EventKind::kStaleExpire).from = 5;
  expect_rejected(state, "queue");
}

TEST(CkptRestore, RejectsALinkFaultOnANonLink) {
  auto state = golden_state();
  auto& event = pending(state, EventKind::kLinkDown);
  event.from = 1;  // c1 and c2 share no physical link
  event.to = 2;
  expect_rejected(state, "not a link");
}

TEST(CkptRestore, RejectsALinkCostChangeToANonPositiveCost) {
  auto state = golden_state();
  auto& event = pending(state, EventKind::kLinkDown);
  event.kind = EventKind::kLinkCostChange;
  event.cost = 0;
  expect_rejected(state, "positive finite metric");
}

TEST(CkptRestore, RejectsAHolderThatIsNotASessionPeer) {
  auto state = golden_state();
  state.nodes[1].holders[0] = {4};  // c3 is no peer of c1
  expect_rejected(state, "holders");
}

TEST(CkptRestore, RejectsHoldersOutOfOrder) {
  auto state = golden_state();
  state.nodes[0].holders[2] = {3, 1};
  expect_rejected(state, "holders");
}

TEST(CkptRestore, RejectsAStaleEntryThatIsNotASessionPeer) {
  auto state = golden_state();
  state.nodes[2].stale[0] = {3};  // B is no peer of c2
  expect_rejected(state, "stale");
}

TEST(CkptRestore, RejectsAnAdvertisedPathOutOfRange) {
  auto state = golden_state();
  state.nodes[0].advertised_out[0] = {0, 7};
  expect_rejected(state, "advertised_out");
}

TEST(CkptRestore, RejectsDesiredPathsOutOfOrder) {
  auto state = golden_state();
  state.nodes[0].desired_out[1] = {2, 0};
  expect_rejected(state, "desired_out");
}

TEST(CkptRestore, RejectsABestPathOutOfRange) {
  auto state = golden_state();
  ASSERT_TRUE(state.nodes[0].best.has_value());
  state.nodes[0].best->path = 3;
  expect_rejected(state, "best");
}

TEST(CkptRestore, RejectsAFibPathOutOfRange) {
  auto state = golden_state();
  state.fib[2] = 3;
  expect_rejected(state, "fib");
}

TEST(CkptRestore, RejectsAFibLogPathOutOfRange) {
  auto state = golden_state();
  ASSERT_FALSE(state.fib_log.empty());
  state.fib_log.back().new_path = 40;
  expect_rejected(state, "fib_log");
}

TEST(CkptRestore, RejectsAFibLogNodeOutOfRange) {
  auto state = golden_state();
  ASSERT_FALSE(state.fib_log.empty());
  state.fib_log.front().node = 5;
  expect_rejected(state, "fib_log");
}

TEST(CkptRestore, RejectsAFaultsAppliedCountOffTheFaultLog) {
  auto state = golden_state();
  state.faults_applied += 1;
  expect_rejected(state, "faults_applied");
}

// Every effective-cost change is logged, so the link state must end where
// the epoch history does (the current epoch is the last logged one).
TEST(CkptRestore, RejectsALinkStateOffTheLastIgpLogEntry) {
  auto state = golden_state();
  ASSERT_EQ(state.igp_log.size(), 1u);
  const auto up = std::find(state.link_down.begin(), state.link_down.end(), false);
  ASSERT_NE(up, state.link_down.end());
  state.link_cost[static_cast<std::size_t>(up - state.link_down.begin())] += 1;
  expect_rejected(state, "igp_log");
}

TEST(CkptRestore, RejectsAnEmptyIgpLogUnderChurnedLinks) {
  auto state = golden_state();
  state.igp_log.clear();
  expect_rejected(state, "igp_log");
}

// --- decoder range checks ----------------------------------------------------------
//
// Ids are 32-bit: a number past 2^32-1 in an id field must be refused with
// the field's name, not narrowed into a different, valid-looking id.

// One step into a document: a member name, or an array index when empty.
struct Step {
  std::string key;
  std::size_t index = 0;
};

// `doc` with the value at `path` replaced by `value`.
util::json::Value replaced(const util::json::Value& doc, std::span<const Step> path,
                           const util::json::Value& value) {
  if (path.empty()) return value;
  if (!path.front().key.empty()) {
    util::json::Object members = doc.as_object();
    for (auto& [key, member] : members) {
      if (key == path.front().key) member = replaced(member, path.subspan(1), value);
    }
    return util::json::Value(std::move(members));
  }
  util::json::Array elements = doc.as_array();
  auto& element = elements.at(path.front().index);
  element = replaced(element, path.subspan(1), value);
  return util::json::Value(std::move(elements));
}

void expect_refused_by_name(const util::json::Value& doc, const std::string& field) {
  try {
    (void)ckpt::parse_engine_state(doc);
    ADD_FAILURE() << "a too-wide " << field << " was narrowed instead of refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field + ": "), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
  }
}

constexpr std::uint64_t k2to32 = std::uint64_t{1} << 32;

TEST(CkptDecode, RefusesAHolderPastTheIdRange) {
  // Node A's path-0 holder is c1 (1); 2^32 + 1 used to read back as 1.
  const std::vector<Step> path = {{"nodes"}, {"", 0}, {"holders"}, {"", 0}, {"", 0}};
  ASSERT_EQ(replaced(golden_doc(), path, std::uint64_t{1}).dump_compact(),
            golden_doc().dump_compact());
  expect_refused_by_name(replaced(golden_doc(), path, k2to32 + 1), "holders");
}

TEST(CkptDecode, RefusesAFibEntryPastTheIdRange) {
  expect_refused_by_name(replaced(golden_doc(), {{{"fib"}, {"", 2}}}, k2to32 + 1), "fib");
}

TEST(CkptDecode, RefusesAFlapLogNodePastTheIdRange) {
  const std::vector<Step> path = {{"flap_log"}, {"", 0}, {"", 1}};
  expect_refused_by_name(replaced(golden_doc(), path, k2to32 + 1), "flap_log node");
}

TEST(CkptDecode, RefusesAQueueSenderPastTheIdRange) {
  const std::vector<Step> path = {{"queue"}, {"", 0}, {"", 3}};
  expect_refused_by_name(replaced(golden_doc(), path, k2to32), "queue entry from");
  expect_refused_by_name(replaced(golden_doc(), path, std::int64_t{-1}), "queue entry from");
}

TEST(CkptDecode, RootPidsStayMinusOneAndOtherNegativesAreRefused) {
  const auto state = golden_state();
  const auto root = std::find_if(state.queue.begin(), state.queue.end(),
                                 [](const engine::Event& e) { return e.pid == engine::kNoCause; });
  ASSERT_NE(root, state.queue.end());
  const std::vector<Step> path = {
      {"queue"}, {"", static_cast<std::size_t>(root - state.queue.begin())}, {"", 9}};
  try {
    (void)ckpt::parse_engine_state(replaced(golden_doc(), path, std::int64_t{-2}));
    ADD_FAILURE() << "a pid of -2 was read as a root";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("queue entry pid"), std::string::npos) << e.what();
  }
}

TEST(CkptDecode, JournalFinalBestPastTheIdRangeIsRefused) {
  const auto inst = topo::fig1a();
  FaultScriptConfig config;
  config.seed = 101;
  config.session_flaps = 1;
  config.window_end = 100;
  SweepCell cell;
  cell.instance = &inst;
  cell.protocol = ProtocolKind::kModified;
  cell.script = make_fault_script(inst, config);
  cell.group = "range";
  cell.seed = config.seed;
  const CampaignResult result = run_campaign(inst, cell.protocol, cell.script, {});
  const auto doc = journal_cell_json(0, cell, result);
  ASSERT_EQ(parse_journal_cell(doc).run.final_best, result.run.final_best);

  // Path 1 + 2^32 narrowed to path 1, a different route than the cell's.
  const PathId best = result.run.final_best.at(0);
  const std::vector<Step> path = {{"run"}, {"final_best"}, {"", 0}};
  try {
    (void)parse_journal_cell(replaced(doc, path, k2to32 + (best + 1) % 3));
    ADD_FAILURE() << "a too-wide final_best entry was narrowed instead of refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("final_best: "), std::string::npos) << e.what();
  }
}

TEST(CkptDecode, JournalChurnEndpointPastTheIdRangeIsRefused) {
  const auto inst = topo::fig3();
  FaultScriptConfig config;
  config.seed = 7;
  config.link_downs = 2;
  config.window_end = 100;
  SweepCell cell;
  cell.instance = &inst;
  cell.protocol = ProtocolKind::kModified;
  cell.script = make_fault_script(inst, config);
  cell.group = "range";
  cell.seed = config.seed;
  const CampaignResult result = run_campaign(inst, cell.protocol, cell.script, {});
  ASSERT_FALSE(result.continuity.churn_events.empty());
  const auto doc = journal_cell_json(0, cell, result);
  ASSERT_EQ(parse_journal_cell(doc).continuity.churn_events.size(),
            result.continuity.churn_events.size());

  // Endpoint 2^32 + 1 used to load as node 1.
  for (const std::size_t end : {2, 3}) {
    const std::vector<Step> path = {{"continuity"}, {"churn_events"}, {"", 0}, {"", end}};
    try {
      (void)parse_journal_cell(replaced(doc, path, k2to32 + 1));
      ADD_FAILURE() << "a too-wide churn_events endpoint was narrowed instead of refused";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("churn_events endpoint: "), std::string::npos)
          << e.what();
    }
  }
}

// --- supervisor --------------------------------------------------------------------

std::vector<SweepCell> make_cells(const core::Instance& inst, std::size_t count) {
  std::vector<SweepCell> cells;
  for (std::size_t i = 0; i < count; ++i) {
    FaultScriptConfig config;
    config.seed = 1000 + i;
    config.session_flaps = 1 + i % 2;
    config.exit_flaps = i % 3 == 0 ? 1 : 0;
    config.window_end = 150;
    SweepCell cell;
    cell.instance = &inst;
    cell.protocol = ProtocolKind::kModified;
    cell.script = make_fault_script(inst, config);
    cell.group = "ckpt-test";
    cell.seed = config.seed;
    cells.push_back(std::move(cell));
  }
  return cells;
}

// A script whose first action references a session that does not exist:
// apply_script throws std::invalid_argument deterministically.
FaultScript poison_script() {
  FaultScript script;
  script.seed = 666;
  FaultAction action;
  action.time = 5;
  action.kind = FaultAction::Kind::kSessionDown;
  action.a = 0;
  action.b = 0;  // no self-session exists anywhere
  script.actions.push_back(action);
  return script;
}

TEST(Supervisor, NonStrictSweepSurvivesThrowingCell) {
  // Regression for the old policy: one bad cell used to rethrow and discard
  // every completed cell.  Now it lands as a structured CellError and the
  // rest of the sweep completes.
  const auto inst = topo::fig1a();
  auto cells = make_cells(inst, 4);
  cells[1].script = poison_script();

  obs::MetricsRegistry registry;
  register_supervisor_metrics(registry);
  SweepOptions options;
  options.jobs = 2;
  options.metrics = &registry;
  const auto result = run_sweep(cells, options);
  ASSERT_EQ(result.cells.size(), 4u);
  ASSERT_TRUE(result.cells[1].failed());
  EXPECT_NE(result.cells[1].error->message.find("no such session"), std::string::npos);
  EXPECT_EQ(result.cells[1].error->attempts, 1u);  // deterministic: no retry
  EXPECT_FALSE(result.cells[1].error->timed_out);
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(result.cells[i].failed()) << i;
    EXPECT_TRUE(result.cells[i].healthy()) << i;
  }
  EXPECT_EQ(registry.counter_value("supervisor.cell_errors"), 1u);
  EXPECT_EQ(registry.counter_value("supervisor.cell_retries"), 0u);

  // The legacy entry point shares the non-strict default.
  const auto legacy = run_sweep(cells, 2);
  ASSERT_TRUE(legacy.cells[1].failed());
  EXPECT_EQ(legacy.fingerprint, result.fingerprint);

  // The sweep document carries the structured error record (v4 schema).
  const auto doc = sweep_json(cells, result, /*include_timing=*/false);
  const std::string text = doc.dump();
  EXPECT_NE(text.find("ibgp-sweep-v4"), std::string::npos);
  EXPECT_NE(text.find("no such session"), std::string::npos);
}

TEST(Supervisor, StrictModeRestoresAbortOnFirstError) {
  const auto inst = topo::fig1a();
  auto cells = make_cells(inst, 3);
  cells[0].script = poison_script();
  SweepOptions options;
  options.strict = true;
  EXPECT_THROW((void)run_sweep(cells, options), std::invalid_argument);
}

TEST(Supervisor, JournalResumeReproducesByteIdenticalSweepJson) {
  const auto inst = topo::fig1a();
  const auto cells = make_cells(inst, 5);

  // Ground truth: uninterrupted, unjournaled.
  const auto uninterrupted = run_sweep(cells, SweepOptions{});
  const std::string want = sweep_json(cells, uninterrupted, /*include_timing=*/false).dump();

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const std::string dir =
        testing::TempDir() + "ibgp_journal_" + std::to_string(jobs);
    std::filesystem::remove_all(dir);

    SweepOptions journaled;
    journaled.jobs = jobs;
    journaled.journal_dir = dir;
    const auto first = run_sweep(cells, journaled);
    EXPECT_EQ(sweep_json(cells, first, false).dump(), want);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_TRUE(std::filesystem::exists(journal_cell_path(dir, i))) << i;
    }

    // Simulate a SIGKILL that landed after cells 0/2/4 were journaled.
    std::filesystem::remove(journal_cell_path(dir, 1));
    std::filesystem::remove(journal_cell_path(dir, 3));

    obs::MetricsRegistry registry;
    register_supervisor_metrics(registry);
    SweepOptions resume = journaled;
    resume.resume = true;
    resume.metrics = &registry;
    const auto resumed = run_sweep(cells, resume);
    EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint);
    EXPECT_EQ(sweep_json(cells, resumed, false).dump(), want);
    EXPECT_EQ(registry.counter_value("supervisor.journal_hits"), 3u);
    EXPECT_EQ(registry.counter_value("supervisor.journal_writes"), 2u);
    std::filesystem::remove_all(dir);
  }
}

TEST(Supervisor, JournalReplayRecordsTheMetricsOfTheCellsItLoads) {
  // A cell loaded from the journal must leave the registry exactly as
  // running it does: engine counters, per-rule decisions, campaign.*
  // aggregates and the settle-time histogram.
  const auto inst = topo::fig3();
  const std::string dir = testing::TempDir() + "ibgp_journal_metrics";
  std::filesystem::remove_all(dir);
  // Runs the sweep into a fresh registry; returns its fingerprint.
  const auto sweep = [&](bool resume, std::uint64_t& fingerprint) {
    obs::MetricsRegistry registry;
    register_supervisor_metrics(registry);
    auto cells = make_cells(inst, 6);
    for (auto& cell : cells) cell.options.metrics = &registry;
    SweepOptions options;
    options.jobs = 2;
    options.journal_dir = dir;
    options.resume = resume;
    options.metrics = &registry;
    const auto result = run_sweep(cells, options);
    fingerprint = registry.fingerprint();
    return result.fingerprint;
  };
  std::uint64_t want = 0;
  const std::uint64_t sweep_fp = sweep(false, want);

  std::uint64_t replayed = 0;
  EXPECT_EQ(sweep(true, replayed), sweep_fp);  // every cell from the journal
  EXPECT_EQ(replayed, want);

  std::filesystem::remove(journal_cell_path(dir, 0));
  std::filesystem::remove(journal_cell_path(dir, 3));
  std::filesystem::remove(journal_cell_path(dir, 4));
  std::uint64_t half = 0;
  EXPECT_EQ(sweep(true, half), sweep_fp);  // three cells run, three replayed
  EXPECT_EQ(half, want);
  std::filesystem::remove_all(dir);
}

TEST(Supervisor, JournalIdentityMismatchForcesRerun) {
  const auto inst = topo::fig1a();
  auto cells = make_cells(inst, 2);
  const std::string dir = testing::TempDir() + "ibgp_journal_identity";
  std::filesystem::remove_all(dir);

  SweepOptions journaled;
  journaled.journal_dir = dir;
  (void)run_sweep(cells, journaled);
  ASSERT_TRUE(load_journal_cell(dir, 0, cells[0]).has_value());

  // Any identity drift — here the seed label — invalidates the entry.
  SweepCell drifted = cells[0];
  drifted.seed += 1;
  EXPECT_FALSE(load_journal_cell(dir, 0, drifted).has_value());
  SweepCell regrouped = cells[0];
  regrouped.group = "other-group";
  EXPECT_FALSE(load_journal_cell(dir, 0, regrouped).has_value());
  // Wrong index: the file exists but claims a different slot.
  EXPECT_FALSE(load_journal_cell(dir, 1, cells[0]).has_value());
  std::filesystem::remove_all(dir);
}

TEST(Supervisor, JournalCellJsonRoundTrips) {
  const auto inst = topo::fig1a();
  const auto cells = make_cells(inst, 1);
  const auto result = run_campaign(*cells[0].instance, cells[0].protocol,
                                   cells[0].script, cells[0].options);
  const auto doc = journal_cell_json(0, cells[0], result);
  const auto back = parse_journal_cell(parse_json(doc.dump()));
  EXPECT_EQ(back.trace_hash, result.trace_hash);
  EXPECT_EQ(back.last_fault_time, result.last_fault_time);
  EXPECT_EQ(back.settle_time, result.settle_time);
  EXPECT_EQ(back.run.deliveries, result.run.deliveries);
  EXPECT_EQ(back.run.final_best, result.run.final_best);
  EXPECT_EQ(back.run.decisions_by_rule, result.run.decisions_by_rule);
  EXPECT_EQ(back.invariants.violations, result.invariants.violations);
  EXPECT_EQ(back.continuity.blackhole_ticks, result.continuity.blackhole_ticks);
  EXPECT_EQ(back.continuity.churn_events.size(), result.continuity.churn_events.size());
}

TEST(Supervisor, DeadlineTimeoutBecomesStructuredErrorAfterRetries) {
  // A heavy cell against a 1 ms budget: the cooperative deadline fires,
  // the supervisor retries with doubled budgets, and the cell lands as a
  // timed_out CellError with the attempt count.  The jittered delay keeps
  // the run from jumping its orbit (DESIGN.md §15), so each attempt really
  // steps toward 2M deliveries.  On a machine fast enough to finish 50k+
  // deliveries inside 1 ms the premise evaporates — skip rather than flake.
  const auto inst = topo::fig1a();
  FaultScriptConfig config;
  config.seed = 99;
  config.session_flaps = 1;
  config.window_end = 50;
  SweepCell cell;
  cell.instance = &inst;
  cell.protocol = ProtocolKind::kStandard;  // oscillates on fig1a: burns the budget
  cell.script = make_fault_script(inst, config);
  cell.options.max_deliveries = 2'000'000;
  cell.options.delay = scenarios::jittered_delay(config.seed);
  cell.group = "deadline";
  cell.seed = config.seed;
  const std::vector<SweepCell> cells{cell};

  obs::MetricsRegistry registry;
  register_supervisor_metrics(registry);
  SweepOptions options;
  options.cell_deadline = std::chrono::milliseconds(1);
  options.metrics = &registry;
  const auto result = run_sweep(cells, options);
  if (!result.cells[0].failed()) {
    GTEST_SKIP() << "machine finished a 2M-delivery cell inside the deadline";
  }
  EXPECT_TRUE(result.cells[0].error->timed_out);
  EXPECT_EQ(result.cells[0].error->attempts, 3u);  // 1 try + 2 retries
  EXPECT_EQ(registry.counter_value("supervisor.cell_timeouts"), 3u);
  EXPECT_EQ(registry.counter_value("supervisor.cell_retries"), 2u);
  EXPECT_EQ(registry.counter_value("supervisor.cell_errors"), 1u);

  // Retry telemetry: the deadline doubles on every attempt, and the whole
  // history lands in the error row of the sweep JSON.
  const auto& tried = result.cells[0].error->deadlines_tried;
  ASSERT_EQ(tried.size(), 3u);
  EXPECT_EQ(tried[0], 1u);
  EXPECT_EQ(tried[1], 2u);
  EXPECT_EQ(tried[2], 4u);

  const auto doc = sweep_json(cells, result, /*include_timing=*/false);
  const auto parsed = parse_json(doc.dump());
  const auto& error_row = parsed.at("cells").as_array().at(0).at("error");
  const auto& json_tried = error_row.at("deadlines_tried").as_array();
  ASSERT_EQ(json_tried.size(), 3u);
  EXPECT_EQ(json_tried.at(0).as_uint(), 1u);
  EXPECT_EQ(json_tried.at(2).as_uint(), 4u);
}

}  // namespace
}  // namespace ibgp::fault
