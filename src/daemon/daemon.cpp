#include "daemon/daemon.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <variant>
#include <vector>

#include "analysis/forwarding.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/policy.hpp"
#include "fault/campaign.hpp"
#include "obs/span.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"

namespace ibgp::daemon {

namespace fileio = util::fileio;
namespace json = util::json;

namespace {

// Wire spelling of each QueryKind, used to name the per-query-kind latency
// histograms ("daemon.latency.<kind>_ns").
constexpr const char* kQueryLatencyMetric[] = {
    "daemon.latency.best_ns",   "daemon.latency.path_ns",
    "daemon.latency.status_ns", "daemon.latency.stats_ns",
    "daemon.latency.health_ns", "daemon.latency.whatif_ns",
    "daemon.latency.metrics_ns",
};

// Delivery budget per ingest step and for the final drain run.
constexpr std::size_t kStepBudget = 5'000'000;
// Delivery budget for sandboxed what-if evaluation.
constexpr std::size_t kWhatifBudget = 2'000'000;

}  // namespace

void register_daemon_metrics(obs::MetricsRegistry& registry) {
  // Deterministic stream counters: part of the registry fingerprint, so a
  // recovered daemon restores them from the checkpoint + journal replay.
  registry.counter("daemon.state_records", obs::MetricClass::kDeterministic);
  registry.counter("daemon.announces", obs::MetricClass::kDeterministic);
  registry.counter("daemon.withdraws", obs::MetricClass::kDeterministic);
  registry.counter("daemon.faults", obs::MetricClass::kDeterministic);
  // Volatile service counters: schedule- and crash-dependent by nature
  // (query counts do not survive a SIGKILL), never fingerprinted.
  registry.counter("daemon.queries", obs::MetricClass::kVolatile);
  registry.counter("daemon.errors", obs::MetricClass::kVolatile);
  registry.counter("daemon.sheds", obs::MetricClass::kVolatile);
  registry.counter("daemon.checkpoints", obs::MetricClass::kVolatile);
  registry.counter("daemon.wal_replayed", obs::MetricClass::kVolatile);
  registry.counter("daemon.watchdog_stalls", obs::MetricClass::kVolatile);
  // Service spans and per-query-kind latencies: wall time, always volatile.
  obs::span_histogram(registry, "daemon.span.wal_fsync_ns");
  obs::span_histogram(registry, "daemon.span.ckpt_write_ns");
  for (const char* name : kQueryLatencyMetric) obs::span_histogram(registry, name);
}

namespace {

const char* outcome_name(analysis::ForwardOutcome outcome) {
  switch (outcome) {
    case analysis::ForwardOutcome::kExits: return "exits";
    case analysis::ForwardOutcome::kLoop: return "loop";
    case analysis::ForwardOutcome::kNoRoute: return "no-route";
  }
  return "?";
}

}  // namespace

Daemon::Daemon(std::shared_ptr<core::Instance> instance, core::ProtocolKind protocol,
               DaemonOptions options)
    : instance_(std::move(instance)), protocol_(protocol), options_(std::move(options)) {
  if (!instance_) throw std::invalid_argument("Daemon: null instance");
  if (options_.resume && !persistent()) {
    throw std::invalid_argument("Daemon: --resume requires a state directory");
  }
  // Fixed registration order => deterministic registry fingerprint.
  engine::register_event_engine_metrics(metrics_);
  register_daemon_metrics(metrics_);
  if (options_.spf_cache_epochs != 0) {
    instance_->spf_cache().set_capacity(options_.spf_cache_epochs);
  }
  instance_->spf_cache().attach_metrics(&metrics_);

  wal_fsync_ns_ = &obs::span_histogram(metrics_, "daemon.span.wal_fsync_ns");
  ckpt_write_ns_ = &obs::span_histogram(metrics_, "daemon.span.ckpt_write_ns");
  for (std::size_t i = 0; i < std::size(kQueryLatencyMetric); ++i) {
    query_latency_ns_[i] = &obs::span_histogram(metrics_, kQueryLatencyMetric[i]);
  }

  engine_ = std::make_unique<engine::EventEngine>(*instance_, protocol_);
  engine_->set_metrics(&metrics_);

  if (persistent()) {
    std::filesystem::create_directories(options_.state_dir);
    if (options_.resume) {
      // The flag reports the startup mode, not what was found: a resume
      // into a state dir whose journal is empty (killed before anything
      // was accepted) is still a resumed daemon with applied_seq 0.
      resumed_ = true;
      recover();
    } else {
      // Fresh start: whatever a previous incarnation left behind is not
      // ours to resume — clear it so a later --resume sees only this run.
      std::remove(ckpt_path().c_str());
      if (!wal_reset()) {
        throw std::runtime_error("Daemon: cannot initialize journal in " +
                                 options_.state_dir);
      }
    }
  }
}

Daemon::~Daemon() {
  // SIGKILL-equivalent teardown: close the journal fd and nothing else.
  // Any state worth keeping is already on disk (WAL fsync'd per record).
  if (wal_fd_ >= 0) ::close(wal_fd_);
  instance_->spf_cache().attach_metrics(nullptr);
}

// --- paths & identity -------------------------------------------------------

std::string Daemon::ckpt_path() const { return options_.state_dir + "/checkpoint.json"; }
std::string Daemon::wal_path() const { return options_.state_dir + "/wal.jsonl"; }

void Daemon::append_identity(json::Object& doc) const {
  doc.emplace_back("instance", instance_->name());
  doc.emplace_back("protocol", core::protocol_name(protocol_));
}

void Daemon::check_identity(const json::Value& doc, const char* what) const {
  const json::Value* instance = doc.find("instance");
  const json::Value* protocol = doc.find("protocol");
  if (instance == nullptr || !instance->is_string() || protocol == nullptr ||
      !protocol->is_string()) {
    throw std::runtime_error(std::string("Daemon: ") + what + " carries no identity");
  }
  if (instance->as_string() != instance_->name() ||
      protocol->as_string() != core::protocol_name(protocol_)) {
    throw std::runtime_error(std::string("Daemon: ") + what + " belongs to instance '" +
                             instance->as_string() + "' protocol '" +
                             protocol->as_string() + "', not '" + instance_->name() +
                             "'/'" + core::protocol_name(protocol_) +
                             "' — refusing to resume");
  }
}

// --- engine stepping --------------------------------------------------------

void Daemon::step_engine(SimTime horizon) {
  // Each step reports only its own deliveries — except the first step after
  // restore(), which also carries the checkpointed cumulative total, so the
  // daemon-side sum always equals the uninterrupted run's total.
  auto result = engine_->run_until(horizon, kStepBudget);
  deliveries_total_ += result.deliveries;
  last_result_ = std::move(result);
}

engine::EventEngine::Result Daemon::synthesized_result() const {
  // The cumulative Result the equivalent uninterrupted batch run would
  // return right now: per-run fields (deliveries, end_time) are replaced
  // with stream-level totals, everything else is already cumulative.
  auto synth = last_result_;
  synth.deliveries = deliveries_total_;
  synth.end_time = clock_;
  synth.final_best.clear();
  synth.final_best.reserve(instance_->node_count());
  for (NodeId v = 0; v < instance_->node_count(); ++v) {
    synth.final_best.push_back(engine_->best_path(v));
  }
  return synth;
}

// --- WAL --------------------------------------------------------------------

bool Daemon::wal_reset() {
  if (!persistent()) return true;
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
  const std::string path = wal_path();
  json::Object header;
  header.emplace_back("ev", "wal");
  header.emplace_back("schema", kWalSchema);
  append_identity(header);
  const std::string line = json::Value(std::move(header)).dump_compact() + "\n";
  if (!fileio::write_file_atomic(path, line)) return false;
  wal_fd_ = fileio::open_retry(path, O_WRONLY | O_APPEND);
  return wal_fd_ >= 0;
}

bool Daemon::wal_append(std::string_view line) {
  if (wal_fd_ < 0) return false;
  std::string buf(line);
  buf += '\n';
  if (!fileio::write_all(wal_fd_, buf)) return false;
  // fsync BEFORE apply/ack: an acknowledged record is durable by contract.
  // The span measures exactly the durability cost paid per accepted record.
  const obs::Span span(wal_fsync_ns_);
  return fileio::fsync_retry(wal_fd_);
}

// --- checkpoint -------------------------------------------------------------

bool Daemon::write_checkpoint() {
  // Serialization + atomic write, the full stall a checkpoint imposes on
  // the single-threaded core.
  const obs::Span span(ckpt_write_ns_);
  json::Object doc;
  doc.emplace_back("schema", kDaemonCkptSchema);
  append_identity(doc);
  doc.emplace_back("applied_seq", applied_seq_);
  doc.emplace_back("clock", clock_);
  doc.emplace_back("wire_hash", wire_hash_);
  json::Object counters;
  counters.emplace_back("state_records", state_records_);
  counters.emplace_back("announces", announces_);
  counters.emplace_back("withdraws", withdraws_);
  counters.emplace_back("faults", faults_);
  counters.emplace_back("deliveries", deliveries_total_);
  doc.emplace_back("counters", std::move(counters));
  // The engine state is the last member: its ibgp-ckpt-v1 text goes in as
  // the encoder writes it, spliced in front of the closing brace.
  std::string text = json::Value(std::move(doc)).dump_compact();
  text.pop_back();
  text += ", \"engine\": ";
  ckpt::append_engine_state_text(text, engine_->capture());
  text += '}';
  if (!fileio::write_file_atomic(ckpt_path(), text)) return false;
  metrics_.counter("daemon.checkpoints", obs::MetricClass::kVolatile).increment();
  return true;
}

// --- recovery ---------------------------------------------------------------

void Daemon::recover() {
  std::string err;
  if (std::filesystem::exists(ckpt_path())) {
    const auto doc = json::read_file(ckpt_path(), &err);
    if (!doc) throw std::runtime_error("Daemon: unreadable checkpoint: " + err);
    const json::Value* schema = doc->find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kDaemonCkptSchema) {
      throw std::runtime_error("Daemon: checkpoint is not " + std::string(kDaemonCkptSchema));
    }
    check_identity(*doc, "checkpoint");
    engine_->restore(ckpt::parse_engine_state(doc->at("engine")));
    applied_seq_ = doc->at("applied_seq").as_uint();
    clock_ = doc->at("clock").as_uint();
    wire_hash_ = doc->at("wire_hash").as_uint();
    const json::Value& counters = doc->at("counters");
    state_records_ = counters.at("state_records").as_uint();
    announces_ = counters.at("announces").as_uint();
    withdraws_ = counters.at("withdraws").as_uint();
    faults_ = counters.at("faults").as_uint();
    metrics_.counter("daemon.state_records").add(state_records_);
    metrics_.counter("daemon.announces").add(announces_);
    metrics_.counter("daemon.withdraws").add(withdraws_);
    metrics_.counter("daemon.faults").add(faults_);
    // Consume the restored engine's deliveries carry (and push the first
    // full metrics flush).  The carry only spans the final run before the
    // checkpoint, so top both the stream total and the engine.deliveries
    // metric up to the checkpointed cumulative count.
    const std::uint64_t ckpt_deliveries = counters.at("deliveries").as_uint();
    step_engine(clock_);
    if (ckpt_deliveries > deliveries_total_) {
      metrics_.counter("engine.deliveries").add(ckpt_deliveries - deliveries_total_);
      deliveries_total_ = ckpt_deliveries;
    }
  }

  // Journal replay: feed every complete post-header line back through the
  // normal ingest path.  Records at or below the checkpoint's applied_seq
  // hit the exactly-once dedupe and are skipped; a torn final line is the
  // append a SIGKILL interrupted — its sender never got an ack — so it is
  // truncated away.  Only a missing journal reads as empty: a read error
  // must not pass a prefix off as the whole journal, whose tail would then
  // be truncated away with acknowledged records in it.
  const std::string path = wal_path();
  std::string text;
  if (const int fd = fileio::open_retry(path, O_RDONLY); fd >= 0) {
    const bool read = fileio::read_all(fd, text);
    ::close(fd);
    if (!read) throw std::runtime_error("Daemon: cannot read journal");
  } else if (errno != ENOENT) {
    throw std::runtime_error("Daemon: cannot read journal");
  }
  std::size_t valid_end = 0;
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail
    lines.emplace_back(text.data() + pos, nl - pos);
    valid_end = nl + 1;
    pos = nl + 1;
  }
  if (lines.empty()) {
    // Missing or headerless journal: start a fresh one (the checkpoint, if
    // any, is already restored).
    if (!wal_reset()) throw std::runtime_error("Daemon: cannot re-create journal");
    return;
  }
  std::string header_err;
  const auto header = json::parse(lines.front(), &header_err);
  if (!header || header->find("schema") == nullptr ||
      !header->at("schema").is_string() ||
      header->at("schema").as_string() != kWalSchema) {
    throw std::runtime_error("Daemon: journal header is not " + std::string(kWalSchema));
  }
  check_identity(*header, "journal");
  auto& replayed = metrics_.counter("daemon.wal_replayed", obs::MetricClass::kVolatile);
  replaying_ = true;
  hello_done_ = true;  // accepted records imply the original client's hello
  for (std::size_t i = 1; i < lines.size(); ++i) {
    (void)handle_line(lines[i]);  // replies were already delivered (or never acked)
    replayed.increment();
  }
  replaying_ = false;
  hello_done_ = false;
  if (valid_end < text.size()) {
    // Drop the torn tail so the next append starts on a clean line.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      throw std::runtime_error("Daemon: cannot truncate torn journal tail");
    }
  }
  wal_fd_ = fileio::open_retry(path, O_WRONLY | O_APPEND);
  if (wal_fd_ < 0) throw std::runtime_error("Daemon: cannot reopen journal");
}

// --- ingest -----------------------------------------------------------------

std::string Daemon::error_out(ErrorCode code, std::string message, const WireRecord* rec) {
  metrics_.counter("daemon.errors", obs::MetricClass::kVolatile).increment();
  WireError e;
  e.code = code;
  e.message = std::move(message);
  if (rec != nullptr &&
      (rec->kind == RecordKind::kAnnounce || rec->kind == RecordKind::kWithdraw ||
       rec->kind == RecordKind::kFault)) {
    e.seq = rec->seq;
    e.has_seq = true;
  }
  return error_reply(e);
}

std::string Daemon::handle_line(std::string_view line) {
  if (line.size() > kMaxLineBytes) {
    metrics_.counter("daemon.errors", obs::MetricClass::kVolatile).increment();
    return error_reply(ErrorCode::kOversize,
                       "line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
  }
  auto parsed = parse_record(line);
  if (std::holds_alternative<WireError>(parsed)) {
    metrics_.counter("daemon.errors", obs::MetricClass::kVolatile).increment();
    return error_reply(std::get<WireError>(parsed));
  }
  try {
    return handle_record(std::get<WireRecord>(parsed), line);
  } catch (const std::exception& e) {
    // Belt and braces: nothing below should throw, but "never a crash" is
    // the contract, so any escapee becomes a structured error.
    return error_out(ErrorCode::kState, std::string("internal: ") + e.what(), nullptr);
  }
}

std::string Daemon::handle_record(const WireRecord& rec, std::string_view raw_line) {
  switch (rec.kind) {
    case RecordKind::kHello:
      return handle_hello(rec);
    case RecordKind::kAnnounce:
    case RecordKind::kWithdraw:
    case RecordKind::kFault:
      return handle_state_record(rec, raw_line);
    case RecordKind::kQuery:
      if (!hello_done_) return error_out(ErrorCode::kState, "expected hello first", nullptr);
      return handle_query(rec);
    case RecordKind::kDrain:
      if (!hello_done_) return error_out(ErrorCode::kState, "expected hello first", nullptr);
      return drain();
  }
  return error_out(ErrorCode::kState, "unreachable record kind", nullptr);
}

std::string Daemon::handle_hello(const WireRecord& rec) {
  if (hello_done_) return error_out(ErrorCode::kState, "duplicate hello", nullptr);
  if (rec.instance != instance_->name()) {
    return error_out(ErrorCode::kIdentity,
                     "this daemon serves instance '" + instance_->name() + "', not '" +
                         rec.instance + "'",
                     nullptr);
  }
  if (rec.protocol != core::protocol_name(protocol_)) {
    return error_out(ErrorCode::kIdentity,
                     std::string("this daemon runs protocol '") +
                         core::protocol_name(protocol_) + "', not '" + rec.protocol + "'",
                     nullptr);
  }
  hello_done_ = true;
  json::Object out;
  out.emplace_back("ev", "hello-ok");
  out.emplace_back("schema", kWireSchema);
  append_identity(out);
  out.emplace_back("resumed", resumed_);
  out.emplace_back("applied_seq", applied_seq_);
  return render_reply(std::move(out));
}

std::string Daemon::validate_fault(const WireRecord& rec) {
  const NodeId n = static_cast<NodeId>(instance_->node_count());
  if (rec.a >= n) {
    return error_out(ErrorCode::kRange,
                     "node " + std::to_string(rec.a) + " out of range (node count " +
                         std::to_string(n) + ")",
                     &rec);
  }
  if (!fault_takes_peer(rec.fault)) return {};
  if (rec.b >= n) {
    return error_out(ErrorCode::kRange,
                     "node " + std::to_string(rec.b) + " out of range (node count " +
                         std::to_string(n) + ")",
                     &rec);
  }
  if (rec.a == rec.b) {
    return error_out(ErrorCode::kRange, "fault endpoints must differ", &rec);
  }
  switch (rec.fault) {
    case engine::FaultKind::kSessionDown:
    case engine::FaultKind::kSessionUp:
      // The E_I session-graph constraint, enforced at ingest: only pairs
      // the instance's session graph actually contains are addressable.
      if (!instance_->sessions().has_session(rec.a, rec.b)) {
        return error_out(ErrorCode::kNotASession,
                         instance_->node_name(rec.a) + "—" + instance_->node_name(rec.b) +
                             " is not an I-BGP session",
                         &rec);
      }
      break;
    case engine::FaultKind::kLinkCostChange:
    case engine::FaultKind::kLinkDown:
    case engine::FaultKind::kLinkUp:
      if (!instance_->physical().find_link(rec.a, rec.b).has_value()) {
        return error_out(ErrorCode::kNotALink,
                         instance_->node_name(rec.a) + "—" + instance_->node_name(rec.b) +
                             " is not a physical link",
                         &rec);
      }
      if (rec.fault == engine::FaultKind::kLinkCostChange &&
          (rec.cost <= 0 || rec.cost >= kInfCost)) {
        return error_out(ErrorCode::kRange, "link cost must be a positive finite metric",
                         &rec);
      }
      break;
    default:
      break;
  }
  return {};
}

void Daemon::schedule_fault_on(engine::EventEngine& engine, const WireRecord& rec,
                               SimTime when) {
  switch (rec.fault) {
    case engine::FaultKind::kSessionDown:
      engine.schedule_session_down(rec.a, rec.b, when);
      break;
    case engine::FaultKind::kSessionUp:
      engine.schedule_session_up(rec.a, rec.b, when);
      break;
    case engine::FaultKind::kCrash:
      engine.schedule_crash(rec.a, when);
      break;
    case engine::FaultKind::kRestart:
      engine.schedule_restart(rec.a, when);
      break;
    case engine::FaultKind::kGracefulDown:
      engine.schedule_graceful_down(rec.a, when);
      break;
    case engine::FaultKind::kLinkCostChange:
      engine.schedule_link_cost_change(rec.a, rec.b, rec.cost, when);
      break;
    case engine::FaultKind::kLinkDown:
      engine.schedule_link_down(rec.a, rec.b, when);
      break;
    case engine::FaultKind::kLinkUp:
      engine.schedule_link_up(rec.a, rec.b, when);
      break;
    default:
      throw std::invalid_argument("fault kind is not injectable");
  }
}

std::string Daemon::handle_state_record(const WireRecord& rec, std::string_view raw_line) {
  if (!hello_done_) return error_out(ErrorCode::kState, "expected hello first", &rec);
  if (drained_) return error_out(ErrorCode::kState, "daemon is drained", &rec);

  // Exactly-once: an already-applied seq gets the same pure-function ack
  // its first delivery got (or never got — the crash window), unapplied.
  if (rec.seq <= applied_seq_) return ack_reply(rec.seq, rec.t);

  if (rec.t < clock_) {
    return error_out(ErrorCode::kOrder,
                     "t " + std::to_string(rec.t) + " before stream clock " +
                         std::to_string(clock_),
                     &rec);
  }
  if (rec.kind == RecordKind::kAnnounce || rec.kind == RecordKind::kWithdraw) {
    if (rec.path >= instance_->exits().size()) {
      return error_out(ErrorCode::kRange,
                       "path " + std::to_string(rec.path) + " out of range (" +
                           std::to_string(instance_->exits().size()) + " exit paths)",
                       &rec);
    }
  } else {
    std::string fault_error = validate_fault(rec);
    if (!fault_error.empty()) return fault_error;
  }

  // Journal before apply: once the ack leaves, the record must survive any
  // kill.  A failed append refuses the record instead of applying it
  // unjournaled.
  if (persistent() && !replaying_ && !wal_append(raw_line)) {
    return error_out(ErrorCode::kState, "journal append failed", &rec);
  }

  try {
    switch (rec.kind) {
      case RecordKind::kAnnounce:
        engine_->inject_exit(rec.path, rec.t);
        break;
      case RecordKind::kWithdraw:
        engine_->withdraw_exit(rec.path, rec.t);
        break;
      default:
        schedule_fault_on(*engine_, rec, rec.t);
        break;
    }
  } catch (const std::exception& e) {
    return error_out(ErrorCode::kState, e.what(), &rec);
  }
  step_engine(rec.t);

  clock_ = rec.t;
  applied_seq_ = rec.seq;
  ++state_records_;
  metrics_.counter("daemon.state_records").increment();
  std::uint64_t tag = 3;
  switch (rec.kind) {
    case RecordKind::kAnnounce:
      ++announces_;
      metrics_.counter("daemon.announces").increment();
      tag = 1;
      break;
    case RecordKind::kWithdraw:
      ++withdraws_;
      metrics_.counter("daemon.withdraws").increment();
      tag = 2;
      break;
    default:
      ++faults_;
      metrics_.counter("daemon.faults").increment();
      break;
  }
  // The wire hash pins the applied-record history itself (seq, time, and
  // payload), complementing trace_hash which pins the engine's reaction.
  wire_hash_ = util::hash_combine(wire_hash_, rec.seq);
  wire_hash_ = util::hash_combine(wire_hash_, rec.t);
  wire_hash_ = util::hash_combine(wire_hash_, tag);
  if (tag == 3) {
    wire_hash_ = util::hash_combine(wire_hash_, static_cast<std::uint64_t>(rec.fault));
    wire_hash_ = util::hash_combine(wire_hash_, rec.a);
    wire_hash_ = util::hash_combine(wire_hash_, fault_takes_peer(rec.fault) ? rec.b : kNoNode);
    wire_hash_ = util::hash_combine(wire_hash_, static_cast<std::uint64_t>(rec.cost));
  } else {
    wire_hash_ = util::hash_combine(wire_hash_, rec.path);
  }

  // Checkpoint cadence is keyed on applied_seq (not wall anything), so a
  // killed-and-recovered daemon snapshots at the same stream positions as
  // one that never died.  Replay itself never checkpoints: the journal
  // being consumed must stay intact until it is re-opened for append.
  if (persistent() && !replaying_ && options_.ckpt_every != 0 &&
      applied_seq_ % options_.ckpt_every == 0) {
    if (write_checkpoint()) wal_reset();
  }
  return ack_reply(rec.seq, rec.t);
}

std::string Daemon::handle_query(const WireRecord& rec) {
  metrics_.counter("daemon.queries", obs::MetricClass::kVolatile).increment();
  const auto kind = static_cast<std::size_t>(rec.query);
  const obs::Span latency_span(
      kind < std::size(kQueryLatencyMetric) ? query_latency_ns_[kind] : nullptr);
  switch (rec.query) {
    case QueryKind::kBest: {
      if (rec.node >= instance_->node_count()) {
        return error_out(ErrorCode::kRange, "node " + std::to_string(rec.node) + " out of range",
                         nullptr);
      }
      const PathId best = engine_->best_path(rec.node);
      json::Object out;
      out.emplace_back("ev", "best");
      out.emplace_back("t", clock_);
      out.emplace_back("node", rec.node);
      out.emplace_back("name", instance_->node_name(rec.node));
      out.emplace_back("path", best == kNoPath ? json::Value(nullptr) : json::Value(best));
      return render_reply(std::move(out));
    }
    case QueryKind::kPath: {
      if (rec.node >= instance_->node_count()) {
        return error_out(ErrorCode::kRange, "node " + std::to_string(rec.node) + " out of range",
                         nullptr);
      }
      path_best_.clear();
      for (NodeId v = 0; v < instance_->node_count(); ++v) {
        path_best_.push_back(engine_->best_path(v));
      }
      analysis::trace_forwarding(*instance_, *engine_->igp_handle(), path_best_, rec.node,
                                 path_visited_, path_trace_);
      const analysis::ForwardTrace& trace = path_trace_;
      json::Object out;
      out.emplace_back("ev", "path");
      out.emplace_back("t", clock_);
      out.emplace_back("node", rec.node);
      out.emplace_back("outcome", outcome_name(trace.outcome));
      json::Array hops;
      for (const NodeId hop : trace.hops) hops.emplace_back(hop);
      out.emplace_back("hops", std::move(hops));
      out.emplace_back("exit_node", trace.exit_node == kNoNode ? json::Value(nullptr)
                                                               : json::Value(trace.exit_node));
      out.emplace_back("exit_path", trace.exit_path == kNoPath ? json::Value(nullptr)
                                                               : json::Value(trace.exit_path));
      return render_reply(std::move(out));
    }
    case QueryKind::kStatus: {
      json::Object out;
      out.emplace_back("ev", "status");
      out.emplace_back("t", clock_);
      out.emplace_back("applied_seq", applied_seq_);
      out.emplace_back("quiescent", state_records_ == 0 || last_result_.converged);
      out.emplace_back("events_pending", static_cast<std::uint64_t>(last_result_.events_pending));
      out.emplace_back("faults_pending", static_cast<std::uint64_t>(last_result_.faults_pending));
      out.emplace_back("best_flips", static_cast<std::uint64_t>(last_result_.best_flips));
      out.emplace_back("updates_sent", static_cast<std::uint64_t>(last_result_.updates_sent));
      return render_reply(std::move(out));
    }
    case QueryKind::kStats: {
      const auto synth = synthesized_result();
      json::Object out;
      out.emplace_back("ev", "stats");
      out.emplace_back("t", clock_);
      out.emplace_back("applied_seq", applied_seq_);
      out.emplace_back("state_records", state_records_);
      out.emplace_back("announces", announces_);
      out.emplace_back("withdraws", withdraws_);
      out.emplace_back("faults", faults_);
      out.emplace_back("deliveries", deliveries_total_);
      out.emplace_back("wire_hash", "0x" + util::hex64(wire_hash_));
      out.emplace_back("trace_hash", "0x" + util::hex64(fault::trace_hash(*engine_, synth)));
      out.emplace_back("metrics_fingerprint", "0x" + util::hex64(metrics_.fingerprint()));
      return render_reply(std::move(out));
    }
    case QueryKind::kHealth: {
      // Deliberately volatile: liveness and load, never folded into any
      // fingerprint and excluded from deterministic stream generators.
      json::Object out;
      out.emplace_back("ev", "health");
      out.emplace_back("hello", hello_done_);
      out.emplace_back("drained", drained_);
      out.emplace_back("applied_seq", applied_seq_);
      if (health_source_) out.emplace_back("service", health_source_());
      out.emplace_back("volatile", metrics_.volatile_json());
      return render_reply(std::move(out));
    }
    case QueryKind::kMetrics: {
      // Full registry snapshot — the wire twin of the --metrics-file
      // exporter.  Deterministic and volatile sections are both included;
      // only the deterministic section backs the fingerprint.
      json::Object out;
      out.emplace_back("ev", "metrics");
      out.emplace_back("schema", "ibgp-metrics-v1");
      out.emplace_back("t", clock_);
      out.emplace_back("applied_seq", applied_seq_);
      out.emplace_back("deterministic", metrics_.deterministic_json());
      out.emplace_back("volatile", metrics_.volatile_json());
      out.emplace_back("metrics_fingerprint", "0x" + util::hex64(metrics_.fingerprint()));
      return render_reply(std::move(out));
    }
    case QueryKind::kWhatIf:
      return handle_whatif(rec);
  }
  return error_out(ErrorCode::kState, "unreachable query kind", nullptr);
}

std::string Daemon::handle_whatif(const WireRecord& rec) {
  std::string fault_error = validate_fault(rec);
  if (!fault_error.empty()) return fault_error;

  // Sandboxed continuity probe: fork the live engine in memory, inject the
  // hypothetical fault one tick past the stream clock, and run the fork to
  // quiescence.  The live engine is never touched, so what-if queries stay
  // pure reads and need no journaling.  The fork's run continues the live
  // engine's last Result, so its deliveries count from that run's total.
  engine::EventEngine sandbox = engine_->fork();
  try {
    schedule_fault_on(sandbox, rec, clock_ + 1);
  } catch (const std::exception& e) {
    return error_out(ErrorCode::kState, e.what(), nullptr);
  }
  engine::EventEngine::Result result;
  try {
    result = sandbox.run(kWhatifBudget);
  } catch (const std::exception& e) {
    return error_out(ErrorCode::kBudget, e.what(), nullptr);
  }
  NodeId best_changed = 0;
  for (NodeId v = 0; v < instance_->node_count(); ++v) {
    if (sandbox.best_path(v) != engine_->best_path(v)) ++best_changed;
  }
  json::Object out;
  out.emplace_back("ev", "whatif");
  out.emplace_back("kind", wire_fault_name(rec.fault));
  out.emplace_back("a", rec.a);
  if (fault_takes_peer(rec.fault)) out.emplace_back("b", rec.b);
  out.emplace_back("converged", result.converged);
  out.emplace_back("budget_exhausted", result.budget_exhausted);
  // The continuity cost of the hypothetical: churn the fault would cause.
  out.emplace_back("deliveries", result.deliveries - last_result_.deliveries);
  out.emplace_back("updates_sent",
                   static_cast<std::uint64_t>(result.updates_sent - last_result_.updates_sent));
  out.emplace_back("best_flips",
                   static_cast<std::uint64_t>(result.best_flips - last_result_.best_flips));
  out.emplace_back("best_changed", best_changed);
  return render_reply(std::move(out));
}

std::string Daemon::drain() {
  if (!drained_) {
    auto result = engine_->run(kStepBudget);
    deliveries_total_ += result.deliveries;
    clock_ = std::max(clock_, result.end_time);
    last_result_ = std::move(result);
    // The journal may go only once a checkpoint holds what it recorded.
    if (persistent() && !replaying_) {
      drain_checkpoint_failed_ = !write_checkpoint();
      if (!drain_checkpoint_failed_) wal_reset();
    }
    drained_ = true;
  }
  const auto synth = synthesized_result();
  json::Object out;
  out.emplace_back("ev", "drained");
  out.emplace_back("t", clock_);
  out.emplace_back("applied_seq", applied_seq_);
  out.emplace_back("converged", last_result_.converged);
  out.emplace_back("deliveries", deliveries_total_);
  out.emplace_back("wire_hash", "0x" + util::hex64(wire_hash_));
  out.emplace_back("trace_hash", "0x" + util::hex64(fault::trace_hash(*engine_, synth)));
  out.emplace_back("metrics_fingerprint", "0x" + util::hex64(metrics_.fingerprint()));
  // The next resume replays the journal instead of starting from this state.
  if (drain_checkpoint_failed_) out.emplace_back("checkpoint_failed", true);
  return render_reply(std::move(out));
}

}  // namespace ibgp::daemon
