#pragma once
// The synchronous daemon core: one wire line in, one reply line out.
//
// Daemon wraps a long-lived EventEngine behind ibgp-wire-v1 (see wire.hpp)
// and owns the crash-recovery machinery:
//
//  * Write-ahead input journal (wal.jsonl): every accepted state record is
//    appended and fsync'd *before* it is applied, so an acknowledged
//    record can never be lost to a SIGKILL.  A torn tail (the append the
//    kill interrupted) is detected and truncated at recovery; the client
//    never received its ack, so it re-sends.
//  * Periodic checkpoints (checkpoint.json, schema ibgp-daemon-ckpt-v1):
//    the engine's full ibgp-ckpt-v1 state plus the daemon's stream cursor
//    (applied_seq, clock, wire hash, deterministic counters), written
//    atomically as one line of JSON every `ckpt_every` accepted records;
//    each checkpoint resets the journal.
//  * Recovery (= constructor with resume): restore the newest checkpoint,
//    replay the journal tail through the exact same ingest path, and the
//    daemon answers every subsequent line byte-identically to a process
//    that was never killed (pinned by test_daemon's kill-at-every-record
//    oracle).  Exactly-once: records whose seq is already applied get a
//    pure-function ack and are not re-applied.
//
// Threading: Daemon is deliberately single-threaded and blocking — the
// service layer (service.hpp) owns queues, signals, and the watchdog.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/forwarding.hpp"
#include "core/instance.hpp"
#include "daemon/wire.hpp"
#include "engine/event_engine.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace ibgp::daemon {

inline constexpr std::string_view kDaemonCkptSchema = "ibgp-daemon-ckpt-v1";
inline constexpr std::string_view kWalSchema = "ibgp-wal-v1";

struct DaemonOptions {
  /// Directory for checkpoint.json + wal.jsonl.  Empty disables
  /// persistence entirely (pure in-memory daemon; used by unit tests that
  /// only exercise validation).
  std::string state_dir;
  /// Recover from state_dir instead of starting fresh.  Requires a
  /// state_dir; refuses (throws) when the on-disk identity does not match
  /// this instance + protocol.
  bool resume = false;
  /// Accepted state records between checkpoints (keyed on applied_seq so
  /// the cadence is kill-invariant).  0 = checkpoint only on drain.
  std::uint64_t ckpt_every = 64;
  /// SpfCache LRU capacity for churn-heavy streams (0 = unbounded).
  std::size_t spf_cache_epochs = 0;
};

class Daemon {
 public:
  /// Builds (or, with options.resume, recovers) the service state.
  /// Throws std::runtime_error when recovery state is present but does not
  /// belong to this instance/protocol, and std::invalid_argument on
  /// incoherent options.
  Daemon(std::shared_ptr<core::Instance> instance, core::ProtocolKind protocol,
         DaemonOptions options);

  /// Closes the journal fd.  Writes nothing — destruction is
  /// indistinguishable from SIGKILL, which is exactly what the
  /// kill-at-every-record oracle relies on.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Processes one wire line (no trailing newline) and returns exactly one
  /// reply line.  Never throws on any input.
  std::string handle_line(std::string_view line);

  /// Graceful drain: run the engine to quiescence, write the final
  /// checkpoint, and return the `drained` reply, which carries
  /// `"checkpoint_failed": true` when that checkpoint could not be written
  /// (the journal is then kept, and the next resume replays it).  Further
  /// state records are refused (queries still answer).  Idempotent.
  std::string drain();

  [[nodiscard]] bool hello_done() const { return hello_done_; }
  [[nodiscard]] bool drained() const { return drained_; }
  [[nodiscard]] bool resumed() const { return resumed_; }
  [[nodiscard]] std::uint64_t applied_seq() const { return applied_seq_; }
  [[nodiscard]] SimTime clock() const { return clock_; }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// The service layer injects live queue/watchdog numbers into the
  /// (volatile) `health` reply through this hook.
  void set_health_source(std::function<util::json::Object()> source) {
    health_source_ = std::move(source);
  }

 private:
  std::string handle_record(const WireRecord& rec, std::string_view raw_line);
  std::string handle_hello(const WireRecord& rec);
  std::string handle_state_record(const WireRecord& rec, std::string_view raw_line);
  std::string handle_query(const WireRecord& rec);
  std::string handle_whatif(const WireRecord& rec);
  std::string error_out(ErrorCode code, std::string message, const WireRecord* rec);

  /// Topology-dependent validation shared by faults and what-ifs.
  /// Returns a non-empty reply on failure.
  std::string validate_fault(const WireRecord& rec);
  void schedule_fault_on(engine::EventEngine& engine, const WireRecord& rec, SimTime when);

  void step_engine(SimTime horizon);
  [[nodiscard]] engine::EventEngine::Result synthesized_result() const;

  // persistence
  [[nodiscard]] std::string ckpt_path() const;
  [[nodiscard]] std::string wal_path() const;
  [[nodiscard]] bool persistent() const { return !options_.state_dir.empty(); }
  bool wal_append(std::string_view line);
  bool wal_reset();
  bool write_checkpoint();
  void recover();
  /// Appends the "instance" and "protocol" members every persisted
  /// document and the hello-ok reply carry.
  void append_identity(util::json::Object& doc) const;
  void check_identity(const util::json::Value& doc, const char* what) const;

  std::shared_ptr<core::Instance> instance_;
  core::ProtocolKind protocol_;
  DaemonOptions options_;

  obs::MetricsRegistry metrics_;
  std::unique_ptr<engine::EventEngine> engine_;
  engine::EventEngine::Result last_result_;

  bool hello_done_ = false;
  bool drained_ = false;
  bool resumed_ = false;
  bool replaying_ = false;  // WAL replay in progress: no re-journaling
  bool drain_checkpoint_failed_ = false;  // the drain's checkpoint was not written

  std::uint64_t applied_seq_ = 0;
  SimTime clock_ = 0;
  std::uint64_t wire_hash_ = 0;
  std::uint64_t deliveries_total_ = 0;

  // Deterministic stream counters (checkpointed, metric-mirrored).
  std::uint64_t state_records_ = 0;
  std::uint64_t announces_ = 0;
  std::uint64_t withdraws_ = 0;
  std::uint64_t faults_ = 0;

  int wal_fd_ = -1;
  std::function<util::json::Object()> health_source_;

  // Path-query buffers, reused by every query: each node's best exit path
  // and the forwarding walk's visited marks and trace.
  std::vector<PathId> path_best_;
  std::vector<bool> path_visited_;
  analysis::ForwardTrace path_trace_;

  // Always-on service span sinks (resolved once in the constructor): the
  // daemon's hot path is I/O bound, so these are not gated like the
  // engine's set_profile spans.  All volatile — never fingerprinted.
  obs::Histogram* wal_fsync_ns_ = nullptr;
  obs::Histogram* ckpt_write_ns_ = nullptr;
  obs::Histogram* query_latency_ns_[7] = {};  // indexed by QueryKind
};

/// Pre-registers every daemon metric so registration order (and therefore
/// the registry fingerprint) is independent of which code path runs first.
void register_daemon_metrics(obs::MetricsRegistry& registry);

}  // namespace ibgp::daemon
