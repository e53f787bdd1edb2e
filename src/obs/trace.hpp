#pragma once
// Structured event tracing: the `ibgp-trace-v2` JSONL stream.
//
// A TraceSink serializes simulation events — activations, advertisements,
// withdrawals, selection decisions with provenance, fault events, IGP epoch
// swaps, GR phases — as one flat JSON object per line.  The first line is a
// header record `{"schema": "ibgp-trace-v2", ...}`; every subsequent record
// carries `"ev"` (event name), `"seq"` (emission sequence number), `"t"`
// (virtual time), plus event-specific scalar fields.  Records are flat by
// construction (scalar values only — no nested arrays/objects).  The reader,
// parse_trace_line, is util::json::parse (the strict RFC 8259 parser every
// checkpoint, journal cell and wire line goes through) plus a check that
// every member is a scalar.
//
// v2 adds causal lineage on top of v1's record set: delivery-driven records
// carry `"lid"` (the engine event seq being processed) and `"pid"` (the seq
// of the event that caused it; omitted on injection roots), plus one new
// event name, `"mrai-flush"`, marking a deferred-flush firing.  Forward
// compatibility is the reader's contract, not the writer's: parse_trace_line
// preserves unknown scalar fields verbatim, and consumers must skip records
// whose `"ev"` they do not recognize — which is exactly how v1-era tools
// keep working on v2 streams (pinned by the negative-corpus tests in
// tests/test_obs.cpp).
//
// Zero overhead when disabled: instrumentation sites guard on `enabled()`,
// a single bool load, and never build the field object on the cold path.
//
// Ring-buffer mode (open_ring) retains only the last N records in memory;
// the campaign runner calls dump_ring() when the invariant checker flags a
// violation, producing a "flight recorder" tail of the events leading up to
// the failure without paying for full-stream I/O on healthy runs.
//
// Thread safety: emit() serializes whole lines under a mutex, so a sink may
// be shared across sweep workers — but interleaving across cells is then
// schedule-dependent, so deterministic trace diffs should use --jobs 1
// (bench smokes attach the trace to their serial pass only).

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace ibgp::obs {

/// Whole-line writer; the trace equivalent of util/log's sink. The line has
/// no trailing newline.
using TraceWriter = std::function<void(std::string_view line)>;

class TraceSink {
 public:
  TraceSink() = default;
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Streams records to `path` (truncates). Returns false if the file
  /// cannot be opened.
  bool open_file(const std::string& path);

  /// Streams records through `writer` (tests, custom transports).
  void open_writer(TraceWriter writer);

  /// Flight-recorder mode: keep the last `capacity` records in memory and
  /// write them through `dump_writer` only when dump_ring() is called.
  void open_ring(std::size_t capacity, TraceWriter dump_writer);

  /// Flushes and closes; the sink reads as disabled afterwards.
  void close();

  /// Single cheap guard for instrumentation sites: build fields and call
  /// emit() only when this returns true.
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] bool ring_mode() const { return ring_capacity_ > 0; }

  /// Serializes one record: {"ev": event, "seq": N, "t": time, ...fields}.
  /// Fields must hold scalar values only (see file comment).
  void emit(std::uint64_t time, std::string_view event, util::json::Object fields);

  /// Writes the header plus the retained ring records through the dump
  /// writer, oldest first, preceded by a "ring-dump" record carrying the
  /// number of records discarded before the window.  No-op outside ring
  /// mode.
  void dump_ring();

  [[nodiscard]] std::uint64_t events_emitted() const { return seq_; }
  /// Records discarded by the ring so far (0 outside ring mode).
  [[nodiscard]] std::uint64_t ring_dropped() const { return ring_dropped_; }

  /// The header line every ibgp-trace-v2 stream starts with.
  static std::string header_line();

 private:
  void write_line(const std::string& line);

  mutable std::mutex mutex_;
  bool enabled_ = false;
  TraceWriter writer_;
  std::FILE* file_ = nullptr;
  std::uint64_t seq_ = 0;
  // Ring state (flight-recorder mode).
  std::size_t ring_capacity_ = 0;
  std::size_t ring_next_ = 0;
  std::uint64_t ring_dropped_ = 0;
  std::vector<std::string> ring_;
};

/// One parsed trace record: a JSON object whose members are all scalars.
struct TraceRecord {
  util::json::Value value;

  /// The member `key`; nullptr when absent.
  [[nodiscard]] const util::json::Value* find(std::string_view key) const {
    return value.find(key);
  }
  /// The string member `key`; `fallback` when absent or not a string.
  [[nodiscard]] std::string_view str(std::string_view key,
                                     std::string_view fallback = {}) const;
  /// The integer member `key` as int64 (a uint64 above INT64_MAX, i.e. a
  /// fingerprint, wraps: callers only compare those); true/false read as
  /// 1/0; `fallback` when absent or of any other kind.
  [[nodiscard]] std::int64_t num(std::string_view key, std::int64_t fallback = 0) const;
};

/// Parses one trace line.  Returns nullopt on anything util::json::parse
/// refuses (trailing bytes, duplicate keys, malformed numbers), on a
/// document that is not an object, and on any array or object member, empty
/// ones included (ibgp-trace records are flat by contract, every version).
/// Unknown keys are preserved as ordinary members — a v1-era consumer reads
/// a v2 line without error and simply ignores "lid"/"pid".
std::optional<TraceRecord> parse_trace_line(std::string_view line);

}  // namespace ibgp::obs
