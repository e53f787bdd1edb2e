#pragma once
// Versioned, deterministic checkpointing of EventEngine state.
//
// ibgp-ckpt-v1 is the on-disk JSON encoding of engine::EngineState — the
// complete deterministic state of a running simulation: pending events
// (which *are* the fault-script cursor, since scripts schedule everything
// up front), per-node Adj-RIB-In/best/FIB, stale flags and graceful-restart
// generations, session epochs and FIFO clocks, MRAI holds, the IGP
// link-state vector with the epoch history, every log the trace hash folds,
// all cumulative counters, and the cumulative deliveries/end_time of the
// run so far.  The hard guarantee, pinned by tests/test_ckpt.cpp's
// kill-at-every-tick oracle: a run resumed from any checkpoint produces a
// byte-identical Result, trace hash, and decision-provenance histogram to
// the uninterrupted run.
//
// The codec maps the engine's own types: queue entries are engine::Event
// tuples, node objects are engine::NodeState, and the "counters" block is
// written and read as one loop over engine::kEngineCounters (whose `ckpt`
// names keep v1's "eor_sent" and "igp_swaps"; faults_applied is not stored
// and comes back as the fault log's length).  Session state is the dense
// node×node form v1 has always stored.
//
// Versioning & compatibility: the "schema" field is checked exactly —
// parse_engine_state refuses anything but "ibgp-ckpt-v1" (forward
// compatibility is deliberately not attempted: a checkpoint encodes private
// engine invariants, so a version bump means the format changed shape).
// Within v1, unknown keys are ignored on read (additive evolution without a
// bump) and key order is free, but every v1 key is required; a truncated
// or hand-edited file fails with a diagnostic naming the missing/ill-typed
// field.  Decoding checks shape and range: a number that does not fit the
// field's type (an id past 2^32-1, say) is refused with the field's name,
// never narrowed.  Ids are written as their uint32 value, so kNoNode and
// kNoPath read 4294967295; a queue entry's causal parent is -1 for a root.
// EventEngine::restore then checks the identity header (instance,
// protocol, node/path/link counts) and every node, path, session and link
// id against the restoring engine's instance, so a corrupt file is
// refused, never run with silent state corruption.
// tests/data/ckpt_v1_fig1a_golden.json, written by an earlier build, pins
// that older v1 files still load and resume.
//
// Files are written via write-to-temp-then-rename (util::fileio::
// write_file_atomic), so a reader — including a resume after SIGKILL —
// only ever observes a complete old or complete new checkpoint.  They hold
// one line of compact JSON, about a third of the indented size older
// builds wrote.  Loading accepts either form, so indented files from those
// builds (the golden file among them) still resume.
//
// There is one ibgp-ckpt-v1 encoder: append_engine_state_text, which
// writes that line straight from the EngineState, without building a
// util::json::Value tree first.  save_checkpoint and the daemon checkpoint
// (which splices the text into its own document) write through it, and
// engine_state_json is json::parse of its output, so a caller that wants a
// tree gets the same bytes parsed back rather than a second encoding.  The
// tree builder older builds used lives on, frozen, as the differential
// reference in tests/ckpt_reference.hpp.

#include <optional>
#include <string>

#include "engine/event_engine.hpp"
#include "util/json.hpp"

namespace ibgp::ckpt {

/// The exact schema tag ibgp-ckpt-v1 files carry.
inline constexpr std::string_view kCkptSchema = "ibgp-ckpt-v1";

/// Appends the ibgp-ckpt-v1 text of a captured engine state to `out`: one
/// line of compact JSON, spelled exactly as util::json::Value::dump_compact
/// spells the document (", " and ": " separators, keys in v1's order).
void append_engine_state_text(std::string& out, const engine::EngineState& state);

/// The ibgp-ckpt-v1 text of `state`, as append_engine_state_text writes it.
[[nodiscard]] std::string engine_state_text(const engine::EngineState& state);

/// The ibgp-ckpt-v1 document of `state` as a tree: engine_state_text
/// parsed back, for callers that edit or inspect the document.
[[nodiscard]] util::json::Value engine_state_json(const engine::EngineState& state);

/// Decodes an ibgp-ckpt-v1 document.  Throws std::runtime_error with a
/// field-naming diagnostic on schema mismatch, missing keys, ill-typed
/// values, or numbers out of their field's range.  (Cross-checking against a concrete instance happens later, in
/// EventEngine::restore.)
[[nodiscard]] engine::EngineState parse_engine_state(const util::json::Value& doc);

/// Atomically writes `state` to `path` (temp + rename).  Returns false on
/// any I/O failure, in which case `path` still holds its previous content.
bool save_checkpoint(const std::string& path, const engine::EngineState& state);

/// Loads and decodes a checkpoint file.  Throws std::runtime_error (with
/// the path in the message) when the file is unreadable, unparseable, or
/// not a valid ibgp-ckpt-v1 document.
[[nodiscard]] engine::EngineState load_checkpoint(const std::string& path);

/// Non-throwing load: std::nullopt (and a diagnostic in `error` when given)
/// instead of an exception.  Resume paths use this to treat a torn or stale
/// checkpoint as "start from scratch" rather than a fatal error.
[[nodiscard]] std::optional<engine::EngineState> try_load_checkpoint(
    const std::string& path, std::string* error = nullptr);

}  // namespace ibgp::ckpt
