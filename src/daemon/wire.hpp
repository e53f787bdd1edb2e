#pragma once
// ibgp-wire-v1: the daemon's line protocol.
//
// One JSON object per line, one reply line per request line, in order.
// The stream extends ibgp-trace-v1's flat-record discipline to a
// bidirectional session: the client opens with a `hello` naming the
// schema, instance, and protocol variant; then sends *state records*
// (timestamped E-BGP announces/withdraws and faults, each with a strictly
// increasing client `seq`), *queries* (best route, forwarding path,
// oscillation status, stats/health, sandboxed what-if), and finally
// `drain`.  State records mutate the engine and are journaled before they
// are acknowledged; queries are pure reads and are never journaled.  The
// `drained` reply ends with `"checkpoint_failed": true` when the drain's
// final checkpoint could not be written (the journal is kept for the next
// resume); a successful drain's reply has no such field.
//
// Ingest is strict by design (Godfrey: tiny input perturbations flip
// convergence, so nothing malformed may reach the engine): unknown record
// types, unknown fields, wrong field types, out-of-range ids, and
// non-monotonic timestamps all become structured `error` replies — never
// a crash, never a partial apply.  This header is the codec only; it
// validates structure and leaves topology-dependent checks (node ranges,
// session/link existence) to the Daemon, which owns the Instance.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "engine/event_engine.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace ibgp::daemon {

using engine::SimTime;

inline constexpr std::string_view kWireSchema = "ibgp-wire-v1";

/// Hard ceiling on one wire line; longer input is rejected before parsing
/// so a hostile peer cannot balloon the ingest path.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Structured-error taxonomy.  Stable strings — clients switch on them.
enum class ErrorCode : std::uint8_t {
  kParse,        ///< not valid JSON (or not a JSON object)
  kOversize,     ///< line exceeds kMaxLineBytes
  kVersion,      ///< hello schema is not ibgp-wire-v1
  kIdentity,     ///< hello instance/protocol does not match this daemon
  kUnknownType,  ///< unknown ev / q / fault kind
  kBadField,     ///< missing, mistyped, or unexpected field
  kRange,        ///< id or value outside the instance's domain
  kNotASession,  ///< session fault on a pair with no I-BGP session
  kNotALink,     ///< link fault on a pair with no physical link
  kOrder,        ///< timestamp before the stream clock
  kState,        ///< record illegal in the current session state
  kBudget,       ///< processing budget exhausted before quiescence
  kOverload,     ///< ingest queue full and nothing sheddable
  kShed,         ///< query was shed under overload (oldest-query-first)
};

const char* error_code_name(ErrorCode code);

enum class RecordKind : std::uint8_t {
  kHello,
  kAnnounce,
  kWithdraw,
  kFault,
  kQuery,
  kDrain,
};

enum class QueryKind : std::uint8_t {
  kBest,
  kPath,
  kStatus,
  kStats,
  kHealth,
  kWhatIf,
  kMetrics,  ///< full registry snapshot (deterministic + volatile)
};

/// One structurally valid wire record.  Fields beyond the record's kind
/// keep their defaults.
struct WireRecord {
  RecordKind kind = RecordKind::kHello;
  // hello
  std::string instance;
  std::string protocol;
  // state records (announce / withdraw / fault)
  std::uint64_t seq = 0;
  SimTime t = 0;
  PathId path = kNoPath;                              // announce / withdraw
  engine::FaultKind fault = engine::FaultKind::kCrash;  // fault / whatif
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  Cost cost = 0;
  // query
  QueryKind query = QueryKind::kStatus;
  NodeId node = kNoNode;  // best / path
};

struct WireError {
  ErrorCode code = ErrorCode::kParse;
  std::string message;
  std::uint64_t seq = 0;   ///< echoed when the line carried a parseable seq
  bool has_seq = false;
};

/// Parses and structurally validates one wire line (no trailing newline).
/// Every failure mode returns a WireError; this function never throws on
/// any input — the property the fuzz corpus pins under ASan/UBSan.
std::variant<WireRecord, WireError> parse_record(std::string_view line);

/// Cheap ingest-side classification for the shedding policy: true when the
/// line is (or is most plausibly) a query — the only sheddable class.
/// Malformed lines classify as queries so overload can drop garbage first.
bool classify_query(std::string_view line);

// --- reply builders (single-line JSON, no trailing newline) ---------------

std::string error_reply(const WireError& error);
std::string error_reply(ErrorCode code, std::string_view message);
std::string ack_reply(std::uint64_t seq, SimTime t);
std::string render_reply(util::json::Object fields);

/// Wire name <-> engine fault kind.  stale-expire is engine-internal and
/// deliberately not injectable.
const char* wire_fault_name(engine::FaultKind kind);

/// True for fault kinds addressing a pair (sessions and links); false for
/// single-router kinds (crash / restart / graceful-down).
bool fault_takes_peer(engine::FaultKind kind);

}  // namespace ibgp::daemon
