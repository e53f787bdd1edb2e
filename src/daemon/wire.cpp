#include "daemon/wire.hpp"

#include <array>
#include <limits>
#include <optional>
#include <utility>

namespace ibgp::daemon {

namespace json = util::json;

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kOversize: return "oversize";
    case ErrorCode::kVersion: return "version";
    case ErrorCode::kIdentity: return "identity";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kBadField: return "bad-field";
    case ErrorCode::kRange: return "range";
    case ErrorCode::kNotASession: return "not-a-session";
    case ErrorCode::kNotALink: return "not-a-link";
    case ErrorCode::kOrder: return "order";
    case ErrorCode::kState: return "state";
    case ErrorCode::kBudget: return "budget";
    case ErrorCode::kOverload: return "overload";
    case ErrorCode::kShed: return "shed";
  }
  return "?";
}

const char* wire_fault_name(engine::FaultKind kind) {
  return engine::fault_kind_name(kind);
}

bool fault_takes_peer(engine::FaultKind kind) {
  using engine::FaultKind;
  switch (kind) {
    case FaultKind::kSessionDown:
    case FaultKind::kSessionUp:
    case FaultKind::kLinkCostChange:
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      return true;
    default:
      return false;
  }
}

std::string render_reply(json::Object fields) {
  return json::Value(std::move(fields)).dump_compact();
}

std::string error_reply(const WireError& error) {
  json::Object out;
  out.emplace_back("ev", "error");
  if (error.has_seq) out.emplace_back("seq", error.seq);
  out.emplace_back("code", error_code_name(error.code));
  out.emplace_back("msg", error.message);
  return render_reply(std::move(out));
}

std::string error_reply(ErrorCode code, std::string_view message) {
  WireError e;
  e.code = code;
  e.message = std::string(message);
  return error_reply(e);
}

std::string ack_reply(std::uint64_t seq, SimTime t) {
  json::Object out;
  out.emplace_back("ev", "ack");
  out.emplace_back("seq", seq);
  out.emplace_back("t", t);
  return render_reply(std::move(out));
}

namespace {

// Timestamps far beyond any realistic stream are rejected outright: the
// engine adds per-hop delays on top of `t`, and a near-overflow t would
// wrap SimTime arithmetic.
constexpr SimTime kMaxWireTime = SimTime{1} << 52;

struct FieldSet {
  const json::Object* object;

  /// Every key must be one of `allowed` — unknown fields are rejected so a
  /// typo'd field name can never silently change a record's meaning.
  std::optional<std::string> unexpected(std::initializer_list<std::string_view> allowed) const {
    for (const auto& [key, value] : *object) {
      bool ok = false;
      for (const std::string_view name : allowed) {
        if (key == name) { ok = true; break; }
      }
      if (!ok) return key;
    }
    return std::nullopt;
  }
};

std::optional<std::uint64_t> read_uint(const json::Value& doc, std::string_view key,
                                       std::uint64_t max) {
  const json::Value* v = doc.find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  try {
    const std::uint64_t u = v->as_uint();
    if (u > max) return std::nullopt;
    return u;
  } catch (const std::runtime_error&) {
    return std::nullopt;  // negative or non-integral
  }
}

std::optional<std::int64_t> read_int(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  try {
    return v->as_int();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

const std::string* read_string(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  if (v == nullptr || !v->is_string()) return nullptr;
  return &v->as_string();
}

WireError make_error(ErrorCode code, std::string message, const json::Value& doc) {
  WireError e;
  e.code = code;
  e.message = std::move(message);
  if (const auto seq = read_uint(doc, "seq", std::numeric_limits<std::uint64_t>::max())) {
    e.seq = *seq;
    e.has_seq = true;
  }
  return e;
}

std::optional<engine::FaultKind> parse_fault_kind(std::string_view name) {
  using engine::FaultKind;
  static constexpr std::array<FaultKind, 8> kInjectable = {
      FaultKind::kSessionDown, FaultKind::kSessionUp,  FaultKind::kCrash,
      FaultKind::kRestart,     FaultKind::kGracefulDown, FaultKind::kLinkCostChange,
      FaultKind::kLinkDown,    FaultKind::kLinkUp,
  };
  for (const FaultKind kind : kInjectable) {
    if (name == engine::fault_kind_name(kind)) return kind;
  }
  return std::nullopt;  // includes stale-expire: engine-internal, not injectable
}

// Shared by `fault` records and `whatif` queries: kind + endpoints + cost.
std::optional<WireError> parse_fault_fields(const json::Value& doc, WireRecord& rec) {
  const std::string* kind = read_string(doc, "kind");
  if (kind == nullptr) {
    return make_error(ErrorCode::kBadField, "fault needs string field 'kind'", doc);
  }
  const auto parsed = parse_fault_kind(*kind);
  if (!parsed) {
    return make_error(ErrorCode::kUnknownType, "unknown fault kind '" + *kind + "'", doc);
  }
  rec.fault = *parsed;
  const auto a = read_uint(doc, "a", std::numeric_limits<NodeId>::max() - 1);
  if (!a) return make_error(ErrorCode::kBadField, "fault needs node field 'a'", doc);
  rec.a = static_cast<NodeId>(*a);
  if (fault_takes_peer(rec.fault)) {
    const auto b = read_uint(doc, "b", std::numeric_limits<NodeId>::max() - 1);
    if (!b) return make_error(ErrorCode::kBadField, "fault kind '" + *kind + "' needs node field 'b'", doc);
    rec.b = static_cast<NodeId>(*b);
  } else if (doc.find("b") != nullptr) {
    return make_error(ErrorCode::kBadField, "fault kind '" + *kind + "' takes no field 'b'", doc);
  }
  if (rec.fault == engine::FaultKind::kLinkCostChange) {
    const auto cost = read_int(doc, "cost");
    if (!cost) return make_error(ErrorCode::kBadField, "link-cost needs integer field 'cost'", doc);
    rec.cost = *cost;
  } else if (doc.find("cost") != nullptr) {
    return make_error(ErrorCode::kBadField, "only link-cost takes field 'cost'", doc);
  }
  return std::nullopt;
}

// seq + t, shared by all state records.
std::optional<WireError> parse_state_header(const json::Value& doc, WireRecord& rec) {
  const auto seq = read_uint(doc, "seq", std::numeric_limits<std::uint64_t>::max());
  if (!seq || *seq == 0) {
    return make_error(ErrorCode::kBadField, "state record needs positive integer 'seq'", doc);
  }
  rec.seq = *seq;
  const auto t = read_uint(doc, "t", std::numeric_limits<SimTime>::max());
  if (!t) return make_error(ErrorCode::kBadField, "state record needs integer 't'", doc);
  if (*t > kMaxWireTime) {
    return make_error(ErrorCode::kRange, "timestamp exceeds the 2^52 wire ceiling", doc);
  }
  rec.t = *t;
  return std::nullopt;
}

}  // namespace

std::variant<WireRecord, WireError> parse_record(std::string_view line) {
  if (line.size() > kMaxLineBytes) {
    WireError e;
    e.code = ErrorCode::kOversize;
    e.message = "line exceeds " + std::to_string(kMaxLineBytes) + " bytes";
    return e;
  }
  // Wire records are flat; depth 8 leaves headroom for nested reply-shaped
  // documents without letting hostile input anywhere near the stack bound.
  json::ParseOptions options;
  options.max_depth = 8;
  options.reject_duplicate_keys = true;
  std::string parse_error;
  const auto doc = json::parse(line, options, &parse_error);
  if (!doc) {
    WireError e;
    e.code = ErrorCode::kParse;
    e.message = parse_error;
    return e;
  }
  if (!doc->is_object()) {
    WireError e;
    e.code = ErrorCode::kParse;
    e.message = "wire record must be a JSON object";
    return e;
  }
  const std::string* ev = read_string(*doc, "ev");
  if (ev == nullptr) {
    return make_error(ErrorCode::kBadField, "record needs string field 'ev'", *doc);
  }
  const FieldSet fields{&doc->as_object()};
  WireRecord rec;

  if (*ev == "hello") {
    rec.kind = RecordKind::kHello;
    if (const auto bad = fields.unexpected({"ev", "schema", "instance", "protocol"})) {
      return make_error(ErrorCode::kBadField, "unexpected field '" + *bad + "'", *doc);
    }
    const std::string* schema = read_string(*doc, "schema");
    if (schema == nullptr) {
      return make_error(ErrorCode::kBadField, "hello needs string field 'schema'", *doc);
    }
    if (*schema != kWireSchema) {
      return make_error(ErrorCode::kVersion,
                        "unsupported schema '" + *schema + "' (this daemon speaks " +
                            std::string(kWireSchema) + ")",
                        *doc);
    }
    const std::string* instance = read_string(*doc, "instance");
    const std::string* protocol = read_string(*doc, "protocol");
    if (instance == nullptr || protocol == nullptr) {
      return make_error(ErrorCode::kBadField,
                        "hello needs string fields 'instance' and 'protocol'", *doc);
    }
    rec.instance = *instance;
    rec.protocol = *protocol;
    return rec;
  }

  if (*ev == "announce" || *ev == "withdraw") {
    rec.kind = *ev == "announce" ? RecordKind::kAnnounce : RecordKind::kWithdraw;
    if (const auto bad = fields.unexpected({"ev", "seq", "t", "path"})) {
      return make_error(ErrorCode::kBadField, "unexpected field '" + *bad + "'", *doc);
    }
    if (auto e = parse_state_header(*doc, rec)) return *e;
    const auto path = read_uint(*doc, "path", std::numeric_limits<PathId>::max() - 1);
    if (!path) {
      return make_error(ErrorCode::kBadField,
                        std::string(*ev) + " needs integer field 'path'", *doc);
    }
    rec.path = static_cast<PathId>(*path);
    return rec;
  }

  if (*ev == "fault") {
    rec.kind = RecordKind::kFault;
    if (const auto bad = fields.unexpected({"ev", "seq", "t", "kind", "a", "b", "cost"})) {
      return make_error(ErrorCode::kBadField, "unexpected field '" + *bad + "'", *doc);
    }
    if (auto e = parse_state_header(*doc, rec)) return *e;
    if (auto e = parse_fault_fields(*doc, rec)) return *e;
    return rec;
  }

  if (*ev == "query") {
    rec.kind = RecordKind::kQuery;
    const std::string* q = read_string(*doc, "q");
    if (q == nullptr) {
      return make_error(ErrorCode::kBadField, "query needs string field 'q'", *doc);
    }
    if (*q == "best" || *q == "path") {
      rec.query = *q == "best" ? QueryKind::kBest : QueryKind::kPath;
      if (const auto bad = fields.unexpected({"ev", "q", "node"})) {
        return make_error(ErrorCode::kBadField, "unexpected field '" + *bad + "'", *doc);
      }
      const auto node = read_uint(*doc, "node", std::numeric_limits<NodeId>::max() - 1);
      if (!node) {
        return make_error(ErrorCode::kBadField, "query '" + *q + "' needs node field 'node'", *doc);
      }
      rec.node = static_cast<NodeId>(*node);
      return rec;
    }
    if (*q == "status" || *q == "stats" || *q == "health" || *q == "metrics") {
      rec.query = *q == "status"   ? QueryKind::kStatus
                  : *q == "stats"  ? QueryKind::kStats
                  : *q == "health" ? QueryKind::kHealth
                                   : QueryKind::kMetrics;
      if (const auto bad = fields.unexpected({"ev", "q"})) {
        return make_error(ErrorCode::kBadField, "unexpected field '" + *bad + "'", *doc);
      }
      return rec;
    }
    if (*q == "whatif") {
      rec.query = QueryKind::kWhatIf;
      if (const auto bad = fields.unexpected({"ev", "q", "kind", "a", "b", "cost"})) {
        return make_error(ErrorCode::kBadField, "unexpected field '" + *bad + "'", *doc);
      }
      if (auto e = parse_fault_fields(*doc, rec)) return *e;
      return rec;
    }
    return make_error(ErrorCode::kUnknownType, "unknown query '" + *q + "'", *doc);
  }

  if (*ev == "drain") {
    rec.kind = RecordKind::kDrain;
    if (const auto bad = fields.unexpected({"ev"})) {
      return make_error(ErrorCode::kBadField, "unexpected field '" + *bad + "'", *doc);
    }
    return rec;
  }

  return make_error(ErrorCode::kUnknownType, "unknown record type '" + *ev + "'", *doc);
}

bool classify_query(std::string_view line) {
  json::ParseOptions options;
  options.max_depth = 8;
  options.reject_duplicate_keys = true;
  const auto doc = json::parse(line, options, nullptr);
  if (!doc || !doc->is_object()) return true;  // garbage sheds first
  const std::string* ev = read_string(*doc, "ev");
  if (ev == nullptr) return true;
  return *ev == "query";
}

}  // namespace ibgp::daemon
