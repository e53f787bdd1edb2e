#pragma once
// Minimal JSON document builder + reader for machine-readable artifacts.
//
// Object keys keep insertion order and numbers print with no locale or
// precision surprises (integers exactly, doubles via shortest round-trip),
// so every document is deterministic.  Two writers serve two audiences:
//
//   - dump() emits two-space-indented text.  write_file() uses it for the
//     documents people diff: the committed BENCH_*.json files and metrics
//     snapshots.
//   - dump_compact() emits one line.  write_file_atomic() uses it for the
//     files only programs read back (ibgp-ckpt-v1 and daemon checkpoints,
//     sweep journal cells, explorer checkpoints), and the line-oriented
//     streams (ibgp-wire-v1 replies, the trace JSONL, the daemon's WAL)
//     are built from it too.
//
// Both writers append straight into one output string.  The checkpoint
// layer reads its own output back, so a strict RFC 8259 parser and typed
// accessors live here too: the parser accepts either writer's output (and
// arbitrary standard JSON), so indented files from older builds still load,
// and rejects everything else with a position diagnostic.

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ibgp::util::json {

class Value;

/// JSON array with append-only construction.
using Array = std::vector<Value>;
/// JSON object preserving insertion order (stable dumps for diffing).
using Object = std::vector<std::pair<std::string, Value>>;

/// One JSON value in 32 bytes: a kind tag, one scalar slot for
/// bool/int64/uint64/double, and one shared payload holding the string,
/// Array or Object.  Copies are shallow (they share the payload, which is
/// never mutated after construction), so passing documents by value is cheap.
class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::kBool) { scalar_.b = b; }
  Value(std::int64_t i) : kind_(Kind::kInt) { scalar_.i = i; }
  Value(std::uint64_t u) : kind_(Kind::kUint) { scalar_.u = u; }
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}
  Value(unsigned int u) : Value(static_cast<std::uint64_t>(u)) {}
  Value(double d) : kind_(Kind::kDouble) { scalar_.d = d; }
  Value(std::string s)
      : kind_(Kind::kString), payload_(std::make_shared<std::string>(std::move(s))) {}
  Value(std::string_view s) : Value(std::string(s)) {}
  Value(const char* s) : Value(std::string(s)) {}
  // Empty containers share no payload; the accessors hand out a static one.
  Value(Array a)
      : kind_(Kind::kArray),
        payload_(a.empty() ? nullptr : std::make_shared<Array>(std::move(a))) {}
  Value(Object o)
      : kind_(Kind::kObject),
        payload_(o.empty() ? nullptr : std::make_shared<Object>(std::move(o))) {}

  /// Serializes with two-space indentation and a trailing newline at the
  /// top level, so dumps are stable `diff` targets.
  [[nodiscard]] std::string dump() const;

  /// Single-line serialization (", " and ": " separators, no trailing
  /// newline) for files only programs read and line-oriented formats.
  [[nodiscard]] std::string dump_compact() const;

  // --- reading back (checkpoint restore, journal resume, trace lines) ---

  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_integer() const { return kind_ == Kind::kInt || kind_ == Kind::kUint; }
  [[nodiscard]] bool is_number() const { return is_integer() || kind_ == Kind::kDouble; }

  /// Typed reads.  Integer accessors accept any numeric kind whose value is
  /// exactly representable in the target type (a double is range-checked
  /// before it is converted); everything else throws std::runtime_error
  /// naming the expected type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup (first match in insertion order); nullptr when
  /// absent or when this value is not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Object member lookup that throws std::runtime_error when the key is
  /// missing — restore paths want loud failures, not defaults.
  [[nodiscard]] const Value& at(std::string_view key) const;

 private:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject,
  };

  /// Appends the serialization to `out`: indented at depth `indent`, or
  /// compact when `indent` is negative.
  void write(std::string& out, int indent) const;

  Kind kind_ = Kind::kNull;
  union {
    bool b;
    std::int64_t i;
    std::uint64_t u;
    double d;
  } scalar_{};
  std::shared_ptr<const void> payload_;  ///< std::string, Array or Object, by kind_
};

/// Quotes and escapes a string per RFC 8259.
std::string escape(std::string_view text);

/// Appends escape(text) to `out`, copying each run of characters that need
/// no escape in one piece.  Both writers quote through it, and so does the
/// ibgp-ckpt-v1 text encoder.
void append_escaped(std::string& out, std::string_view text);

/// Writes `value.dump()` (indented, for documents people diff) to `path`.
/// Returns false (and leaves no partial file guarantee) when the file
/// cannot be opened or written.
bool write_file(const std::string& path, const Value& value);

/// Crash-consistent write of `value.dump_compact()` (one line: these files
/// are only read back by programs) through util::fileio::write_file_atomic:
/// temp file, fsync, rename over `path`, fsync of the directory.  A reader
/// therefore only ever observes the old complete file or the new complete
/// file, never a torn write — and after a successful return the new file
/// survives power loss, the property the checkpoint/journal layer's
/// kill-at-any-instant guarantee rests on.
bool write_file_atomic(const std::string& path, const Value& value);

/// Parser knobs for hostile input (wire ingest, fuzz corpora).  The
/// defaults match what `parse(text, error)` always enforced, plus
/// duplicate-key rejection: every internal writer emits unique keys, so a
/// duplicate can only come from a corrupt or adversarial document and is
/// rejected loudly rather than silently shadowed.
struct ParseOptions {
  std::size_t max_depth = 96;         ///< max container nesting before "nesting too deep"
  bool reject_duplicate_keys = true;  ///< duplicate object key -> parse error
};

/// Parses a complete JSON document.  On failure returns std::nullopt and,
/// when `error` is non-null, stores a "offset N: reason" diagnostic.
/// Trailing garbage after the document is an error.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Same, with explicit limits — the wire ingest path parses untrusted lines
/// with a much smaller depth bound than checkpoint documents need.
std::optional<Value> parse(std::string_view text, const ParseOptions& options,
                           std::string* error = nullptr);

/// Reads and parses a whole file, compact or indented.  std::nullopt on
/// open/read/parse failure ("cannot open <path>", "read error on <path>" or
/// "<path>: offset N: ..." in `error` when it is non-null).
std::optional<Value> read_file(const std::string& path, std::string* error = nullptr);

// --- versioned documents ------------------------------------------------------

/// Field readers for one versioned document format (ibgp-ckpt-v1,
/// ibgp-journal-v1, ...).  Every diagnostic is a std::runtime_error whose
/// text starts with the format tag ("ibgp-ckpt-v1: missing field 'mrai'"),
/// so one set of readers serves every format and still names the document
/// that was bad.
class Reader {
 public:
  constexpr explicit Reader(std::string_view tag) : tag_(tag) {}

  /// Throws std::runtime_error("<tag>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

  /// Requires `doc` to be an object whose "schema" member is the tag.
  void check_schema(const Value& doc) const;

  /// The member `key` of `doc` ("missing field 'key'" when absent).
  [[nodiscard]] const Value& field(const Value& doc, std::string_view key) const;

  /// field(doc, key) as a non-negative integer.
  [[nodiscard]] std::uint64_t get_uint(const Value& doc, std::string_view key) const;

  /// `value` as an array of exactly `arity` elements.  The diagnostic is
  /// "<what>: expected N elements, got M", or "tuple arity mismatch" when
  /// `what` is empty.
  [[nodiscard]] const Array& tuple(const Value& value, std::size_t arity,
                                   std::string_view what = {}) const;

  /// `value` as an integer of type T, read as int64 or uint64 by T's
  /// signedness.  A number T cannot hold exactly is refused, never narrowed:
  /// "<what>: <value> is out of range".
  template <typename T>
  [[nodiscard]] T integer(const Value& value, std::string_view what) const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    bool fits = false;
    T out{};
    try {
      if constexpr (std::is_signed_v<T>) {
        const std::int64_t v = value.as_int();
        fits = std::in_range<T>(v);
        out = static_cast<T>(v);
      } else {
        const std::uint64_t v = value.as_uint();
        fits = std::in_range<T>(v);
        out = static_cast<T>(v);
      }
    } catch (const std::runtime_error&) {
    }
    if (!fits) fail(std::string(what) + ": " + value.dump_compact() + " is out of range");
    return out;
  }

  /// `array` as integers of type T, each checked as integer() checks it.
  template <typename T>
  [[nodiscard]] std::vector<T> integers(const Value& array, std::string_view what) const {
    const Array& values = array.as_array();
    std::vector<T> out;
    out.reserve(values.size());
    for (const Value& v : values) out.push_back(integer<T>(v, what));
    return out;
  }

  /// `value` as exactly N non-negative integers ("<what> length mismatch").
  template <std::size_t N>
  [[nodiscard]] std::array<std::uint64_t, N> uints(const Value& value,
                                                   std::string_view what) const {
    const Array& values = value.as_array();
    if (values.size() != N) fail(std::string(what) + " length mismatch");
    std::array<std::uint64_t, N> out{};
    for (std::size_t i = 0; i < N; ++i) out[i] = values[i].as_uint();
    return out;
  }

 private:
  std::string_view tag_;
};

/// Integers (or bools, as 0/1) as a JSON array: signed element types are
/// written as int64, unsigned ones as uint64.
template <typename Range>
Array num_array(const Range& values) {
  Array out;
  out.reserve(std::size(values));
  for (const auto v : values) {
    if constexpr (std::is_signed_v<decltype(v)>) {
      out.emplace_back(static_cast<std::int64_t>(v));
    } else {
      out.emplace_back(static_cast<std::uint64_t>(v));
    }
  }
  return out;
}

}  // namespace ibgp::util::json
