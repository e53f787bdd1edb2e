#include "util/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/fileio.hpp"

namespace ibgp::util::json {

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(escaped, sizeof escaped);
      }
    }
  }
  out.append(text, run);
  out += '"';
}

namespace {

// std::to_chars straight into `out`: 20 characters hold every int64 and
// uint64, sign included.
template <typename Int>
void append_integer(std::string& out, Int value) {
  const std::size_t at = out.size();
  out.resize(at + 20);
  const char* end = std::to_chars(out.data() + at, out.data() + out.size(), value).ptr;
  out.resize(static_cast<std::size_t>(end - out.data()));
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {  // JSON has no Inf/NaN; null is the honest spelling
    out += "null";
    return;
  }
  std::array<char, 32> buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  if (ec == std::errc{}) {
    out.append(buf.data(), end);
  } else {
    out += "0";
  }
}

// A line break, then the indentation of depth `indent` (>= 0).
void newline_indent(std::string& out, int indent) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

}  // namespace

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  append_escaped(out, text);
  return out;
}

void Value::write(std::string& out, int indent) const {
  const bool pretty = indent >= 0;
  const int inner = pretty ? indent + 1 : indent;
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += scalar_.b ? "true" : "false"; break;
    case Kind::kInt: append_integer(out, scalar_.i); break;
    case Kind::kUint: append_integer(out, scalar_.u); break;
    case Kind::kDouble: append_number(out, scalar_.d); break;
    case Kind::kString: append_escaped(out, as_string()); break;
    case Kind::kArray: {
      const Array& array = as_array();
      out += '[';
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += pretty ? "," : ", ";
        if (pretty) newline_indent(out, inner);
        array[i].write(out, inner);
      }
      if (pretty && !array.empty()) newline_indent(out, indent);
      out += ']';
      break;
    }
    case Kind::kObject: {
      const Object& object = as_object();
      out += '{';
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out += pretty ? "," : ", ";
        if (pretty) newline_indent(out, inner);
        append_escaped(out, object[i].first);
        out += ": ";
        object[i].second.write(out, inner);
      }
      if (pretty && !object.empty()) newline_indent(out, indent);
      out += '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0);
  out += '\n';
  return out;
}

std::string Value::dump_compact() const {
  std::string out;
  write(out, -1);
  return out;
}

bool write_file(const std::string& path, const Value& value) {
  const int fd = fileio::open_retry(path, O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return false;
  const bool ok = fileio::write_all(fd, value.dump());
  return (::close(fd) == 0) && ok;
}

bool write_file_atomic(const std::string& path, const Value& value) {
  return fileio::write_file_atomic(path, value.dump_compact());
}

// --- typed accessors ---

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) type_error("a bool");
  return scalar_.b;
}

// A double converts only from inside the target's range: the cast itself is
// undefined behaviour outside it (2^63 and 2^64 are exact doubles).
std::int64_t Value::as_int() const {
  switch (kind_) {
    case Kind::kInt: return scalar_.i;
    case Kind::kUint:
      if (scalar_.u > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
        type_error("an int64-representable number");
      return static_cast<std::int64_t>(scalar_.u);
    case Kind::kDouble: {
      const double d = scalar_.d;
      if (!(d >= -0x1p63 && d < 0x1p63)) type_error("an int64-representable number");
      const auto i = static_cast<std::int64_t>(d);
      if (static_cast<double>(i) != d) type_error("an integral number");
      return i;
    }
    default: type_error("a number");
  }
}

std::uint64_t Value::as_uint() const {
  switch (kind_) {
    case Kind::kUint: return scalar_.u;
    case Kind::kInt:
      if (scalar_.i < 0) type_error("a non-negative number");
      return static_cast<std::uint64_t>(scalar_.i);
    case Kind::kDouble: {
      const double d = scalar_.d;
      if (d < 0) type_error("a non-negative number");
      if (!(d < 0x1p64)) type_error("a uint64-representable number");
      const auto u = static_cast<std::uint64_t>(d);
      if (static_cast<double>(u) != d) type_error("an integral number");
      return u;
    }
    default: type_error("a number");
  }
}

double Value::as_double() const {
  switch (kind_) {
    case Kind::kDouble: return scalar_.d;
    case Kind::kInt: return static_cast<double>(scalar_.i);
    case Kind::kUint: return static_cast<double>(scalar_.u);
    default: type_error("a number");
  }
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) type_error("a string");
  return *static_cast<const std::string*>(payload_.get());
}

const Array& Value::as_array() const {
  static const Array kEmpty;
  if (kind_ != Kind::kArray) type_error("an array");
  return payload_ ? *static_cast<const Array*>(payload_.get()) : kEmpty;
}

const Object& Value::as_object() const {
  static const Object kEmpty;
  if (kind_ != Kind::kObject) type_error("an object");
  return payload_ ? *static_cast<const Object*>(payload_.get()) : kEmpty;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  }
  return *v;
}

// --- parser ---

namespace {

// Strict RFC 8259 recursive-descent parser.  Depth-bounded so corrupt
// checkpoints cannot blow the stack.
class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  std::optional<Value> run(std::string* error) {
    try {
      skip_ws();
      Value v = parse_value(0);
      skip_ws();
      if (pos_ != text_.size()) fail("trailing garbage after document");
      return v;
    } catch (const std::runtime_error& e) {
      if (error != nullptr) *error = e.what();
      return std::nullopt;
    }
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(std::size_t depth) {
    if (depth > options_.max_depth) fail("nesting too deep");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case '"': return Value(parse_string());
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const unsigned code = parse_hex4();
          append_utf8(out, decode_surrogate(code));
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  unsigned decode_surrogate(unsigned code) {
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
        fail("unpaired high surrogate");
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
      return 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    if (code >= 0xDC00 && code <= 0xDFFF) fail("unpaired low surrogate");
    return code;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) fail("bad number");
    const std::size_t first_digit = text_[start] == '-' ? start + 1 : start;
    if (pos_ - first_digit > 1 && text_[first_digit] == '0')
      fail("leading zero in number");
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      if (pos_ == frac) fail("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      const std::size_t exp = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      if (pos_ == exp) fail("bad number");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      if (token[0] == '-') {
        std::int64_t i = 0;
        const auto [p, ec] = std::from_chars(token.begin(), token.end(), i);
        if (ec == std::errc{} && p == token.end()) return Value(i);
      } else {
        std::uint64_t u = 0;
        const auto [p, ec] = std::from_chars(token.begin(), token.end(), u);
        if (ec == std::errc{} && p == token.end()) return Value(u);
      }
      // Out-of-range integers degrade to double, matching common readers.
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(token.begin(), token.end(), d);
    if (ec != std::errc{} || p != token.end()) fail("bad number");
    return Value(d);
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      out.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value(std::move(out));
      }
      fail("expected ',' or ']'");
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (options_.reject_duplicate_keys) {
        for (const auto& [name, ignored] : out) {
          if (name == key) fail("duplicate object key \"" + key + "\"");
        }
      }
      skip_ws();
      expect(':');
      skip_ws();
      out.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value(std::move(out));
      }
      fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  ParseOptions options_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text, ParseOptions{}).run(error);
}

std::optional<Value> parse(std::string_view text, const ParseOptions& options,
                           std::string* error) {
  return Parser(text, options).run(error);
}

std::optional<Value> read_file(const std::string& path, std::string* error) {
  const int fd = fileio::open_retry(path, O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string text;
  const bool read = fileio::read_all(fd, text);
  ::close(fd);
  if (!read) {
    if (error != nullptr) *error = "read error on " + path;
    return std::nullopt;
  }
  std::string parse_error;
  auto value = parse(text, &parse_error);
  if (!value && error != nullptr) *error = path + ": " + parse_error;
  return value;
}

// --- versioned documents ---

void Reader::fail(const std::string& what) const {
  throw std::runtime_error(std::string(tag_) + ": " + what);
}

void Reader::check_schema(const Value& doc) const {
  if (!doc.is_object()) fail("document is not an object");
  const Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != tag_) {
    fail("schema mismatch (want '" + std::string(tag_) + "')");
  }
}

const Value& Reader::field(const Value& doc, std::string_view key) const {
  const Value* v = doc.find(key);
  if (v == nullptr) fail("missing field '" + std::string(key) + "'");
  return *v;
}

std::uint64_t Reader::get_uint(const Value& doc, std::string_view key) const {
  try {
    return field(doc, key).as_uint();
  } catch (const std::runtime_error&) {
    fail("field '" + std::string(key) + "' is not a non-negative integer");
  }
}

const Array& Reader::tuple(const Value& value, std::size_t arity, std::string_view what) const {
  const Array& values = value.as_array();
  if (values.size() != arity) {
    if (what.empty()) fail("tuple arity mismatch");
    fail(std::string(what) + ": expected " + std::to_string(arity) + " elements, got " +
         std::to_string(values.size()));
  }
  return values;
}

}  // namespace ibgp::util::json
