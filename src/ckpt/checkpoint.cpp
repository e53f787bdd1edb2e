#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <type_traits>

#include "util/fileio.hpp"

namespace ibgp::ckpt {

namespace {

using util::json::Value;

constexpr util::json::Reader kReader{kCkptSchema};

// Compact JSON text, spelled as Value::dump_compact spells it (", " and
// ": " separators), written at a cursor into one buffer.  The buffer is
// grown ahead of the cursor and trimmed once at the end, so integers go
// through std::to_chars straight into reserved bytes and a whole number
// array is covered by one capacity check.
class TextWriter {
 public:
  explicit TextWriter(std::string& out) : out_(out), used_(out.size()) {}
  TextWriter(const TextWriter&) = delete;
  TextWriter& operator=(const TextWriter&) = delete;
  ~TextWriter() { out_.resize(used_); }

  void raw(std::string_view text) {
    std::memcpy(reserve(text.size()), text.data(), text.size());
    used_ += text.size();
  }

  /// A quoted string, escaped by util::json's own escaper.
  void string(std::string_view text) {
    out_.resize(used_);
    util::json::append_escaped(out_, text);
    used_ = out_.size();
  }

  /// `, "name": ` before every member but an object's first.  Keys are
  /// plain identifiers, so they need no escaping.
  void key(std::string_view name, bool first = false) {
    char* at = reserve(name.size() + 6);
    if (!first) {
      *at++ = ',';
      *at++ = ' ';
    }
    *at++ = '"';
    at = std::copy(name.begin(), name.end(), at);
    *at++ = '"';
    *at++ = ':';
    *at++ = ' ';
    used_ = static_cast<std::size_t>(at - out_.data());
  }

  void boolean(bool value) { raw(value ? "true" : "false"); }

  /// One integer; bools are spelled 0/1, as v1 stores bool vectors.
  template <typename Int>
  void number(Int value) {
    used_ = static_cast<std::size_t>(put(reserve(kMaxDigits), value) - out_.data());
  }

  /// `[a, b, ...]` of integers (or bools as 0/1), one capacity check.
  template <typename Range>
  void numbers(const Range& values) {
    char* at = reserve(2 + std::size(values) * (kMaxDigits + 2));
    *at++ = '[';
    bool first = true;
    for (const auto value : values) {
      if (!first) {
        *at++ = ',';
        *at++ = ' ';
      }
      first = false;
      at = put(at, value);
    }
    *at++ = ']';
    used_ = static_cast<std::size_t>(at - out_.data());
  }

  /// `[[...], [...]]`, one numbers() per row.
  template <typename Rows>
  void rows(const Rows& rows) {
    raw("[");
    bool first = true;
    for (const auto& row : rows) {
      if (!first) raw(", ");
      first = false;
      numbers(row);
    }
    raw("]");
  }

  /// `[a, b, ...]` of a fixed handful of integers.
  template <typename... Ints>
  void tuple(Ints... values) {
    char* at = reserve(2 + sizeof...(Ints) * (kMaxDigits + 2));
    *at++ = '[';
    bool first = true;
    ((at = put(separate(at, first), values)), ...);
    *at++ = ']';
    used_ = static_cast<std::size_t>(at - out_.data());
  }

 private:
  /// Every int64 and uint64 fits in 20 characters, sign included.
  static constexpr std::size_t kMaxDigits = 20;

  char* reserve(std::size_t bytes) {
    if (out_.size() - used_ < bytes) {
      out_.resize(std::max({out_.size() * 2, used_ + bytes, std::size_t{4096}}));
    }
    return out_.data() + used_;
  }

  static char* separate(char* at, bool& first) {
    if (!first) {
      *at++ = ',';
      *at++ = ' ';
    }
    first = false;
    return at;
  }

  template <typename Int>
  static char* put(char* at, Int value) {
    if constexpr (std::is_same_v<Int, bool>) {
      *at = value ? '1' : '0';
      return at + 1;
    } else {
      return std::to_chars(at, at + kMaxDigits, value).ptr;
    }
  }

  std::string& out_;
  std::size_t used_;
};

std::vector<bool> get_bools(const Value& doc, std::string_view key) {
  std::vector<bool> out;
  for (const auto& v : kReader.field(doc, key).as_array()) {
    const std::uint64_t bit = v.as_uint();
    if (bit > 1) kReader.fail("field '" + std::string(key) + "' has a non-0/1 entry");
    out.push_back(bit != 0);
  }
  return out;
}

template <typename T>
std::vector<T> get_ints(const Value& doc, std::string_view key) {
  return kReader.integers<T>(kReader.field(doc, key), key);
}

template <typename T>
std::vector<std::vector<T>> get_nested(const Value& doc, std::string_view key) {
  std::vector<std::vector<T>> out;
  for (const auto& row : kReader.field(doc, key).as_array()) {
    out.push_back(kReader.integers<T>(row, key));
  }
  return out;
}

std::array<std::uint64_t, bgp::kSelectionRuleCount> get_rules(const Value& value) {
  return kReader.uints<bgp::kSelectionRuleCount>(value, "selection-rule histogram");
}

}  // namespace

void append_engine_state_text(std::string& out, const engine::EngineState& state) {
  TextWriter w(out);
  w.raw("{");
  w.key("schema", true);
  w.string(kCkptSchema);
  w.key("instance");
  w.string(state.instance);
  w.key("protocol");
  w.string(state.protocol);
  w.key("node_count");
  w.number(state.node_count);
  w.key("path_count");
  w.number(state.path_count);
  w.key("link_count");
  w.number(state.link_count);
  w.key("mrai");
  w.number(state.mrai);
  w.key("stale_timer");
  w.number(state.stale_timer);
  w.key("next_seq");
  w.number(state.next_seq);
  w.key("session_msg_seq");
  w.number(state.session_msg_seq);
  w.key("deliveries");
  w.number(state.deliveries);
  w.key("end_time");
  w.number(state.end_time);

  // Queue entries are 10-tuples; the 10th element (since the causal-lineage
  // change) is the causal parent seq, -1 for roots.  Readers accept the
  // pre-lineage 9-tuple too.  Ids are written as their uint32 value, so
  // kNoNode and kNoPath read 4294967295.
  w.key("queue");
  w.raw("[");
  for (std::size_t i = 0; i < state.queue.size(); ++i) {
    const engine::Event& e = state.queue[i];
    if (i > 0) w.raw(", ");
    w.tuple(e.time, e.seq, static_cast<std::uint64_t>(e.kind), e.from, e.to, e.path,
            e.announce, e.epoch, e.cost,
            e.pid == engine::kNoCause ? std::int64_t{-1} : static_cast<std::int64_t>(e.pid));
  }
  w.raw("]");

  // v1 spells the optional best route as a flag plus the route's fields,
  // which hold RouteView's defaults when there is none.  The two flags are
  // JSON booleans; bool vectors are 0/1.
  w.key("nodes");
  w.raw("[");
  for (std::size_t i = 0; i < state.nodes.size(); ++i) {
    const engine::NodeState& node = state.nodes[i];
    const bgp::RouteView best = node.best.value_or(bgp::RouteView{});
    if (i > 0) w.raw(", ");
    w.raw("{");
    w.key("holders", true);
    w.rows(node.holders);
    w.key("stale");
    w.rows(node.stale);
    w.key("own");
    w.numbers(node.own);
    w.key("has_best");
    w.boolean(node.best.has_value());
    w.key("best_path");
    w.number(best.path);
    w.key("best_metric");
    w.number(best.metric);
    w.key("best_learned_from");
    w.number(best.learned_from);
    w.key("best_is_ebgp");
    w.boolean(best.is_ebgp);
    w.key("advertised_out");
    w.rows(node.advertised_out);
    w.key("desired_out");
    w.rows(node.desired_out);
    w.key("mrai_ready");
    w.numbers(node.mrai_ready);
    w.key("flush_scheduled");
    w.numbers(node.flush_scheduled);
    w.raw("}");
  }
  w.raw("]");

  // Bool vectors are written 0/1 instead of true/false: they are long, and
  // the compact form keeps node-count^2 session masks readable in a diff.
  w.key("session_last_delivery");
  w.numbers(state.session_last_delivery);
  w.key("session_epoch");
  w.numbers(state.session_epoch);
  w.key("session_admin_down");
  w.numbers(state.session_admin_down);
  w.key("node_up");
  w.numbers(state.node_up);
  w.key("graceful_down");
  w.numbers(state.graceful_down);
  w.key("gr_generation");
  w.numbers(state.gr_generation);
  w.key("fib");
  w.numbers(state.fib);
  w.key("fib_frozen");
  w.numbers(state.fib_frozen);
  w.key("ebgp_live");
  w.numbers(state.ebgp_live);
  w.key("link_cost");
  w.numbers(state.link_cost);
  w.key("link_down");
  w.numbers(state.link_down);

  w.key("igp_log");
  w.raw("[");
  for (std::size_t i = 0; i < state.igp_log.size(); ++i) {
    if (i > 0) w.raw(", ");
    w.raw("[");
    w.number(state.igp_log[i].time);
    w.raw(", ");
    w.numbers(state.igp_log[i].effective);
    w.raw("]");
  }
  w.raw("]");

  w.key("counters");
  w.raw("{");
  bool first = true;
  for (const engine::CounterField& field : engine::kEngineCounters) {
    if (field.ckpt == nullptr) continue;
    w.key(field.ckpt, first);
    w.number(state.*field.member);
    first = false;
  }
  w.raw("}");

  w.key("decisions_by_rule");
  w.numbers(state.decisions_by_rule);
  w.key("decisions_by_node");
  w.rows(state.decisions_by_node);
  w.key("flips_by_node");
  w.numbers(state.flips_by_node);

  w.key("flap_log");
  w.raw("[");
  for (std::size_t i = 0; i < state.flap_log.size(); ++i) {
    const auto& r = state.flap_log[i];
    if (i > 0) w.raw(", ");
    w.tuple(r.time, r.node, r.old_best, r.new_best);
  }
  w.raw("]");
  w.key("fault_log");
  w.raw("[");
  for (std::size_t i = 0; i < state.fault_log.size(); ++i) {
    const auto& r = state.fault_log[i];
    if (i > 0) w.raw(", ");
    w.tuple(r.time, static_cast<std::uint64_t>(r.kind), r.a, r.b, r.cost);
  }
  w.raw("]");
  w.key("fib_log");
  w.raw("[");
  for (std::size_t i = 0; i < state.fib_log.size(); ++i) {
    const auto& r = state.fib_log[i];
    if (i > 0) w.raw(", ");
    w.tuple(r.time, r.node, r.old_path, r.new_path);
  }
  w.raw("]");
  w.raw("}");
}

std::string engine_state_text(const engine::EngineState& state) {
  std::string out;
  append_engine_state_text(out, state);
  return out;
}

util::json::Value engine_state_json(const engine::EngineState& state) {
  return util::json::parse(engine_state_text(state)).value();
}

engine::EngineState parse_engine_state(const util::json::Value& doc) {
  kReader.check_schema(doc);

  engine::EngineState state;
  state.instance = kReader.field(doc, "instance").as_string();
  state.protocol = kReader.field(doc, "protocol").as_string();
  state.node_count = kReader.get_uint(doc, "node_count");
  state.path_count = kReader.get_uint(doc, "path_count");
  state.link_count = kReader.get_uint(doc, "link_count");
  state.mrai = kReader.get_uint(doc, "mrai");
  state.stale_timer = kReader.get_uint(doc, "stale_timer");
  state.next_seq = kReader.get_uint(doc, "next_seq");
  state.session_msg_seq = kReader.get_uint(doc, "session_msg_seq");
  state.deliveries = kReader.get_uint(doc, "deliveries");
  state.end_time = kReader.get_uint(doc, "end_time");

  for (const auto& entry : kReader.field(doc, "queue").as_array()) {
    // 9 elements = pre-lineage checkpoint (every pending event becomes a
    // causal root on restore), 10 = with the trailing pid element.
    const auto& tuple = entry.as_array();
    if (tuple.size() != 9 && tuple.size() != 10) {
      kReader.fail("queue entry: expected 9 or 10 elements, got " +
                   std::to_string(tuple.size()));
    }
    engine::Event e;
    e.time = tuple[0].as_uint();
    e.seq = tuple[1].as_uint();
    const std::uint64_t kind = tuple[2].as_uint();
    if (kind > 0xFF) kReader.fail("queue entry kind out of range");
    e.kind = static_cast<engine::EventKind>(kind);  // restore checks the range
    e.from = kReader.integer<NodeId>(tuple[3], "queue entry from");
    e.to = kReader.integer<NodeId>(tuple[4], "queue entry to");
    e.path = kReader.integer<PathId>(tuple[5], "queue entry path");
    e.announce = tuple[6].as_uint() != 0;
    e.epoch = tuple[7].as_uint();
    e.cost = tuple[8].as_int();
    if (tuple.size() == 10) {
      // -1 marks a root; anything else is the seq of the causing event.
      const auto pid = kReader.integer<std::int64_t>(tuple[9], "queue entry pid");
      if (pid < -1) kReader.fail("queue entry pid: " + std::to_string(pid) + " is out of range");
      e.pid = pid == -1 ? engine::kNoCause : static_cast<std::uint64_t>(pid);
    }
    state.queue.push_back(e);
  }

  for (const auto& entry : kReader.field(doc, "nodes").as_array()) {
    engine::NodeState node;
    node.holders = get_nested<NodeId>(entry, "holders");
    node.stale = get_nested<NodeId>(entry, "stale");
    node.own = get_bools(entry, "own");
    const bool has_best = kReader.field(entry, "has_best").as_bool();
    const bgp::RouteView best{
        kReader.integer<PathId>(kReader.field(entry, "best_path"), "best_path"),
        kReader.field(entry, "best_metric").as_int(),
        kReader.integer<BgpId>(kReader.field(entry, "best_learned_from"), "best_learned_from"),
        kReader.field(entry, "best_is_ebgp").as_bool()};
    if (has_best) node.best = best;
    node.advertised_out = get_nested<PathId>(entry, "advertised_out");
    node.desired_out = get_nested<PathId>(entry, "desired_out");
    node.mrai_ready = get_ints<engine::SimTime>(entry, "mrai_ready");
    node.flush_scheduled = get_bools(entry, "flush_scheduled");
    state.nodes.push_back(std::move(node));
  }

  state.session_last_delivery = get_ints<engine::SimTime>(doc, "session_last_delivery");
  state.session_epoch = get_ints<std::uint64_t>(doc, "session_epoch");
  state.session_admin_down = get_bools(doc, "session_admin_down");
  state.node_up = get_bools(doc, "node_up");
  state.graceful_down = get_bools(doc, "graceful_down");
  state.gr_generation = get_ints<std::uint64_t>(doc, "gr_generation");
  state.fib = get_ints<PathId>(doc, "fib");
  state.fib_frozen = get_bools(doc, "fib_frozen");
  state.ebgp_live = get_bools(doc, "ebgp_live");
  state.link_cost = get_ints<Cost>(doc, "link_cost");
  state.link_down = get_bools(doc, "link_down");

  for (const auto& entry : kReader.field(doc, "igp_log").as_array()) {
    const auto& tuple = kReader.tuple(entry, 2, "igp_log entry");
    state.igp_log.push_back({tuple[0].as_uint(), kReader.integers<Cost>(tuple[1], "igp_log")});
  }

  const Value& counters = kReader.field(doc, "counters");
  for (const engine::CounterField& field : engine::kEngineCounters) {
    if (field.ckpt != nullptr) state.*field.member = kReader.get_uint(counters, field.ckpt);
  }
  state.decisions_by_rule = get_rules(kReader.field(doc, "decisions_by_rule"));
  for (const auto& rules : kReader.field(doc, "decisions_by_node").as_array()) {
    state.decisions_by_node.push_back(get_rules(rules));
  }
  state.flips_by_node = get_ints<std::size_t>(doc, "flips_by_node");

  for (const auto& entry : kReader.field(doc, "flap_log").as_array()) {
    const auto& t = kReader.tuple(entry, 4, "flap_log entry");
    state.flap_log.push_back({t[0].as_uint(), kReader.integer<NodeId>(t[1], "flap_log node"),
                              kReader.integer<PathId>(t[2], "flap_log old_best"),
                              kReader.integer<PathId>(t[3], "flap_log new_best")});
  }
  for (const auto& entry : kReader.field(doc, "fault_log").as_array()) {
    const auto& t = kReader.tuple(entry, 5, "fault_log entry");
    const std::uint64_t kind = t[1].as_uint();
    if (kind > static_cast<std::uint64_t>(engine::FaultKind::kLinkUp)) {
      kReader.fail("fault_log entry kind out of range");
    }
    state.fault_log.push_back({t[0].as_uint(), static_cast<engine::FaultKind>(kind),
                               kReader.integer<NodeId>(t[2], "fault_log a"),
                               kReader.integer<NodeId>(t[3], "fault_log b"), t[4].as_int()});
  }
  // v1 stores no faults_applied counter: it is the fault log's length.
  state.faults_applied = state.fault_log.size();
  for (const auto& entry : kReader.field(doc, "fib_log").as_array()) {
    const auto& t = kReader.tuple(entry, 4, "fib_log entry");
    state.fib_log.push_back({t[0].as_uint(), kReader.integer<NodeId>(t[1], "fib_log node"),
                             kReader.integer<PathId>(t[2], "fib_log old_path"),
                             kReader.integer<PathId>(t[3], "fib_log new_path")});
  }
  return state;
}

bool save_checkpoint(const std::string& path, const engine::EngineState& state) {
  return util::fileio::write_file_atomic(path, engine_state_text(state));
}

engine::EngineState load_checkpoint(const std::string& path) {
  std::string error;
  auto state = try_load_checkpoint(path, &error);
  if (!state) throw std::runtime_error("load_checkpoint: " + error);
  return *std::move(state);
}

std::optional<engine::EngineState> try_load_checkpoint(const std::string& path,
                                                       std::string* error) {
  std::string read_error;
  const auto doc = util::json::read_file(path, &read_error);
  if (!doc) {
    if (error != nullptr) *error = read_error;
    return std::nullopt;
  }
  try {
    return parse_engine_state(*doc);
  } catch (const std::runtime_error& e) {
    if (error != nullptr) *error = path + ": " + e.what();
    return std::nullopt;
  }
}

}  // namespace ibgp::ckpt
