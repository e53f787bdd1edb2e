#include "ckpt/checkpoint.hpp"

#include <stdexcept>

namespace ibgp::ckpt {

namespace {

using util::json::Array;
using util::json::num_array;
using util::json::nums;
using util::json::Object;
using util::json::Value;

constexpr util::json::Reader kReader{kCkptSchema};

template <typename T>
Array nested_num_array(const std::vector<std::vector<T>>& rows) {
  Array out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.emplace_back(num_array(row));
  return out;
}

template <typename T>
std::vector<T> get_nums(const Value& doc, std::string_view key) {
  return nums<T>(kReader.field(doc, key));
}

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
std::vector<std::vector<T>> get_nested(const Value& doc, std::string_view key) {
  std::vector<std::vector<T>> out;
  for (const auto& row : kReader.field(doc, key).as_array()) out.push_back(nums<T>(row));
  return out;
}

std::array<std::uint64_t, bgp::kSelectionRuleCount> get_rules(const Value& value) {
  return kReader.uints<bgp::kSelectionRuleCount>(value, "selection-rule histogram");
}

}  // namespace

util::json::Value engine_state_json(const engine::EngineState& state) {
  Object doc;
  doc.emplace_back("schema", kCkptSchema);
  doc.emplace_back("instance", state.instance);
  doc.emplace_back("protocol", state.protocol);
  doc.emplace_back("node_count", state.node_count);
  doc.emplace_back("path_count", state.path_count);
  doc.emplace_back("link_count", state.link_count);
  doc.emplace_back("mrai", state.mrai);
  doc.emplace_back("stale_timer", state.stale_timer);
  doc.emplace_back("next_seq", state.next_seq);
  doc.emplace_back("session_msg_seq", state.session_msg_seq);
  doc.emplace_back("deliveries", state.deliveries);
  doc.emplace_back("end_time", state.end_time);

  {
    Array queue;
    queue.reserve(state.queue.size());
    for (const engine::Event& e : state.queue) {
      // 10th element (since the causal-lineage change): the causal parent
      // seq, -1 for roots.  Readers accept the pre-lineage 9-tuple too.
      queue.emplace_back(Array{
          e.time, e.seq, static_cast<std::uint64_t>(e.kind), static_cast<std::int64_t>(e.from),
          static_cast<std::int64_t>(e.to), static_cast<std::int64_t>(e.path),
          std::uint64_t{e.announce ? 1u : 0u}, e.epoch, e.cost,
          e.pid == engine::kNoCause ? std::int64_t{-1} : static_cast<std::int64_t>(e.pid)});
    }
    doc.emplace_back("queue", std::move(queue));
  }

  {
    Array nodes;
    nodes.reserve(state.nodes.size());
    for (const engine::NodeState& node : state.nodes) {
      // v1 spells the optional best route as a flag plus the route's
      // fields, which hold RouteView's defaults when there is none.
      const bgp::RouteView best = node.best.value_or(bgp::RouteView{});
      Object out;
      out.emplace_back("holders", nested_num_array(node.holders));
      out.emplace_back("stale", nested_num_array(node.stale));
      out.emplace_back("own", num_array(node.own));
      out.emplace_back("has_best", node.best.has_value());
      out.emplace_back("best_path", static_cast<std::int64_t>(best.path));
      out.emplace_back("best_metric", static_cast<std::int64_t>(best.metric));
      out.emplace_back("best_learned_from", static_cast<std::uint64_t>(best.learned_from));
      out.emplace_back("best_is_ebgp", best.is_ebgp);
      out.emplace_back("advertised_out", nested_num_array(node.advertised_out));
      out.emplace_back("desired_out", nested_num_array(node.desired_out));
      out.emplace_back("mrai_ready", num_array(node.mrai_ready));
      out.emplace_back("flush_scheduled", num_array(node.flush_scheduled));
      nodes.emplace_back(std::move(out));
    }
    doc.emplace_back("nodes", std::move(nodes));
  }

  // Bool vectors are written 0/1 instead of true/false: they are long, and
  // the compact form keeps node-count^2 session masks readable in a diff.
  doc.emplace_back("session_last_delivery", num_array(state.session_last_delivery));
  doc.emplace_back("session_epoch", num_array(state.session_epoch));
  doc.emplace_back("session_admin_down", num_array(state.session_admin_down));
  doc.emplace_back("node_up", num_array(state.node_up));
  doc.emplace_back("graceful_down", num_array(state.graceful_down));
  doc.emplace_back("gr_generation", num_array(state.gr_generation));
  doc.emplace_back("fib", num_array(state.fib));
  doc.emplace_back("fib_frozen", num_array(state.fib_frozen));
  doc.emplace_back("ebgp_live", num_array(state.ebgp_live));
  doc.emplace_back("link_cost", num_array(state.link_cost));
  doc.emplace_back("link_down", num_array(state.link_down));

  {
    Array igp;
    igp.reserve(state.igp_log.size());
    for (const auto& snapshot : state.igp_log) {
      igp.emplace_back(Array{snapshot.time, num_array(snapshot.effective)});
    }
    doc.emplace_back("igp_log", std::move(igp));
  }

  {
    Object counters;
    for (const engine::CounterField& field : engine::kEngineCounters) {
      if (field.ckpt != nullptr) counters.emplace_back(field.ckpt, state.*field.member);
    }
    doc.emplace_back("counters", std::move(counters));
  }

  doc.emplace_back("decisions_by_rule", num_array(state.decisions_by_rule));
  {
    Array by_node;
    by_node.reserve(state.decisions_by_node.size());
    for (const auto& rules : state.decisions_by_node) by_node.emplace_back(num_array(rules));
    doc.emplace_back("decisions_by_node", std::move(by_node));
  }
  doc.emplace_back("flips_by_node", num_array(state.flips_by_node));

  {
    Array flaps;
    flaps.reserve(state.flap_log.size());
    for (const auto& r : state.flap_log) {
      flaps.emplace_back(Array{r.time, std::uint64_t{r.node}, static_cast<std::int64_t>(r.old_best),
                               static_cast<std::int64_t>(r.new_best)});
    }
    doc.emplace_back("flap_log", std::move(flaps));
  }
  {
    Array faults;
    faults.reserve(state.fault_log.size());
    for (const auto& r : state.fault_log) {
      faults.emplace_back(Array{r.time, static_cast<std::uint64_t>(r.kind),
                                static_cast<std::int64_t>(r.a), static_cast<std::int64_t>(r.b),
                                static_cast<std::int64_t>(r.cost)});
    }
    doc.emplace_back("fault_log", std::move(faults));
  }
  {
    Array fibs;
    fibs.reserve(state.fib_log.size());
    for (const auto& r : state.fib_log) {
      fibs.emplace_back(Array{r.time, std::uint64_t{r.node}, static_cast<std::int64_t>(r.old_path),
                              static_cast<std::int64_t>(r.new_path)});
    }
    doc.emplace_back("fib_log", std::move(fibs));
  }
  return Value(std::move(doc));
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
    e.from = static_cast<NodeId>(tuple[3].as_int());
    e.to = static_cast<NodeId>(tuple[4].as_int());
    e.path = static_cast<PathId>(tuple[5].as_int());
    e.announce = tuple[6].as_uint() != 0;
    e.epoch = tuple[7].as_uint();
    e.cost = tuple[8].as_int();
    if (tuple.size() == 10) {
      const std::int64_t pid = tuple[9].as_int();
      e.pid = pid < 0 ? engine::kNoCause : static_cast<std::uint64_t>(pid);
    }
    state.queue.push_back(e);
  }

  for (const auto& entry : kReader.field(doc, "nodes").as_array()) {
    engine::NodeState node;
    node.holders = get_nested<NodeId>(entry, "holders");
    node.stale = get_nested<NodeId>(entry, "stale");
    node.own = get_bools(entry, "own");
    const bool has_best = kReader.field(entry, "has_best").as_bool();
    const bgp::RouteView best{static_cast<PathId>(kReader.field(entry, "best_path").as_int()),
                              kReader.field(entry, "best_metric").as_int(),
                              static_cast<BgpId>(kReader.get_uint(entry, "best_learned_from")),
                              kReader.field(entry, "best_is_ebgp").as_bool()};
    if (has_best) node.best = best;
    node.advertised_out = get_nested<PathId>(entry, "advertised_out");
    node.desired_out = get_nested<PathId>(entry, "desired_out");
    node.mrai_ready = get_nums<engine::SimTime>(entry, "mrai_ready");
    node.flush_scheduled = get_bools(entry, "flush_scheduled");
    state.nodes.push_back(std::move(node));
  }

  state.session_last_delivery = get_nums<engine::SimTime>(doc, "session_last_delivery");
  state.session_epoch = get_nums<std::uint64_t>(doc, "session_epoch");
  state.session_admin_down = get_bools(doc, "session_admin_down");
  state.node_up = get_bools(doc, "node_up");
  state.graceful_down = get_bools(doc, "graceful_down");
  state.gr_generation = get_nums<std::uint64_t>(doc, "gr_generation");
  state.fib = get_nums<PathId>(doc, "fib");
  state.fib_frozen = get_bools(doc, "fib_frozen");
  state.ebgp_live = get_bools(doc, "ebgp_live");
  state.link_cost = get_nums<Cost>(doc, "link_cost");
  state.link_down = get_bools(doc, "link_down");

  for (const auto& entry : kReader.field(doc, "igp_log").as_array()) {
    const auto& tuple = kReader.tuple(entry, 2, "igp_log entry");
    state.igp_log.push_back({tuple[0].as_uint(), nums<Cost>(tuple[1])});
  }

  const Value& counters = kReader.field(doc, "counters");
  for (const engine::CounterField& field : engine::kEngineCounters) {
    if (field.ckpt != nullptr) state.*field.member = kReader.get_uint(counters, field.ckpt);
  }
  state.decisions_by_rule = get_rules(kReader.field(doc, "decisions_by_rule"));
  for (const auto& rules : kReader.field(doc, "decisions_by_node").as_array()) {
    state.decisions_by_node.push_back(get_rules(rules));
  }
  state.flips_by_node = get_nums<std::size_t>(doc, "flips_by_node");

  for (const auto& entry : kReader.field(doc, "flap_log").as_array()) {
    const auto& t = kReader.tuple(entry, 4, "flap_log entry");
    state.flap_log.push_back({t[0].as_uint(), static_cast<NodeId>(t[1].as_uint()),
                              static_cast<PathId>(t[2].as_int()),
                              static_cast<PathId>(t[3].as_int())});
  }
  for (const auto& entry : kReader.field(doc, "fault_log").as_array()) {
    const auto& t = kReader.tuple(entry, 5, "fault_log entry");
    const std::uint64_t kind = t[1].as_uint();
    if (kind > static_cast<std::uint64_t>(engine::FaultKind::kLinkUp)) {
      kReader.fail("fault_log entry kind out of range");
    }
    state.fault_log.push_back({t[0].as_uint(), static_cast<engine::FaultKind>(kind),
                               static_cast<NodeId>(t[2].as_int()),
                               static_cast<NodeId>(t[3].as_int()), t[4].as_int()});
  }
  // v1 stores no faults_applied counter: it is the fault log's length.
  state.faults_applied = state.fault_log.size();
  for (const auto& entry : kReader.field(doc, "fib_log").as_array()) {
    const auto& t = kReader.tuple(entry, 4, "fib_log entry");
    state.fib_log.push_back({t[0].as_uint(), static_cast<NodeId>(t[1].as_uint()),
                             static_cast<PathId>(t[2].as_int()),
                             static_cast<PathId>(t[3].as_int())});
  }
  return state;
}

bool save_checkpoint(const std::string& path, const engine::EngineState& state) {
  return util::json::write_file_atomic(path, engine_state_json(state));
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
