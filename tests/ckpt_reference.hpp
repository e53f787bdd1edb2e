#pragma once
// Test-only reference for the ibgp-ckpt-v1 encoder: the util::json::Value
// tree builder the product code used before it wrote the text straight
// from the EngineState, frozen in its original form.  Its dump_compact()
// is the byte sequence v1 files have always held; the differential suite
// (test_ckpt.cpp) holds ckpt::engine_state_text to exactly those bytes.

#include <cstdint>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "engine/event_engine.hpp"
#include "util/json.hpp"

namespace ibgp::reference {

namespace detail {

template <typename T>
util::json::Array nested_num_array(const std::vector<std::vector<T>>& rows) {
  util::json::Array out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.emplace_back(util::json::num_array(row));
  return out;
}

}  // namespace detail

/// Encodes a captured engine state as an ibgp-ckpt-v1 document tree.
inline util::json::Value engine_state_json(const engine::EngineState& state) {
  using util::json::Array;
  using util::json::num_array;
  using util::json::Object;
  using util::json::Value;
  using detail::nested_num_array;

  Object doc;
  doc.emplace_back("schema", ckpt::kCkptSchema);
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

}  // namespace ibgp::reference
