#include "engine/event_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/span.hpp"
#include "util/hash.hpp"

namespace ibgp::engine {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSessionDown: return "session-down";
    case FaultKind::kSessionUp: return "session-up";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kGracefulDown: return "graceful-down";
    case FaultKind::kStaleExpire: return "stale-expire";
    case FaultKind::kLinkCostChange: return "link-cost";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
  }
  return "?";
}

void FaultInjector::on_drop(EventEngine&, NodeId, NodeId, SimTime) {}

EventEngine::EventEngine(const core::Instance& inst, core::ProtocolKind protocol,
                         DelayFn delay)
    : inst_(&inst),
      protocol_(protocol),
      delay_(delay ? std::move(delay)
                   : [](NodeId, NodeId, std::uint64_t) -> SimTime { return 1; }),
      link_state_(inst.physical()),
      igp_(inst.igp_handle()),
      nodes_(inst.node_count()),
      export_(inst.node_count()),
      session_base_(inst.node_count() + 1, 0),
      memo_(inst.node_count()),
      node_up_(inst.node_count(), true),
      graceful_down_(inst.node_count(), false),
      gr_generation_(inst.node_count(), 0),
      fib_(inst.node_count(), kNoPath),
      fib_frozen_(inst.node_count(), false),
      ebgp_live_(inst.exits().size(), false),
      flips_by_node_(inst.node_count(), 0) {
  counters_.decisions_by_node.resize(inst.node_count());
  const std::size_t paths = inst.exits().size();
  const auto& clusters = inst.clusters();
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    const auto peers = inst.sessions().peers(v);
    const std::size_t peer_count = peers.size();
    nodes_[v].holders.resize(paths);
    nodes_[v].stale.resize(paths);
    nodes_[v].own.assign(paths, false);
    nodes_[v].advertised_out.resize(peer_count);
    nodes_[v].desired_out.resize(peer_count);
    nodes_[v].mrai_ready.assign(peer_count, 0);
    nodes_[v].flush_scheduled.assign(peer_count, false);
    session_base_[v + 1] = session_base_[v] + peer_count;
    for (const NodeId peer : peers) {
      SessionSlot slot;
      if (clusters.same_cluster(v, peer)) {
        slot.peer_class = clusters.is_client(peer) ? kOwnClient : kClusterReflector;
      } else {
        slot.peer_class = kOtherPeer;
      }
      session_slots_.push_back(slot);
    }
  }
}

void EventEngine::require_unsealed(const char* setter) const {
  if (sealed_) {
    throw std::logic_error(std::string("EventEngine::") + setter +
                           ": must be called before any event is scheduled");
  }
}

void EventEngine::set_mrai(SimTime interval) {
  require_unsealed("set_mrai");
  mrai_ = interval;
}

void EventEngine::set_fault_injector(FaultInjector* injector) {
  require_unsealed("set_fault_injector");
  injector_ = injector;
}

void EventEngine::set_stale_timer(SimTime ticks) {
  require_unsealed("set_stale_timer");
  stale_timer_ = ticks;
}

namespace {

std::string rule_metric_name(std::size_t rule) {
  return "engine.decided." +
         std::string(bgp::selection_rule_name(static_cast<bgp::SelectionRule>(rule)));
}

}  // namespace

void register_event_engine_metrics(obs::MetricsRegistry& registry) {
  registry.counter("engine.deliveries");
  for (const CounterField& field : kEngineCounters) registry.counter(field.metric);
  for (std::size_t rule = 0; rule < bgp::kSelectionRuleCount; ++rule) {
    registry.counter(rule_metric_name(rule));
  }
  registry.gauge("engine.queue_depth_max");  // schedule-dependent: volatile
  // A restored engine's memo starts cold, so its lookups are volatile too.
  registry.counter("engine.decision_memo.hits", obs::MetricClass::kVolatile);
  registry.counter("engine.decision_memo.misses", obs::MetricClass::kVolatile);
  // Profiler span sinks (set_profile): wall time is volatile by nature.
  obs::span_histogram(registry, "engine.span.delivery_ns");
  obs::span_histogram(registry, "engine.span.decision_ns");
  obs::span_histogram(registry, "engine.span.transfer_ns");
}

void record_engine_counters(obs::MetricsRegistry& registry,
                            const EventEngine::Result& result) {
  registry.counter("engine.deliveries").add(result.deliveries);
  for (const CounterField& field : kEngineCounters) {
    registry.counter(field.metric).add(result.*field.member);
  }
  for (std::size_t rule = 0; rule < bgp::kSelectionRuleCount; ++rule) {
    registry.counter(rule_metric_name(rule)).add(result.decisions_by_rule[rule]);
  }
}

void EventEngine::set_metrics(obs::MetricsRegistry* registry, MetricScope scope) {
  require_unsealed("set_metrics");
  metrics_ = registry;
  handles_ = MetricHandles{};
  profile_ = ProfileHandles{};  // re-enable via set_profile after this call
  if (registry == nullptr) return;
  register_event_engine_metrics(*registry);
  if (scope == MetricScope::kAll) {
    handles_.deliveries = &registry->counter("engine.deliveries");
    for (std::size_t i = 0; i < kEngineCounters.size(); ++i) {
      handles_.counters[i] = &registry->counter(kEngineCounters[i].metric);
    }
    for (std::size_t rule = 0; rule < bgp::kSelectionRuleCount; ++rule) {
      handles_.decided[rule] = &registry->counter(rule_metric_name(rule));
    }
  }
  handles_.queue_depth_max = &registry->gauge("engine.queue_depth_max");
  handles_.memo_hits =
      &registry->counter("engine.decision_memo.hits", obs::MetricClass::kVolatile);
  handles_.memo_misses =
      &registry->counter("engine.decision_memo.misses", obs::MetricClass::kVolatile);
}

void EventEngine::set_profile(bool enabled) {
  require_unsealed("set_profile");
  profile_ = ProfileHandles{};
  if (!enabled || metrics_ == nullptr) return;
  profile_.delivery = &obs::span_histogram(*metrics_, "engine.span.delivery_ns");
  profile_.decision = &obs::span_histogram(*metrics_, "engine.span.decision_ns");
  profile_.transfer = &obs::span_histogram(*metrics_, "engine.span.transfer_ns");
}

void EventEngine::set_trace(obs::TraceSink* trace) {
  require_unsealed("set_trace");
  trace_ = trace;
  if (tracing()) emit_trace_preamble();
}

void EventEngine::emit_trace_preamble() {
  // meta + node/path directory records so trace consumers (trace_inspect)
  // can label ids without the instance at hand.
  {
    util::json::Object fields;
    fields.emplace_back("instance", inst_->name());
    fields.emplace_back("protocol", core::protocol_name(protocol_));
    fields.emplace_back("nodes", static_cast<std::uint64_t>(inst_->node_count()));
    fields.emplace_back("paths", static_cast<std::uint64_t>(inst_->exits().size()));
    trace_->emit(0, "meta", std::move(fields));
  }
  for (NodeId v = 0; v < inst_->node_count(); ++v) {
    util::json::Object fields;
    fields.emplace_back("id", v);
    fields.emplace_back("name", inst_->node_name(v));
    fields.emplace_back("bgp_id", inst_->bgp_id(v));
    fields.emplace_back("client", inst_->clusters().is_client(v));
    trace_->emit(0, "node", std::move(fields));
  }
  for (PathId p = 0; p < inst_->exits().size(); ++p) {
    const auto& path = inst_->exits()[p];
    util::json::Object fields;
    fields.emplace_back("id", p);
    fields.emplace_back("name", path.name);
    fields.emplace_back("exit_point", path.exit_point);
    fields.emplace_back("next_as", path.next_as);
    fields.emplace_back("local_pref", path.local_pref);
    fields.emplace_back("med", path.med);
    trace_->emit(0, "path", std::move(fields));
  }
}

bool EventEngine::session_up(NodeId u, NodeId v) const {
  const auto peers = inst_->sessions().peers(u);
  const auto it = std::lower_bound(peers.begin(), peers.end(), v);
  if (it == peers.end() || *it != v) return false;
  const SessionSlot& slot = session_slots_[session_base_[u] + (it - peers.begin())];
  return node_up_[u] && node_up_.at(v) && !slot.admin_down && igp_->reachable(u, v);
}

std::span<const PathId> EventEngine::advertised_to(NodeId from, NodeId to) const {
  return nodes_.at(from).advertised_out.at(peer_index(from, to));
}

void EventEngine::inject_exit(PathId p, SimTime when) {
  sealed_ = true;
  queue_.push({.time = when, .seq = next_seq_++, .kind = EventKind::kEbgpAnnounce,
               .to = inst_->exits()[p].exit_point, .path = p});
}

void EventEngine::inject_all_exits(SimTime when) {
  for (PathId p = 0; p < inst_->exits().size(); ++p) inject_exit(p, when);
}

void EventEngine::withdraw_exit(PathId p, SimTime when) {
  sealed_ = true;
  queue_.push({.time = when, .seq = next_seq_++, .kind = EventKind::kEbgpWithdraw,
               .to = inst_->exits()[p].exit_point, .path = p});
}

void EventEngine::push_fault(EventKind kind, NodeId a, NodeId b, SimTime when,
                             Cost cost) {
  sealed_ = true;
  // Script-time faults are lineage roots; repair faults scheduled from a
  // FaultInjector::on_drop mid-delivery inherit the dropped message's cause.
  queue_.push({.time = when, .seq = next_seq_++, .pid = cause_, .kind = kind, .from = a,
               .to = b, .cost = cost});
}

void EventEngine::schedule_session_down(NodeId u, NodeId v, SimTime when) {
  if (!inst_->sessions().has_session(u, v)) {
    throw std::invalid_argument("EventEngine::schedule_session_down: no such session");
  }
  push_fault(EventKind::kSessionDown, u, v, when);
}

void EventEngine::schedule_session_up(NodeId u, NodeId v, SimTime when) {
  if (!inst_->sessions().has_session(u, v)) {
    throw std::invalid_argument("EventEngine::schedule_session_up: no such session");
  }
  push_fault(EventKind::kSessionUp, u, v, when);
}

void EventEngine::schedule_crash(NodeId v, SimTime when) {
  if (v >= inst_->node_count()) {
    throw std::invalid_argument("EventEngine::schedule_crash: no such node");
  }
  push_fault(EventKind::kCrash, v, kNoNode, when);
}

void EventEngine::schedule_restart(NodeId v, SimTime when) {
  if (v >= inst_->node_count()) {
    throw std::invalid_argument("EventEngine::schedule_restart: no such node");
  }
  push_fault(EventKind::kRestart, v, kNoNode, when);
}

void EventEngine::schedule_graceful_down(NodeId v, SimTime when) {
  if (v >= inst_->node_count()) {
    throw std::invalid_argument("EventEngine::schedule_graceful_down: no such node");
  }
  push_fault(EventKind::kGracefulDown, v, kNoNode, when);
}

std::size_t EventEngine::require_link(NodeId a, NodeId b, const char* what) const {
  const auto link = inst_->physical().find_link(a, b);
  if (!link) {
    throw std::invalid_argument(std::string("EventEngine::") + what +
                                ": no such physical link");
  }
  return *link;
}

void EventEngine::schedule_link_cost_change(NodeId a, NodeId b, Cost cost,
                                            SimTime when) {
  require_link(a, b, "schedule_link_cost_change");
  if (cost <= 0 || cost >= kInfCost) {
    throw std::invalid_argument(
        "EventEngine::schedule_link_cost_change: cost must be a positive finite metric");
  }
  push_fault(EventKind::kLinkCostChange, a, b, when, cost);
}

void EventEngine::schedule_link_down(NodeId a, NodeId b, SimTime when) {
  require_link(a, b, "schedule_link_down");
  push_fault(EventKind::kLinkDown, a, b, when);
}

void EventEngine::schedule_link_up(NodeId a, NodeId b, SimTime when) {
  require_link(a, b, "schedule_link_up");
  push_fault(EventKind::kLinkUp, a, b, when);
}

std::size_t EventEngine::peer_index(NodeId u, NodeId peer) const {
  const auto peers = inst_->sessions().peers(u);
  const auto it = std::lower_bound(peers.begin(), peers.end(), peer);
  if (it == peers.end() || *it != peer) {
    throw std::logic_error("EventEngine: not a session peer");
  }
  return static_cast<std::size_t>(it - peers.begin());
}

EventEngine::ExportVerdict EventEngine::export_verdict(NodeId u, PathId p,
                                                      NodeId source) const {
  const auto& clusters = inst_->clusters();
  ExportVerdict verdict{p, 0, inst_->exits()[p].exit_point, source};

  // Own E-BGP route: to every peer (none of them is its exit point).
  if (verdict.exit_point == u) {
    verdict.classes = kAnyPeer;
    verdict.source = kNoNode;
    return verdict;
  }
  // Clients never forward I-BGP routes; an unheld path has nothing to forward.
  if (clusters.is_client(u) || source == kNoNode) return verdict;

  // Learned from a client: reflect to all peers; from a non-client: to own
  // clients only.  Either way never back to the exit point (it holds the
  // E-BGP original; mirrors ORIGINATOR_ID) nor to the source (no echo).
  const bool from_own_client =
      clusters.is_client(source) && clusters.same_cluster(source, u);
  verdict.classes = from_own_client ? kAnyPeer : kOwnClient;

  // CLUSTER_LIST loop prevention (RFC 1966): a route exiting inside this
  // cluster must not bounce between the cluster's reflectors — every one of
  // them hears it from the exit point directly (constraint 2 of Section 4).
  // Without this, two same-cluster reflectors endlessly re-attribute each
  // other's reflections and the protocol livelocks.
  if (clusters.same_cluster(verdict.exit_point, u)) verdict.classes &= ~kClusterReflector;
  return verdict;
}

void EventEngine::push_update(NodeId from, NodeId to, SessionSlot& slot, PathId path,
                              bool announce, SimTime now, std::uint64_t msg_seq) {
  // FIFO per directed session: never deliver before an earlier message on
  // the same session.
  slot.last_delivery = std::max(now + delay_(from, to, msg_seq), slot.last_delivery);
  queue_.push({.time = slot.last_delivery, .seq = next_seq_++,
               .pid = cause_,  // the delivery being processed caused this send
               .kind = EventKind::kUpdate, .from = from, .to = to, .path = path,
               .announce = announce, .epoch = slot.epoch});
}

void EventEngine::enqueue_update(NodeId from, std::size_t peer_index, PathId path,
                                 bool announce, SimTime now) {
  const NodeId to = inst_->sessions().peers(from)[peer_index];
  const std::uint64_t msg_seq = session_msg_seq_++;
  ++counters_.updates_sent;
  MessageFate fate = MessageFate::kDeliver;
  if (injector_) fate = injector_->classify(from, to, msg_seq);
  if (fate == MessageFate::kDrop) {
    // The sender still believes the message went out (advertised_out was
    // already updated); the receiver's RIB silently diverges until a repair
    // — exactly the perturbation the invariant checker hunts.
    ++counters_.messages_dropped;
    injector_->on_drop(*this, from, to, now);
    return;
  }
  push_update(from, to, slot(from, peer_index), path, announce, now, msg_seq);
  if (fate == MessageFate::kDuplicate) {
    ++counters_.messages_duplicated;
    ++counters_.updates_sent;
    push_update(from, to, slot(from, peer_index), path, announce, now, session_msg_seq_++);
  }
}

const EventEngine::DecisionMemo::Entry* EventEngine::DecisionMemo::find(
    std::uint64_t hash, const netsim::ShortestPaths* igp,
    std::span<const bgp::Candidate> candidates) const {
  for (const Entry& entry : entries) {
    if (entry.hash == hash && entry.igp == igp &&
        std::ranges::equal(entry.candidates, candidates)) {
      return &entry;
    }
  }
  return nullptr;
}

void EventEngine::DecisionMemo::remember(std::uint64_t hash, const netsim::ShortestPaths* igp,
                                         std::span<const bgp::Candidate> candidates,
                                         const core::NodeDecision& decision,
                                         const bgp::SelectionProvenance& provenance) {
  if (std::find(seen.begin(), seen.end(), hash) == seen.end()) {
    seen[next_seen] = hash;  // first meeting: only note the key
    next_seen = (next_seen + 1) % kSize;
    return;
  }
  if (entries.size() < kSize) entries.emplace_back();
  Entry& entry = entries[next_entry];
  next_entry = (next_entry + 1) % kSize;
  entry.hash = hash;
  entry.igp = igp;
  entry.candidates.assign(candidates.begin(), candidates.end());
  entry.decision = decision;
  entry.provenance = provenance;
}

void EventEngine::reconsider(NodeId u, SimTime now) {
  NodeState& node = nodes_[u];

  // Candidates: own injected exits plus everything some peer announced,
  // attributed to the lowest-BGP-id holder — the source export keys on too.
  // The memo key's hash is folded in as the list is built.
  auto& candidates = candidates_;
  candidates.clear();
  sources_.clear();
  std::uint64_t hash = reinterpret_cast<std::uintptr_t>(igp_.get());
  for (PathId p = 0; p < inst_->exits().size(); ++p) {
    NodeId source = kNoNode;
    BgpId learned_from = std::numeric_limits<BgpId>::max();
    if (node.own[p]) {
      learned_from = inst_->exits()[p].ebgp_peer;
    } else if (!node.holders[p].empty()) {
      for (const NodeId v : node.holders[p]) {
        if (inst_->bgp_id(v) < learned_from) {
          learned_from = inst_->bgp_id(v);
          source = v;
        }
      }
    } else {
      continue;
    }
    candidates.push_back({p, learned_from});
    sources_.push_back(source);
    // One multiply per candidate: the hash only filters memo entries.
    hash = (hash ^ (std::uint64_t{p} << 32 | learned_from)) * 0x9e3779b97f4a7c15ULL;
  }
  hash = util::mix64(hash);

  // Selection prices candidates with the *current* IGP epoch: after a link
  // fault the same candidate set can pick a different exit purely because
  // the distances moved.
  const core::NodeDecision* decision = &decision_;
  bgp::SelectionProvenance provenance;
  {
    const obs::Span span(profile_.live_decision);
    DecisionMemo& memo = memo_[u];
    if (const DecisionMemo::Entry* hit = memo.find(hash, igp_.get(), candidates)) {
      ++memo_hits_;
      decision = &hit->decision;
      provenance = hit->provenance;
    } else {
      ++memo_misses_;
      core::decide(*inst_, *igp_, protocol_, u, candidates, decision_, &provenance);
      memo.remember(hash, igp_.get(), candidates, decision_, provenance);
    }
  }
  if (provenance.selected) {
    ++counters_.decisions_total;
    ++counters_.decisions_by_rule[rule_index(provenance.decisive)];
    ++counters_.decisions_by_node[u][rule_index(provenance.decisive)];
  } else {
    ++counters_.decisions_empty;
  }

  const PathId old_best = node.best ? node.best->path : kNoPath;
  const PathId new_best = decision->best ? decision->best->path : kNoPath;
  if (old_best != new_best) {
    ++counters_.best_flips;
    ++flips_by_node_[u];
    flap_log_.push_back({now, u, old_best, new_best});
  }
  if (tracing()) {
    util::json::Object fields;
    fields.emplace_back("node", u);
    fields.emplace_back("best", new_best == kNoPath ? std::int64_t{-1}
                                                    : std::int64_t{new_best});
    fields.emplace_back("rule", bgp::selection_rule_name(provenance.decisive));
    fields.emplace_back("candidates",
                        static_cast<std::uint64_t>(provenance.candidates));
    fields.emplace_back("flip", old_best != new_best);
    // Joins the decision into the causal DAG: lid = the delivery that
    // triggered this reconsideration (decisions never spawn events
    // themselves, so they carry no pid of their own).
    if (cause_ != kNoCause) fields.emplace_back("lid", cause_);
    trace_->emit(now, "decision", std::move(fields));
  }
  node.best = decision->best;
  // reconsider only runs on control-plane-up nodes, so the FIB tracks the
  // best route here.  A FIB frozen by graceful restart stays on its
  // pre-restart entry through the post-restart resync (when best is
  // transiently empty); the first real best route thaws it.
  if (fib_frozen_[u]) {
    if (new_best != kNoPath) {
      fib_frozen_[u] = false;
      set_fib(u, new_best, now);
    }
  } else {
    set_fib(u, new_best, now);
  }

  // One export verdict per advertised path (both lists ascend by path).
  verdicts_.clear();
  std::size_t c = 0;
  for (const PathId p : decision->advertised) {
    while (c < candidates.size() && candidates[c].path < p) ++c;
    const NodeId source =
        c < candidates.size() && candidates[c].path == p ? sources_[c] : kNoNode;
    const ExportVerdict verdict = export_verdict(u, p, source);
    if (verdict.classes != 0) verdicts_.push_back(verdict);
  }

  // Without an MRAI every sync completes at once, so a node whose verdicts
  // are unchanged and whose peers all hold their filtered sets (resync
  // clear) has nothing to send.  With an MRAI every peer still goes through
  // sync_peer: each call inside a hold-down counts as a deferral, whether
  // or not the peer's set changed.
  const bool batching = mrai_ > 0;
  ExportCache& cache = export_[u];
  if (!batching && !cache.resync && verdicts_ == cache.verdicts) return;
  cache.verdicts.swap(verdicts_);
  cache.resync = false;  // sync_peer sets it again on a down session

  // Per-peer target sets; UPDATE diffs flow immediately, or — with an MRAI
  // configured — as batched net diffs at the next permitted send time.
  const auto peers = inst_->sessions().peers(u);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const NodeId peer = peers[i];
    const std::uint8_t peer_class = slot(u, i).peer_class;
    target_.clear();
    for (const ExportVerdict& verdict : cache.verdicts) {
      if ((verdict.classes & peer_class) != 0 && peer != verdict.exit_point &&
          peer != verdict.source) {
        target_.push_back(verdict.path);
      }
    }
    if (!batching && target_ == node.desired_out[i] && target_ == node.advertised_out[i]) {
      continue;  // already in sync with this peer
    }
    node.desired_out[i] = target_;
    sync_peer(u, i, now);
  }
}

void EventEngine::sync_peer(NodeId u, std::size_t peer_index, SimTime now) {
  const obs::Span span(profile_.live_transfer);
  NodeState& node = nodes_[u];
  const NodeId peer = inst_->sessions().peers(u)[peer_index];
  if (!session_up(u, peer)) {
    export_[u].resync = true;  // nothing flows on a downed session: out of sync
    return;
  }
  if (mrai_ > 0 && now < node.mrai_ready[peer_index]) {
    // Inside the hold-down window: batch the change into one deferred flush.
    ++counters_.mrai_deferrals;
    if (!node.flush_scheduled[peer_index]) {
      node.flush_scheduled[peer_index] = true;
      // Stamped with the session epoch so a flush scheduled before a session
      // reset is voided instead of leaking a stale hold-down advertisement
      // into the re-established session (whose resync already replayed the
      // full table).
      queue_.push({.time = node.mrai_ready[peer_index], .seq = next_seq_++,
                   .pid = cause_,  // the deferral-triggering delivery is the cause
                   .kind = EventKind::kMraiFlush, .from = u, .to = peer,
                   .epoch = slot(u, peer_index).epoch});
    }
    return;
  }

  const std::vector<PathId>& target = node.desired_out[peer_index];
  std::vector<PathId>& current = node.advertised_out[peer_index];
  bool sent = false;
  for (const PathId p : current) {
    if (!std::binary_search(target.begin(), target.end(), p)) {
      enqueue_update(u, peer_index, p, /*announce=*/false, now);
      sent = true;
    }
  }
  for (const PathId p : target) {
    if (!std::binary_search(current.begin(), current.end(), p)) {
      enqueue_update(u, peer_index, p, /*announce=*/true, now);
      sent = true;
    }
  }
  current = target;
  if (sent && mrai_ > 0) node.mrai_ready[peer_index] = now + mrai_;
}

void EventEngine::record_fault(const FaultRecord& record) {
  fault_log_.push_back(record);
  ++counters_.faults_applied;
  if (tracing()) {
    util::json::Object fields;
    fields.emplace_back("kind", fault_kind_name(record.kind));
    fields.emplace_back("a", record.a == kNoNode ? std::int64_t{-1}
                                                 : std::int64_t{record.a});
    fields.emplace_back("b", record.b == kNoNode ? std::int64_t{-1}
                                                 : std::int64_t{record.b});
    fields.emplace_back("cost", record.cost);
    if (cause_ != kNoCause) fields.emplace_back("lid", cause_);
    if (cause_parent_ != kNoCause) fields.emplace_back("pid", cause_parent_);
    trace_->emit(record.time, "fault", std::move(fields));
  }
}

void EventEngine::record_best_loss(NodeId v, SimTime now) {
  NodeState& node = nodes_[v];
  if (!node.best) return;
  ++counters_.best_flips;
  ++flips_by_node_[v];
  flap_log_.push_back({now, v, node.best->path, kNoPath});
  node.best.reset();
}

void EventEngine::clear_send_state(NodeId u, std::size_t peer_index) {
  NodeState& node = nodes_[u];
  node.advertised_out[peer_index].clear();
  node.desired_out[peer_index].clear();
  node.mrai_ready[peer_index] = 0;
  node.flush_scheduled[peer_index] = false;  // a pending flush event fires as a no-op
  export_[u].resync = true;  // the cleared sets no longer match the verdicts
}

void EventEngine::reset_session(NodeId u, NodeId v) {
  // Void in-flight messages both ways and forget FIFO history: a delayed
  // pre-reset message must not push post-re-establishment traffic into the
  // future.
  for (SessionSlot* s : {&slot_to(u, v), &slot_to(v, u)}) {
    ++s->epoch;
    s->last_delivery = 0;
  }
}

void EventEngine::flush_endpoint(NodeId u, NodeId peer) {
  clear_send_state(u, peer_index(u, peer));
  NodeState& node = nodes_[u];
  for (auto& holders : node.holders) {
    const auto it = std::lower_bound(holders.begin(), holders.end(), peer);
    if (it != holders.end() && *it == peer) holders.erase(it);
  }
  for (auto& stale : node.stale) {
    const auto it = std::lower_bound(stale.begin(), stale.end(), peer);
    if (it != stale.end() && *it == peer) stale.erase(it);
  }
}

void EventEngine::detach_session_graceful(NodeId v, NodeId w) {
  // Like sever_session, but w keeps what it heard from v: the entries are
  // marked stale instead of flushed.  v's side loses everything (its
  // control plane is restarting).
  reset_session(v, w);
  flush_endpoint(v, w);
  NodeState& wn = nodes_[w];
  // w must replay its full table on re-establishment (v remembers nothing).
  clear_send_state(w, peer_index(w, v));
  for (PathId p = 0; p < wn.holders.size(); ++p) {
    const auto& holders = wn.holders[p];
    if (!std::binary_search(holders.begin(), holders.end(), v)) continue;
    auto& stale = wn.stale[p];
    const auto it = std::lower_bound(stale.begin(), stale.end(), v);
    if (it == stale.end() || *it != v) {
      stale.insert(it, v);
      ++counters_.stale_retained;
    }
  }
}

void EventEngine::set_fib(NodeId v, PathId path, SimTime now) {
  if (fib_[v] == path) return;
  fib_log_.push_back({now, v, fib_[v], path});
  fib_[v] = path;
}

std::size_t EventEngine::sweep_stale_from(NodeId w, NodeId v) {
  NodeState& node = nodes_[w];
  std::size_t swept = 0;
  for (PathId p = 0; p < node.stale.size(); ++p) {
    auto& stale = node.stale[p];
    const auto sit = std::lower_bound(stale.begin(), stale.end(), v);
    if (sit == stale.end() || *sit != v) continue;
    stale.erase(sit);
    auto& holders = node.holders[p];
    const auto hit = std::lower_bound(holders.begin(), holders.end(), v);
    if (hit != holders.end() && *hit == v) holders.erase(hit);
    ++swept;
  }
  return swept;
}

void EventEngine::send_end_of_rib(NodeId v, NodeId w, SimTime now) {
  // Rides the same per-session delay/FIFO machinery as UPDATEs (so it lands
  // after the initial-table replay) but bypasses the FaultInjector: loss is
  // already modeled by the injector's session-reset repair, which flushes
  // stale state wholesale.
  SessionSlot& session = slot_to(v, w);
  session.last_delivery =
      std::max(now + delay_(v, w, session_msg_seq_++), session.last_delivery);
  queue_.push({.time = session.last_delivery, .seq = next_seq_++,
               .pid = cause_,  // caused by the restart delivery that replayed the table
               .kind = EventKind::kEndOfRib, .from = v, .to = w, .epoch = session.epoch});
  ++counters_.eor_markers_sent;
}

void EventEngine::sever_session(NodeId u, NodeId v) {
  reset_session(u, v);
  flush_endpoint(u, v);
  flush_endpoint(v, u);
}

void EventEngine::apply_session_down(NodeId u, NodeId v, SimTime now) {
  if (slot_to(u, v).admin_down) return;  // already down
  slot_to(u, v).admin_down = true;
  slot_to(v, u).admin_down = true;
  record_fault({now, FaultKind::kSessionDown, u, v});
  sever_session(u, v);
  if (node_up_[u]) reconsider(u, now);
  if (node_up_[v]) reconsider(v, now);
}

void EventEngine::apply_session_up(NodeId u, NodeId v, SimTime now) {
  if (!slot_to(u, v).admin_down) return;  // already up
  slot_to(u, v).admin_down = false;
  slot_to(v, u).admin_down = false;
  record_fault({now, FaultKind::kSessionUp, u, v});
  // Initial-table exchange: each side re-advertises its full desired set
  // (advertised_out toward the peer is empty since the down flush).
  if (session_up(u, v)) {
    reconsider(u, now);
    reconsider(v, now);
  }
}

void EventEngine::apply_crash(NodeId v, SimTime now) {
  if (!node_up_[v]) {
    if (!graceful_down_[v]) return;  // already cold-down
    // A hard crash mid-graceful-restart: the warm recovery failed.  Peers'
    // retention collapses to the cold discipline and the frozen forwarding
    // entry dies with the data plane.
    graceful_down_[v] = false;
    fib_frozen_[v] = false;
    record_fault({now, FaultKind::kCrash, v, kNoNode});
    set_fib(v, kNoPath, now);
    for (const NodeId w : inst_->sessions().peers(v)) {
      if (sweep_stale_from(w, v) > 0 && node_up_[w]) reconsider(w, now);
    }
    return;
  }
  record_fault({now, FaultKind::kCrash, v, kNoNode});
  node_up_[v] = false;
  const auto peers = inst_->sessions().peers(v);
  for (const NodeId w : peers) sever_session(v, w);
  // Total state loss at v; peers re-route around it.
  NodeState& node = nodes_[v];
  for (auto& holders : node.holders) holders.clear();
  for (auto& stale : node.stale) stale.clear();
  node.own.assign(node.own.size(), false);
  record_best_loss(v, now);
  fib_frozen_[v] = false;
  set_fib(v, kNoPath, now);
  for (std::size_t i = 0; i < node.advertised_out.size(); ++i) clear_send_state(v, i);
  for (const NodeId w : peers) {
    if (node_up_[w]) reconsider(w, now);
  }
}

void EventEngine::apply_restart(NodeId v, SimTime now) {
  if (node_up_[v]) return;  // already up
  const bool was_graceful = graceful_down_[v];
  graceful_down_[v] = false;
  record_fault({now, FaultKind::kRestart, v, kNoNode});
  node_up_[v] = true;
  // The external neighbors never stopped announcing: re-learn every E-BGP
  // route of ours that is still live.
  for (PathId p = 0; p < inst_->exits().size(); ++p) {
    if (inst_->exits()[p].exit_point == v && ebgp_live_[p]) nodes_[v].own[p] = true;
  }
  reconsider(v, now);
  if (was_graceful) {
    // The initial-table replay (the reconsider above) is on the wire; close
    // it with an End-of-RIB marker per live session.  FIFO guarantees the
    // marker lands after the replayed UPDATEs, so a peer sweeping on EoR
    // only drops what the replay really did not refresh.
    for (const NodeId w : inst_->sessions().peers(v)) {
      if (session_up(v, w)) send_end_of_rib(v, w, now);
    }
  }
  for (const NodeId w : inst_->sessions().peers(v)) {
    if (session_up(v, w)) reconsider(w, now);
  }
}

void EventEngine::apply_graceful_down(NodeId v, SimTime now) {
  if (!node_up_[v]) return;  // already down (cold or graceful)
  record_fault({now, FaultKind::kGracefulDown, v, kNoNode});
  node_up_[v] = false;
  graceful_down_[v] = true;
  ++gr_generation_[v];
  // Sessions stop carrying messages; peers retain v's routes as stale.
  for (const NodeId w : inst_->sessions().peers(v)) detach_session_graceful(v, w);
  // v's control plane loses everything (detach cleared its per-session
  // state); the FIB entry deliberately stays frozen — the data plane keeps
  // forwarding on it until restart, crash, or cold fallback.
  nodes_[v].own.assign(nodes_[v].own.size(), false);
  record_best_loss(v, now);
  fib_frozen_[v] = true;
  if (stale_timer_ > 0) {
    queue_.push({.time = now + stale_timer_, .seq = next_seq_++,
                 .pid = cause_,  // armed by the graceful-down delivery
                 .kind = EventKind::kStaleExpire, .from = v, .epoch = gr_generation_[v]});
  }
  // Peers do NOT reconsider: their candidate sets are unchanged by design —
  // that is exactly the continuity graceful restart buys.
}

void EventEngine::apply_end_of_rib(NodeId v, NodeId w, std::uint64_t epoch, SimTime now) {
  if (tracing()) {
    util::json::Object fields;
    fields.emplace_back("from", v);
    fields.emplace_back("to", w);
    fields.emplace_back("voided", epoch != slot_to(v, w).epoch);
    if (cause_ != kNoCause) fields.emplace_back("lid", cause_);
    if (cause_parent_ != kNoCause) fields.emplace_back("pid", cause_parent_);
    trace_->emit(now, "eor", std::move(fields));
  }
  if (epoch != slot_to(v, w).epoch) {
    // The session reset after the marker was sent: it died in flight.
    ++counters_.deliveries_voided;
    return;
  }
  const std::size_t swept = sweep_stale_from(w, v);
  if (swept > 0) {
    counters_.stale_swept_eor += swept;
    reconsider(w, now);
  }
}

void EventEngine::apply_stale_expire(NodeId v, std::uint64_t generation, SimTime now) {
  // A stale timer armed by an older graceful restart must not fire into a
  // newer one; the generation stamp disambiguates.
  if (generation != gr_generation_[v]) return;
  if (fib_frozen_[v]) {
    // The restart never produced a fresh best route: thaw the frozen entry
    // to whatever the control plane actually has (usually nothing).
    fib_frozen_[v] = false;
    const NodeState& node = nodes_[v];
    set_fib(v, node_up_[v] && node.best ? node.best->path : kNoPath, now);
  }
  std::size_t swept_total = 0;
  for (const NodeId w : inst_->sessions().peers(v)) {
    const std::size_t swept = sweep_stale_from(w, v);
    if (swept > 0) {
      swept_total += swept;
      if (node_up_[w]) reconsider(w, now);
    }
  }
  if (swept_total > 0) {
    // Logged only when it actually degraded to a cold flush — a timer that
    // fires after a completed recovery is a silent no-op.
    counters_.stale_swept_expired += swept_total;
    record_fault({now, FaultKind::kStaleExpire, v, kNoNode});
  }
}

void EventEngine::apply_link_fault(EventKind kind, NodeId a, NodeId b, Cost cost,
                                   SimTime now) {
  const std::size_t link = *inst_->physical().find_link(a, b);  // validated at schedule
  FaultKind record = FaultKind::kLinkDown;
  bool changed = false;
  switch (kind) {
    case EventKind::kLinkCostChange:
      record = FaultKind::kLinkCostChange;
      changed = link_state_.set_cost(link, cost);
      break;
    case EventKind::kLinkDown:
      record = FaultKind::kLinkDown;
      changed = link_state_.set_down(link);
      cost = kInfCost;
      break;
    case EventKind::kLinkUp:
      record = FaultKind::kLinkUp;
      changed = link_state_.set_up(link);
      cost = link_state_.cost(link);
      break;
    default:
      return;
  }
  // No effective change (down of a down link, change to the current cost,
  // retargeting a down link's cost): well-defined no-op, nothing logged —
  // mirrors the session-fault no-op discipline.
  if (!changed) return;

  record_fault({now, record, a, b, cost});
  const auto prev = igp_;
  igp_ = inst_->igp_epoch(link_state_.effective());
  ++counters_.igp_epoch_swaps;
  igp_log_.push_back({now, igp_->fingerprint(), igp_,
                      {link_state_.effective().begin(), link_state_.effective().end()}});
  if (tracing()) {
    util::json::Object fields;
    fields.emplace_back("fingerprint", igp_->fingerprint());
    fields.emplace_back("swaps", counters_.igp_epoch_swaps);
    trace_->emit(now, "igp-epoch", std::move(fields));
  }

  // Sessions that rode a now-dead IGP path go down exactly like session
  // faults (TCP cannot cross a partition): in-flight messages void, both
  // ends flush.  session_up() already reports them down under the new
  // epoch; when reachability returns, the next link fault's reconsider
  // sweep replays the full sync because both sides' advertised_out were
  // cleared here.
  for (const auto& edge : inst_->sessions().edges()) {
    if (prev->reachable(edge.u, edge.v) && !igp_->reachable(edge.u, edge.v)) {
      sever_session(edge.u, edge.v);
    }
  }

  // Every distance may have moved: force re-evaluation of every up node's
  // PossibleExits/BestRoute.  The net-diff send logic keeps the blast
  // radius honest — only nodes whose selected or advertised set actually
  // changed put UPDATEs on the wire.
  for (NodeId v = 0; v < inst_->node_count(); ++v) {
    if (node_up_[v]) reconsider(v, now);
  }
}

EventEngine::Result EventEngine::run(std::size_t max_deliveries) {
  return run_impl(max_deliveries, std::nullopt);
}

EventEngine::Result EventEngine::run_until(SimTime horizon,
                                           std::size_t max_deliveries) {
  return run_impl(max_deliveries, horizon);
}

EventEngine::Result EventEngine::run_impl(std::size_t max_deliveries,
                                          std::optional<SimTime> horizon) {
  sealed_ = true;
  Result result;
  // A restored engine continues the captured run: deliveries/end_time start
  // from the checkpoint's cumulative totals (consumed once), so the budget
  // spends only the remainder and the returned Result is the one the
  // uninterrupted run would have produced.
  result.deliveries = resume_deliveries_;
  result.end_time = resume_end_time_;
  resume_deliveries_ = 0;
  resume_end_time_ = 0;
  while (!queue_.empty() && result.deliveries < max_deliveries) {
    if (horizon && queue_.top().time > *horizon) break;
    if (deadline_ && (result.deliveries & 0xFFF) == 0 &&
        std::chrono::steady_clock::now() >= *deadline_) {
      throw DeadlineExceeded("EventEngine::run: wall-clock deadline exceeded");
    }
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
    const Event event = queue_.top();
    queue_.pop();
    ++result.deliveries;
    result.end_time = event.time;
    // Causal cursor for everything this delivery touches: records emitted
    // during processing carry lid = this event's seq, and events scheduled
    // during processing inherit it as their pid.
    cause_ = event.seq;
    cause_parent_ = event.pid;

    // The switch is the last statement of the loop body, so this span times
    // exactly one delivery (dispatch + all cascaded work).  arm() decides
    // whether this delivery is one of the 1-in-64 samples; the nested
    // decision/transfer spans follow the same verdict.
    profile_.arm();
    const obs::Span delivery_span(profile_.live_delivery);
    switch (event.kind) {
      case EventKind::kEbgpAnnounce:
      case EventKind::kEbgpWithdraw: {
        const bool live = event.kind == EventKind::kEbgpAnnounce;
        ebgp_live_[event.path] = live;
        if (tracing()) {
          util::json::Object fields;
          fields.emplace_back("path", event.path);
          fields.emplace_back("node", event.to);
          fields.emplace_back("lid", event.seq);  // injection root: no pid
          trace_->emit(event.time, live ? "ebgp-announce" : "ebgp-withdraw", std::move(fields));
        }
        if (node_up_[event.to]) {
          nodes_[event.to].own[event.path] = live;
          reconsider(event.to, event.time);
        }
        break;
      }
      case EventKind::kUpdate: {
        const bool voided =
            event.epoch != slot_to(event.from, event.to).epoch;
        if (tracing()) {
          util::json::Object fields;
          fields.emplace_back("from", event.from);
          fields.emplace_back("to", event.to);
          fields.emplace_back("path", event.path);
          fields.emplace_back("announce", event.announce);
          fields.emplace_back("lid", event.seq);
          if (event.pid != kNoCause) fields.emplace_back("pid", event.pid);
          trace_->emit(event.time, voided ? "update-voided" : "update",
                       std::move(fields));
        }
        if (voided) {
          // Sent before a reset of this session: the message died with it.
          ++counters_.deliveries_voided;
          break;
        }
        auto& holders = nodes_[event.to].holders[event.path];
        const auto it = std::lower_bound(holders.begin(), holders.end(), event.from);
        if (event.announce) {
          if (it == holders.end() || *it != event.from) holders.insert(it, event.from);
        } else {
          if (it != holders.end() && *it == event.from) holders.erase(it);
        }
        // Any post-restart UPDATE from this peer supersedes the retained
        // copy: an announce refreshes the entry (no longer stale), a
        // withdraw removes it outright.
        auto& stale = nodes_[event.to].stale[event.path];
        const auto sit = std::lower_bound(stale.begin(), stale.end(), event.from);
        if (sit != stale.end() && *sit == event.from) stale.erase(sit);
        reconsider(event.to, event.time);
        break;
      }
      case EventKind::kMraiFlush: {
        // event.from = the batching node, event.to = the peer.
        if (!node_up_[event.from]) break;  // state died with the crash
        if (event.epoch != slot_to(event.from, event.to).epoch) {
          // Scheduled before a reset of this session: the hold-down state it
          // would have flushed died with the old epoch (flush_endpoint
          // cleared it), and the re-established session already replayed a
          // full sync.  Firing it would leak a stale scheduled advertisement
          // into the new session epoch.
          ++counters_.deliveries_voided;
          break;
        }
        if (tracing()) {
          // v2-only record: updates sent by this flush carry pid = this
          // event's seq, so the flush must appear as a live lid in the DAG
          // (it is the causal relay between deferral and deferred send).
          util::json::Object fields;
          fields.emplace_back("from", event.from);
          fields.emplace_back("to", event.to);
          fields.emplace_back("lid", event.seq);
          if (event.pid != kNoCause) fields.emplace_back("pid", event.pid);
          trace_->emit(event.time, "mrai-flush", std::move(fields));
        }
        const std::size_t peer_index = this->peer_index(event.from, event.to);
        nodes_[event.from].flush_scheduled[peer_index] = false;
        sync_peer(event.from, peer_index, event.time);
        break;
      }
      case EventKind::kSessionDown:
        apply_session_down(event.from, event.to, event.time);
        break;
      case EventKind::kSessionUp:
        apply_session_up(event.from, event.to, event.time);
        break;
      case EventKind::kCrash:
        apply_crash(event.from, event.time);
        break;
      case EventKind::kRestart:
        apply_restart(event.from, event.time);
        break;
      case EventKind::kGracefulDown:
        apply_graceful_down(event.from, event.time);
        break;
      case EventKind::kEndOfRib:
        apply_end_of_rib(event.from, event.to, event.epoch, event.time);
        break;
      case EventKind::kStaleExpire:
        apply_stale_expire(event.from, event.epoch, event.time);
        break;
      case EventKind::kLinkCostChange:
      case EventKind::kLinkDown:
      case EventKind::kLinkUp:
        apply_link_fault(event.kind, event.from, event.to, event.cost, event.time);
        break;
    }
  }
  // Between runs there is no "current delivery": anything scheduled from
  // outside (daemon ingest, scripting against a resumed engine) is a root.
  cause_ = kNoCause;
  cause_parent_ = kNoCause;

  result.converged =
      queue_.empty() || (horizon && queue_.top().time > *horizon);
  result.budget_exhausted = result.deliveries >= max_deliveries;
  result.events_pending = queue_.size();
  // Fault events the budget cut off, and the earliest one's time; the queue
  // stays intact so a later run() call can resume.
  for (const Event& event : queue_.events()) {
    switch (event.kind) {
      case EventKind::kSessionDown:
      case EventKind::kSessionUp:
      case EventKind::kCrash:
      case EventKind::kRestart:
      case EventKind::kGracefulDown:
      case EventKind::kStaleExpire:
      case EventKind::kLinkCostChange:
      case EventKind::kLinkDown:
      case EventKind::kLinkUp:
        if (result.faults_pending == 0 || event.time < result.next_fault_time) {
          result.next_fault_time = event.time;
        }
        ++result.faults_pending;
        break;
      case EventKind::kEbgpAnnounce:
      case EventKind::kEbgpWithdraw:
      case EventKind::kUpdate:
      case EventKind::kMraiFlush:
      case EventKind::kEndOfRib:
        break;
    }
  }
  static_cast<EngineCounters&>(result) = counters_;
  result.final_best.reserve(nodes_.size());
  for (NodeId v = 0; v < nodes_.size(); ++v) result.final_best.push_back(best_path(v));
  // Record cumulative totals so a later capture() carries them forward.
  last_run_deliveries_ = result.deliveries;
  last_run_end_time_ = result.end_time;
  flush_metrics(result);
  return result;
}

void EventEngine::set_deadline(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  deadline_ = deadline;
}

void EventEngine::flush_metrics(const Result& result) {
  if (metrics_ == nullptr) return;
  // Engine counters are cumulative across run() calls; push only the delta
  // since the previous flush so resumed runs never double-count.
  const auto push = [](obs::Counter* counter, std::uint64_t current,
                       std::uint64_t& pushed) {
    counter->add(current - pushed);
    pushed = current;
  };
  if (handles_.deliveries != nullptr) {  // MetricScope::kAll
    handles_.deliveries->add(result.deliveries);  // per-run, not cumulative
    for (std::size_t i = 0; i < kEngineCounters.size(); ++i) {
      const auto member = kEngineCounters[i].member;
      push(handles_.counters[i], counters_.*member, flushed_.*member);
    }
    for (std::size_t rule = 0; rule < bgp::kSelectionRuleCount; ++rule) {
      push(handles_.decided[rule], counters_.decisions_by_rule[rule],
           flushed_.decisions_by_rule[rule]);
    }
  }
  handles_.queue_depth_max->record_max(static_cast<std::int64_t>(max_queue_depth_));
  handles_.memo_hits->add(std::exchange(memo_hits_, 0));
  handles_.memo_misses->add(std::exchange(memo_misses_, 0));
}

EngineState EventEngine::capture() const {
  EngineState state;
  static_cast<EngineCounters&>(state) = counters_;
  state.instance = std::string(inst_->name());
  state.protocol = core::protocol_name(protocol_);
  state.node_count = inst_->node_count();
  state.path_count = inst_->exits().size();
  state.link_count = link_state_.link_count();
  state.mrai = mrai_;
  state.stale_timer = stale_timer_;

  // (time, seq) keys are unique, so the ascending order is canonical and
  // any heap rebuilt from it pops identically.
  state.queue = queue_.events();
  std::sort(state.queue.begin(), state.queue.end(),
            [](const Event& a, const Event& b) { return EventAfter{}(b, a); });
  state.nodes = nodes_;

  // ibgp-ckpt-v1 keeps session state dense (node×node); only session pairs
  // carry anything, so every other entry stays zero.
  const std::size_t n = inst_->node_count();
  state.session_last_delivery.assign(n * n, 0);
  state.session_epoch.assign(n * n, 0);
  state.session_admin_down.assign(n * n, false);
  for (NodeId u = 0; u < n; ++u) {
    const auto peers = inst_->sessions().peers(u);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const SessionSlot& session = session_slots_[session_base_[u] + i];
      const std::size_t dense = u * n + peers[i];
      state.session_last_delivery[dense] = session.last_delivery;
      state.session_epoch[dense] = session.epoch;
      state.session_admin_down[dense] = session.admin_down;
    }
  }
  state.node_up = node_up_;
  state.graceful_down = graceful_down_;
  state.gr_generation = gr_generation_;
  state.fib = fib_;
  state.fib_frozen = fib_frozen_;
  state.ebgp_live = ebgp_live_;

  // The underlay as v1 stores it: configured cost and down flag per link,
  // and each epoch by the effective-cost vector that keys it.
  state.link_cost.reserve(link_state_.link_count());
  state.link_down.reserve(link_state_.link_count());
  for (std::size_t link = 0; link < link_state_.link_count(); ++link) {
    state.link_cost.push_back(link_state_.cost(link));
    state.link_down.push_back(link_state_.is_down(link));
  }
  state.igp_log.reserve(igp_log_.size());
  for (const IgpRecord& record : igp_log_) {
    state.igp_log.push_back({record.time, record.effective});
  }

  state.next_seq = next_seq_;
  state.session_msg_seq = session_msg_seq_;
  state.flips_by_node = flips_by_node_;
  state.flap_log = flap_log_;
  state.fault_log = fault_log_;
  state.fib_log = fib_log_;

  // Cumulative Result continuation: an unconsumed resume base (captured
  // again before any run) takes precedence over the last finished run.
  if (resume_deliveries_ != 0 || resume_end_time_ != 0) {
    state.deliveries = resume_deliveries_;
    state.end_time = resume_end_time_;
  } else {
    state.deliveries = last_run_deliveries_;
    state.end_time = last_run_end_time_;
  }
  return state;
}

EventEngine EventEngine::fork() const {
  EventEngine copy(*this);
  copy.injector_ = nullptr;
  copy.metrics_ = nullptr;
  copy.handles_ = MetricHandles{};
  copy.trace_ = nullptr;
  copy.profile_ = ProfileHandles{};
  copy.deadline_.reset();
  // The Result continuation a capture() would carry into restore(): an
  // unconsumed resume base, else the totals of the last finished run.
  if (resume_deliveries_ == 0 && resume_end_time_ == 0) {
    copy.resume_deliveries_ = last_run_deliveries_;
    copy.resume_end_time_ = last_run_end_time_;
  }
  copy.last_run_deliveries_ = 0;
  copy.last_run_end_time_ = 0;
  copy.sealed_ = true;
  return copy;
}

namespace {

[[noreturn]] void restore_error(const std::string& what) {
  throw std::runtime_error("EventEngine::restore: " + what);
}

// Whether `ids` ascends strictly and every id passes `valid`.
template <typename Id, typename Valid>
bool ascending(const std::vector<Id>& ids, Valid valid) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!valid(ids[i]) || (i > 0 && ids[i] <= ids[i - 1])) return false;
  }
  return true;
}

// Rejects every per-node vector of the wrong size and every id in `state`
// that does not fit `inst`, before anything indexes with it (the other
// sizes are already checked).  One pass over the state with one scratch
// vector: restore stays linear in the state's size.
void check_contents(const core::Instance& inst, const EngineState& state) {
  const std::size_t n = inst.node_count();
  const std::size_t paths = inst.exits().size();
  const auto& sessions = inst.sessions();
  const auto is_session = [&](NodeId u, NodeId v) {
    return u < n && v < n && sessions.has_session(u, v);
  };
  const auto is_path = [&](PathId p) { return p < paths; };
  const auto is_path_or_none = [&](PathId p) { return p < paths || p == kNoPath; };

  for (std::size_t i = 0; i < state.queue.size(); ++i) {
    const Event& e = state.queue[i];
    const auto fail = [&](const std::string& what) {
      restore_error("queue entry " + std::to_string(i) + " (kind " +
                    std::to_string(static_cast<int>(e.kind)) + "): " + what);
    };
    const auto pair = [&](const char* sep) {
      return std::to_string(e.from) + sep + std::to_string(e.to);
    };
    switch (e.kind) {
      case EventKind::kEbgpAnnounce:
      case EventKind::kEbgpWithdraw:
        if (!is_path(e.path)) fail("path " + std::to_string(e.path) + " out of range");
        if (e.to != inst.exits()[e.path].exit_point) {
          fail("node " + std::to_string(e.to) + " is not the exit point of its path");
        }
        break;
      case EventKind::kUpdate:
        if (!is_path(e.path)) fail("path " + std::to_string(e.path) + " out of range");
        [[fallthrough]];
      case EventKind::kMraiFlush:
      case EventKind::kEndOfRib:
      case EventKind::kSessionDown:
      case EventKind::kSessionUp:
        if (!is_session(e.from, e.to)) fail(pair("->") + " is not a session");
        break;
      case EventKind::kCrash:
      case EventKind::kRestart:
      case EventKind::kGracefulDown:
      case EventKind::kStaleExpire:
        if (e.from >= n) fail("node " + std::to_string(e.from) + " out of range");
        break;
      case EventKind::kLinkCostChange:
      case EventKind::kLinkDown:
      case EventKind::kLinkUp:
        if (e.from >= n || e.to >= n || !inst.physical().find_link(e.from, e.to)) {
          fail(pair("-") + " is not a link");
        }
        if (e.kind == EventKind::kLinkCostChange && (e.cost <= 0 || e.cost >= kInfCost)) {
          fail("cost " + std::to_string(e.cost) + " is not a positive finite metric");
        }
        break;
      default:
        restore_error("pending event with unknown kind");
    }
  }

  std::vector<char> is_peer(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeState& node = state.nodes[v];
    const auto fail = [&](const char* field, std::size_t index, const char* what) {
      restore_error("node " + std::to_string(v) + " " + field + "[" + std::to_string(index) +
                    "] is not an ascending list of " + what);
    };
    const auto peers = sessions.peers(v);
    if (node.holders.size() != paths || node.stale.size() != paths ||
        node.own.size() != paths) {
      restore_error("node " + std::to_string(v) + ": per-path vector size mismatch");
    }
    if (node.advertised_out.size() != peers.size() || node.desired_out.size() != peers.size() ||
        node.mrai_ready.size() != peers.size() || node.flush_scheduled.size() != peers.size()) {
      restore_error("node " + std::to_string(v) + ": per-peer vector size mismatch");
    }
    for (const NodeId w : peers) is_peer[w] = 1;
    const auto is_peer_of_v = [&](NodeId w) { return w < n && is_peer[w] != 0; };
    for (PathId p = 0; p < paths; ++p) {
      if (!ascending(node.holders[p], is_peer_of_v)) fail("holders", p, "session peers");
      if (!ascending(node.stale[p], is_peer_of_v)) fail("stale", p, "session peers");
    }
    for (const NodeId w : peers) is_peer[w] = 0;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      if (!ascending(node.advertised_out[i], is_path)) fail("advertised_out", i, "path ids");
      if (!ascending(node.desired_out[i], is_path)) fail("desired_out", i, "path ids");
    }
    if (node.best && !is_path(node.best->path)) {
      restore_error("node " + std::to_string(v) + " best path out of range");
    }
    if (!is_path_or_none(state.fib[v])) {
      restore_error("node " + std::to_string(v) + " fib path out of range");
    }
  }
  for (const auto& record : state.fib_log) {
    if (record.node >= n || !is_path_or_none(record.old_path) ||
        !is_path_or_none(record.new_path)) {
      restore_error("fib_log entry at time " + std::to_string(record.time) + " out of range");
    }
  }
}

}  // namespace

void EventEngine::restore(const EngineState& state) {
  if (sealed_) {
    throw std::logic_error(
        "EventEngine::restore: engine already sealed (restore requires a fresh "
        "engine; attach delay/injector/metrics/trace first, then restore)");
  }
  // Identity guard: refuse a snapshot of a different scenario outright.
  if (state.instance != inst_->name()) restore_error("instance name mismatch");
  if (state.protocol != core::protocol_name(protocol_)) restore_error("protocol mismatch");
  if (state.node_count != inst_->node_count()) restore_error("node count mismatch");
  if (state.path_count != inst_->exits().size()) restore_error("path count mismatch");
  if (state.link_count != link_state_.link_count()) restore_error("link count mismatch");

  const std::size_t n = inst_->node_count();
  const std::size_t paths = inst_->exits().size();
  if (state.nodes.size() != n) restore_error("node snapshot count mismatch");
  if (state.session_last_delivery.size() != n * n || state.session_epoch.size() != n * n ||
      state.session_admin_down.size() != n * n) {
    restore_error("session vector size mismatch");
  }
  // Only session pairs may carry state.  Non-zero entries are few, so scan
  // for them and look each one up.
  const auto require_session = [&](std::size_t dense) {
    const auto u = static_cast<NodeId>(dense / n);
    const auto v = static_cast<NodeId>(dense % n);
    if (!inst_->sessions().has_session(u, v)) {
      restore_error("session state for " + std::to_string(u) + "->" + std::to_string(v) +
                    ", which is not a session");
    }
  };
  for (std::size_t dense = 0; dense < n * n; ++dense) {
    if ((state.session_last_delivery[dense] | state.session_epoch[dense]) != 0) {
      require_session(dense);
    }
  }
  const auto& admin_down = state.session_admin_down;
  for (auto it = std::find(admin_down.begin(), admin_down.end(), true); it != admin_down.end();
       it = std::find(std::next(it), admin_down.end(), true)) {
    require_session(static_cast<std::size_t>(it - admin_down.begin()));
  }
  if (state.node_up.size() != n || state.graceful_down.size() != n ||
      state.gr_generation.size() != n || state.fib.size() != n ||
      state.fib_frozen.size() != n || state.decisions_by_node.size() != n ||
      state.flips_by_node.size() != n) {
    restore_error("per-node vector size mismatch");
  }
  if (state.ebgp_live.size() != paths) restore_error("ebgp_live size mismatch");
  if (state.link_cost.size() != state.link_count ||
      state.link_down.size() != state.link_count) {
    restore_error("link vector size mismatch");
  }
  // The SPF kernel takes only positive finite costs, or kInfCost for down.
  const auto finite = [](Cost cost) { return cost > 0 && cost < kInfCost; };
  if (!std::all_of(state.link_cost.begin(), state.link_cost.end(), finite)) {
    restore_error("link cost that is not a positive finite metric");
  }
  for (const auto& snapshot : state.igp_log) {
    if (snapshot.effective.size() != state.link_count) {
      restore_error("igp_log entry with wrong effective-vector length");
    }
    for (const Cost cost : snapshot.effective) {
      if (!finite(cost) && cost != kInfCost) restore_error("igp_log entry with a bad cost");
    }
  }
  if (state.faults_applied != state.fault_log.size()) {
    restore_error("faults_applied does not match the fault_log length");
  }
  check_contents(*inst_, state);

  // Underlay: replay configured costs and down flags onto a fresh
  // LinkState.  Every effective change is logged, so the current vector is
  // the last logged one (the base one before the first).
  netsim::LinkState link_state(inst_->physical());
  const std::vector<Cost> base_effective(link_state.effective().begin(),
                                         link_state.effective().end());
  for (std::size_t link = 0; link < state.link_count; ++link) {
    if (link_state.cost(link) != state.link_cost[link]) {
      link_state.set_cost(link, state.link_cost[link]);
    }
    if (state.link_down[link]) link_state.set_down(link);
  }
  const auto& logged =
      state.igp_log.empty() ? base_effective : state.igp_log.back().effective;
  if (!std::ranges::equal(link_state.effective(), logged)) {
    restore_error("link state does not match the last igp_log entry");
  }

  mrai_ = state.mrai;
  stale_timer_ = state.stale_timer;

  // Re-materialize the epoch history through the instance's memoized SPF
  // cache (same effective vector -> pointer-identical ShortestPaths, so
  // continuity replay and epoch-revert identities survive the round trip).
  // The current epoch is the last logged object itself, so every epoch the
  // engine uses stays alive in igp_log_, which the decision memo's keys
  // rely on; the memo itself starts empty.
  link_state_ = std::move(link_state);
  igp_log_.clear();
  igp_log_.reserve(state.igp_log.size());
  for (const auto& snapshot : state.igp_log) {
    auto epoch = inst_->igp_epoch(snapshot.effective);
    igp_log_.push_back({snapshot.time, epoch->fingerprint(), epoch, snapshot.effective});
  }
  igp_ = igp_log_.empty() ? inst_->igp_handle() : igp_log_.back().igp;
  memo_.assign(n, DecisionMemo{});

  nodes_ = state.nodes;
  // The export cache is derived: each node's first reconsider re-derives
  // its verdicts and runs the full peer loop.
  for (ExportCache& cache : export_) {
    cache.verdicts.clear();
    cache.resync = true;
  }
  for (NodeId u = 0; u < n; ++u) {
    const auto peers = inst_->sessions().peers(u);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      SessionSlot& session = slot(u, i);
      const std::size_t dense = u * n + peers[i];
      session.last_delivery = state.session_last_delivery[dense];
      session.epoch = state.session_epoch[dense];
      session.admin_down = state.session_admin_down[dense];
    }
  }
  node_up_ = state.node_up;
  graceful_down_ = state.graceful_down;
  gr_generation_ = state.gr_generation;
  fib_ = state.fib;
  fib_frozen_ = state.fib_frozen;
  ebgp_live_ = state.ebgp_live;
  queue_.assign(state.queue);
  next_seq_ = state.next_seq;
  session_msg_seq_ = state.session_msg_seq;
  counters_ = state;
  flips_by_node_ = state.flips_by_node;
  flap_log_ = state.flap_log;
  fault_log_ = state.fault_log;
  fib_log_ = state.fib_log;

  resume_deliveries_ = state.deliveries;
  resume_end_time_ = state.end_time;
  last_run_deliveries_ = 0;
  last_run_end_time_ = 0;
  max_queue_depth_ = queue_.size();

  // The snapshot already embeds scheduled work; further set_* configuration
  // would silently diverge from the captured run, so freeze it now.
  sealed_ = true;
}

}  // namespace ibgp::engine
