#pragma once
// Event-driven (message-passing) I-BGP simulator.
//
// Where the synchronous engine executes the paper's abstract config(t)
// semantics, this engine models the *operational* protocol: per-session FIFO
// UPDATE delivery with arbitrary per-message delays, Adj-RIB-In per peer,
// and RFC-1966-style reflection rules keyed on the peer class a route was
// learned from:
//
//   at a reflector:  own E-BGP route          -> all peers
//                    learned from a client    -> all peers except originator
//                    learned from a non-client-> own clients only
//   at a client:     own E-BGP route          -> all peers
//                    learned via I-BGP        -> nobody
//
// The advertised *content* is protocol-dependent (core::decide): the single
// best route (standard), the per-AS best vector (Walton), or GoodExits (the
// paper's modified protocol, which is essentially BGP add-paths for the
// MED-survivor set).  Withdraws are path-addressed, matching the add-paths
// abstraction; for the standard protocol this coincides with classic
// single-route announce/implicit-withdraw behavior.
//
// Message delays are the paper's source of *transient* oscillation (Fig 3 /
// Table 1): the same topology converges or flaps depending on the delay
// script.  Delays come from a caller-provided function of (from, to, seq);
// FIFO order per directed session is enforced regardless of the function.
//
// Beyond delays, the engine models the *failures* that drive real I-BGP
// churn (the src/fault/ harness scripts them):
//
//   - session down/up: a downed session voids its in-flight messages, both
//     endpoints flush every Adj-RIB-In entry learned over it (the Lemma 7.2
//     flush discipline applied to peer state), and re-establishment replays
//     a full advertisement sync, as a real OPEN/initial-table exchange does;
//   - router crash/restart: a crash downs every session of the router and
//     erases its entire state; on restart it re-learns its own E-BGP routes
//     (external neighbors still advertise them) and peers re-sync;
//   - per-message loss/duplication: a FaultInjector policy hook alongside
//     DelayFn.  Loss models transport failure — since BGP runs over TCP, a
//     lost UPDATE in reality means retransmission failure and hold-timer
//     expiry, so injectors typically answer a drop by scheduling a session
//     reset (ScriptInjector in fault/script.hpp does exactly this).
//
// The engine core stays fault-agnostic: faults enter only through the
// schedule_* calls and the FaultInjector hook, and every fault is an event
// in the same deterministic (time, seq) order as message deliveries, so a
// fault campaign is exactly reproducible from its script.
//
// Graceful restart (RFC 4724 semantics, router-level).  A *cold* crash is
// maximally disruptive: peers flush every route learned from the victim and
// the victim's forwarding plane dies with its control plane.  A *graceful*
// restart models a control-plane-only reboot with stale-path retention.
// The state machine, per restarting router v:
//
//   UP --graceful_down--> RESTARTING --restart--> UP        (warm recovery)
//                         RESTARTING --crash-->   DOWN      (restart failed)
//
//   graceful_down(v): v's sessions stop carrying messages (in-flight
//     UPDATEs are voided) and v loses its control-plane state, but each
//     peer *retains* its Adj-RIB-In entries from v, marked STALE — still
//     eligible for selection, advertisement, and forwarding.  v's
//     forwarding entry (the FIB, tracked separately from the best route)
//     freezes at its pre-restart value: the data plane keeps forwarding.
//   restart(v) while RESTARTING: v re-learns its live E-BGP exits, replays
//     its initial table to every peer, then emits an End-of-RIB marker per
//     session (FIFO-ordered after the replayed UPDATEs).  A peer receiving
//     the EoR sweeps whatever entries from v are *still* stale — anything
//     the replay did not refresh is gone for real.  v's FIB stays frozen
//     through the resync: it thaws (and resumes mirroring the best route)
//     only once v computes its first post-restart best route, so the
//     restarting router never blackholes while its table refills.
//   stale timer (set_stale_timer): bounds retention per restart.  If it
//     expires before the EoR arrived, every still-stale entry from v is
//     cold-flushed at its holder, and a still-frozen FIB at v thaws to the
//     current best route (usually none) — the restart-never-completes
//     degradation path.  0 disables the timer (retain until EoR).
//   crash(v) while RESTARTING: retention collapses — peers cold-flush v's
//     stale entries and v's frozen FIB is erased.
//
// End-of-RIB markers ride the normal per-session delay/FIFO machinery but
// bypass the FaultInjector: transport loss is already modeled by the
// injector's session-reset repair, which flushes stale state wholesale.
// The per-node FIB history (fib_log) plus the fault log let
// analysis/continuity replay forwarding tick-by-tick and price blackhole,
// stale-use, and loop windows — the quantitative cold-vs-graceful verdict.
//
// IGP topology churn (link-cost / link-failure faults).  The paper defines
// a route as an IGP shortest path plus an exit path (Section 4), so the
// underlay is a decision input, not scenery.  The engine therefore holds a
// mutable LinkState over the instance's physical links and a *current IGP
// epoch* — a shared_ptr<const ShortestPaths> swapped atomically (in virtual
// time) by three fault events:
//
//   - link_cost_change(a, b, c): the administrative metric of link a—b
//     becomes c (a change on a down link only retargets the later link-up);
//   - link_down(a, b): the link fails (effective cost = infinity);
//   - link_up(a, b): the link returns at its configured cost.
//
// Applying one of these recomputes shortest paths deterministically through
// the instance's memoized SPF cache (Instance::igp_epoch — the same
// link-state vector never runs Dijkstra twice, across engines and sweep
// cells), then:
//
//   1. I-BGP sessions whose endpoints lost IGP reachability are severed via
//      the existing session machinery (TCP cannot cross a partition):
//      in-flight messages epoch-void, both ends flush, exactly as a session
//      fault would.  session_up() is false while a session is IGP-severed;
//      reachability returning triggers the normal full-resync replay.
//   2. Every up node re-evaluates PossibleExits/BestRoute against the new
//      distances (selection prices candidates with the current epoch), and
//      the net-diff send logic re-advertises only where the selected or
//      advertised set actually changed.
//
// The epoch history (igp_log) joins the FIB and fault logs so
// analysis/continuity can replay forwarding against the IGP that was live
// in each interval, and analysis/invariants can assert post-quiescence that
// every selected route's metric matches the *current* graph.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/selection.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "netsim/link_state.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace ibgp::engine {

using SimTime = std::uint64_t;

/// Fate of one UPDATE message, decided at send time.
enum class MessageFate : std::uint8_t { kDeliver, kDrop, kDuplicate };

/// Categories of injected faults, as recorded in the fault log.
/// kGracefulDown starts a graceful restart; kStaleExpire is logged when a
/// stale timer fires and actually cold-flushes retained entries.
enum class FaultKind : std::uint8_t {
  kSessionDown,
  kSessionUp,
  kCrash,
  kRestart,
  kGracefulDown,
  kStaleExpire,
  kLinkCostChange,
  kLinkDown,
  kLinkUp,
};

/// Display name ("session-down", ...).
const char* fault_kind_name(FaultKind kind);

/// Thrown by run() when a wall-clock deadline (set_deadline) expires.  The
/// engine is left between events, so the caller can retry the whole cell
/// from scratch (the deterministic discipline makes retries byte-identical)
/// or record a structured timeout — the fault supervisor does both.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class EventEngine;
struct EngineState;

/// Causal-lineage sentinel: an event with pid == kNoCause is a root — it was
/// scheduled from outside event processing (scenario script, daemon ingest)
/// rather than caused by another delivery.  Trace records omit "pid" for
/// roots, which is how ibgp-trace-v2 consumers recognize injection points.
inline constexpr std::uint64_t kNoCause = ~std::uint64_t{0};

/// Per-message fault policy: classify() is keyed on the same (from, to, seq)
/// triple as DelayFn so implementations can be pure functions of a seed —
/// fully deterministic regardless of call order.  on_drop() fires right
/// after a message was discarded and may schedule repair faults on the
/// engine (e.g. the session reset a real hold-timer expiry would cause).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual MessageFate classify(NodeId from, NodeId to, std::uint64_t seq) = 0;
  virtual void on_drop(EventEngine& engine, NodeId from, NodeId to, SimTime now);
};

/// Kinds of queued events; the values are the ibgp-ckpt-v1 encoding.
enum class EventKind : std::uint8_t {
  kEbgpAnnounce,
  kEbgpWithdraw,
  kUpdate,
  kMraiFlush,
  kSessionDown,
  kSessionUp,
  kCrash,
  kRestart,
  kGracefulDown,
  kEndOfRib,        // from -> to marker closing a graceful-restart replay
  kStaleExpire,     // from = restarting router whose stale timer fired
  kLinkCostChange,  // from—to = physical link endpoints, cost = new metric
  kLinkDown,
  kLinkUp,
};

/// One queued event.  (time, seq) is unique and fixes the pop order.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;  // global tie-break preserving enqueue order
  std::uint64_t pid = kNoCause;  // seq of the causing event (kNoCause = root)
  EventKind kind = EventKind::kUpdate;
  NodeId from = kNoNode;  // kUpdate / kMraiFlush / session faults (endpoint a)
  NodeId to = kNoNode;
  PathId path = kNoPath;
  bool announce = true;      // kUpdate: announce vs withdraw
  std::uint64_t epoch = 0;   // kUpdate/kEndOfRib/kMraiFlush: voided if the
                             // session reset since scheduling; kStaleExpire:
                             // the graceful-restart generation it guards
                             // (stale timers of an older restart must not
                             // fire into a newer one)
  Cost cost = 0;             // kLinkCostChange: the new metric
  bool operator==(const Event&) const = default;
};

/// One router's protocol state: Adj-RIB-In, own E-BGP routes, best route,
/// and what it sent (or will send) to each session peer.
struct NodeState {
  /// holders[p] = session peers currently announcing p to us, ascending.
  std::vector<std::vector<NodeId>> holders;
  /// stale[p] ⊆ holders[p]: entries retained across the peer's graceful
  /// restart, pending refresh (re-announce), EoR sweep, or timer expiry.
  std::vector<std::vector<NodeId>> stale;
  /// Own E-BGP paths currently injected.
  std::vector<bool> own;
  std::optional<bgp::RouteView> best;
  /// advertised_out[peer_index] = path set last sent to that peer.
  std::vector<std::vector<PathId>> advertised_out;
  /// MRAI state per peer: the latest desired set, the earliest next send
  /// time, and whether a flush event is already scheduled.
  std::vector<std::vector<PathId>> desired_out;
  std::vector<SimTime> mrai_ready;
  std::vector<bool> flush_scheduled;
  bool operator==(const NodeState&) const = default;
};

/// The engine's deterministic counters, cumulative over a run and across
/// its checkpoints.  EventEngine::Result and EngineState inherit them.
struct EngineCounters {
  std::uint64_t updates_sent = 0;         ///< announce+withdraw messages enqueued
  std::uint64_t deliveries_voided = 0;    ///< in-flight messages killed by session resets
  std::uint64_t messages_dropped = 0;     ///< voided by the FaultInjector
  std::uint64_t messages_duplicated = 0;  ///< extra copies enqueued
  std::uint64_t best_flips = 0;           ///< total best-route changes
  std::uint64_t mrai_deferrals = 0;       ///< peer syncs batched by the MRAI hold-down
  std::uint64_t faults_applied = 0;       ///< fault_log() entries
  std::uint64_t eor_markers_sent = 0;     ///< End-of-RIB markers enqueued
  std::uint64_t stale_retained = 0;       ///< Adj-RIB-In entries marked stale
  std::uint64_t stale_swept_eor = 0;      ///< stale entries swept by an EoR
  std::uint64_t stale_swept_expired = 0;  ///< stale entries cold-flushed by the timer
  std::uint64_t igp_epoch_swaps = 0;      ///< link faults that installed a new IGP epoch
  // --- decision provenance (bgp::SelectionProvenance, aggregated) ---------
  /// reconsider() selections that produced a best route; equals the sum of
  /// decisions_by_rule (tested in test_obs).
  std::uint64_t decisions_total = 0;
  std::uint64_t decisions_empty = 0;  ///< selections with no usable route
  /// decisions_by_rule[rule_index(r)] = selections where r was decisive.
  std::array<std::uint64_t, bgp::kSelectionRuleCount> decisions_by_rule{};
  /// Per-node decisive-rule histogram, indexed by NodeId.
  std::vector<std::array<std::uint64_t, bgp::kSelectionRuleCount>> decisions_by_node;
};

/// One scalar counter of EngineCounters and its names: `name` in Result and
/// ibgp-journal-v1, `metric` in the registry, `ckpt` in ibgp-ckpt-v1's
/// "counters" block (nullptr: not stored there, derived on load).
struct CounterField {
  const char* name;
  const char* metric;
  const char* ckpt;
  std::uint64_t EngineCounters::*member;
};

/// Every scalar counter, in metric registration order.  Adding a counter
/// takes a member above, a row here, and its increment.
inline constexpr std::array kEngineCounters{
    CounterField{"updates_sent", "engine.updates_sent", "updates_sent",
                 &EngineCounters::updates_sent},
    CounterField{"deliveries_voided", "engine.deliveries_voided", "deliveries_voided",
                 &EngineCounters::deliveries_voided},
    CounterField{"messages_dropped", "engine.messages_dropped", "messages_dropped",
                 &EngineCounters::messages_dropped},
    CounterField{"messages_duplicated", "engine.messages_duplicated", "messages_duplicated",
                 &EngineCounters::messages_duplicated},
    CounterField{"best_flips", "engine.best_flips", "best_flips", &EngineCounters::best_flips},
    CounterField{"mrai_deferrals", "engine.mrai_deferrals", "mrai_deferrals",
                 &EngineCounters::mrai_deferrals},
    CounterField{"faults_applied", "engine.faults_applied", nullptr,
                 &EngineCounters::faults_applied},
    CounterField{"eor_markers_sent", "engine.eor_markers_sent", "eor_sent",
                 &EngineCounters::eor_markers_sent},
    CounterField{"stale_retained", "engine.stale_retained", "stale_retained",
                 &EngineCounters::stale_retained},
    CounterField{"stale_swept_eor", "engine.stale_swept_eor", "stale_swept_eor",
                 &EngineCounters::stale_swept_eor},
    CounterField{"stale_swept_expired", "engine.stale_swept_expired", "stale_swept_expired",
                 &EngineCounters::stale_swept_expired},
    CounterField{"igp_epoch_swaps", "engine.igp_epoch_swaps", "igp_swaps",
                 &EngineCounters::igp_epoch_swaps},
    CounterField{"decisions_total", "engine.decisions", "decisions_total",
                 &EngineCounters::decisions_total},
    CounterField{"decisions_empty", "engine.decisions_empty", "decisions_empty",
                 &EngineCounters::decisions_empty},
};

class EventEngine {
 public:
  /// Delay (in ticks) of the seq-th message on the directed session
  /// from->to.  Defaults to constant 1.
  using DelayFn = std::function<SimTime(NodeId from, NodeId to, std::uint64_t seq)>;

  EventEngine(const core::Instance& inst, core::ProtocolKind protocol,
              DelayFn delay = {});

  /// Enables a MinRouteAdvertisementInterval: after flushing UPDATEs to a
  /// peer, further changes for that peer are batched and sent as one net
  /// diff once `interval` ticks have passed.  Models the rate-limiting /
  /// flap-dampening family of mitigations (Section 9 of the paper): they
  /// slow persistent oscillations down but cannot remove them — which
  /// bench_mrai measures.
  ///
  /// Precondition: must be called before any event is scheduled (inject_*,
  /// withdraw_*, schedule_*) or processed; a mid-run change would apply the
  /// new interval to per-peer hold-down state computed under the old one.
  /// Throws std::logic_error if the precondition is violated.
  void set_mrai(SimTime interval);

  /// Installs the per-message fault policy (non-owning; pass nullptr to
  /// clear).  Same precondition as set_mrai: before any event is scheduled,
  /// so every message of the run is classified under one policy.
  void set_fault_injector(FaultInjector* injector);

  /// Which of its metrics an engine pushes into an attached registry.
  enum class MetricScope : std::uint8_t {
    kAll,       ///< deterministic counters and volatile metrics
    kVolatile,  ///< only the volatile ones; the caller records the Result's
                ///< counters itself (record_engine_counters)
  };

  /// Attaches a metrics registry (non-owning; nullptr detaches).  The
  /// engine pushes its deterministic counters (deliveries, updates,
  /// per-rule decisions, MRAI deferrals, epoch swaps, ...) into the
  /// registry at the end of each run() — counter increments commute, so a
  /// registry shared across sweep workers stays byte-identical across
  /// --jobs (see obs/metrics.hpp) — unless `scope` is kVolatile.  The
  /// volatile metrics (queue depth, deliveries skipped by orbit jumps,
  /// spans) are pushed either way.  Metric names are pre-registered via
  /// register_event_engine_metrics(); attach before fan-out to keep
  /// snapshot ordering deterministic.  Same precondition as set_mrai: must
  /// be called before any event is scheduled.
  void set_metrics(obs::MetricsRegistry* registry, MetricScope scope = MetricScope::kAll);

  /// Attaches a trace sink (non-owning; nullptr detaches).  When the sink
  /// is enabled the engine emits ibgp-trace-v2 records for deliveries,
  /// E-BGP announce/withdraw, selection decisions (with the decisive rule),
  /// fault applications, IGP epoch swaps, MRAI flushes, and End-of-RIB
  /// markers — plus a meta/node/path preamble so downstream tools can label
  /// ids.  v2 adds causal lineage: each record carries "lid" (the event seq
  /// being processed) and "pid" (the seq of the event that caused it;
  /// omitted for injection roots), forming a per-run propagation DAG with
  /// pid < lid by construction.  v1 consumers that skip unknown fields keep
  /// working.  Disabled or absent sinks cost one branch per site.  Same
  /// precondition as set_mrai: must be called before any event is scheduled.
  void set_trace(obs::TraceSink* trace);

  /// Enables hot-path profiler spans: delivery, selection (core::decide),
  /// and per-peer export/Transfer wall times observed into volatile
  /// span histograms (engine.span.*_ns) on the attached registry.  Off by
  /// default; when off the instrumented sites cost one null-pointer branch
  /// and never read the clock, so the deterministic outputs stay
  /// bit-identical (same bar as the provenance-sink specialization).
  /// Enabled spans are *sampled*: 1 in 64 deliveries is timed (the first
  /// always is), with the delivery's nested decision/transfer spans armed
  /// together so per-sample nesting stays coherent.  The quantiles remain
  /// statistically sound at churn rates while the amortized clock cost
  /// keeps enabled overhead well under the 5% CI gate.
  /// Requires set_metrics first (no-op sink otherwise).  Same precondition
  /// as set_mrai: must be called before any event is scheduled.
  void set_profile(bool enabled);

  /// Bounds stale-path retention per graceful restart: `ticks` after a
  /// graceful down, any entry from the restarting router that is still
  /// stale is cold-flushed at its holder (the restart-never-completes
  /// degradation path).  0 (default) disables the timer: peers retain
  /// stale paths until the End-of-RIB marker.  Same precondition as
  /// set_mrai: must be called before any event is scheduled.
  void set_stale_timer(SimTime ticks);

  // --- scenario scripting ---------------------------------------------------

  /// Schedules E-BGP injection of path p at its exit point at `when`.
  void inject_exit(PathId p, SimTime when);

  /// Injects every registered exit path at time `when`.
  void inject_all_exits(SimTime when = 0);

  /// Schedules an E-BGP withdrawal of path p at `when`.
  void withdraw_exit(PathId p, SimTime when);

  // --- fault scripting ------------------------------------------------------

  /// Schedules an administrative down of session u—v: in-flight messages on
  /// it are voided, both endpoints flush routes learned over it (stale
  /// retention included — an admin down during a peer's graceful restart
  /// kills retention on that session).  Downing an already-down session is
  /// a well-defined no-op (nothing is logged or flushed twice).  Throws
  /// std::invalid_argument if u—v is not a session.
  void schedule_session_down(NodeId u, NodeId v, SimTime when);

  /// Schedules re-establishment of session u—v; both endpoints replay a
  /// full advertisement sync (no-op while an endpoint is crashed: the
  /// session only carries traffic once both ends are up).  Raising a
  /// session that is not administratively down is a well-defined no-op.
  void schedule_session_up(NodeId u, NodeId v, SimTime when);

  /// Schedules a crash of router v: all its sessions drop, all its state
  /// (Adj-RIB-In, best route, advertised sets, own E-BGP routes) is lost.
  /// Crashing mid-graceful-restart converts the warm recovery to cold:
  /// peers flush v's stale entries and v's frozen forwarding entry dies.
  /// Crashing an already-cold-down router is a well-defined no-op.
  void schedule_crash(NodeId v, SimTime when);

  /// Schedules a restart of router v: it re-learns whatever E-BGP routes
  /// are still live at its exit point and re-syncs with its peers.  After a
  /// graceful down this completes the warm recovery: the initial-table
  /// replay is followed by an End-of-RIB marker per session, on whose
  /// arrival the peer sweeps still-stale entries.  Restarting a router
  /// that is not down is a well-defined no-op (nothing is logged).
  void schedule_restart(NodeId v, SimTime when);

  /// Schedules a graceful restart of router v (RFC 4724 semantics): v's
  /// control plane goes down and its sessions stop carrying messages, but
  /// peers retain v's routes as STALE and v's forwarding entry freezes at
  /// its pre-restart value.  Pair with schedule_restart for the recovery;
  /// see set_stale_timer for the bounded-retention degradation path.
  /// Graceful down of an already-down router is a well-defined no-op.
  /// Throws std::invalid_argument if v is not a node.
  void schedule_graceful_down(NodeId v, SimTime when);

  /// Schedules an IGP metric change on physical link a—b: its administrative
  /// cost becomes `cost` at `when`, a new shortest-paths epoch is swapped in
  /// (deterministically memoized in the instance's SPF cache), and every up
  /// node re-evaluates its decision against the new distances.  Changing the
  /// cost of a *down* link swaps no epoch — it only retargets the eventual
  /// link-up.  A change to the current cost is a well-defined no-op.  Throws
  /// std::invalid_argument if a—b is not a physical link or `cost` is not a
  /// positive finite metric.
  void schedule_link_cost_change(NodeId a, NodeId b, Cost cost, SimTime when);

  /// Schedules a failure of physical link a—b at `when`: its effective cost
  /// becomes infinite, a new epoch is swapped in, and any I-BGP session
  /// whose endpoints lost IGP reachability is severed exactly as a session
  /// fault would (in-flight messages voided, both ends flushed); such
  /// sessions stay down (session_up() false) until reachability returns.
  /// Downing an already-down link is a well-defined no-op.  Throws
  /// std::invalid_argument if a—b is not a physical link.
  void schedule_link_down(NodeId a, NodeId b, SimTime when);

  /// Schedules repair of physical link a—b at `when`: it returns at its
  /// configured cost (as adjusted by any cost changes, including ones made
  /// while it was down).  Sessions that regain IGP reachability resume and
  /// replay a full advertisement sync.  Raising an up link is a well-defined
  /// no-op.  Throws std::invalid_argument if a—b is not a physical link.
  void schedule_link_up(NodeId a, NodeId b, SimTime when);

  // --- execution --------------------------------------------------------------

  /// Outcome of a run: the stop condition plus every counter (inherited).
  struct Result : EngineCounters {
    /// The event queue drained: nothing was left to do.  Independent of
    /// budget_exhausted — a run that spends its delivery budget on the very
    /// last event reports BOTH converged (drained) and budget_exhausted
    /// (the stop condition tripped), so "ran to quiescence" and "was cut
    /// off" are never conflated.
    bool converged = false;
    /// deliveries hit max_deliveries.  When converged is false this run was
    /// truncated: events_pending events (faults_pending of them scheduled
    /// faults) were still queued and silently never applied — consumers
    /// pricing fault timelines (settle time, continuity) must treat the
    /// history as incomplete past end_time.
    bool budget_exhausted = false;
    std::size_t events_pending = 0;  ///< events left unprocessed (0 iff converged)
    /// Unapplied fault events (session down/up, crash, restart, graceful
    /// down, stale-timer expiry) among events_pending, with the earliest
    /// one's time; next_fault_time is meaningful only when faults_pending
    /// is nonzero.  These are the script actions at or after end_time that
    /// a truncated run never got to.
    std::size_t faults_pending = 0;
    SimTime next_fault_time = 0;
    std::size_t deliveries = 0;  ///< events processed
    SimTime end_time = 0;        ///< virtual time of the last processed event
    std::vector<PathId> final_best;  ///< per node; kNoPath = no route
  };

  /// Processes events until the queue drains or `max_deliveries` is hit.
  /// On an engine restored from a checkpoint, deliveries/end_time continue
  /// from the captured run (so the budget and the returned Result are those
  /// of the equivalent uninterrupted run, not of the remainder).
  ///
  /// When nothing attached can tell two periods of an orbit apart (the
  /// engine was built without a DelayFn, and no fault injector, enabled
  /// trace sink or MRAI is attached), run() watches its tick boundaries for
  /// a state that recurs up to a shift in time and sequence numbers, and
  /// then accounts at once for every whole period the budget leaves before
  /// the earliest queued event that is not an UPDATE, such as a scripted
  /// fault (DESIGN.md §15).  Everything observable — the Result, capture(), the
  /// logs and every counter — equals what stepping each delivery gives;
  /// only the volatile metrics see the difference (engine.orbit.skipped).
  Result run(std::size_t max_deliveries = 1'000'000);

  /// Like run(), but also stops (without draining) as soon as the next
  /// pending event lies strictly after `horizon` — the cooperative stepping
  /// hook a long-lived service needs to interleave ingest with processing.
  /// It steps every delivery: it never jumps an orbit.
  /// Events AT the horizon are processed.  The returned Result's
  /// `converged` means "quiescent up to and including horizon": either the
  /// queue drained or everything left is scheduled later.  Repeated calls
  /// with increasing horizons are equivalent to one call with the final
  /// horizon (same deterministic (time, seq) order), which is what makes
  /// daemon replay-after-crash byte-identical to an uninterrupted run.
  Result run_until(SimTime horizon, std::size_t max_deliveries = 1'000'000);

  /// Arms (or, with nullopt, disarms) a cooperative wall-clock deadline for
  /// run(): checked every few thousand deliveries, an expired deadline makes
  /// run() throw DeadlineExceeded between two events.  Purely an execution
  /// guard — it never influences virtual-time behavior — so unlike the
  /// set_* configuration it may be changed at any point.
  void set_deadline(std::optional<std::chrono::steady_clock::time_point> deadline);

  // --- checkpoint / restore ---------------------------------------------------

  /// Snapshots the engine's complete deterministic state — pending events
  /// (the fault-script cursor lives in them), per-node RIBs/best/FIB, stale
  /// flags and GR generations, session epochs and FIFO clocks, MRAI holds,
  /// link state with the IGP epoch history, every log, all counters, and
  /// the cumulative deliveries/end_time of the run so far.  Callable
  /// between run() calls (never concurrently with one).  The snapshot is
  /// plain data: serialize it with ckpt::engine_state_text (ibgp-ckpt-v1).
  ///
  /// Not captured (by design): the delay function, fault injector, metrics
  /// registry, and trace sink — non-serializable attachments the restoring
  /// caller must re-create identically (fault/campaign.cpp rebuilds them
  /// from the cell's script and options); and the volatile
  /// max-queue-depth gauge input.
  [[nodiscard]] EngineState capture() const;

  /// Rebuilds the captured state into this engine, which must be freshly
  /// constructed over the *same* instance and protocol and still unsealed —
  /// configure set_mrai/set_stale_timer-equivalents via the state itself
  /// (restore overwrites both), but attach delay/injector/metrics/trace
  /// BEFORE calling restore, which seals the engine.  The next run() then
  /// continues bit-for-bit where capture() left off: resume ≡ uninterrupted.
  /// Throws std::logic_error when already sealed, std::runtime_error
  /// (naming the field) when the state does not match this
  /// instance/protocol, is malformed, or holds a node, path, session or
  /// link id the instance does not have; nothing is assigned then.
  void restore(const EngineState& state);

  /// An in-memory copy of this engine, for a sandbox that must not touch
  /// it: the copy's next run() and everything after it — Result (the
  /// cumulative deliveries/end_time base included, so a delivery budget
  /// cuts it off where it would cut the restored engine off), best routes,
  /// logs, trace hash and a later capture() — equal what capture() into a
  /// fresh engine plus restore() would give, without the round trip
  /// through EngineState or restore's validation.  Every attachment is
  /// detached: no fault injector, metrics registry (nor the cached metric
  /// handles), trace sink, profiler spans or deadline, so nothing the copy
  /// does reaches the parent's sinks.  The delay function is copied, so
  /// the copy shares whatever it refers to.  The copy is sealed, as a
  /// restored engine is.  Callable between run() calls (never concurrently
  /// with one).
  [[nodiscard]] EventEngine fork() const;

  // --- inspection -------------------------------------------------------------

  [[nodiscard]] const core::Instance& instance() const { return *inst_; }

  [[nodiscard]] PathId best_path(NodeId v) const {
    return nodes_.at(v).best ? nodes_.at(v).best->path : kNoPath;
  }
  [[nodiscard]] const std::optional<bgp::RouteView>& best(NodeId v) const {
    return nodes_.at(v).best;
  }
  /// Counters accumulated so far; run() reports them in its Result.
  [[nodiscard]] const EngineCounters& counters() const { return counters_; }
  [[nodiscard]] std::span<const std::size_t> flips_by_node() const { return flips_by_node_; }

  /// Whether router v's control plane is currently up (not crashed and not
  /// mid-graceful-restart).
  [[nodiscard]] bool node_up(NodeId v) const { return node_up_.at(v); }

  /// Whether router v is inside a graceful-restart window: control plane
  /// down (node_up(v) is false) but data plane still forwarding on its
  /// frozen FIB entry.
  [[nodiscard]] bool restarting(NodeId v) const { return graceful_down_.at(v); }

  /// Router v's current *forwarding* entry (the FIB).  Mirrors the best
  /// route while v is up, freezes during a graceful restart, and is
  /// kNoPath while cold-down.
  [[nodiscard]] PathId node_forwarding(NodeId v) const { return fib_.at(v); }

  /// Whether session u—v currently carries messages: both endpoints up, no
  /// administrative down in force, and the endpoints IGP-reachable under
  /// the current epoch (TCP cannot cross a partition).  False for a pair
  /// that shares no session.
  [[nodiscard]] bool session_up(NodeId u, NodeId v) const;

  /// The IGP epoch currently in force (the base igp() of the instance until
  /// the first effective link fault).
  [[nodiscard]] const netsim::ShortestPaths& igp() const { return *igp_; }

  /// Shared handle to the current epoch (epochs are immutable and memoized:
  /// two engines — or a churn revert — reaching the same link-state vector
  /// hold pointer-identical objects).
  [[nodiscard]] std::shared_ptr<const netsim::ShortestPaths> igp_handle() const {
    return igp_;
  }

  /// Current link state (configured costs, down flags, effective vector).
  [[nodiscard]] const netsim::LinkState& link_state() const { return link_state_; }

  /// Whether path p's E-BGP origin is currently announcing it (independent
  /// of whether its exit point is up to hear it).
  [[nodiscard]] bool ebgp_live(PathId p) const { return ebgp_live_.at(p); }

  /// Peers currently announcing p to v (v's Adj-RIB-In support for p),
  /// ascending node order.  Includes stale (retained) entries.
  [[nodiscard]] std::span<const NodeId> rib_in(NodeId v, PathId p) const {
    return nodes_.at(v).holders.at(p);
  }

  /// The subset of rib_in(v, p) currently marked stale (retained across a
  /// peer's graceful restart, not yet refreshed or swept), ascending.
  [[nodiscard]] std::span<const NodeId> stale_rib_in(NodeId v, PathId p) const {
    return nodes_.at(v).stale.at(p);
  }

  /// The path set `from` believes it has advertised to `to` (ascending).
  [[nodiscard]] std::span<const PathId> advertised_to(NodeId from, NodeId to) const;

  /// One best-route change at a node, for flap traces (Table 1 reports).
  struct FlapRecord {
    SimTime time = 0;
    NodeId node = kNoNode;
    PathId old_best = kNoPath;
    PathId new_best = kNoPath;
  };
  [[nodiscard]] std::span<const FlapRecord> flap_log() const { return flap_log_; }

  /// One applied fault, in application order.  `a`,`b` are the session
  /// endpoints for session faults, the link endpoints for link faults; `a`
  /// the router for crash/restart.  `cost` is the effective cost a link
  /// fault left the link at (kInfCost for link-down; 0 for non-link kinds).
  struct FaultRecord {
    SimTime time = 0;
    FaultKind kind = FaultKind::kSessionDown;
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    Cost cost = 0;
  };
  [[nodiscard]] std::span<const FaultRecord> fault_log() const { return fault_log_; }

  /// One IGP epoch swap: the shortest paths in force from `time` until the
  /// next record (the instance's base igp() is in force before the first).
  /// Together with fib_log and fault_log this lets analysis/continuity
  /// replay forwarding against the IGP that was live in each interval.
  struct IgpRecord {
    SimTime time = 0;
    std::uint64_t fingerprint = 0;  ///< ShortestPaths::fingerprint() of the epoch
    std::shared_ptr<const netsim::ShortestPaths> igp;
    /// The effective-cost vector that keyed this epoch.  Checkpoints store
    /// it so restore can re-materialize the epoch through the instance's
    /// memoized SPF cache (pointer-identical for the same vector).
    std::vector<Cost> effective;
  };
  [[nodiscard]] std::span<const IgpRecord> igp_log() const { return igp_log_; }

  /// One forwarding-entry (FIB) change at a node.  Together with the fault
  /// log this is a complete piecewise-constant history of the forwarding
  /// plane, which analysis/continuity replays tick-by-tick.
  struct FibRecord {
    SimTime time = 0;
    NodeId node = kNoNode;
    PathId old_path = kNoPath;
    PathId new_path = kNoPath;
  };
  [[nodiscard]] std::span<const FibRecord> fib_log() const { return fib_log_; }

 private:
  /// Copies every member, attachments included; fork() detaches them.
  EventEngine(const EventEngine&) = default;
  EventEngine& operator=(const EventEngine&) = delete;

  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// Min-heap on (time, seq) whose events capture and restore can reach.
  struct EventQueue : std::priority_queue<Event, std::vector<Event>, EventAfter> {
    [[nodiscard]] const std::vector<Event>& events() const { return c; }
    void assign(std::vector<Event> events) {
      c = std::move(events);
      std::make_heap(c.begin(), c.end(), comp);
    }
    /// Moves every UPDATE `dt` ticks later and `ds` seqs on, causes included
    /// (a root's kNoCause stays).  Other events keep their time and seq, so
    /// a shifted UPDATE may pass one: the heap is rebuilt.
    void shift_updates(SimTime dt, std::uint64_t ds) {
      for (Event& event : c) {
        if (event.kind != EventKind::kUpdate) continue;
        event.time += dt;
        event.seq += ds;
        if (event.pid != kNoCause) event.pid += ds;
      }
      std::make_heap(c.begin(), c.end(), comp);
    }
  };

  /// Class of a session peer relative to the exporting node, as the
  /// announcement rules see it (one bit each, so a verdict is a mask).
  enum PeerClass : std::uint8_t {
    kOwnClient = 1,         ///< a client in the exporter's cluster
    kClusterReflector = 2,  ///< a reflector in the exporter's cluster
    kOtherPeer = 4,         ///< anyone else (reflectors of other clusters)
    kAnyPeer = kOwnClient | kClusterReflector | kOtherPeer,
  };

  /// One advertised path's export verdict at a node: the peer classes it
  /// goes to, plus the two peers it never goes to whatever their class —
  /// its exit point (ORIGINATOR_ID) and the holder it is attributed to (no
  /// echo).  Paths sent nowhere get no verdict.
  struct ExportVerdict {
    PathId path = kNoPath;
    std::uint8_t classes = 0;  // PeerClass mask
    NodeId exit_point = kNoNode;
    NodeId source = kNoNode;  // kNoNode for own E-BGP paths
    bool operator==(const ExportVerdict&) const = default;
  };

  /// Send state of one directed session from -> to.
  struct SessionSlot {
    SimTime last_delivery = 0;  // FIFO enforcement
    std::uint64_t epoch = 0;    // bumped per reset, voids in-flight msgs
    bool admin_down = false;    // explicit session faults (set on both directions)
    std::uint8_t peer_class = 0;  // PeerClass of `to` seen from `from`; static
  };

  /// A node's export cache: derived from its NodeState, never captured.
  struct ExportCache {
    /// Export verdicts of the last reconsider.
    std::vector<ExportVerdict> verdicts;
    /// Clear only while every peer's advertised_out and desired_out equal
    /// the filter of `verdicts` for that peer; then an unchanged verdict
    /// list means nothing to send.  Set when a sync stops at a down session
    /// and whenever per-peer sets are cleared outside reconsider.
    bool resync = false;
  };

  /// Brent's cycle search over the tick boundaries of one run() (DESIGN.md
  /// §15).  The anchor is one boundary's protocol state in relative form —
  /// queued UPDATEs' times after the boundary, seqs and causes counted back
  /// from next_seq_, each slot's last_delivery only beyond now + 1 (FIFO
  /// cannot bind below it) — plus the run's totals there.  What the anchor
  /// leaves out (the queued events of other kinds, node and session modes,
  /// GR generations, E-BGP liveness, the IGP) changes only when a
  /// non-UPDATE event is processed, and processing one resets the watch.
  struct OrbitWatch {
    std::size_t boundaries = 0;  // boundaries met since the last reset
    std::vector<Event> queue;    // the current boundary's relative UPDATEs
    // The anchor: protocol state...
    std::vector<Event> anchor_queue;
    std::vector<NodeState> nodes;
    std::vector<PathId> fib;
    std::vector<bool> fib_frozen;
    std::vector<SimTime> slot_ahead;
    // ...and totals.
    std::size_t deliveries = 0;
    SimTime end_time = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t session_msg_seq = 0;
    EngineCounters counters;
    std::vector<std::size_t> flips_by_node;
    std::size_t flap_log_size = 0;
    std::size_t fib_log_size = 0;
  };

  /// At a tick boundary of a run that may jump: on a recurrence of the
  /// anchor, jumps every whole period the budget leaves short of the fence
  /// (the earliest queued non-UPDATE event); otherwise re-anchors at the
  /// 1st, 2nd, 4th, 8th... boundary.  Returns whether to keep watching.
  bool watch_orbit(OrbitWatch& watch, Result& result, std::size_t max_deliveries);
  /// Accounts for `periods` more repetitions of the period since the
  /// anchor, as stepping them would.
  void jump_orbit(const OrbitWatch& watch, Result& result, std::uint64_t periods);

  /// Throws std::logic_error once an event is scheduled: `setter` configures
  /// the whole run, so it must come first.
  void require_unsealed(const char* setter) const;
  void enqueue_update(NodeId from, std::size_t peer_index, PathId path, bool announce,
                      SimTime now);
  void push_update(NodeId from, NodeId to, SessionSlot& slot, PathId path, bool announce,
                   SimTime now, std::uint64_t msg_seq);
  void reconsider(NodeId u, SimTime now);
  /// Node u's verdict for advertised path p, attributed to `source`.
  [[nodiscard]] ExportVerdict export_verdict(NodeId u, PathId p, NodeId source) const;
  /// Sends the net diff desired_out -> advertised_out for one peer (MRAI
  /// permitting), or schedules the deferred flush.
  void sync_peer(NodeId u, std::size_t peer_index, SimTime now);
  [[nodiscard]] std::size_t peer_index(NodeId u, NodeId peer) const;

  /// The directed session from -> peers(from)[peer_index]; slots are laid
  /// out by sender, then peer rank, so a node's sessions are contiguous.
  [[nodiscard]] SessionSlot& slot(NodeId from, std::size_t peer_index) {
    return session_slots_[session_base_[from] + peer_index];
  }
  [[nodiscard]] SessionSlot& slot_to(NodeId from, NodeId to) {
    return slot(from, peer_index(from, to));
  }
  void push_fault(EventKind kind, NodeId a, NodeId b, SimTime when, Cost cost = 0);
  /// Throws std::invalid_argument unless a—b is a physical link.
  void require_link(NodeId a, NodeId b, const char* what) const;
  /// Applies a link fault: mutates link_state_ and, if the effective cost
  /// vector changed, swaps in the memoized epoch, severs sessions that lost
  /// IGP reachability, and re-evaluates every up node.
  void apply_link_fault(EventKind kind, NodeId a, NodeId b, Cost cost, SimTime now);
  void record_best_loss(NodeId v, SimTime now);
  /// Voids in-flight messages on u—v (both directions) and flushes both
  /// endpoints' per-session state (Adj-RIB-In entries, advertised sets).
  void sever_session(NodeId u, NodeId v);
  /// Bumps both directions' epochs (voiding in-flight messages) and forgets
  /// their FIFO history.
  void reset_session(NodeId u, NodeId v);
  /// Empties one peer's advertised/desired sets and MRAI hold-down; marks
  /// the node for a full resync.
  void clear_send_state(NodeId u, std::size_t peer_index);
  /// Clears everything node u tracks about session u—peer.
  void flush_endpoint(NodeId u, NodeId peer);
  /// Voids in-flight messages on v—w and resets both ends' send state, but
  /// leaves w's Adj-RIB-In entries from v in place, marked stale — the
  /// graceful analogue of sever_session.
  void detach_session_graceful(NodeId v, NodeId w);
  /// Records a FIB change for v (no-op when unchanged).
  void set_fib(NodeId v, PathId path, SimTime now);
  /// Drops every still-stale entry from v at peer w; returns entries swept.
  std::size_t sweep_stale_from(NodeId w, NodeId v);
  void send_end_of_rib(NodeId v, NodeId w, SimTime now);
  /// Appends to the fault log and mirrors the record into the trace.
  void record_fault(const FaultRecord& record);
  [[nodiscard]] bool tracing() const { return trace_ != nullptr && trace_->enabled(); }
  /// Pushes the counters accumulated since the last flush into metrics_
  /// (deltas, so repeated run() calls never double-count).
  void flush_metrics(const Result& result);
  Result run_impl(std::size_t max_deliveries, std::optional<SimTime> horizon);
  void emit_trace_preamble();
  void apply_session_down(NodeId u, NodeId v, SimTime now);
  void apply_session_up(NodeId u, NodeId v, SimTime now);
  void apply_crash(NodeId v, SimTime now);
  void apply_restart(NodeId v, SimTime now);
  void apply_graceful_down(NodeId v, SimTime now);
  void apply_end_of_rib(NodeId v, NodeId w, std::uint64_t epoch, SimTime now);
  void apply_stale_expire(NodeId v, std::uint64_t generation, SimTime now);

  const core::Instance* inst_;
  core::ProtocolKind protocol_;
  bool unit_delay_;  // built without a DelayFn: every message takes one tick
  DelayFn delay_;
  netsim::LinkState link_state_;  // mutable underlay state (costs + down flags)
  std::shared_ptr<const netsim::ShortestPaths> igp_;  // current epoch
  SimTime mrai_ = 0;  // 0 = disabled
  SimTime stale_timer_ = 0;  // 0 = retain until EoR
  FaultInjector* injector_ = nullptr;  // non-owning
  bool sealed_ = false;  // an event has been scheduled: config is frozen
  EventQueue queue_;
  std::vector<NodeState> nodes_;
  std::vector<ExportCache> export_;  // per node
  std::vector<std::size_t> session_base_;  // node -> its first slot in session_slots_
  std::vector<SessionSlot> session_slots_;  // one per directed session
  // Working buffers of reconsider(), kept to reuse their capacity.
  std::vector<bgp::Candidate> candidates_;
  std::vector<NodeId> sources_;  // attributed holder per candidate
  core::NodeDecision decision_;
  // Deliveries orbit jumps accounted for, not yet flushed into metrics_: a
  // volatile metric input, outside EngineCounters and every hash.
  std::uint64_t orbit_skipped_ = 0;
  std::vector<ExportVerdict> verdicts_;
  std::vector<PathId> target_;
  std::vector<bool> node_up_;
  std::vector<bool> graceful_down_;  // inside a graceful-restart window
  std::vector<std::uint64_t> gr_generation_;  // bumped per graceful down; guards timers
  std::vector<PathId> fib_;  // forwarding entries (frozen during graceful restart)
  // FIB freeze flag: set on graceful-down, cleared by the first post-restart
  // best route, a crash, or stale-timer expiry.  While set, reconsider()
  // does not push best-route changes into the FIB.
  std::vector<bool> fib_frozen_;
  std::vector<bool> ebgp_live_;  // per path: E-BGP origin currently announcing
  std::uint64_t next_seq_ = 0;
  std::uint64_t session_msg_seq_ = 0;
  // Checkpoint continuation: a restored engine starts its next run()'s
  // deliveries/end_time from these (consumed once); the end of every run()
  // records its cumulative totals so a later capture() can carry them.
  std::size_t resume_deliveries_ = 0;
  SimTime resume_end_time_ = 0;
  std::size_t last_run_deliveries_ = 0;
  SimTime last_run_end_time_ = 0;
  // Cooperative wall-clock guard (see set_deadline); never part of a hash.
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  EngineCounters counters_;
  std::size_t max_queue_depth_ = 0;  // volatile-metric input, not in any hash
  // Observability attachments (non-owning) and cached metric handles.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  struct MetricHandles {
    obs::Counter* deliveries = nullptr;
    std::array<obs::Counter*, kEngineCounters.size()> counters{};  // kEngineCounters order
    std::array<obs::Counter*, bgp::kSelectionRuleCount> decided{};
    obs::Gauge* queue_depth_max = nullptr;
    obs::Counter* orbit_skipped = nullptr;
  } handles_;
  /// Profiler span sinks (set_profile); null = off, sites never read the
  /// clock.  The span sites read the `live_*` pointers, armed once per
  /// delivery by arm(): every 64th delivery (and always the first) gets
  /// real sinks, the rest get null.  Sampling the whole delivery — outer
  /// span plus its nested decision/transfer spans — keeps each sample's
  /// nesting coherent and bounds enabled overhead to a fraction of a
  /// clock read per delivery.
  struct ProfileHandles {
    obs::Histogram* delivery = nullptr;
    obs::Histogram* decision = nullptr;
    obs::Histogram* transfer = nullptr;
    static constexpr std::uint32_t kSampleMask = 63;
    std::uint32_t tick = kSampleMask;  // first arm() samples
    obs::Histogram* live_delivery = nullptr;
    obs::Histogram* live_decision = nullptr;
    obs::Histogram* live_transfer = nullptr;
    void arm() {
      if (delivery == nullptr) return;  // off: live_* stay null
      const bool sample = (++tick & kSampleMask) == 0;
      live_delivery = sample ? delivery : nullptr;
      live_decision = sample ? decision : nullptr;
      live_transfer = sample ? transfer : nullptr;
    }
  } profile_;
  // Causal cursor: the (seq, pid) of the event currently being processed.
  // Set right after the queue pop in run_impl, reset to kNoCause between
  // runs so out-of-band injections (daemon ingest) become lineage roots.
  std::uint64_t cause_ = kNoCause;
  std::uint64_t cause_parent_ = kNoCause;
  /// Counter values already pushed into metrics_ (flush-delta state).
  EngineCounters flushed_;
  std::vector<std::size_t> flips_by_node_;
  std::vector<FlapRecord> flap_log_;
  std::vector<FaultRecord> fault_log_;
  std::vector<FibRecord> fib_log_;
  std::vector<IgpRecord> igp_log_;
};

/// Registers every metric EventEngine::flush_metrics touches, so a registry
/// shared across sweep workers acquires its (insertion-ordered) layout
/// deterministically on the main thread before fan-out.  Idempotent.
void register_event_engine_metrics(obs::MetricsRegistry& registry);

/// Adds a finished run's deterministic counters to `registry`, exactly as
/// an engine attached with MetricScope::kAll pushes them over the run:
/// engine.deliveries, every kEngineCounters row and engine.decided.*.
void record_engine_counters(obs::MetricsRegistry& registry,
                            const EventEngine::Result& result);

/// Complete deterministic engine state, as captured by EventEngine::capture
/// and rebuilt by EventEngine::restore.  Plain data by design: src/ckpt/
/// serializes it to the versioned ibgp-ckpt-v1 JSON format.  The queue and
/// the nodes are the engine's own Event and NodeState values, and the
/// counters its own EngineCounters; only the session slots and the IGP
/// underlay are translated, into the dense and effective-cost forms v1
/// stores.  The identity fields pin which (instance, protocol) the snapshot
/// belongs to; restore refuses a mismatch, and any id that does not fit the
/// instance, rather than silently corrupting state.
///
/// Two state families are deliberately absent: RNG cursors (every FaultScript
/// consumes its RNG at construction time and schedules all actions up front,
/// so the "script cursor" is exactly the pending fault events in `queue`;
/// ScriptInjector classifies messages as a pure hash of (seed, from, to,
/// seq), so it is stateless) and process attachments (delay fn, injector,
/// metrics, trace — re-created by the restoring caller).
struct EngineState : EngineCounters {
  // --- identity guard ---
  std::string instance;
  std::string protocol;
  std::uint64_t node_count = 0;
  std::uint64_t path_count = 0;
  std::uint64_t link_count = 0;

  // --- frozen configuration (restore installs these) ---
  SimTime mrai = 0;
  SimTime stale_timer = 0;

  /// Pending events in ascending (time, seq) order.
  std::vector<Event> queue;
  std::vector<NodeState> nodes;

  /// Directed-session state as dense node×node arrays (index from·n + to).
  /// Only session pairs carry state: restore rejects a non-zero entry for
  /// any other pair.
  std::vector<SimTime> session_last_delivery;
  std::vector<std::uint64_t> session_epoch;
  std::vector<bool> session_admin_down;
  std::vector<bool> node_up;
  std::vector<bool> graceful_down;
  std::vector<std::uint64_t> gr_generation;
  std::vector<PathId> fib;
  std::vector<bool> fib_frozen;
  std::vector<bool> ebgp_live;

  // --- IGP underlay: configured costs + down flags; the epoch history is
  // re-materialized through the instance's memoized SPF cache on restore ---
  std::vector<Cost> link_cost;
  std::vector<bool> link_down;
  struct IgpSnapshot {
    SimTime time = 0;
    std::vector<Cost> effective;
  };
  std::vector<IgpSnapshot> igp_log;

  std::uint64_t next_seq = 0;
  std::uint64_t session_msg_seq = 0;
  std::vector<std::size_t> flips_by_node;

  // --- logs (trace hashes and continuity replay read these) ---
  std::vector<EventEngine::FlapRecord> flap_log;
  std::vector<EventEngine::FaultRecord> fault_log;
  std::vector<EventEngine::FibRecord> fib_log;

  // --- Result continuation: cumulative deliveries/end_time so far ---
  std::uint64_t deliveries = 0;
  SimTime end_time = 0;
};

}  // namespace ibgp::engine
