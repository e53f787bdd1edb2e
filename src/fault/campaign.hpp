#pragma once
// Fault-campaign runner: one seeded FaultScript against one protocol, with
// an invariant verdict and a determinism fingerprint.
//
// This is the harness the resilience experiments build on (bench_faults,
// examples/fault_storm, tests/test_faults): inject every exit at t=0, let
// the scripted faults rain down, run to quiescence, then ask
// analysis/invariants whether the surviving state is consistent.  The
// trace_hash fingerprints the *entire observable history* — every
// best-route flap, every applied fault, drop/dup counts and the final
// routing — so two runs agree on the hash iff they behaved identically,
// which is how the `same seed -> same trace` guarantee is enforced.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "analysis/continuity.hpp"
#include "analysis/invariants.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "fault/script.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ibgp::fault {

struct CampaignOptions {
  std::size_t max_deliveries = 1'000'000;
  engine::EventEngine::DelayFn delay = {};  ///< forwarded to the engine
  engine::SimTime mrai = 0;
  /// Optional observability hookups, both non-owning and nullable.  The
  /// registry receives the engine's deterministic counters plus the
  /// campaign.* aggregates (pre-register via register_campaign_metrics so
  /// snapshot order is fixed before any parallel fan-out).  The trace sink
  /// receives the engine's ibgp-trace-v1 stream plus campaign verdict
  /// records; in ring mode, an unclean invariant verdict dumps the ring
  /// (flight-recorder semantics).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Hot-path profiler spans (engine.span.*): delivery, choose_best, and
  /// session-transfer wall time into volatile histograms of `metrics`.
  /// No-op without a registry; off by default because even a monotonic
  /// clock read per delivery is measurable on the microbenchmarks.
  bool profile = false;
  /// Wall-clock budget for the engine run; zero disables.  Cooperative:
  /// checked between events (EventEngine::set_deadline), an expired budget
  /// makes run_campaign throw engine::DeadlineExceeded.  Purely an
  /// execution guard — it never influences virtual-time behavior — used by
  /// the sweep supervisor (fault/supervisor.hpp) to fence runaway cells.
  std::chrono::milliseconds deadline{0};
};

/// Structured failure record for one supervised sweep cell: the campaign
/// threw instead of completing.  Under the supervisor's default (non-strict)
/// policy this record replaces the result — the rest of the sweep survives.
struct CellError {
  std::string message;         ///< the exception's what() text
  std::uint32_t attempts = 1;  ///< total attempts, retries included
  bool timed_out = false;      ///< DeadlineExceeded (vs a deterministic throw)
  /// Deadline budget (ms) granted to each attempt, in order — the
  /// supervisor's doubling-backoff history, so a timed-out cell is
  /// diagnosable from the sweep JSON alone ("failed even at 8x").
  std::vector<std::uint64_t> deadlines_tried;
};

struct CampaignResult {
  engine::EventEngine::Result run;          ///< raw engine outcome
  analysis::InvariantReport invariants;     ///< exact only when run.converged
  /// Tick-by-tick forwarding-plane accounting over the whole campaign
  /// (blackhole / stale-use / loop windows) — exact regardless of
  /// convergence, since it replays the engine's complete history.
  analysis::ContinuityReport continuity;
  std::uint64_t trace_hash = 0;             ///< fingerprint of the full history
  /// When the final *applied* fault landed.  A truncated run (see
  /// truncated()) may have scheduled faults it never reached; those are
  /// counted in run.faults_pending (earliest at run.next_fault_time), not
  /// here, so they cannot silently vanish from settle/continuity math.
  engine::SimTime last_fault_time = 0;
  /// Virtual ticks from the last applied fault to quiescence.  Engaged only
  /// when the run reconverged: 0 means "instantly settled" (quiescent at
  /// the last fault itself), while nullopt means "never settled" (budget
  /// truncation) — aggregators must not fold the two together.
  std::optional<engine::SimTime> settle_time;
  /// Engaged only on a supervised cell whose campaign threw (timeout or
  /// deterministic exception); every other field is then default-valued.
  std::optional<CellError> error;

  [[nodiscard]] bool failed() const { return error.has_value(); }
  [[nodiscard]] bool reconverged() const { return run.converged; }
  [[nodiscard]] bool healthy() const { return run.converged && invariants.clean(); }
  /// The delivery budget cut the campaign short: the history (and every
  /// statistic above) covers only [0, run.end_time).
  [[nodiscard]] bool truncated() const { return !run.converged; }
};

/// Runs the campaign: all exits injected at t=0, script faults + message
/// policy applied, engine run to quiescence or the delivery budget.
CampaignResult run_campaign(const core::Instance& inst, core::ProtocolKind protocol,
                            const FaultScript& script, const CampaignOptions& options = {});

/// Runs the same campaign as run_campaign but stops after
/// `deliveries_before_kill` deliveries and captures the engine state — the
/// "kill at this tick" half of the checkpoint/restore oracle (serialize the
/// state with ckpt::save_checkpoint).  Emits a "checkpoint" ibgp-trace-v1
/// marker when a trace sink is attached.  The metrics registry is
/// deliberately NOT attached to the partial run: counters flush on resume,
/// so the resumed registry matches the uninterrupted one exactly.
engine::EngineState campaign_checkpoint(const core::Instance& inst,
                                        core::ProtocolKind protocol,
                                        const FaultScript& script,
                                        const CampaignOptions& options,
                                        std::size_t deliveries_before_kill);

/// Resumes a campaign from a captured state: rebuilds the engine over the
/// same instance/protocol, re-creates the script's message policy, restores,
/// and runs to quiescence or the ORIGINAL budget (options.max_deliveries
/// counts cumulative deliveries, so pass the same options as the
/// uninterrupted run).  Guarantee (pinned by tests/test_ckpt.cpp): the
/// returned CampaignResult — Result, trace hash, invariants, continuity,
/// settle time — is identical to the uninterrupted run_campaign's, and a
/// fresh metrics registry ends up byte-identical too.  Emits a "resume"
/// marker when a trace sink is attached.
CampaignResult resume_campaign(const core::Instance& inst, core::ProtocolKind protocol,
                               const FaultScript& script,
                               const engine::EngineState& state,
                               const CampaignOptions& options);

/// Fingerprint of an engine's observable history (flap log, fault log,
/// final best routes, message-fate counters, decision-provenance tallies).
/// Exposed so callers driving the engine manually can make the same
/// determinism claim.
std::uint64_t trace_hash(const engine::EventEngine& engine,
                         const engine::EventEngine::Result& result);

/// Pre-registers every deterministic metric a campaign can touch —
/// campaign.* aggregates, the settle-time histogram and the full
/// engine.* family — so the registry's insertion order (and therefore its
/// snapshots and fingerprint) is fixed before cells fan out across worker
/// threads.  Idempotent.
void register_campaign_metrics(obs::MetricsRegistry& registry);

/// Records a finished campaign's deterministic metrics: its run's engine
/// counters (engine::record_engine_counters), the campaign.* aggregates
/// and the settle-time histogram.  A campaign's engine pushes only its
/// volatile metrics, and run_campaign, resume_campaign and a sweep cell
/// replayed from its journal all record through this one function, so the
/// registry is the same however the result was obtained.
void record_campaign_metrics(obs::MetricsRegistry& registry, const CampaignResult& campaign);

}  // namespace ibgp::fault
