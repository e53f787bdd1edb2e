#pragma once
// Deterministic parallel sweep runner for fault campaigns.
//
// A sweep is a vector of fully self-contained cells — (instance, protocol,
// FaultScript, CampaignOptions) — fanned across a worker pool
// (util/parallel).  Each cell builds its own EventEngine and draws all
// randomness from its script's seed, so no mutable state is shared between
// workers; results land in an index-aligned vector and every aggregate
// (the combined fingerprint, the JSON document, any bench table) is folded
// in cell-index order.  Consequence: `--jobs N` is byte-identical to
// `--jobs 1` — same per-cell trace hashes, same fingerprint, same JSON
// (wall-clock fields aside) — which tests/test_parallel.cpp and the CI
// smoke enforce.
//
// Caveat: CampaignOptions::delay is the one field that can smuggle shared
// state into a cell.  Leave it empty (constant delay) or pass a *pure*
// function of (from, to, seq); a closure over a shared RNG would make the
// sweep schedule-dependent and break the guarantee.
//
// sweep_json() serializes a sweep into the stable machine-readable schema
// the BENCH_*.json trajectory files use (see README "BENCH_*.json schema");
// wall-clock and job-count fields are the only run-dependent outputs and
// can be suppressed for byte-comparison.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "util/json.hpp"

namespace ibgp::fault {

/// One independent simulation cell.  `instance` is non-owning and must
/// outlive the sweep; `group` and `seed` are labels echoed into reports.
struct SweepCell {
  const core::Instance* instance = nullptr;
  core::ProtocolKind protocol = core::ProtocolKind::kModified;
  FaultScript script;
  CampaignOptions options;
  std::string group;
  std::uint64_t seed = 0;
};

struct SweepResult {
  /// Per-cell outcomes, index-aligned with the input cells.
  std::vector<CampaignResult> cells;
  /// Order-dependent fold of every cell's trace hash, in cell-index order:
  /// the whole sweep's determinism fingerprint.
  std::uint64_t fingerprint = 0;
  std::size_t jobs = 1;       ///< resolved worker count actually used
  double wall_seconds = 0.0;  ///< wall-clock of the fan-out (not per cell)
};

/// Runs every cell (jobs == 0 means one worker per hardware thread; 1 runs
/// serially inline).  Results are deterministic per cell and aggregated in
/// index order regardless of which worker ran what.  A cell whose campaign
/// throws becomes a structured CellError result and the rest of the sweep
/// survives; fault/supervisor.hpp has the full supervised overload
/// (strict mode, per-cell deadlines, the resume journal).
SweepResult run_sweep(std::span<const SweepCell> cells, std::size_t jobs = 1);

/// The fingerprint fold alone, for callers comparing serial vs parallel.
std::uint64_t sweep_fingerprint(std::span<const CampaignResult> cells);

/// Pre-registers every metric a sweep can touch — the volatile per-cell
/// wall-clock histogram plus the whole campaign/engine family (via
/// register_campaign_metrics) — fixing snapshot order before the worker
/// fan-out.  Idempotent.
void register_sweep_metrics(obs::MetricsRegistry& registry);

/// The volatile per-cell wall-clock histogram "sweep.cell_wall_us"
/// (microseconds), registered on first use.
obs::Histogram& cell_wall_histogram(obs::MetricsRegistry& registry);

/// Stable JSON document for a finished sweep ("ibgp-sweep-v4" schema —
/// v3 added per-cell decision provenance: `decisions`, `decisions_empty`,
/// `mrai_deferrals` and the per-rule `decided_by` breakdown; v4 added the
/// per-cell `error` field, null unless a supervised cell failed, see
/// fault/supervisor.hpp).
/// Run-dependent outputs (jobs, wall-clock) are grouped under a single
/// "volatile" sub-object so regenerated documents diff fingerprint-only;
/// with include_timing false the sub-object is omitted entirely and two
/// equal-fingerprint sweeps dump byte-identical text.
util::json::Value sweep_json(std::span<const SweepCell> cells, const SweepResult& result,
                             bool include_timing = true);

}  // namespace ibgp::fault
