#pragma once
// Supervised, resumable sweep execution.
//
// The plain run_sweep (fault/sweep.hpp) fans self-contained cells across a
// worker pool and assumes every campaign completes.  The supervisor wraps
// that fan-out with the machinery long campaigns need to survive the real
// world:
//
//  * graceful degradation — a cell whose campaign throws no longer brings
//    the whole sweep down (the old policy rethrew the lowest-index
//    exception and discarded every completed cell).  The failing cell's
//    result becomes a structured CellError record; the rest of the sweep
//    survives.  SweepOptions::strict restores abort-on-first-error.
//  * per-cell wall-clock deadlines — SweepOptions::cell_deadline arms the
//    engine's cooperative deadline for each cell; a cell that blows it is
//    retried with a doubled budget up to two times (backoff for
//    "the machine hiccuped"; a cell that is genuinely too big eventually
//    lands as a timed_out CellError).  Deterministic exceptions are NOT
//    retried — same input, same throw.
//  * a cell-completion journal — with journal_dir set, every completed
//    cell is written (atomically, ibgp-journal-v1) to
//    <journal_dir>/cell-<index>.json as soon as it finishes.  A sweep
//    killed at ANY instant — SIGKILL included — can be rerun with
//    resume=true: journaled cells load back (guarded by an identity header
//    of group/seed/protocol/instance), only missing cells re-execute, and
//    the final SweepResult (fingerprint, sweep_json document) is
//    byte-identical to the uninterrupted run's.  Error cells are NOT
//    journaled, so a resume retries them.
//
// Supervision telemetry (retries, timeouts, errors, journal hits/writes)
// lands in SweepOptions::metrics under supervisor.* — kVolatile, since it
// depends on wall clock and kill history, never on the simulated behavior.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "fault/sweep.hpp"
#include "util/json.hpp"

namespace ibgp::fault {

/// Schema tag of per-cell journal files.
inline constexpr std::string_view kJournalSchema = "ibgp-journal-v1";

struct SweepOptions {
  /// Worker count (0 = one per hardware thread; clamped to util::kMaxJobs).
  std::size_t jobs = 1;
  /// Abort on the first failing cell (lowest index wins, the historical
  /// policy) instead of recording a CellError and continuing.
  bool strict = false;
  /// Per-cell wall-clock budget; zero disables.  A cell that exceeds it is
  /// retried twice, each time with double the previous budget.
  std::chrono::milliseconds cell_deadline{0};
  /// Directory for the cell-completion journal; empty disables journaling.
  /// Created (recursively) on first use.
  std::string journal_dir;
  /// Load journaled cells from journal_dir instead of re-running them.
  bool resume = false;
  /// Registry for the supervisor.* telemetry counters (non-owning,
  /// nullable).  Distinct from the per-cell CampaignOptions::metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Supervised sweep: same deterministic per-cell results and index-order
/// aggregation as run_sweep(cells, jobs), plus the error containment,
/// deadlines, and journal described in the file comment.  In strict mode
/// rethrows the lowest-index cell failure after all workers drain.
SweepResult run_sweep(std::span<const SweepCell> cells, const SweepOptions& options);

/// Pre-registers the supervisor.* telemetry counters (all kVolatile), plus
/// the whole sweep/campaign/engine family via register_sweep_metrics, so
/// registry order is fixed before the worker fan-out.  Idempotent.
void register_supervisor_metrics(obs::MetricsRegistry& registry);

/// Journal path of cell `index` under `journal_dir`.
[[nodiscard]] std::string journal_cell_path(const std::string& journal_dir,
                                            std::size_t index);

/// Full round-trip serialization of one completed cell (ibgp-journal-v1):
/// identity header (index, group, seed, protocol, instance name) plus the
/// complete CampaignResult, so a resumed sweep reproduces sweep_json
/// byte-for-byte without re-running the cell.
[[nodiscard]] util::json::Value journal_cell_json(std::size_t index,
                                                  const SweepCell& cell,
                                                  const CampaignResult& result);

/// Decodes a journal document.  Throws std::runtime_error naming the
/// missing/ill-typed field on malformed input.
[[nodiscard]] CampaignResult parse_journal_cell(const util::json::Value& doc);

/// Atomically writes cell `index`'s journal entry.  Returns false on I/O
/// failure (journaling is best-effort; the sweep itself is unaffected).
bool write_journal_cell(const std::string& journal_dir, std::size_t index,
                        const SweepCell& cell, const CampaignResult& result);

/// Loads cell `index`'s journal entry if present AND its identity header
/// matches `cell` (schema, index, group, seed, protocol, instance name).
/// Any mismatch, parse failure, or absent file yields std::nullopt — the
/// cell simply re-runs.
[[nodiscard]] std::optional<CampaignResult> load_journal_cell(
    const std::string& journal_dir, std::size_t index, const SweepCell& cell);

}  // namespace ibgp::fault
