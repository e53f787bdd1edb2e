#include "fault/sweep.hpp"

#include <chrono>

#include "bgp/selection.hpp"
#include "fault/supervisor.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace ibgp::fault {

namespace {

// Per-cell wall-clock buckets (microseconds).  Volatile by construction —
// timing is schedule- and machine-dependent — so the histogram never feeds
// a fingerprint; it exists for spotting pathological cells in sweeps.
const std::vector<std::int64_t> kCellWallBoundsUs = {100,    300,    1'000,   3'000,
                                                     10'000, 30'000, 100'000, 300'000,
                                                     1'000'000};

}  // namespace

SweepResult run_sweep(std::span<const SweepCell> cells, std::size_t jobs) {
  // Thin wrapper over the supervised runner with its defaults: non-strict
  // error containment (a throwing cell becomes a CellError record instead
  // of sinking every completed cell), no deadline, no journal.
  SweepOptions options;
  options.jobs = jobs;
  return run_sweep(cells, options);
}

std::uint64_t sweep_fingerprint(std::span<const CampaignResult> cells) {
  util::Fingerprint fp;
  for (const auto& cell : cells) fp.add(cell.trace_hash);
  return fp.value();
}

obs::Histogram& cell_wall_histogram(obs::MetricsRegistry& registry) {
  return registry.histogram("sweep.cell_wall_us", kCellWallBoundsUs,
                            obs::MetricClass::kVolatile);
}

void register_sweep_metrics(obs::MetricsRegistry& registry) {
  (void)cell_wall_histogram(registry);
  register_campaign_metrics(registry);
}

util::json::Value sweep_json(std::span<const SweepCell> cells, const SweepResult& result,
                             bool include_timing) {
  using util::json::Array;
  using util::json::Object;
  using util::json::Value;

  Array rows;
  rows.reserve(result.cells.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CampaignResult& campaign = result.cells[i];
    Object row;
    if (i < cells.size()) {
      row.emplace_back("group", cells[i].group);
      row.emplace_back("instance", cells[i].instance->name());
      row.emplace_back("protocol", core::protocol_name(cells[i].protocol));
      row.emplace_back("seed", cells[i].seed);
    }
    row.emplace_back("trace_hash", util::hex64(campaign.trace_hash));
    row.emplace_back("reconverged", campaign.reconverged());
    row.emplace_back("clean", campaign.invariants.clean());
    // v4: structured per-cell failure record (null on the happy path).  A
    // supervised cell whose campaign threw carries only this — every other
    // field of the row is default-valued.
    if (campaign.error) {
      Object error;
      error.emplace_back("message", campaign.error->message);
      error.emplace_back("attempts", campaign.error->attempts);
      error.emplace_back("timed_out", campaign.error->timed_out);
      // Additive within v4: per-attempt deadline budgets (ms), in order.
      Array tried;
      for (const std::uint64_t ms : campaign.error->deadlines_tried) {
        tried.emplace_back(ms);
      }
      error.emplace_back("deadlines_tried", std::move(tried));
      row.emplace_back("error", std::move(error));
    } else {
      row.emplace_back("error", Value(nullptr));
    }
    row.emplace_back("truncated", campaign.truncated());
    row.emplace_back("settle_time", campaign.settle_time
                                        ? Value(*campaign.settle_time)
                                        : Value(nullptr));
    row.emplace_back("last_fault_time", campaign.last_fault_time);
    row.emplace_back("faults_applied", campaign.run.faults_applied);
    row.emplace_back("faults_pending", campaign.run.faults_pending);
    row.emplace_back("deliveries", campaign.run.deliveries);
    row.emplace_back("end_time", campaign.run.end_time);
    row.emplace_back("best_flips", campaign.run.best_flips);
    row.emplace_back("messages_dropped", campaign.run.messages_dropped);
    row.emplace_back("messages_duplicated", campaign.run.messages_duplicated);
    row.emplace_back("stale_retained", campaign.run.stale_retained);
    row.emplace_back("igp_epoch_swaps", campaign.run.igp_epoch_swaps);
    row.emplace_back("decisions", campaign.run.decisions_total);
    row.emplace_back("decisions_empty", campaign.run.decisions_empty);
    row.emplace_back("mrai_deferrals", campaign.run.mrai_deferrals);
    {
      // Per-rule provenance breakdown, every rule present in enum order so
      // the document shape is independent of which rules fired.
      Object decided_by;
      for (std::size_t r = 0; r < bgp::kSelectionRuleCount; ++r) {
        decided_by.emplace_back(
            bgp::selection_rule_name(static_cast<bgp::SelectionRule>(r)),
            campaign.run.decisions_by_rule[r]);
      }
      row.emplace_back("decided_by", std::move(decided_by));
    }
    row.emplace_back("blackhole_ticks", campaign.continuity.blackhole_ticks);
    row.emplace_back("stale_ticks", campaign.continuity.stale_ticks);
    row.emplace_back("loop_ticks", campaign.continuity.loop_ticks);
    row.emplace_back("deflection_ticks", campaign.continuity.deflection_ticks);
    row.emplace_back("max_blackhole_window", campaign.continuity.max_blackhole_window);
    row.emplace_back("max_deflection_window", campaign.continuity.max_deflection_window);
    rows.emplace_back(std::move(row));
  }

  Object doc;
  doc.emplace_back("schema", "ibgp-sweep-v4");
  doc.emplace_back("cell_count", result.cells.size());
  doc.emplace_back("fingerprint", util::hex64(result.fingerprint));
  if (include_timing) {
    // Everything run-dependent lives under one "volatile" key so committed
    // BENCH_*.json regenerations diff fingerprint-only: strip this object
    // and two equal-fingerprint documents are byte-identical.
    Object volatile_fields;
    volatile_fields.emplace_back("jobs", result.jobs);
    volatile_fields.emplace_back("wall_seconds", result.wall_seconds);
    doc.emplace_back("volatile", std::move(volatile_fields));
  }
  doc.emplace_back("cells", std::move(rows));
  return Value(std::move(doc));
}

}  // namespace ibgp::fault
