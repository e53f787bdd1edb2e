#include "fault/supervisor.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "bgp/selection.hpp"
#include "util/parallel.hpp"

namespace ibgp::fault {

namespace {

using util::json::Array;
using util::json::Object;
using util::json::Value;

// Extra attempts granted to a cell that exceeded its deadline, each with
// double the previous budget.  Deterministic throws are never retried.
constexpr std::uint32_t kMaxRetries = 2;

// --- CampaignResult round-trip ----------------------------------------------

constexpr util::json::Reader kReader{kJournalSchema};

Object run_json(const engine::EventEngine::Result& run) {
  Object out;
  out.emplace_back("converged", run.converged);
  out.emplace_back("budget_exhausted", run.budget_exhausted);
  out.emplace_back("events_pending", run.events_pending);
  out.emplace_back("faults_pending", run.faults_pending);
  out.emplace_back("next_fault_time", run.next_fault_time);
  out.emplace_back("deliveries", run.deliveries);
  out.emplace_back("end_time", run.end_time);
  out.emplace_back("final_best", util::json::num_array(run.final_best));
  for (const engine::CounterField& field : engine::kEngineCounters) {
    out.emplace_back(field.name, run.*field.member);
  }
  out.emplace_back("decisions_by_rule", util::json::num_array(run.decisions_by_rule));
  {
    Array by_node;
    by_node.reserve(run.decisions_by_node.size());
    for (const auto& rules : run.decisions_by_node) {
      by_node.emplace_back(util::json::num_array(rules));
    }
    out.emplace_back("decisions_by_node", std::move(by_node));
  }
  return out;
}

Object invariants_json(const analysis::InvariantReport& inv) {
  Object out;
  out.emplace_back("stale_best", inv.stale_best);
  out.emplace_back("unsupported_best", inv.unsupported_best);
  out.emplace_back("stale_rib_entries", inv.stale_rib_entries);
  out.emplace_back("missing_rib_entries", inv.missing_rib_entries);
  out.emplace_back("forwarding_loops", inv.forwarding_loops);
  out.emplace_back("unswept_stale", inv.unswept_stale);
  out.emplace_back("igp_mismatch", inv.igp_mismatch);
  out.emplace_back("stale_retained", inv.stale_retained);
  {
    Array violations;
    violations.reserve(inv.violations.size());
    for (const auto& v : inv.violations) violations.emplace_back(v);
    out.emplace_back("violations", std::move(violations));
  }
  return out;
}

Object continuity_json(const analysis::ContinuityReport& cont) {
  Object out;
  out.emplace_back("horizon", cont.horizon);
  out.emplace_back("intervals", cont.intervals);
  out.emplace_back("ok_ticks", cont.ok_ticks);
  out.emplace_back("stale_ticks", cont.stale_ticks);
  out.emplace_back("blackhole_ticks", cont.blackhole_ticks);
  out.emplace_back("loop_ticks", cont.loop_ticks);
  out.emplace_back("deflection_ticks", cont.deflection_ticks);
  out.emplace_back("max_blackhole_window", cont.max_blackhole_window);
  out.emplace_back("max_deflection_window", cont.max_deflection_window);
  {
    Array events;
    events.reserve(cont.churn_events.size());
    for (const auto& e : cont.churn_events) {
      Array tuple;
      tuple.emplace_back(e.time);
      tuple.emplace_back(static_cast<std::uint64_t>(e.kind));
      tuple.emplace_back(static_cast<std::uint64_t>(e.a));
      tuple.emplace_back(static_cast<std::uint64_t>(e.b));
      tuple.emplace_back(e.loop_ticks);
      tuple.emplace_back(e.blackhole_ticks);
      tuple.emplace_back(e.deflection_ticks);
      events.emplace_back(std::move(tuple));
    }
    out.emplace_back("churn_events", std::move(events));
  }
  return out;
}

std::array<std::uint64_t, bgp::kSelectionRuleCount> get_rules(const Value& value) {
  return kReader.uints<bgp::kSelectionRuleCount>(value, "selection-rule histogram");
}

engine::EventEngine::Result parse_run(const Value& doc) {
  engine::EventEngine::Result run;
  run.converged = kReader.field(doc, "converged").as_bool();
  run.budget_exhausted = kReader.field(doc, "budget_exhausted").as_bool();
  run.events_pending = kReader.get_uint(doc, "events_pending");
  run.faults_pending = kReader.get_uint(doc, "faults_pending");
  run.next_fault_time = kReader.get_uint(doc, "next_fault_time");
  run.deliveries = kReader.get_uint(doc, "deliveries");
  run.end_time = kReader.get_uint(doc, "end_time");
  run.final_best = kReader.integers<PathId>(kReader.field(doc, "final_best"), "final_best");
  for (const engine::CounterField& field : engine::kEngineCounters) {
    run.*field.member = kReader.get_uint(doc, field.name);
  }
  run.decisions_by_rule = get_rules(kReader.field(doc, "decisions_by_rule"));
  for (const auto& rules : kReader.field(doc, "decisions_by_node").as_array()) {
    run.decisions_by_node.push_back(get_rules(rules));
  }
  return run;
}

analysis::InvariantReport parse_invariants(const Value& doc) {
  analysis::InvariantReport inv;
  inv.stale_best = kReader.get_uint(doc, "stale_best");
  inv.unsupported_best = kReader.get_uint(doc, "unsupported_best");
  inv.stale_rib_entries = kReader.get_uint(doc, "stale_rib_entries");
  inv.missing_rib_entries = kReader.get_uint(doc, "missing_rib_entries");
  inv.forwarding_loops = kReader.get_uint(doc, "forwarding_loops");
  inv.unswept_stale = kReader.get_uint(doc, "unswept_stale");
  inv.igp_mismatch = kReader.get_uint(doc, "igp_mismatch");
  inv.stale_retained = kReader.get_uint(doc, "stale_retained");
  for (const auto& v : kReader.field(doc, "violations").as_array()) {
    inv.violations.push_back(v.as_string());
  }
  return inv;
}

analysis::ContinuityReport parse_continuity(const Value& doc) {
  analysis::ContinuityReport cont;
  cont.horizon = kReader.get_uint(doc, "horizon");
  cont.intervals = kReader.get_uint(doc, "intervals");
  cont.ok_ticks = kReader.get_uint(doc, "ok_ticks");
  cont.stale_ticks = kReader.get_uint(doc, "stale_ticks");
  cont.blackhole_ticks = kReader.get_uint(doc, "blackhole_ticks");
  cont.loop_ticks = kReader.get_uint(doc, "loop_ticks");
  cont.deflection_ticks = kReader.get_uint(doc, "deflection_ticks");
  cont.max_blackhole_window = kReader.get_uint(doc, "max_blackhole_window");
  cont.max_deflection_window = kReader.get_uint(doc, "max_deflection_window");
  for (const auto& entry : kReader.field(doc, "churn_events").as_array()) {
    const auto& tuple = kReader.tuple(entry, 7, "churn_events entry");
    analysis::ChurnEventCost e;
    e.time = tuple[0].as_uint();
    const std::uint64_t kind = tuple[1].as_uint();
    if (kind > static_cast<std::uint64_t>(engine::FaultKind::kLinkUp)) {
      kReader.fail("churn_events entry kind out of range");
    }
    e.kind = static_cast<engine::FaultKind>(kind);
    e.a = kReader.integer<NodeId>(tuple[2], "churn_events endpoint");
    e.b = kReader.integer<NodeId>(tuple[3], "churn_events endpoint");
    e.loop_ticks = tuple[4].as_uint();
    e.blackhole_ticks = tuple[5].as_uint();
    e.deflection_ticks = tuple[6].as_uint();
    cont.churn_events.push_back(e);
  }
  return cont;
}

}  // namespace

std::string journal_cell_path(const std::string& journal_dir, std::size_t index) {
  return journal_dir + "/cell-" + std::to_string(index) + ".json";
}

util::json::Value journal_cell_json(std::size_t index, const SweepCell& cell,
                                    const CampaignResult& result) {
  Object doc;
  doc.emplace_back("schema", kJournalSchema);
  doc.emplace_back("index", index);
  doc.emplace_back("group", cell.group);
  doc.emplace_back("seed", cell.seed);
  doc.emplace_back("protocol", core::protocol_name(cell.protocol));
  doc.emplace_back("instance", cell.instance->name());
  doc.emplace_back("trace_hash", result.trace_hash);
  doc.emplace_back("last_fault_time", result.last_fault_time);
  doc.emplace_back("settle_time",
                   result.settle_time ? Value(*result.settle_time) : Value(nullptr));
  doc.emplace_back("run", run_json(result.run));
  doc.emplace_back("invariants", invariants_json(result.invariants));
  doc.emplace_back("continuity", continuity_json(result.continuity));
  return Value(std::move(doc));
}

CampaignResult parse_journal_cell(const util::json::Value& doc) {
  kReader.check_schema(doc);
  CampaignResult result;
  result.trace_hash = kReader.get_uint(doc, "trace_hash");
  result.last_fault_time = kReader.get_uint(doc, "last_fault_time");
  const Value& settle = kReader.field(doc, "settle_time");
  if (!settle.is_null()) result.settle_time = settle.as_uint();
  result.run = parse_run(kReader.field(doc, "run"));
  result.invariants = parse_invariants(kReader.field(doc, "invariants"));
  result.continuity = parse_continuity(kReader.field(doc, "continuity"));
  return result;
}

bool write_journal_cell(const std::string& journal_dir, std::size_t index,
                        const SweepCell& cell, const CampaignResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(journal_dir, ec);
  if (ec) return false;
  return util::json::write_file_atomic(journal_cell_path(journal_dir, index),
                                       journal_cell_json(index, cell, result));
}

std::optional<CampaignResult> load_journal_cell(const std::string& journal_dir,
                                                std::size_t index, const SweepCell& cell) {
  const auto doc = util::json::read_file(journal_cell_path(journal_dir, index));
  if (!doc) return std::nullopt;
  try {
    // Identity guard: a journal written for a different sweep layout (cells
    // reordered, reseeded, re-protocoled) must not masquerade as this cell.
    if (kReader.field(*doc, "index").as_uint() != index) return std::nullopt;
    if (kReader.field(*doc, "group").as_string() != cell.group) return std::nullopt;
    if (kReader.field(*doc, "seed").as_uint() != cell.seed) return std::nullopt;
    if (kReader.field(*doc, "protocol").as_string() != core::protocol_name(cell.protocol)) {
      return std::nullopt;
    }
    if (kReader.field(*doc, "instance").as_string() != cell.instance->name()) return std::nullopt;
    return parse_journal_cell(*doc);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

void register_supervisor_metrics(obs::MetricsRegistry& registry) {
  registry.counter("supervisor.cell_errors", obs::MetricClass::kVolatile);
  registry.counter("supervisor.cell_timeouts", obs::MetricClass::kVolatile);
  registry.counter("supervisor.cell_retries", obs::MetricClass::kVolatile);
  registry.counter("supervisor.journal_hits", obs::MetricClass::kVolatile);
  registry.counter("supervisor.journal_writes", obs::MetricClass::kVolatile);
  register_sweep_metrics(registry);
}

SweepResult run_sweep(std::span<const SweepCell> cells, const SweepOptions& options) {
  SweepResult result;
  result.jobs = util::resolve_jobs(options.jobs);
  result.cells.resize(cells.size());

  const auto bump = [&](std::string_view name) {
    if (options.metrics != nullptr) {
      options.metrics->counter(name, obs::MetricClass::kVolatile).increment();
    }
  };

  const auto start = std::chrono::steady_clock::now();

  // Resume pass: journaled cells load back and record their metrics as
  // running them would have; only the rest fan out.
  std::vector<std::size_t> todo;
  todo.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (options.resume && !options.journal_dir.empty()) {
      if (auto loaded = load_journal_cell(options.journal_dir, i, cells[i])) {
        result.cells[i] = *std::move(loaded);
        if (cells[i].options.metrics != nullptr) {
          record_campaign_metrics(*cells[i].options.metrics, result.cells[i]);
        }
        bump("supervisor.journal_hits");
        continue;
      }
    }
    todo.push_back(i);
  }

  util::parallel_for(todo.size(), result.jobs, [&](std::size_t k) {
    const std::size_t i = todo[k];
    const SweepCell& cell = cells[i];
    if (cell.options.trace != nullptr && cell.options.trace->enabled()) {
      Object fields;
      fields.emplace_back("index", i);
      fields.emplace_back("group", cell.group);
      fields.emplace_back("protocol", core::protocol_name(cell.protocol));
      fields.emplace_back("seed", cell.seed);
      cell.options.trace->emit(0, "cell", std::move(fields));
    }
    const auto cell_start = std::chrono::steady_clock::now();

    CampaignOptions opts = cell.options;
    if (options.cell_deadline.count() > 0) opts.deadline = options.cell_deadline;
    std::uint32_t attempts = 0;
    std::vector<std::uint64_t> deadlines_tried;
    for (;;) {
      ++attempts;
      deadlines_tried.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(opts.deadline).count()));
      try {
        result.cells[i] = run_campaign(*cell.instance, cell.protocol, cell.script, opts);
        break;
      } catch (const engine::DeadlineExceeded& e) {
        bump("supervisor.cell_timeouts");
        if (attempts <= kMaxRetries) {
          // Backoff by doubling the budget: transient load clears, a cell
          // that is genuinely too big converges to a timed_out error.
          bump("supervisor.cell_retries");
          opts.deadline *= 2;
          continue;
        }
        if (options.strict) throw;
        CampaignResult failed;
        failed.error = CellError{e.what(), attempts, /*timed_out=*/true,
                                 deadlines_tried};
        result.cells[i] = std::move(failed);
        bump("supervisor.cell_errors");
        break;
      } catch (const std::exception& e) {
        // Deterministic throw: retrying replays the same failure, so don't.
        if (options.strict) throw;
        CampaignResult failed;
        failed.error = CellError{e.what(), attempts, /*timed_out=*/false,
                                 deadlines_tried};
        result.cells[i] = std::move(failed);
        bump("supervisor.cell_errors");
        break;
      }
    }

    if (cell.options.metrics != nullptr) {
      const auto cell_elapsed = std::chrono::steady_clock::now() - cell_start;
      cell_wall_histogram(*cell.options.metrics)
          .observe(static_cast<std::int64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(cell_elapsed).count()));
    }
    if (!options.journal_dir.empty() && !result.cells[i].failed()) {
      if (write_journal_cell(options.journal_dir, i, cell, result.cells[i])) {
        bump("supervisor.journal_writes");
      }
    }
  });

  const auto elapsed = std::chrono::steady_clock::now() - start;
  result.wall_seconds = std::chrono::duration<double>(elapsed).count();
  result.fingerprint = sweep_fingerprint(result.cells);
  return result;
}

}  // namespace ibgp::fault
