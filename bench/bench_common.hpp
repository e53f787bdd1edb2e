#pragma once
// Shared helpers for the per-figure bench binaries.
//
// Each bench binary prints a human-readable report reproducing its paper
// artifact (the rows EXPERIMENTS.md records), then runs its google-benchmark
// timings.  Reports go to stdout before benchmark output so piping a bench
// run into a log keeps the experiment result adjacent to the timings.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>

#include "analysis/finder.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "engine/activation.hpp"
#include "engine/oscillation.hpp"
#include "fault/supervisor.hpp"
#include "fault/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace ibgp::bench {

/// Flags shared by every bench binary, stripped from argv before
/// google-benchmark parses it:
///   --jobs N       worker threads for sweep fan-out (0 = hardware)
///   --json PATH    write the machine-readable result file (BENCH_*.json)
///   --smoke        reduced deterministic sweep (CI-sized), where supported;
///                  every bench skips the google-benchmark timings under it
///   --metrics PATH write the ibgp-metrics-v1 registry snapshot (sweep
///                  benches; deterministic section byte-stable across --jobs)
///   --trace PATH   write the ibgp-trace-v1 JSONL event stream (sweep
///                  benches; attached to the serial pass in --smoke so the
///                  stream is a single interleaving)
///   --checkpoint-dir DIR  cell-completion journal root (sweep benches):
///                  every finished cell lands in DIR/<pass>/cell-<i>.json
///                  the instant it completes, SIGKILL-safe
///   --resume       load journaled cells from --checkpoint-dir instead of
///                  re-running them; the final report and JSON are
///                  byte-identical to an uninterrupted run
///   --cell-deadline MS  per-cell wall-clock budget in milliseconds
///                  (0 = off); blown deadlines retry with doubled budget,
///                  then degrade to a structured per-cell error record
///   --strict       abort the whole sweep on the first failing cell
///                  (restores the historical lowest-index-wins policy)
///   --profile      enable engine.span.* hot-path profiler spans (delivery,
///                  choose_best, transfer); p50/p95/p99 summaries go to
///                  stderr + the volatile JSON section — never to stdout,
///                  which stays byte-identical to a run without the flag
struct BenchConfig {
  std::size_t jobs = 0;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string checkpoint_dir;
  std::size_t cell_deadline_ms = 0;
  bool resume = false;
  bool strict = false;
  bool smoke = false;
  bool profile = false;
  bool json_written = false;  ///< a report already produced its document
};

inline BenchConfig& config() {
  static BenchConfig instance;
  return instance;
}

/// Removes the shared flags from argv (in place) and records them in
/// config().  Unrecognized arguments are left for google-benchmark.
inline void strip_common_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&](std::string_view name) -> const char* {
      if (arg.rfind(name, 0) != 0) return nullptr;
      if (arg.size() > name.size() && arg[name.size()] == '=') {
        return argv[i] + name.size() + 1;
      }
      if (arg.size() == name.size() && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (arg == "--smoke") {
      config().smoke = true;
    } else if (arg == "--resume") {
      config().resume = true;
    } else if (arg == "--strict") {
      config().strict = true;
    } else if (arg == "--profile") {
      config().profile = true;
    } else if (const char* jobs = value_of("--jobs")) {
      // Strict parse: "0" means one worker per hardware thread, anything
      // non-numeric, negative, suffixed, or beyond util::kMaxJobs is a
      // usage error — not a silent wrap to some huge thread count.
      const auto parsed = util::parse_jobs(jobs);
      if (!parsed) {
        std::fprintf(stderr, "invalid --jobs value '%s' (want 0..%zu)\n", jobs,
                     util::kMaxJobs);
        std::exit(2);
      }
      config().jobs = *parsed;
    } else if (const char* deadline = value_of("--cell-deadline")) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long ms = std::strtoull(deadline, &end, 10);
      if (end == deadline || *end != '\0' || deadline[0] == '-' || errno == ERANGE) {
        std::fprintf(stderr, "invalid --cell-deadline value '%s' (milliseconds)\n",
                     deadline);
        std::exit(2);
      }
      config().cell_deadline_ms = static_cast<std::size_t>(ms);
    } else if (const char* dir = value_of("--checkpoint-dir")) {
      config().checkpoint_dir = dir;
    } else if (const char* path = value_of("--json")) {
      config().json_path = path;
    } else if (const char* path = value_of("--metrics")) {
      config().metrics_path = path;
    } else if (const char* path = value_of("--trace")) {
      config().trace_path = path;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

/// Supervised-sweep options derived from the shared flags.  `pass` names
/// the journal subdirectory (each independent sweep of a report — "main",
/// "serial", "parallel" — needs its own journal so cell indices don't
/// collide); jobs_override, when non-negative, pins the worker count for
/// the determinism passes that must run at a fixed --jobs.
inline fault::SweepOptions sweep_options(const char* pass, int jobs_override = -1) {
  fault::SweepOptions options;
  options.jobs = jobs_override >= 0 ? static_cast<std::size_t>(jobs_override)
                                    : config().jobs;
  options.strict = config().strict;
  options.cell_deadline = std::chrono::milliseconds(config().cell_deadline_ms);
  if (!config().checkpoint_dir.empty()) {
    options.journal_dir = config().checkpoint_dir + "/" + pass;
    options.resume = config().resume;
  }
  return options;
}

/// Writes `doc` to the --json path (no-op without --json).  Returns false
/// only on I/O failure.
inline bool write_json(const util::json::Value& doc) {
  if (config().json_path.empty()) return true;
  config().json_written = true;
  if (!util::json::write_file(config().json_path, doc)) {
    std::fprintf(stderr, "failed to write %s\n", config().json_path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", config().json_path.c_str());
  return true;
}

/// Run-dependent smoke measurements, grouped under one "volatile" key so
/// committed BENCH_*.json regenerations diff fingerprint-only: strip every
/// "volatile" object and two runs that behaved identically dump identical
/// text.  Deterministic verdicts (fingerprint_match) stay top-level.
inline util::json::Object smoke_volatile_json(double serial_wall_seconds,
                                              double parallel_wall_seconds,
                                              std::size_t jobs, double speedup) {
  util::json::Object fields;
  fields.emplace_back("serial_wall_seconds", serial_wall_seconds);
  fields.emplace_back("parallel_wall_seconds", parallel_wall_seconds);
  fields.emplace_back("jobs", jobs);
  // Interprets the speedup: a single-core host can only record ~1x no
  // matter how correct the fan-out is.
  fields.emplace_back("hardware_threads", util::resolve_jobs(0));
  fields.emplace_back("speedup", speedup);
  return fields;
}

/// The head every sweep bench's ibgp-bench-v1 document starts with.
inline util::json::Object bench_document(const char* bench, const char* experiment,
                                         const char* mode) {
  util::json::Object doc;
  doc.emplace_back("schema", "ibgp-bench-v1");
  doc.emplace_back("bench", bench);
  doc.emplace_back("experiment", experiment);
  doc.emplace_back("mode", mode);
  return doc;
}

/// Observability session for the sweep benches: one MetricsRegistry plus
/// one TraceSink shared by a report's cells.  run_full_sweep / finish_full_sweep
/// and run_smoke below drive it.
struct ObsSession {
  obs::MetricsRegistry registry;
  obs::TraceSink trace;
  std::vector<const core::Instance*> attached;  ///< SPF mirrors to detach

  /// Pre-registers every supervisor/sweep/campaign/engine metric (fixing
  /// snapshot order before any fan-out) and opens the trace file when
  /// --trace was given.
  void open() {
    fault::register_supervisor_metrics(registry);
    if (!config().trace_path.empty()) trace.open_file(config().trace_path);
  }

  /// Mirrors the shared SPF cache counters of each distinct instance the
  /// cells use, in first-use order, into the registry (volatile); finish()
  /// detaches.  The instances must outlive finish().
  void attach_spf(std::span<const fault::SweepCell> cells) {
    for (const auto& cell : cells) {
      if (std::find(attached.begin(), attached.end(), cell.instance) != attached.end()) {
        continue;
      }
      cell.instance->spf_cache().attach_metrics(&registry);
      attached.push_back(cell.instance);
    }
  }

  /// Points every cell's campaign options at this session's registry and/or
  /// trace sink (or detaches with false/false).
  void wire(std::vector<fault::SweepCell>& cells, bool with_metrics, bool with_trace) {
    for (auto& cell : cells) {
      cell.options.metrics = with_metrics ? &registry : nullptr;
      // Spans need a registry to land in; profile rides whichever pass
      // carries the metrics.
      cell.options.profile = with_metrics && config().profile;
      cell.options.trace = with_trace ? &trace : nullptr;
    }
  }

  /// Prints the deterministic-metrics fingerprint and the per-rule decision
  /// breakdown to stdout.  Every value here is deterministic (counter adds
  /// commute), so the CI smoke diff across --jobs 1/8 covers these lines.
  void print_decision_summary() const {
    std::printf("  metrics fingerprint=%s\n", util::hex64(registry.fingerprint()).c_str());
    std::printf("  decisions=%llu empty=%llu mrai_deferrals=%llu\n",
                static_cast<unsigned long long>(registry.counter_value("engine.decisions")),
                static_cast<unsigned long long>(registry.counter_value("engine.decisions_empty")),
                static_cast<unsigned long long>(registry.counter_value("engine.mrai_deferrals")));
    for (std::size_t r = 0; r < bgp::kSelectionRuleCount; ++r) {
      const std::string name(bgp::selection_rule_name(static_cast<bgp::SelectionRule>(r)));
      const auto count = registry.counter_value("engine.decided." + name);
      std::printf("    decided-by %-18s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  /// The span histograms a --profile run populates, in summary order.
  static constexpr const char* kSpanNames[] = {
      "engine.span.delivery_ns", "engine.span.decision_ns",
      "engine.span.transfer_ns", "spf.recompute_ns"};

  /// Volatile JSON object of per-span {count, sum_ns, p50/p95/p99_ns}
  /// summaries; empty without --profile.  Belongs under a "volatile" key —
  /// wall time must never land in fingerprinted or diffed output.
  [[nodiscard]] util::json::Value span_volatile_json() {
    util::json::Object spans;
    if (config().profile) {
      for (const char* name : kSpanNames) {
        spans.emplace_back(name,
                           obs::span_summary_json(obs::span_histogram(registry, name)));
      }
    }
    return util::json::Value(std::move(spans));
  }

  /// Prints the --profile span quantiles to *stderr* — stdout stays
  /// byte-identical with profiling off (the CI smoke diff and the overhead
  /// gate both depend on that).  No-op without --profile.
  void print_span_summary() {
    if (!config().profile) return;
    std::fprintf(stderr, "profiler spans (ns):\n");
    for (const char* name : kSpanNames) {
      const auto& hist = obs::span_histogram(registry, name);
      std::fprintf(stderr,
                   "  %-24s count=%llu p50=%.0f p95=%.0f p99=%.0f\n", name,
                   static_cast<unsigned long long>(hist.total()),
                   obs::histogram_quantile(hist, 0.50),
                   obs::histogram_quantile(hist, 0.95),
                   obs::histogram_quantile(hist, 0.99));
    }
  }

  /// Writes the --metrics snapshot (no-op without the flag), detaches every
  /// attach_spf() mirror, and closes the trace stream.
  void finish() {
    if (!config().metrics_path.empty()) {
      if (!util::json::write_file(config().metrics_path, registry.json())) {
        std::fprintf(stderr, "failed to write %s\n", config().metrics_path.c_str());
      } else {
        std::fprintf(stderr, "wrote %s\n", config().metrics_path.c_str());
      }
    }
    for (const auto* inst : attached) inst->spf_cache().attach_metrics(nullptr);
    attached.clear();
    trace.close();
  }
};

/// A sweep bench's full report: one supervised sweep (journal pass "main")
/// carrying both the registry and the trace; its wall time goes to stderr.
inline fault::SweepResult run_full_sweep(ObsSession& obs,
                                         std::vector<fault::SweepCell>& cells) {
  obs.open();
  obs.attach_spf(cells);
  obs.wire(cells, /*with_metrics=*/true, /*with_trace=*/true);
  auto options = sweep_options("main");
  options.metrics = &obs.registry;
  auto sweep = fault::run_sweep(cells, options);
  std::fprintf(stderr, "sweep: %zu cells in %.2fs on %zu jobs\n", cells.size(),
               sweep.wall_seconds, sweep.jobs);
  return sweep;
}

/// The full report's tail: the whole-sweep decision summary (and the
/// --profile spans on stderr), the "full" --json document, then finish().
inline void finish_full_sweep(ObsSession& obs, const char* bench, const char* experiment,
                              std::span<const fault::SweepCell> cells,
                              const fault::SweepResult& sweep) {
  std::printf("\ndecision provenance (whole sweep):\n");
  obs.print_decision_summary();
  obs.print_span_summary();
  if (!config().json_path.empty()) {
    util::json::Object doc = bench_document(bench, experiment, "full");
    doc.emplace_back("metrics_fingerprint", util::hex64(obs.registry.fingerprint()));
    if (config().profile) {
      util::json::Object vol;
      vol.emplace_back("spans", obs.span_volatile_json());
      doc.emplace_back("volatile", util::json::Value(std::move(vol)));
    }
    doc.emplace_back("sweep", fault::sweep_json(cells, sweep));
    write_json(util::json::Value(std::move(doc)));
  }
  obs.finish();
}

/// Prints one cell's deterministic --smoke line from its serial result.
using SmokeCellPrinter = std::function<void(std::size_t index, const fault::SweepCell& cell,
                                            const fault::CampaignResult& result)>;

/// A sweep bench's --smoke: the cells run serially and then in parallel
/// (--jobs, default 4) in one process.  The trace rides the serial pass
/// (one interleaving, stable JSONL); the registry rides the parallel pass,
/// so the decision summary on stdout doubles as the cross---jobs
/// determinism check (CI diffs this stdout across --jobs 1 and --jobs 8).
/// stdout carries "<bench> smoke: N <noun>, fingerprint=...", one line per
/// cell from `print_cell`, and the decision summary; timings go to stderr.
/// Writes the "smoke" --json document and returns nonzero when any
/// per-cell trace hash diverges between the passes.
inline int run_smoke(std::vector<fault::SweepCell>& cells, const char* bench,
                     const char* experiment, const char* noun,
                     const SmokeCellPrinter& print_cell) {
  const std::size_t jobs = config().jobs == 0 ? 4 : config().jobs;
  ObsSession obs;
  obs.open();
  obs.attach_spf(cells);
  obs.wire(cells, /*with_metrics=*/false, /*with_trace=*/true);
  const auto serial = fault::run_sweep(cells, sweep_options("serial", 1));
  obs.wire(cells, /*with_metrics=*/true, /*with_trace=*/false);
  const auto parallel =
      fault::run_sweep(cells, sweep_options("parallel", static_cast<int>(jobs)));

  std::printf("%s smoke: %zu %s, fingerprint=%s\n", bench, cells.size(), noun,
              util::hex64(serial.fingerprint).c_str());
  for (std::size_t i = 0; i < cells.size(); ++i) print_cell(i, cells[i], serial.cells[i]);
  obs.print_decision_summary();
  obs.print_span_summary();
  const double speedup =
      parallel.wall_seconds > 0 ? serial.wall_seconds / parallel.wall_seconds : 0;
  std::fprintf(stderr, "serial %.3fs, parallel %.3fs on %zu jobs (%.2fx)\n",
               serial.wall_seconds, parallel.wall_seconds, parallel.jobs, speedup);

  bool ok = serial.fingerprint == parallel.fingerprint;
  for (std::size_t i = 0; ok && i < cells.size(); ++i) {
    ok = serial.cells[i].trace_hash == parallel.cells[i].trace_hash;
  }
  if (!ok) {
    std::fprintf(stderr, "%s smoke: FAIL — serial vs parallel trace hashes diverge\n", bench);
  }

  util::json::Object doc = bench_document(bench, experiment, "smoke");
  util::json::Object vol = smoke_volatile_json(serial.wall_seconds, parallel.wall_seconds,
                                               parallel.jobs, speedup);
  if (config().profile) vol.emplace_back("spans", obs.span_volatile_json());
  doc.emplace_back("volatile", util::json::Value(std::move(vol)));
  doc.emplace_back("fingerprint_match", ok);
  doc.emplace_back("metrics_fingerprint", util::hex64(obs.registry.fingerprint()));
  doc.emplace_back("sweep", fault::sweep_json(cells, parallel));
  if (!write_json(util::json::Value(std::move(doc)))) return 1;
  obs.finish();
  return ok ? 0 : 1;
}

/// main() of a sweep bench: --smoke runs `smoke` and exits before
/// google-benchmark; otherwise `report` prints the full sweep, then the
/// remaining argv goes to google-benchmark.
inline int sweep_bench_main(int argc, char** argv, void (*report)(), int (*smoke)()) {
  strip_common_flags(argc, argv);
  if (config().smoke) return smoke();
  report();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

/// Fallback --json document for benches without a richer schema: name and
/// report wall-clock only, so every binary still emits a trajectory point.
inline void write_default_json(const char* argv0, double report_wall_seconds) {
  if (config().json_path.empty() || config().json_written) return;
  const char* base = std::strrchr(argv0, '/');
  util::json::Object doc;
  doc.emplace_back("schema", "ibgp-bench-v1");
  doc.emplace_back("bench", base != nullptr ? base + 1 : argv0);
  doc.emplace_back("report_wall_seconds", report_wall_seconds);
  write_json(util::json::Value(std::move(doc)));
}

inline void heading(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n  paper claim: %s\n", experiment, claim);
  std::printf("================================================================\n");
}

/// Runs one (protocol, schedule) cell and prints a report row.
inline engine::RunOutcome report_row(const core::Instance& inst,
                                     core::ProtocolKind protocol, bool synchronous,
                                     std::size_t max_steps = 20000) {
  auto schedule = synchronous ? engine::make_full_set(inst.node_count())
                              : engine::make_round_robin(inst.node_count());
  engine::RunLimits limits;
  limits.max_steps = max_steps;
  const auto outcome = engine::run_protocol(inst, protocol, *schedule, limits);
  std::printf("  %-9s | %-11s | %-10s |", core::protocol_name(protocol),
              synchronous ? "synchronous" : "round-robin",
              engine::run_status_name(outcome.status));
  if (outcome.converged()) {
    std::printf(" steps=%-5zu flaps=%-4zu best: %s\n", outcome.quiescent_since,
                outcome.best_flips, engine::describe_best(inst, outcome.final_best).c_str());
  } else if (outcome.oscillated()) {
    std::printf(" cycle=%-4zu flaps=%zu (persistent oscillation)\n", outcome.cycle_length,
                outcome.best_flips);
  } else {
    std::printf(" no verdict in %zu steps\n", outcome.steps);
  }
  return outcome;
}

/// The standard three-protocol, two-schedule grid.
inline void report_grid(const core::Instance& inst, std::size_t max_steps = 20000) {
  std::printf("  %-9s | %-11s | %-10s |\n", "protocol", "schedule", "verdict");
  std::printf("  ----------+-------------+------------+\n");
  for (const auto kind : {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
                          core::ProtocolKind::kModified}) {
    for (const bool synchronous : {false, true}) {
      report_row(inst, kind, synchronous, max_steps);
    }
  }
}

/// google-benchmark driver for a full protocol run on an instance.
inline void run_protocol_benchmark(benchmark::State& state, const core::Instance& inst,
                                   core::ProtocolKind protocol, std::size_t max_steps) {
  for (auto _ : state) {
    auto schedule = engine::make_round_robin(inst.node_count());
    engine::RunLimits limits;
    limits.max_steps = max_steps;
    auto outcome = engine::run_protocol(inst, protocol, *schedule, limits);
    benchmark::DoNotOptimize(outcome.final_hash);
  }
}

}  // namespace ibgp::bench

/// Strips the shared flags (--jobs/--json/--smoke), prints the report,
/// emits the --json document (the report's own, or the minimal fallback),
/// then hands the remaining argv to google-benchmark — except under
/// --smoke, which stops after the report so stdout holds no timings.
#define IBGP_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                      \
    ::ibgp::bench::strip_common_flags(argc, argv);       \
    const auto ibgp_bench_t0 = std::chrono::steady_clock::now(); \
    report_fn();                                         \
    ::ibgp::bench::write_default_json(                   \
        argv[0], std::chrono::duration<double>(          \
                     std::chrono::steady_clock::now() - ibgp_bench_t0).count()); \
    if (::ibgp::bench::config().smoke) return 0;         \
    ::benchmark::Initialize(&argc, argv);                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();               \
    ::benchmark::Shutdown();                             \
    return 0;                                            \
  }
