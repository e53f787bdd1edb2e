#pragma once
// The four benchmark workloads and the runner that times them.
//
// A workload builds its inputs (set-up), then replays a fixed sequence of
// timed units — campaign cells, one convergence, wire lines, searches —
// once untimed and then repeatedly until the time budget is spent.  Every
// repetition checks its outputs against pinned anchors and against the
// first repetition.  See BENCHMARK.md for why each workload exists.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class Size {
  kFull,   ///< the measured workload; inputs and outputs pinned
  kSmoke,  ///< a tiny variant for tests and for filling unreached layers
};

inline constexpr const char* kWorkloadNames[] = {"churn-sweep", "rr-1k", "daemon-stream",
                                                 "explore-search"};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;  ///< replay order of independent units
  double seconds = 20;     ///< timed phase budget
  bool trace = false;
  Size size = Size::kFull;
  std::string work_dir = ".bench_build/work";  ///< daemon state and span files
  std::string spec_path = "BENCHMARK.json";    ///< the metric lists to report
  std::size_t min_repetitions = 3;
};

/// Anchors: named 64-bit facts about the inputs ("inputs") or one
/// repetition's outputs.  Pinned values are compiled in for the full size;
/// every repetition must also reproduce the first repetition's values.
using Observations = std::vector<std::pair<std::string, std::uint64_t>>;

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Builds every input from scratch.  Called several times; the last
  /// build is the one the timed phase uses.
  virtual void setup() = 0;
  /// Digests of the generated inputs, checked before anything is timed.
  [[nodiscard]] virtual Observations input_digests() const = 0;

  [[nodiscard]] virtual std::size_t units() const = 0;
  /// True when units must run in sequence (a wire stream); otherwise each
  /// repetition replays them in a seeded shuffled order.
  [[nodiscard]] virtual bool ordered() const { return false; }

  /// Per-repetition preparation outside the timed units.  Returns the
  /// seconds it spent when that is set-up users pay (a fresh daemon), or a
  /// negative value when there is none.
  virtual double begin_repetition(Tracer& tracer) = 0;
  /// Runs one unit and returns the wall time of the product call alone;
  /// output checks happen outside that time.
  virtual double run_unit(std::size_t unit, Tracer& tracer, bool traced, Report& report) = 0;
  /// The repetition's output anchors.
  [[nodiscard]] virtual Observations end_repetition(bool traced) = 0;

  /// Workload-specific numbers derived from the per-unit medians (daemon
  /// line-latency percentiles); printed, and reported as per-layer metrics.
  virtual void unit_metrics(const UnitTimes&, Report&) const {}

  /// Traced mode: standalone calls into inner layers on the workload's own
  /// inputs, plus what the program's own instrumentation recorded.  Their
  /// output checks count as operations of `out` too.
  virtual void layer_metrics(Tracer& tracer, Report& out) = 0;

  /// Overrides (or adds) a pinned anchor; tests use it to prove a wrong
  /// anchor fails the run.
  void pin(const std::string& anchor, std::uint64_t value) { pins_[anchor] = value; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& pins() const { return pins_; }

 protected:
  std::map<std::string, std::uint64_t> pins_;
};

/// The workload `options.workload` at `options.size`; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const RunOptions& options);

/// Untraced mode: set-up, pinned-input check, warm-up, timed repetitions.
/// Reports setup_s and run_s (scaled to the reference host), their wall
/// times, and peak_rss_mb.
[[nodiscard]] Report run_untraced(Workload& workload, const RunOptions& options);

/// Traced mode: alternating untraced and traced repetitions, then the
/// standalone layer calls.  Reports every per-layer metric the workload
/// reaches; `spans_path` (when non-empty) receives the span records.
[[nodiscard]] Report run_traced(Workload& workload, const RunOptions& options,
                                const std::string& spans_path);

/// Full command: runs `options.workload` in the selected mode, prints the
/// human-readable report and the JSON result line with the metrics
/// `options.spec_path` lists for that mode, returns the exit code.
int run_command(const RunOptions& options);

}  // namespace perfbench
