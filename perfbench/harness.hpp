#pragma once
// Measurement primitives of the benchmark runner: order statistics, the
// per-unit lower-quartile timing rule behind run_s, outside-in spans, the
// host drift control and the result report.  Everything here is
// single-threaded by design (see BENCHMARK.md, "Noise").

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point start, Clock::time_point end);

// --- order statistics --------------------------------------------------------

/// Median of `values` (mean of the middle pair for even counts).  Throws
/// std::invalid_argument on an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile q in n samples: ceil(q * n), at least 1.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank q-th percentile, or nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond it.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> values, double q);

// --- run_s -------------------------------------------------------------------

/// Nearest-rank lower quartile of `values`.  Throws std::invalid_argument on
/// an empty input.
[[nodiscard]] double lower_quartile(std::vector<double> values);

/// Wall time of every timed unit in every repetition.  A workload is a fixed
/// sequence of units replayed several times; run_s is the sum over units of
/// each unit's lower quartile across repetitions, so slow stretches of the
/// host covering up to three quarters of the repetitions cannot move it.
class UnitTimes {
 public:
  explicit UnitTimes(std::size_t units) : samples_(units) {}
  void record(std::size_t unit, double seconds);
  [[nodiscard]] std::size_t units() const { return samples_.size(); }
  /// Repetitions every unit has completed.
  [[nodiscard]] std::size_t repetitions() const;
  [[nodiscard]] double unit_median(std::size_t unit) const;
  [[nodiscard]] double sum_of_lower_quartiles() const;

 private:
  std::vector<std::vector<double>> samples_;
};

// --- spans -------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into the record list, -1 for roots
  std::uint64_t request = 0;  ///< cell, line, unit or mutant id
};

/// In-memory span recorder.  A disabled tracer never reads the clock, so
/// the untraced runs pay nothing for the instrumentation.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled);
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span nested in the innermost open one; closes at scope exit.
  /// Requests inherit the parent's id when `request` is zero.
  [[nodiscard]] Scope span(std::string name, std::uint64_t request = 0);

  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }

  /// Writes every record as one JSON document; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  void close(int index);
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> records_;
  std::vector<int> open_;
};

/// Per span name: how often it ran, its total time, the part covered by its
/// direct children, and the rest (self time; for a span with children this
/// is its residual against them).
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_s = 0;
  double children_s = 0;
  [[nodiscard]] double self_s() const { return total_s - children_s; }
  [[nodiscard]] bool has_children() const { return children_s > 0; }
  /// Residual share of a parent: the part of it no child span explains.
  [[nodiscard]] double residual_share() const {
    return total_s > 0 ? self_s() / total_s : 0;
  }
};

/// Summaries in first-seen order.
[[nodiscard]] std::vector<SpanSummary> summarize_spans(const std::vector<SpanRecord>& records);

// --- host drift control ------------------------------------------------------

/// Times a fixed, code-independent std::map churn loop (milliseconds).  It
/// tracks the host's drift, not the program's.
[[nodiscard]] double host_control_ms();

/// The control loop's time on the reference host: the shared 4-vCPU VM the
/// benchmark was defined on, in its fast phase.
inline constexpr double kReferenceControlMs = 25.0;

/// Samples the host control loop in step with the work it accompanies: one
/// sample per kPeriodS seconds of work, taken between timed units so it
/// never lands inside one.  Its lower quartile scales a run's wall times to
/// the reference host, which removes most of the host's slow and fast
/// phases (see BENCHMARK.md, "Noise").
class HostControl {
 public:
  static constexpr double kPeriodS = 0.25;

  /// `sample_ms` times one control loop; tests substitute a fake.
  explicit HostControl(std::function<double()> sample_ms = host_control_ms);
  /// Accounts `work_s` more seconds of work and takes the samples now due;
  /// the first call always takes one.
  void after(double work_s);
  [[nodiscard]] std::size_t samples() const { return samples_ms_.size(); }
  /// Lower quartile of the samples: the control loop's time on this host.
  [[nodiscard]] double control_ms() const;
  /// `seconds` of wall time on this host, as seconds on a host where the
  /// control loop takes kReferenceControlMs.
  [[nodiscard]] double to_reference(double seconds) const;

 private:
  std::function<double()> sample_ms_;
  double work_s_ = 0;
  std::vector<double> samples_ms_;
};

/// Peak resident set size of this process image in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

// --- result -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A metric the result line must carry: its name and unit, as listed in
/// BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The `end_to_end` or `per_layer` list of the BENCHMARK.json at `path`.
/// Throws std::runtime_error when the file or the list cannot be read.
[[nodiscard]] std::vector<MetricSpec> read_metric_specs(const std::string& path,
                                                        const std::string& list);

/// What one workload run reports: operations attempted and failed, the
/// reasons for failures, and named metrics.
class Report {
 public:
  void attempt(std::size_t count = 1) { attempted_ += count; }
  /// Counts `count` failed operations and keeps the first few reasons.
  void fail(const std::string& reason, std::size_t count = 1);
  /// Marks the run incorrect without counting an operation (e.g. inputs
  /// that do not match their pinned digests).
  void refuse(const std::string& reason);
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  /// Adds another run's operations, failures and verdict (not its metrics).
  void absorb(const Report& other, const std::string& prefix);
  /// Keeps exactly `specs`, in that order; a metric never measured, or
  /// measured in another unit, marks the report incorrect.
  void keep_only(const std::vector<MetricSpec>& specs);

  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const { return reasons_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// The one-line result object: correct, attempted, failed and metrics.
  [[nodiscard]] std::string json_line() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
  std::vector<Metric> metrics_;
};

/// Deterministic shuffle of 0..n-1 for the replay order of independent units.
[[nodiscard]] std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
