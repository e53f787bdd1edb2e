#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

double lower_quartile(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("lower quartile of no samples");
  const std::size_t index = nearest_rank(values.size(), 0.25) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<double> tail_percentile(std::vector<double> values, double q) {
  if (values.empty() || samples_beyond(values.size(), q) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  const std::size_t index = nearest_rank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

// --- UnitTimes -----------------------------------------------------------------

void UnitTimes::record(std::size_t unit, double seconds) {
  samples_.at(unit).push_back(seconds);
}

std::size_t UnitTimes::repetitions() const {
  std::size_t reps = samples_.empty() ? 0 : samples_.front().size();
  for (const auto& unit : samples_) reps = std::min(reps, unit.size());
  return reps;
}

double UnitTimes::unit_median(std::size_t unit) const { return median(samples_.at(unit)); }

double UnitTimes::sum_of_lower_quartiles() const {
  double total = 0;
  for (const auto& unit : samples_) total += lower_quartile(unit);
  return total;
}

// --- Tracer --------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Tracer::Scope Tracer::span(std::string name, std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1);
  SpanRecord record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.request =
      request != 0 || record.parent < 0 ? request : records_[record.parent].request;
  record.start_ns = now_ns();
  records_.push_back(std::move(record));
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::close(int index) {
  records_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes close in LIFO order; tolerate a stray out-of-order close.
  const auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

bool Tracer::write_json(const std::string& path) const {
  namespace json = ibgp::util::json;
  json::Array spans;
  spans.reserve(records_.size());
  for (const auto& r : records_) {
    json::Object span;
    span.emplace_back("name", r.name);
    span.emplace_back("start_ns", r.start_ns);
    span.emplace_back("end_ns", r.end_ns);
    span.emplace_back("parent", static_cast<std::int64_t>(r.parent));
    span.emplace_back("request", r.request);
    spans.emplace_back(std::move(span));
  }
  json::Object doc;
  doc.emplace_back("schema", "perfbench-spans-v1");
  doc.emplace_back("spans", std::move(spans));
  return json::write_file(path, json::Value(std::move(doc)));
}

std::vector<SpanSummary> summarize_spans(const std::vector<SpanRecord>& records) {
  std::vector<SpanSummary> out;
  std::map<std::string, std::size_t> index;
  const auto slot = [&](const std::string& name) -> SpanSummary& {
    const auto [it, inserted] = index.emplace(name, out.size());
    if (inserted) out.push_back(SpanSummary{name});
    return out[it->second];
  };
  for (const auto& r : records) {
    SpanSummary& s = slot(r.name);
    ++s.count;
    s.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  }
  for (const auto& r : records) {
    if (r.parent < 0) continue;
    const auto& parent = records[static_cast<std::size_t>(r.parent)];
    slot(parent.name).children_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  }
  return out;
}

// --- host --------------------------------------------------------------------

double host_control_ms() {
  // Fixed work, independent of the program under test: a red-black tree
  // churned by a fixed key stream.  Per sample this tracked the engine's
  // drift far better than a pure-ALU loop, because both are bound by
  // pointer chasing and allocation.
  const auto start = Clock::now();
  std::map<std::uint64_t, std::uint64_t> tree;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = x % 65536;
    const auto it = tree.find(key);
    if (it == tree.end()) {
      tree.emplace(key, i);
    } else {
      checksum += it->second;
      tree.erase(it);
    }
  }
  const double ms = seconds_between(start, Clock::now()) * 1e3;
  // Keep the loop observable so it cannot be optimized away.
  if (checksum == 1) std::fprintf(stderr, "host control checksum %llu\n",
                                  static_cast<unsigned long long>(checksum));
  return ms;
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this address space.  getrusage's
  // ru_maxrss would also carry the peak of whatever ran in this process
  // before exec (the Python launcher), hiding a smaller workload's peak.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

HostControl::HostControl(std::function<double()> sample_ms) : sample_ms_(std::move(sample_ms)) {}

void HostControl::after(double work_s) {
  work_s_ += work_s;
  const auto due = std::max<std::size_t>(1, static_cast<std::size_t>(work_s_ / kPeriodS));
  while (samples_ms_.size() < due) samples_ms_.push_back(sample_ms_());
}

double HostControl::control_ms() const { return lower_quartile(samples_ms_); }

double HostControl::to_reference(double seconds) const {
  return seconds * kReferenceControlMs / control_ms();
}

// --- BENCHMARK.json ----------------------------------------------------------

std::vector<MetricSpec> read_metric_specs(const std::string& path, const std::string& list) {
  namespace json = ibgp::util::json;
  std::string error;
  const auto doc = json::read_file(path, &error);
  const json::Value* entries = doc ? doc->find(list) : nullptr;
  if (entries == nullptr || !entries->is_array()) {
    throw std::runtime_error("cannot read the " + list + " list of " + path +
                             (error.empty() ? "" : ": " + error));
  }
  std::vector<MetricSpec> specs;
  for (const auto& entry : entries->as_array()) {
    const json::Value* name = entry.find("name");
    const json::Value* unit = entry.find("unit");
    if (name == nullptr || unit == nullptr || !name->is_string() || !unit->is_string()) {
      throw std::runtime_error(path + ": every " + list + " entry needs a name and a unit");
    }
    specs.push_back(MetricSpec{name->as_string(), unit->as_string()});
  }
  return specs;
}

// --- Report ------------------------------------------------------------------

void Report::fail(const std::string& reason, std::size_t count) {
  failed_ += count;
  if (reasons_.size() < 20) reasons_.push_back(reason);
}

void Report::refuse(const std::string& reason) {
  correct_ = false;
  if (reasons_.size() < 20) reasons_.push_back(reason);
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::absorb(const Report& other, const std::string& prefix) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  correct_ = correct_ && other.correct_;
  for (const auto& reason : other.reasons_) {
    if (reasons_.size() < 20) reasons_.push_back(prefix + reason);
  }
}

void Report::keep_only(const std::vector<MetricSpec>& specs) {
  std::vector<Metric> kept;
  for (const auto& spec : specs) {
    const Metric* m = find(spec.name);
    if (m == nullptr) {
      refuse("metric " + spec.name + " was not measured");
    } else if (m->unit != spec.unit) {
      refuse("metric " + spec.name + " is measured in " + m->unit + ", not " + spec.unit);
    } else {
      kept.push_back(*m);
    }
  }
  metrics_ = std::move(kept);
}

std::string Report::json_line() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  ibgp::util::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
  }
  return order;
}

}  // namespace perfbench
