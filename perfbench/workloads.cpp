#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <variant>

#include "analysis/continuity.hpp"
#include "analysis/finder.hpp"
#include "analysis/forwarding.hpp"
#include "analysis/invariants.hpp"
#include "ckpt/checkpoint.hpp"
#include "confed/engine.hpp"
#include "core/fixed_point.hpp"
#include "daemon/daemon.hpp"
#include "daemon/stream.hpp"
#include "daemon/wire.hpp"
#include "engine/event_engine.hpp"
#include "explore/explorer.hpp"
#include "explore/minimize.hpp"
#include "explore/mutate.hpp"
#include "explore/spec.hpp"
#include "fault/campaign.hpp"
#include "fault/script.hpp"
#include "fault/supervisor.hpp"
#include "fault/sweep.hpp"
#include "netsim/shortest_paths.hpp"
#include "netsim/validate.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ibgp;
namespace fs = std::filesystem;

namespace {

// --- shared helpers ----------------------------------------------------------

double elapsed_s(Clock::time_point start) { return seconds_between(start, Clock::now()); }

std::uint64_t instance_digest(const core::Instance& inst) {
  return util::fnv1a(topo::write_topo(inst));
}

std::uint64_t script_digest(const fault::FaultScript& script) {
  util::Fingerprint fp;
  fp.add(script.seed)
      .add(std::bit_cast<std::uint64_t>(script.loss_prob))
      .add(std::bit_cast<std::uint64_t>(script.dup_prob))
      .add(script.loss_detect_delay)
      .add(script.repair_downtime)
      .add(script.stale_timer);
  for (const auto& a : script.actions) {
    fp.add(a.time).add(static_cast<std::uint64_t>(a.kind)).add(a.a).add(a.b).add(a.path);
    fp.add(static_cast<std::uint64_t>(a.cost));
  }
  return fp.value();
}

std::uint64_t random_config_digest(const topo::RandomConfig& c) {
  util::Fingerprint fp;
  fp.add(c.clusters).add(c.min_clients).add(c.max_clients);
  fp.add(std::bit_cast<std::uint64_t>(c.second_reflector_prob));
  fp.add(c.neighbor_ases).add(c.exits).add(c.exits_at_clients_only ? 1u : 0u);
  fp.add(c.max_med).add(static_cast<std::uint64_t>(c.max_link_cost));
  fp.add(static_cast<std::uint64_t>(c.max_exit_cost));
  fp.add(c.equal_local_pref ? 1u : 0u).add(c.equal_as_path_length ? 1u : 0u);
  fp.add(std::bit_cast<std::uint64_t>(c.extra_link_prob));
  fp.add(static_cast<std::uint64_t>(c.policy.order)).add(static_cast<std::uint64_t>(c.policy.med));
  return fp.value();
}

/// Times fn() and records it under `name` as a span; returns seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn, std::uint64_t request = 0) {
  const auto scope = tracer.span(name, request);
  const auto start = Clock::now();
  fn();
  return elapsed_s(start);
}

obs::MetricSample sample_of(const obs::MetricsRegistry& registry, const char* name) {
  for (auto& sample : registry.snapshot()) {
    if (sample.name == name) return sample;
  }
  return {};
}

/// Exact mean of a span histogram (its sum over its count).  The program's
/// span buckets step x4, so an interpolated p50 sits on a bucket midpoint
/// whenever every sample shares a bucket; the mean keeps all its digits.
double span_mean(const obs::MetricSample& span) {
  return span.total == 0 ? 0 : static_cast<double>(span.sum) / static_cast<double>(span.total);
}

/// Sets `name` to the median of `samples`, when there are any.
void set_median(Report& out, const char* name, const std::vector<double>& samples,
                const char* unit) {
  if (!samples.empty()) out.set(name, median(samples), unit);
}

/// netsim build layer, timed standalone on already built instances: one
/// all-pairs ShortestPaths and one validate per instance, summed, median
/// over `calls` passes.
void time_netsim_build(const std::vector<const core::Instance*>& instances, std::size_t calls,
                       Tracer& tracer, Report& layers) {
  std::vector<double> spf, validate;
  for (std::size_t c = 0; c < calls; ++c) {
    double spf_s = 0, validate_s = 0;
    for (const auto* inst : instances) {
      spf_s += timed(tracer, "netsim.ShortestPaths", [&] {
        const netsim::ShortestPaths sp(inst->physical());
        if (sp.node_count() != inst->node_count()) throw std::logic_error("ShortestPaths size");
      });
      validate_s += timed(tracer, "netsim.validate", [&] {
        const auto report = netsim::validate(inst->physical(), inst->clusters(), inst->sessions());
        if (!report.ok()) throw std::logic_error("validate rejected a built instance");
      });
    }
    spf.push_back(spf_s);
    validate.push_back(validate_s);
  }
  set_median(layers, "netsim.shortest_paths_s", spf, "s");
  set_median(layers, "netsim.validate_s", validate, "s");
}

/// The engine, selection, export, post-run analysis and engine-state layers,
/// timed as standalone calls on engines the runner builds itself.  One
/// registry with the engine's sampled profiler spans collects across every
/// engine the probe runs.
class EngineProbe {
 public:
  EngineProbe() { engine::register_event_engine_metrics(registry_); }

  /// Attach before anything is scheduled on (or restored into) the engine.
  void attach(engine::EventEngine& e) {
    e.set_metrics(&registry_);
    e.set_profile(true);
  }

  /// Runs to quiescence or the budget.  `base` holds the counters an engine
  /// restored from a checkpoint already carries.
  engine::EventEngine::Result run(engine::EventEngine& e, std::size_t budget, Tracer& tracer,
                                  const engine::EngineState* base = nullptr) {
    engine::EventEngine::Result result;
    run_s_ += timed(tracer, "engine.run", [&] { result = e.run(budget); });
    deliveries_ += result.deliveries - (base ? base->deliveries : 0);
    updates_ += result.updates_sent - (base ? base->updates_sent : 0);
    decisions_ += result.decisions_total - (base ? base->decisions_total : 0);
    return result;
  }

  /// Post-run analysis passes; returns the trace hash.
  std::uint64_t analyze(const engine::EventEngine& e, const engine::EventEngine::Result& result,
                        Tracer& tracer) {
    invariants_s_ += timed(tracer, "analysis.check_invariants",
                           [&] { (void)analysis::check_invariants(e); });
    continuity_s_ += timed(tracer, "analysis.check_continuity",
                           [&] { (void)analysis::check_continuity(e, result.end_time); });
    std::uint64_t hash = 0;
    trace_hash_s_ += timed(tracer, "fault.trace_hash", [&] { hash = fault::trace_hash(e, result); });
    return hash;
  }

  /// Capture, ibgp-ckpt-v1 encode and restore into a fresh engine.
  void checkpoint(const engine::EventEngine& e, const core::Instance& inst,
                  core::ProtocolKind protocol, Tracer& tracer) {
    engine::EngineState state;
    capture_us_.push_back(timed(tracer, "engine.capture", [&] { state = e.capture(); }) * 1e6);
    std::size_t bytes = 0;
    encode_ms_.push_back(timed(tracer, "ckpt.encode", [&] {
                           bytes = ckpt::engine_state_json(state).dump_compact().size();
                         }) * 1e3);
    bytes_max_ = std::max(bytes_max_, bytes);
    restore_us_.push_back(timed(tracer, "engine.restore", [&] {
                            engine::EventEngine fresh(inst, protocol);
                            fresh.restore(state);
                          }) * 1e6);
  }

  void restore_sample(double seconds) { restore_us_.push_back(seconds * 1e6); }

  void report(Report& layers) const {
    if (deliveries_ > 0) {
      layers.set("engine.run_s", run_s_, "s");
      layers.set("engine.deliveries", static_cast<double>(deliveries_), "count");
      layers.set("engine.updates_sent", static_cast<double>(updates_), "count");
      layers.set("engine.decisions", static_cast<double>(decisions_), "count");
      layers.set("engine.ns_per_delivery", run_s_ * 1e9 / static_cast<double>(deliveries_), "ns");
      layers.set("analysis.check_invariants_s", invariants_s_, "s");
      layers.set("analysis.check_continuity_s", continuity_s_, "s");
      layers.set("fault.trace_hash_s", trace_hash_s_, "s");
      const auto delivery = sample_of(registry_, "engine.span.delivery_ns");
      const auto decision = sample_of(registry_, "engine.span.decision_ns");
      const auto transfer = sample_of(registry_, "engine.span.transfer_ns");
      if (delivery.total > 0) {
        layers.set("engine.span.delivery_ns.mean", span_mean(delivery), "ns");
        layers.set("engine.span.decision_ns.mean", span_mean(decision), "ns");
        layers.set("engine.span.transfer_ns.mean", span_mean(transfer), "ns");
        // Sampled together (1 in 64 deliveries arms all three), so the
        // ratios are unbiased.
        layers.set("engine.transfers_per_delivery",
                   static_cast<double>(transfer.total) / static_cast<double>(delivery.total),
                   "ratio");
        layers.set("engine.unattributed_share",
                   static_cast<double>(delivery.sum - decision.sum - transfer.sum) /
                       static_cast<double>(delivery.sum),
                   "ratio");
      }
      layers.set("engine.queue_depth_max",
                 static_cast<double>(sample_of(registry_, "engine.queue_depth_max").gauge_value),
                 "count");
    }
    set_median(layers, "engine.capture_us.p50", capture_us_, "us");
    set_median(layers, "engine.restore_us.p50", restore_us_, "us");
    set_median(layers, "ckpt.encode_ms.p50", encode_ms_, "ms");
    if (!encode_ms_.empty()) layers.set("ckpt.bytes_max", static_cast<double>(bytes_max_), "bytes");
  }

 private:
  obs::MetricsRegistry registry_;
  double run_s_ = 0, invariants_s_ = 0, continuity_s_ = 0, trace_hash_s_ = 0;
  std::uint64_t deliveries_ = 0, updates_ = 0, decisions_ = 0;
  std::vector<double> capture_us_, restore_us_, encode_ms_;
  std::size_t bytes_max_ = 0;
};

void report_spf(const obs::MetricsRegistry& registry, std::size_t epochs, Report& layers) {
  const std::uint64_t hits = registry.counter_value("spf.hits");
  const std::uint64_t misses = registry.counter_value("spf.misses");
  if (hits + misses == 0) return;  // the SPF cache is not on this workload's path
  layers.set("spf.hits", static_cast<double>(hits), "count");
  layers.set("spf.misses", static_cast<double>(misses), "count");
  layers.set("spf.epochs", static_cast<double>(epochs), "count");
  if (misses > 0) {
    layers.set("spf.recompute_ns.mean", span_mean(sample_of(registry, "spf.recompute_ns")), "ns");
  }
}

// --- pinned anchors ------------------------------------------------------------

/// Anchors of the full-size workloads: "inputs" digests every generated
/// input (a product change to a generator must not silently change a
/// workload), the rest pin outputs every repetition must reproduce.  Smoke
/// sizes check only the universal anchors each constructor adds (no errors,
/// convergence, the section 7 theorems) and repetition-to-repetition
/// agreement.
std::map<std::string, std::uint64_t> full_size_pins(const std::string& workload) {
  if (workload == "churn-sweep") {
    // The E16 smoke anchors (ROADMAP aim 2).
    return {{"inputs", 0xd38a029422653a0fULL},
            {"decisions", 2610791},
            {"sweep_fingerprint", 0xcdc6072cf4e5ddd0ULL},
            {"metrics_fingerprint", 0x03c1f60f33e0e9bbULL}};
  }
  if (workload == "rr-1k") {
    return {{"inputs", 0x818077efded808f2ULL},
            {"routers", 999},
            {"trace_hash", 0xc478c1bdbbafe713ULL}};
  }
  if (workload == "daemon-stream") {
    return {{"inputs", 0xd8fcfa1e537b95a1ULL},
            {"lines", 1936},
            {"wire_hash", 0xe1c93aba0b04de86ULL},
            {"trace_hash", 0x70f4cab71171201aULL},
            {"metrics_fingerprint", 0xa32e3c23e4b7917aULL}};
  }
  if (workload == "explore-search") {
    return {{"inputs", 0x36dda1a27eec7b17ULL},
            {"evaluated", 2048},
            {"hits", 11},
            {"hit_fingerprints", 0xfc140e0fa3eed840ULL}};
  }
  return {};
}

// =============================================================================
// churn-sweep: the E16 smoke grid, one fault::run_campaign per cell.
// =============================================================================

struct ChurnLevel {
  std::size_t cost_changes, link_downs, partitions, session_flaps, graceful_restarts;
};

// bench_churn's kLevels: none, jitter, failures, partition, mixed.
constexpr ChurnLevel kChurnLevels[] = {
    {0, 0, 0, 0, 0}, {4, 0, 0, 0, 0}, {0, 3, 0, 0, 0}, {0, 0, 1, 0, 0}, {2, 2, 0, 2, 1},
};

class ChurnSweep final : public Workload {
 public:
  explicit ChurnSweep(Size size) : size_(size) {
    pins_ = {{"cell_errors", 0}};
    if (size_ == Size::kFull) pins_.merge(full_size_pins("churn-sweep"));
  }

  const char* name() const override { return "churn-sweep"; }

  void setup() override {
    for (const auto& inst : figures_) inst.spf_cache().attach_metrics(nullptr);
    figures_.clear();
    cells_.clear();
    scripts_.clear();
    repetitions_ = 0;
    for (auto& [label, inst] : topo::all_figures()) {
      if (label == "fig1a" || label == "fig3") figures_.push_back(std::move(inst));
    }
    const std::size_t seeds = size_ == Size::kFull ? 3 : 1;
    const std::size_t budget = size_ == Size::kFull ? 100000 : 2000;
    for (const auto& inst : figures_) {
      for (std::size_t l = 0; l < std::size(kChurnLevels); ++l) {
        if (size_ == Size::kSmoke && l != 0 && l != 4) continue;
        for (const auto protocol : {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
                                    core::ProtocolKind::kModified}) {
          for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
            fault::SweepCell cell;
            cell.instance = &inst;
            cell.protocol = protocol;
            scripts_.push_back(script_config(seed, kChurnLevels[l]));
            cell.script = fault::make_fault_script(inst, scripts_.back());
            cell.options.max_deliveries = budget;
            cells_.push_back(std::move(cell));
          }
        }
      }
    }
  }

  Observations input_digests() const override {
    util::Fingerprint fp;
    for (const auto& inst : figures_) fp.add(instance_digest(inst));
    for (const auto& cell : cells_) {
      fp.add(cell.instance->name()).add(static_cast<std::uint64_t>(cell.protocol));
      fp.add(script_digest(cell.script)).add(cell.options.max_deliveries);
    }
    return {{"inputs", fp.value()}};
  }

  std::size_t units() const override { return cells_.size(); }

  double begin_repetition(Tracer&) override {
    results_.assign(cells_.size(), {});
    registry_ = std::make_unique<obs::MetricsRegistry>();
    fault::register_supervisor_metrics(*registry_);
    errors_ = 0;
    // The SPF counters watch only the warm-up, the first pass after
    // set-up, where every distinct IGP epoch of the sweep is computed;
    // later passes only hit the cache.
    for (const auto& inst : figures_) {
      inst.spf_cache().attach_metrics(repetitions_++ == 0 ? &spf_registry_ : nullptr);
    }
    return -1;
  }

  double run_unit(std::size_t i, Tracer& tracer, bool traced, Report& report) override {
    fault::CampaignOptions options = cells_[i].options;
    options.metrics = registry_.get();
    options.profile = traced;
    const auto unit = tracer.span("cell", i + 1);
    const auto start = Clock::now();
    try {
      const auto scope = tracer.span("fault.run_campaign");
      results_[i] = fault::run_campaign(*cells_[i].instance, cells_[i].protocol,
                                        cells_[i].script, options);
    } catch (const std::exception& e) {
      ++errors_;
      report.fail(std::string("cell ") + std::to_string(i) + ": " + e.what());
    }
    return elapsed_s(start);
  }

  Observations end_repetition(bool) override {
    std::uint64_t decisions = 0;
    for (const auto& r : results_) decisions += r.run.decisions_total;
    return {{"cell_errors", errors_},
            {"decisions", decisions},
            {"sweep_fingerprint", fault::sweep_fingerprint(results_)},
            {"metrics_fingerprint", registry_->fingerprint()}};
  }

  void layer_metrics(Tracer& tracer, Report& layers) override {
    std::vector<const core::Instance*> instances;
    for (const auto& inst : figures_) instances.push_back(&inst);
    time_netsim_build(instances, 21, tracer, layers);

    EngineProbe probe;
    double script_s = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const auto unit = tracer.span("cell.standalone", i + 1);
      const auto& cell = cells_[i];
      fault::FaultScript script;
      script_s += timed(tracer, "fault.make_fault_script",
                        [&] { script = fault::make_fault_script(*cell.instance, scripts_[i]); });
      engine::EventEngine e(*cell.instance, cell.protocol);
      fault::ScriptInjector injector(script);
      timed(tracer, "engine.prepare", [&] {
        if (script.stale_timer > 0) e.set_stale_timer(script.stale_timer);
        probe.attach(e);
        e.set_fault_injector(&injector);
        e.inject_all_exits(0);
        fault::apply_script(script, e);
      });
      const auto result = probe.run(e, cell.options.max_deliveries, tracer);
      const std::uint64_t hash = probe.analyze(e, result, tracer);
      layers.attempt();
      if (hash != results_[i].trace_hash) {
        layers.fail("cell " + std::to_string(i) +
                    ": standalone engine run disagrees with run_campaign's trace hash");
      }
      probe.checkpoint(e, *cell.instance, cell.protocol, tracer);
    }
    layers.set("fault.make_fault_script_s", script_s, "s");
    probe.report(layers);
    report_spf(spf_registry_, spf_registry_.counter_value("spf.inserts"), layers);
  }

 private:
  static fault::FaultScriptConfig script_config(std::uint64_t seed, const ChurnLevel& level) {
    fault::FaultScriptConfig config;
    config.seed = seed;
    config.window_start = 20;
    config.window_end = 400;
    config.link_cost_changes = level.cost_changes;
    config.link_downs = level.link_downs;
    config.partitions = level.partitions;
    config.session_flaps = level.session_flaps;
    config.graceful_restarts = level.graceful_restarts;
    return config;
  }

  Size size_;
  obs::MetricsRegistry spf_registry_;    // outlives the caches it is attached to
  std::vector<core::Instance> figures_;  // complete before cells point into it
  std::vector<fault::SweepCell> cells_;
  std::vector<fault::FaultScriptConfig> scripts_;
  std::vector<fault::CampaignResult> results_;
  std::unique_ptr<obs::MetricsRegistry> registry_;  // fresh per repetition
  std::size_t repetitions_ = 0;  // since the last set-up
  std::uint64_t errors_ = 0;
};

// =============================================================================
// rr-1k: the 200-cluster size-ladder rung, one convergence per repetition.
// =============================================================================

class Rr1k final : public Workload {
 public:
  explicit Rr1k(Size size) {
    config_.clusters = size == Size::kFull ? 200 : 20;
    config_.min_clients = 2;
    config_.max_clients = 6;
    config_.neighbor_ases = 4;
    config_.exits = size == Size::kFull ? 64 : 16;
    config_.extra_link_prob = 0.02;
    seed_ = size == Size::kFull ? 21 : 1;  // 21: 999 routers, 20,699 sessions
    pins_ = {{"converged", 1}, {"fixed_point_mismatches", 0}, {"forwarding_loops", 0}};
    if (size == Size::kFull) pins_.merge(full_size_pins("rr-1k"));
  }

  const char* name() const override { return "rr-1k"; }

  void setup() override {
    instance_.reset();
    instance_ = std::make_unique<core::Instance>(topo::random_instance(config_, seed_));
  }

  Observations input_digests() const override {
    util::Fingerprint fp;
    fp.add(random_config_digest(config_)).add(seed_).add(instance_digest(*instance_));
    return {{"inputs", fp.value()}};
  }

  std::size_t units() const override { return 1; }

  double begin_repetition(Tracer&) override { return -1; }

  double run_unit(std::size_t, Tracer& tracer, bool traced, Report& report) override {
    const auto unit = tracer.span("convergence", 1);
    obs::MetricsRegistry registry;
    const auto start = Clock::now();
    engine::EventEngine e(*instance_, core::ProtocolKind::kModified);
    if (traced) {
      e.set_metrics(&registry);
      e.set_profile(true);
    }
    {
      const auto scope = tracer.span("engine.inject_all_exits");
      e.inject_all_exits(0);
    }
    {
      const auto scope = tracer.span("engine.run");
      result_ = e.run(kBudget);
    }
    const double seconds = elapsed_s(start);
    trace_hash_ = fault::trace_hash(e, result_);
    if (!result_.converged) report.fail("rr-1k: no convergence within the delivery budget");
    return seconds;
  }

  Observations end_repetition(bool) override {
    if (!prediction_) prediction_ = core::predict_fixed_point(*instance_);
    std::uint64_t mismatches = 0;
    for (NodeId v = 0; v < instance_->node_count(); ++v) {
      const auto& predicted = prediction_->best[v];
      const PathId expected = predicted ? predicted->path : kNoPath;
      if (v >= result_.final_best.size() || result_.final_best[v] != expected) ++mismatches;
    }
    const auto forwarding = analysis::analyze_forwarding(*instance_, result_.final_best);
    return {{"converged", result_.converged ? 1u : 0u},
            {"fixed_point_mismatches", mismatches},
            {"forwarding_loops", forwarding.loops},
            {"routers", instance_->node_count()},
            {"trace_hash", trace_hash_}};
  }

  void layer_metrics(Tracer& tracer, Report& layers) override {
    std::vector<double> build;
    for (int i = 0; i < 3; ++i) {
      build.push_back(timed(tracer, "topo.random_instance",
                            [&] { (void)topo::random_instance(config_, seed_); }));
    }
    set_median(layers, "topo.random_instance_s", build, "s");
    time_netsim_build({instance_.get()}, 3, tracer, layers);

    EngineProbe probe;
    const auto unit = tracer.span("convergence.standalone", 1);
    engine::EventEngine e(*instance_, core::ProtocolKind::kModified);
    probe.attach(e);
    e.inject_all_exits(0);
    const auto result = probe.run(e, kBudget, tracer);
    probe.analyze(e, result, tracer);
    probe.checkpoint(e, *instance_, core::ProtocolKind::kModified, tracer);
    probe.report(layers);
  }

 private:
  static constexpr std::size_t kBudget = 5'000'000;

  topo::RandomConfig config_;
  std::uint64_t seed_ = 1;
  std::unique_ptr<core::Instance> instance_;
  engine::EventEngine::Result result_;
  std::uint64_t trace_hash_ = 0;
  std::optional<core::FixedPointPrediction> prediction_;
};

// =============================================================================
// daemon-stream: an in-process daemon::Daemon fed a generated wire stream,
// closed loop, one fresh daemon per repetition.
// =============================================================================

enum class LineKind { kHello, kAck, kRead, kWhatIf, kDrain };

class DaemonStream final : public Workload {
 public:
  DaemonStream(Size size, const std::string& work_dir) {
    config_.clusters = size == Size::kFull ? 24 : 12;
    config_.min_clients = 2;
    config_.max_clients = 6;
    config_.neighbor_ases = 3;
    config_.exits = 12;
    config_.extra_link_prob = 0.04;
    instance_seed_ = 11;
    stream_.seed = 12;
    // Enough records that every tail percentile has ten lines beyond it
    // (p90 of about 110 what-ifs); the smoke size shrinks only the instance.
    stream_.state_records = 1400;
    root_ = fs::path(work_dir) / ("daemon-" + std::to_string(::getpid()));
    pins_ = {{"errors", 0}};
    if (size == Size::kFull) pins_.merge(full_size_pins("daemon-stream"));
  }

  ~DaemonStream() override {
    daemon_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  DaemonStream(const DaemonStream&) = delete;
  DaemonStream& operator=(const DaemonStream&) = delete;

  const char* name() const override { return "daemon-stream"; }
  bool ordered() const override { return true; }

  /// A fresh instance, the wire stream, and a fresh Daemon on an empty
  /// state directory with ibgpd's defaults (checkpoint every 64 records,
  /// unbounded SPF cache).
  void setup() override {
    daemon_.reset();
    instance_ = std::make_shared<core::Instance>(topo::random_instance(config_, instance_seed_));
    lines_ = daemon::generate_stream(*instance_, core::ProtocolKind::kModified, stream_);
    kinds_.clear();
    for (const auto& line : lines_) kinds_.push_back(classify(line));
    state_dir_ = root_ / "state";
    fs::remove_all(state_dir_);
    fs::create_directories(state_dir_);
    daemon::DaemonOptions options;
    options.state_dir = state_dir_.string();
    daemon_ = std::make_unique<daemon::Daemon>(instance_, core::ProtocolKind::kModified, options);
  }

  Observations input_digests() const override {
    util::Fingerprint fp;
    fp.add(random_config_digest(config_)).add(instance_seed_).add(instance_digest(*instance_));
    for (const auto& line : lines_) fp.add(std::string_view(line));
    return {{"inputs", fp.value()}};
  }

  std::size_t units() const override { return lines_.size(); }

  double begin_repetition(Tracer& tracer) override {
    errors_ = 0;
    drained_.clear();
    checkpoints_.clear();
    const auto scope = tracer.span("daemon.setup");
    const auto start = Clock::now();
    setup();
    return elapsed_s(start);
  }

  double run_unit(std::size_t i, Tracer& tracer, bool traced, Report& report) override {
    std::string reply;
    const std::uint64_t seq_before = daemon_->applied_seq();
    const auto unit = tracer.span("line", i + 1);
    const auto start = Clock::now();
    {
      const auto scope = tracer.span("daemon.handle_line");
      reply = daemon_->handle_line(lines_[i]);
    }
    const double seconds = elapsed_s(start);
    if (reply.find("\"ev\":\"error\"") != std::string::npos) {
      ++errors_;
      report.fail("line " + std::to_string(i) + ": " + reply);
    }
    if (kinds_[i] == LineKind::kDrain) drained_ = reply;
    // Keep every checkpoint the daemon writes (it replaces one file), so
    // the traced run can rebuild engines from each of them.
    if (traced && daemon_->applied_seq() != seq_before && daemon_->applied_seq() % 64 == 0) {
      const fs::path copy = root_ / ("ckpt-" + std::to_string(checkpoints_.size()) + ".json");
      fs::copy_file(state_dir_ / "checkpoint.json", copy, fs::copy_options::overwrite_existing);
      checkpoints_.push_back({copy, i});
    }
    return seconds;
  }

  Observations end_repetition(bool traced) override {
    Observations out = {{"errors", errors_}, {"lines", lines_.size()}};
    const auto doc = util::json::parse(drained_);
    const auto field = [&](const char* key) -> std::uint64_t {
      const auto* v = doc ? doc->find(key) : nullptr;
      if (v == nullptr || !v->is_string()) return 0;
      return std::strtoull(v->as_string().c_str(), nullptr, 16);
    };
    out.emplace_back("wire_hash", field("wire_hash"));
    out.emplace_back("trace_hash", field("trace_hash"));
    out.emplace_back("metrics_fingerprint", field("metrics_fingerprint"));
    if (traced) capture_daemon_metrics();
    return out;
  }

  void unit_metrics(const UnitTimes& times, Report& out) const override {
    std::vector<double> ack, read, whatif;
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      const double us = times.unit_median(i) * 1e6;
      if (kinds_[i] == LineKind::kAck) ack.push_back(us);
      if (kinds_[i] == LineKind::kRead) read.push_back(us);
      if (kinds_[i] == LineKind::kWhatIf) whatif.push_back(us);
    }
    const auto put = [&](const char* name, const std::vector<double>& values, double q) {
      const auto value = q == 0.5 ? std::optional<double>(median(values))
                                  : tail_percentile(values, q);
      if (value) out.set(name, *value, "us");
    };
    put("daemon.ack_us_p50", ack, 0.5);
    put("daemon.ack_us_p99", ack, 0.99);
    put("daemon.read_us_p50", read, 0.5);
    put("daemon.read_us_p95", read, 0.95);
    put("daemon.whatif_us_p50", whatif, 0.5);
    put("daemon.whatif_us_p90", whatif, 0.90);
  }

  void layer_metrics(Tracer& tracer, Report& layers) override {
    std::vector<double> build;
    for (int i = 0; i < 5; ++i) {
      build.push_back(timed(tracer, "topo.random_instance", [&] {
        (void)topo::random_instance(config_, instance_seed_);
      }));
    }
    set_median(layers, "topo.random_instance_s", build, "s");
    time_netsim_build({instance_.get()}, 11, tracer, layers);

    // Wire codec, standalone on every line.
    std::vector<double> parse_us;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      parse_us.push_back(timed(tracer, "daemon.parse_record", [&] {
                           const auto parsed = daemon::parse_record(lines_[i]);
                           if (std::holds_alternative<daemon::WireError>(parsed)) {
                             layers.fail("parse_record rejected line " + std::to_string(i));
                           }
                         }, i + 1) * 1e6);
    }
    layers.attempt(lines_.size());
    set_median(layers, "daemon.parse_record_us.p50", parse_us, "us");

    // Engines rebuilt from the daemon's own checkpoint files.  Each one
    // replays the stream's next what-if: the hypothetical fault one tick
    // past the checkpoint's clock, run to quiescence, as the daemon's
    // sandbox does (the checkpointed engine itself is already quiescent).
    EngineProbe probe;
    for (std::size_t c = 0; c < checkpoints_.size(); ++c) {
      const auto& [path, line] = checkpoints_[c];
      const auto unit = tracer.span("checkpoint.standalone", c + 1);
      layers.attempt();
      std::optional<util::json::Value> doc;
      timed(tracer, "ckpt.read", [&] { doc = util::json::read_file(path.string()); });
      if (!doc || doc->find("engine") == nullptr || doc->find("clock") == nullptr) {
        layers.fail("unreadable daemon checkpoint " + path.string());
        continue;
      }
      engine::EngineState state;
      timed(tracer, "ckpt.parse_engine_state",
            [&] { state = ckpt::parse_engine_state(doc->at("engine")); });
      engine::EventEngine e(*instance_, core::ProtocolKind::kModified);
      probe.attach(e);
      probe.restore_sample(timed(tracer, "engine.restore", [&] { e.restore(state); }));
      std::size_t next = line + 1;
      while (next < lines_.size() && kinds_[next] != LineKind::kWhatIf) ++next;
      if (next < lines_.size()) {
        const auto parsed = daemon::parse_record(lines_[next]);
        if (const auto* rec = std::get_if<daemon::WireRecord>(&parsed)) {
          schedule_fault(e, *rec, doc->at("clock").as_uint() + 1);
        }
      }
      const auto result = probe.run(e, 5'000'000, tracer, &state);
      probe.analyze(e, result, tracer);
      probe.checkpoint(e, *instance_, core::ProtocolKind::kModified, tracer);
    }
    probe.report(layers);

    for (const auto& m : daemon_layers_.metrics()) layers.set(m.name, m.value, m.unit);
  }

 private:
  /// The daemon's fault scheduling, through the engine's public calls.
  static void schedule_fault(engine::EventEngine& e, const daemon::WireRecord& rec,
                             engine::SimTime when) {
    switch (rec.fault) {
      case engine::FaultKind::kSessionDown: e.schedule_session_down(rec.a, rec.b, when); break;
      case engine::FaultKind::kSessionUp: e.schedule_session_up(rec.a, rec.b, when); break;
      case engine::FaultKind::kCrash: e.schedule_crash(rec.a, when); break;
      case engine::FaultKind::kRestart: e.schedule_restart(rec.a, when); break;
      case engine::FaultKind::kGracefulDown: e.schedule_graceful_down(rec.a, when); break;
      case engine::FaultKind::kLinkCostChange:
        e.schedule_link_cost_change(rec.a, rec.b, rec.cost, when);
        break;
      case engine::FaultKind::kLinkDown: e.schedule_link_down(rec.a, rec.b, when); break;
      case engine::FaultKind::kLinkUp: e.schedule_link_up(rec.a, rec.b, when); break;
      default: break;
    }
  }

  static LineKind classify(const std::string& line) {
    const auto doc = util::json::parse(line);
    const auto* ev = doc ? doc->find("ev") : nullptr;
    const std::string kind = ev != nullptr && ev->is_string() ? ev->as_string() : "";
    if (kind == "hello") return LineKind::kHello;
    if (kind == "drain") return LineKind::kDrain;
    if (kind == "query") {
      const auto* q = doc->find("q");
      return q != nullptr && q->is_string() && q->as_string() == "whatif" ? LineKind::kWhatIf
                                                                          : LineKind::kRead;
    }
    return LineKind::kAck;
  }

  /// The daemon's always-on spans and the SPF counters it attaches.
  void capture_daemon_metrics() {
    const auto& registry = daemon_->metrics();
    const auto fsync = sample_of(registry, "daemon.span.wal_fsync_ns");
    daemon_layers_.set("daemon.span.wal_fsync_ns.mean", span_mean(fsync), "ns");
    daemon_layers_.set("daemon.span.wal_fsync_ns.count", static_cast<double>(fsync.total), "count");
    daemon_layers_.set("daemon.span.ckpt_write_ns.mean",
                       span_mean(sample_of(registry, "daemon.span.ckpt_write_ns")), "ns");
    daemon_layers_.set("daemon.checkpoints",
                       static_cast<double>(registry.counter_value("daemon.checkpoints")), "count");
    for (const char* kind : {"best", "path", "status", "stats", "whatif"}) {
      const std::string name = std::string("daemon.latency.") + kind + "_ns";
      daemon_layers_.set(name + ".mean", span_mean(sample_of(registry, name.c_str())), "ns");
    }
    report_spf(registry, instance_->igp_epoch_count(), daemon_layers_);
  }

  topo::RandomConfig config_;
  std::uint64_t instance_seed_ = 1;
  daemon::StreamOptions stream_;
  fs::path root_, state_dir_;
  std::shared_ptr<core::Instance> instance_;
  std::unique_ptr<daemon::Daemon> daemon_;
  std::vector<std::string> lines_;
  std::vector<LineKind> kinds_;
  std::string drained_;
  std::uint64_t errors_ = 0;
  std::vector<std::pair<fs::path, std::size_t>> checkpoints_;  // copy, line index
  Report daemon_layers_;
};

// =============================================================================
// explore-search: explore::explore at a fixed seed, one thread, default
// minimization.
// =============================================================================

class ExploreSearch final : public Workload {
 public:
  explicit ExploreSearch(Size size) : size_(size) {
    config_.seed = 7;
    config_.jobs = 1;
    if (size_ == Size::kSmoke) {
      config_.budget = 128;
      config_.random_seeds = 4;
      config_.hybrid_seeds = 1;
    }
    pins_ = {{"theorem_violations", 0}};
    if (size_ == Size::kFull) pins_.merge(full_size_pins("explore-search"));
  }

  const char* name() const override { return "explore-search"; }

  /// The seed instances the explorer derives from its config: random
  /// instances and confederation hybrids, built the way explore::explore
  /// builds them.  explore() receives only the config and rebuilds these
  /// inside the timed search, so this set-up is a stand-in for that part of
  /// the search (see BENCHMARK.md).
  void setup() override {
    seed_pool_.clear();
    hybrid_digests_.clear();
    for (std::size_t i = 0; i < config_.random_seeds; ++i) {
      seed_pool_.push_back(
          topo::random_instance(config_.random_config, util::derive_seed(config_.seed, i)));
    }
    for (std::size_t i = 0; i < config_.hybrid_seeds; ++i) {
      const auto confed = i == 0 ? confed::rfc3345_confederation()
                                 : confed::random_confederation(
                                       confed::RandomConfedConfig{},
                                       util::derive_seed(config_.seed ^ 0x9e3779b9u, i));
      const auto inst = explore::try_build(explore::hybrid_spec(confed));
      hybrid_digests_.push_back(inst ? instance_digest(*inst) : 0);
    }
  }

  Observations input_digests() const override {
    util::Fingerprint fp;
    fp.add(static_cast<std::uint64_t>(config_.attack)).add(config_.seed).add(config_.budget);
    fp.add(config_.batch).add(config_.max_steps).add(config_.max_deliveries);
    fp.add(config_.frontier_cap).add(config_.jobs);
    fp.add(config_.require_med_induced ? 1u : 0u).add(config_.require_modified_converges ? 1u : 0u);
    fp.add(config_.minimize ? 1u : 0u).add(random_config_digest(config_.random_config));
    fp.add(config_.random_seeds).add(config_.hybrid_seeds);
    for (const auto& inst : seed_pool_) fp.add(instance_digest(inst));
    for (const auto digest : hybrid_digests_) fp.add(digest);
    return {{"inputs", fp.value()}};
  }

  std::size_t units() const override { return 1; }

  double begin_repetition(Tracer&) override { return -1; }

  double run_unit(std::size_t, Tracer& tracer, bool, Report& report) override {
    const auto unit = tracer.span("search", 1);
    const auto start = Clock::now();
    {
      const auto scope = tracer.span("explore.explore");
      result_ = explore::explore(config_);
    }
    const double seconds = elapsed_s(start);
    if (result_.stats.theorem_violations != 0) {
      report.fail("explore-search: modified protocol oscillated (Theorem 2 violated)");
    }
    return seconds;
  }

  Observations end_repetition(bool) override {
    util::Fingerprint fp;
    for (const auto& hit : result_.hits) fp.add(hit.fingerprint);
    return {{"theorem_violations", result_.stats.theorem_violations},
            {"evaluated", result_.stats.evaluated},
            {"hits", result_.hits.size()},
            {"hit_fingerprints", fp.value()}};
  }

  void layer_metrics(Tracer& tracer, Report& layers) override {
    layers.set("explore.evaluated", static_cast<double>(result_.stats.evaluated), "count");

    std::vector<double> build;
    for (int i = 0; i < 5; ++i) {
      build.push_back(timed(tracer, "topo.random_instance", [&] {
        for (std::size_t s = 0; s < config_.random_seeds; ++s) {
          (void)topo::random_instance(config_.random_config, util::derive_seed(config_.seed, s));
        }
      }));
    }
    set_median(layers, "topo.random_instance_s", build, "s");
    std::vector<const core::Instance*> pool;
    for (const auto& inst : seed_pool_) pool.push_back(&inst);
    time_netsim_build(pool, 11, tracer, layers);

    // A sample of first-generation mutants of the search's seed pool.
    const std::size_t sample = size_ == Size::kFull ? 96 : 16;
    std::vector<double> mutate_us, build_us, coverage_us, classify_us;
    EngineProbe probe;
    for (std::size_t j = 0; j < sample; ++j) {
      const auto unit = tracer.span("mutant", j + 1);
      const auto parent = explore::spec_of(seed_pool_[j % seed_pool_.size()]);
      explore::InstanceSpec child;
      mutate_us.push_back(timed(tracer, "explore.mutate", [&] {
                            child = explore::mutate(parent, util::derive_seed(config_.seed, 1000 + j));
                          }) * 1e6);
      std::optional<core::Instance> inst;
      build_us.push_back(timed(tracer, "explore.try_build",
                               [&] { inst = explore::try_build(child); }) * 1e6);
      if (!inst || inst->exits().empty()) continue;
      coverage_us.push_back(timed(tracer, "explore.coverage_key", [&] {
                              (void)explore::coverage_key(*inst, config_.attack,
                                                          config_.max_deliveries);
                            }) * 1e6);
      classify_us.push_back(timed(tracer, "analysis.classify", [&] {
                              (void)analysis::classify(*inst, config_.attack, config_.max_steps);
                            }) * 1e6);
      engine::EventEngine e(*inst, config_.attack);
      probe.attach(e);
      e.inject_all_exits(0);
      const auto result = probe.run(e, config_.max_deliveries, tracer);
      probe.analyze(e, result, tracer);
      probe.checkpoint(e, *inst, config_.attack, tracer);
    }
    set_median(layers, "explore.mutate_us.p50", mutate_us, "us");
    set_median(layers, "explore.try_build_us.p50", build_us, "us");
    set_median(layers, "explore.coverage_key_us.p50", coverage_us, "us");
    set_median(layers, "analysis.classify_us.p50", classify_us, "us");
    probe.report(layers);

    // The minimizer, standalone on the search's own hits: each is already
    // 1-minimal, so this times one full ddmin pass that removes nothing.
    std::vector<double> minimize_ms;
    for (std::size_t h = 0; h < result_.hits.size(); ++h) {
      const auto& hit = result_.hits[h];
      explore::MinimizeGoal goal;
      goal.protocol = config_.attack;
      goal.signature = hit.signature;
      goal.modified_converges = config_.require_modified_converges;
      goal.med_induced = config_.require_med_induced;
      goal.max_steps = config_.max_steps;
      explore::InstanceSpec minimized;
      minimize_ms.push_back(timed(tracer, "explore.minimize", [&] {
                              minimized = explore::minimize(hit.spec, goal);
                            }, h + 1) * 1e3);
      layers.attempt();
      if (minimized.nodes.size() != hit.spec.nodes.size()) {
        layers.fail("minimize shrank an already minimal hit");
      }
    }
    set_median(layers, "explore.minimize_ms.p50", minimize_ms, "ms");
  }

 private:
  Size size_;
  explore::ExploreConfig config_;
  std::vector<core::Instance> seed_pool_;
  std::vector<std::uint64_t> hybrid_digests_;  // 0 for a hybrid that does not build
  explore::ExploreResult result_;
};

// --- anchors -------------------------------------------------------------------

/// Compares one repetition's observations against the pinned anchors and
/// against the first repetition.  One checked operation per repetition.
class AnchorCheck {
 public:
  explicit AnchorCheck(const std::map<std::string, std::uint64_t>& pins) : pins_(pins) {}

  void check(const Observations& seen, const char* what, Report& report) {
    report.attempt();
    std::string problems;
    for (const auto& [name, value] : seen) {
      const auto pin = pins_.find(name);
      if (pin != pins_.end() && pin->second != value) {
        problems += describe(name, value, pin->second, "pinned");
      }
    }
    if (first_) {
      for (std::size_t i = 0; i < seen.size() && i < first_->size(); ++i) {
        if ((*first_)[i] != seen[i]) {
          problems += describe(seen[i].first, seen[i].second, (*first_)[i].second,
                               "first repetition");
        }
      }
    } else {
      first_ = seen;
      std::printf("anchors (%s):", what);
      for (const auto& [name, value] : seen) {
        std::printf(" %s=0x%016" PRIx64, name.c_str(), value);
      }
      std::printf("\n");
    }
    if (!problems.empty()) report.fail(std::string(what) + ":" + problems);
  }

 private:
  static std::string describe(const std::string& name, std::uint64_t got, std::uint64_t want,
                              const char* source) {
    char buf[200];
    std::snprintf(buf, sizeof buf, " %s=0x%016" PRIx64 " (%s 0x%016" PRIx64 ")", name.c_str(),
                  got, source, want);
    return buf;
  }

  std::map<std::string, std::uint64_t> pins_;
  std::optional<Observations> first_;
};

/// Set-up phase shared by both modes: builds the inputs at least three
/// times, samples the host control alongside, and refuses inputs whose
/// digests differ from the pinned ones.  A tiny set-up repeats until it has
/// taken a second, so its median spans many of the host's fast and slow
/// stretches (tens of milliseconds each) rather than one.
std::vector<double> set_up(Workload& workload, HostControl& control, Report& report) {
  std::vector<double> setup_s;
  double total = 0;
  while (setup_s.size() < 3 || total < 1.0) {
    const auto start = Clock::now();
    workload.setup();
    setup_s.push_back(elapsed_s(start));
    total += setup_s.back();
    control.after(setup_s.back());
  }
  for (const auto& [name, value] : workload.input_digests()) {
    std::printf("input digest (%s): %s=0x%016" PRIx64 "\n", workload.name(), name.c_str(), value);
    const auto pin = workload.pins().find(name);
    if (pin != workload.pins().end() && pin->second != value) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "generated input %s digest 0x%016" PRIx64 " differs from pinned 0x%016" PRIx64,
                    name.c_str(), value, pin->second);
      report.refuse(buf);
    }
  }
  return setup_s;
}

/// Whether the timed phase may stop: enough repetitions and the time budget
/// spent.
bool done(std::size_t repetitions, Clock::time_point start, const RunOptions& options) {
  return repetitions >= options.min_repetitions && elapsed_s(start) >= options.seconds;
}

/// One repetition over every unit, each unit one attempted operation, then
/// the repetition's anchor check.  `times` is null for the warm-up.
/// Returns the repetition's wall time.
double repetition(Workload& workload, std::uint64_t order_seed, bool traced, Tracer& tracer,
                  UnitTimes* times, std::vector<double>& setup_s, AnchorCheck& anchors,
                  Report& report) {
  const auto start = Clock::now();
  const auto rep = tracer.span(traced ? "repetition.traced" : "repetition");
  const double setup = workload.begin_repetition(tracer);
  if (setup >= 0) setup_s.push_back(setup);
  auto order = shuffled_order(workload.units(), order_seed);
  if (workload.ordered()) std::sort(order.begin(), order.end());
  for (const std::size_t unit : order) {
    report.attempt();
    const double seconds = workload.run_unit(unit, tracer, traced, report);
    if (times != nullptr) times->record(unit, seconds);
  }
  anchors.check(workload.end_repetition(traced), workload.name(), report);
  return elapsed_s(start);
}

}  // namespace

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  const Size size = options.size;
  if (options.workload == "churn-sweep") return std::make_unique<ChurnSweep>(size);
  if (options.workload == "rr-1k") return std::make_unique<Rr1k>(size);
  if (options.workload == "daemon-stream") {
    return std::make_unique<DaemonStream>(size, options.work_dir);
  }
  if (options.workload == "explore-search") return std::make_unique<ExploreSearch>(size);
  return nullptr;
}

Report run_untraced(Workload& workload, const RunOptions& options) {
  Report report;
  Tracer tracer(false);
  HostControl control;
  auto setup_s = set_up(workload, control, report);
  if (!report.correct()) return report;

  AnchorCheck anchors(workload.pins());
  // Warm-up: caches fill and lazy set-up finishes; checked, not timed.
  control.after(repetition(workload, util::derive_seed(options.seed, 0), false, tracer, nullptr,
                           setup_s, anchors, report));
  UnitTimes times(workload.units());
  const auto start = Clock::now();
  for (std::uint64_t rep = 1; !done(times.repetitions(), start, options); ++rep) {
    control.after(repetition(workload, util::derive_seed(options.seed, rep), false, tracer,
                             &times, setup_s, anchors, report));
  }
  const double run_wall_s = times.sum_of_lower_quartiles();
  const double setup_wall_s = median(setup_s);
  report.set("run_s", control.to_reference(run_wall_s), "s");
  report.set("setup_s", control.to_reference(setup_wall_s), "s");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("run_wall_s", run_wall_s, "s");
  report.set("setup_wall_s", setup_wall_s, "s");
  workload.unit_metrics(times, report);
  report.set("host.control_ms", control.control_ms(), "ms");
  report.set("host.control_samples", static_cast<double>(control.samples()), "count");
  report.set("repetitions", static_cast<double>(times.repetitions()), "count");
  return report;
}

Report run_traced(Workload& workload, const RunOptions& options, const std::string& spans_path) {
  Report report;
  Tracer tracer(false);
  HostControl control;
  auto setup_s = set_up(workload, control, report);
  if (!report.correct()) return report;

  AnchorCheck anchors(workload.pins());
  control.after(repetition(workload, util::derive_seed(options.seed, 0), false, tracer, nullptr,
                           setup_s, anchors, report));

  // Untraced and traced repetitions alternate, so drift hits both alike;
  // the difference of their per-unit lower-quartile sums is the tracing
  // overhead.
  UnitTimes plain(workload.units()), traced(workload.units());
  const auto start = Clock::now();
  for (std::uint64_t rep = 1; !done(traced.repetitions(), start, options); ++rep) {
    tracer.set_enabled(false);
    double work_s = repetition(workload, util::derive_seed(options.seed, 2 * rep), false, tracer,
                               &plain, setup_s, anchors, report);
    tracer.set_enabled(true);
    work_s += repetition(workload, util::derive_seed(options.seed, 2 * rep + 1), true, tracer,
                         &traced, setup_s, anchors, report);
    control.after(work_s);
  }
  {
    const auto scope = tracer.span("layers.standalone");
    workload.layer_metrics(tracer, report);
  }
  tracer.set_enabled(false);

  workload.unit_metrics(plain, report);
  report.set("host.control_ms", control.control_ms(), "ms");
  const double untraced_s = plain.sum_of_lower_quartiles();
  const double traced_s = traced.sum_of_lower_quartiles();
  report.set("obs.tracing_overhead", (traced_s - untraced_s) / untraced_s, "ratio");
  report.set("run_wall_s", untraced_s, "s");
  report.set("run_wall_s.traced", traced_s, "s");

  std::printf("spans (%s): name, count, total s, self s, residual share of parents\n",
              workload.name());
  for (const auto& s : summarize_spans(tracer.records())) {
    std::printf("  %-32s %8zu %12.6f %12.6f", s.name.c_str(), s.count, s.total_s, s.self_s());
    if (s.has_children()) std::printf("   residual %.4f", s.residual_share());
    std::printf("\n");
  }
  if (!spans_path.empty() && !tracer.write_json(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }
  return report;
}

namespace {

void print_metrics(const char* heading, const Report& report) {
  std::printf("%s\n", heading);
  for (const auto& m : report.metrics()) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_outcome(const Report& report) {
  std::printf("operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  for (const auto& reason : report.reasons()) std::printf("  FAIL %s\n", reason.c_str());
}

}  // namespace

int run_command(const RunOptions& options) {
  auto workload = make_workload(options);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  // The result line carries exactly the metrics BENCHMARK.json lists for
  // this mode, so the list lives in one place.
  const auto output =
      read_metric_specs(options.spec_path, options.trace ? "per_layer" : "end_to_end");
  fs::create_directories(options.work_dir);
  std::printf("perfbench %s seed=%llu seconds=%g mode=%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");

  Report result;
  if (!options.trace) {
    result = run_untraced(*workload, options);
    print_metrics("end-to-end (tracing off)", result);
  } else {
    // One file per workload, replaced by each traced run.
    const std::string spans = options.work_dir + "/spans-" + options.workload + ".json";
    result = run_traced(*workload, options, spans);
    print_metrics("traced run", result);
    // Layers this workload never reaches are measured on a smoke-size
    // traced run of a workload that does, so every per-layer metric is a
    // real measurement; the report names the source.
    for (const char* other : kWorkloadNames) {
      const bool missing = std::any_of(output.begin(), output.end(), [&](const auto& spec) {
        return result.find(spec.name) == nullptr;
      });
      if (!missing) break;
      if (options.workload == other) continue;
      RunOptions smoke = options;
      smoke.workload = other;
      smoke.size = Size::kSmoke;
      smoke.seconds = 0;
      smoke.min_repetitions = 1;
      auto filler = make_workload(smoke);
      const Report fill = run_traced(*filler, smoke, "");
      result.absorb(fill, std::string(other) + " smoke: ");
      for (const auto& spec : output) {
        const Metric* m = fill.find(spec.name);
        if (result.find(spec.name) != nullptr || m == nullptr) continue;
        result.set(m->name, m->value, m->unit);
        std::printf("  %-34s %16.6f %s   (from %s smoke)\n", m->name.c_str(), m->value,
                    m->unit.c_str(), other);
      }
    }
  }
  result.keep_only(output);
  if (result.attempted() == 0) {
    result.attempt();
    result.fail("nothing was timed");
  }
  print_outcome(result);
  std::printf("%s\n", result.json_line().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace perfbench
