#include "fault/campaign.hpp"

#include "util/hash.hpp"

namespace ibgp::fault {

namespace {

// Settle-time histogram buckets (virtual ticks from last applied fault to
// quiescence).  Log-ish spacing: most healthy campaigns settle within a few
// hundred ticks; the overflow bucket catches pathological stragglers.
constexpr std::int64_t kSettleBounds[] = {10, 30, 100, 300, 1000, 3000, 10000};

std::vector<std::int64_t> settle_bounds() {
  return std::vector<std::int64_t>(std::begin(kSettleBounds), std::end(kSettleBounds));
}

}  // namespace

std::uint64_t trace_hash(const engine::EventEngine& engine,
                         const engine::EventEngine::Result& result) {
  util::Fingerprint fp;
  for (const auto& flap : engine.flap_log()) {
    fp.add(flap.time).add(flap.node).add(flap.old_best).add(flap.new_best);
  }
  for (const auto& fault : engine.fault_log()) {
    fp.add(fault.time)
        .add(static_cast<std::uint64_t>(fault.kind))
        .add(fault.a)
        .add(fault.b)
        .add(fault.cost);
  }
  for (const auto& fib : engine.fib_log()) {
    fp.add(fib.time).add(fib.node).add(fib.old_path).add(fib.new_path);
  }
  // The IGP epoch timeline: each swap's time and the epoch's own digest
  // (distance + next-hop matrices), pinning the churned underlay history.
  for (const auto& epoch : engine.igp_log()) {
    fp.add(epoch.time).add(epoch.fingerprint);
  }
  fp.add_range(result.final_best);
  fp.add(result.updates_sent)
      .add(result.messages_dropped)
      .add(result.messages_duplicated)
      .add(result.deliveries_voided)
      .add(result.eor_markers_sent)
      .add(result.stale_retained)
      .add(result.stale_swept_eor)
      .add(result.stale_swept_expired)
      .add(result.end_time);
  // Decision provenance is part of the observable history: which rule
  // decided every Choose_best, per node.  Folding it in means the `same
  // seed -> same trace` guarantee now also covers the provenance counters
  // the metrics registry exports.
  fp.add(result.decisions_total).add(result.decisions_empty).add(result.mrai_deferrals);
  fp.add_range(result.decisions_by_rule);
  for (const auto& per_node : result.decisions_by_node) fp.add_range(per_node);
  return fp.value();
}

void register_campaign_metrics(obs::MetricsRegistry& registry) {
  registry.counter("campaign.runs");
  registry.counter("campaign.reconverged");
  registry.counter("campaign.truncated");
  registry.counter("campaign.unclean");
  registry.counter("campaign.blackhole_ticks");
  registry.counter("campaign.stale_ticks");
  registry.counter("campaign.loop_ticks");
  registry.counter("campaign.deflection_ticks");
  registry.histogram("campaign.settle_time", settle_bounds());
  engine::register_event_engine_metrics(registry);
}

void record_campaign_metrics(obs::MetricsRegistry& registry, const CampaignResult& campaign) {
  engine::record_engine_counters(registry, campaign.run);
  registry.counter("campaign.runs").increment();
  if (campaign.reconverged()) registry.counter("campaign.reconverged").increment();
  if (campaign.truncated()) registry.counter("campaign.truncated").increment();
  if (!campaign.invariants.clean()) registry.counter("campaign.unclean").increment();
  registry.counter("campaign.blackhole_ticks").add(campaign.continuity.blackhole_ticks);
  registry.counter("campaign.stale_ticks").add(campaign.continuity.stale_ticks);
  registry.counter("campaign.loop_ticks").add(campaign.continuity.loop_ticks);
  registry.counter("campaign.deflection_ticks").add(campaign.continuity.deflection_ticks);
  if (campaign.settle_time) {
    registry.histogram("campaign.settle_time", settle_bounds())
        .observe(static_cast<std::int64_t>(*campaign.settle_time));
  }
}

namespace {

// Everything downstream of the engine run — verdicts, fingerprint, metric
// aggregates, the trace record — shared verbatim between the uninterrupted
// path (run_campaign) and the restored path (resume_campaign) so the two
// compute their results through identical code.
CampaignResult finish_campaign(engine::EventEngine& engine, const core::Instance& inst,
                               core::ProtocolKind protocol, const FaultScript& script,
                               const CampaignOptions& options) {
  if (options.deadline.count() > 0) {
    engine.set_deadline(std::chrono::steady_clock::now() + options.deadline);
  }
  CampaignResult campaign;
  campaign.run = engine.run(options.max_deliveries);
  campaign.invariants = analysis::check_invariants(engine);
  campaign.continuity = analysis::check_continuity(engine, campaign.run.end_time);
  campaign.trace_hash = trace_hash(engine, campaign.run);
  if (!engine.fault_log().empty()) {
    campaign.last_fault_time = engine.fault_log().back().time;
  }
  if (campaign.run.converged) {
    campaign.settle_time = campaign.run.end_time > campaign.last_fault_time
                               ? campaign.run.end_time - campaign.last_fault_time
                               : 0;
  }

  if (options.metrics != nullptr) record_campaign_metrics(*options.metrics, campaign);

  if (options.trace != nullptr && options.trace->enabled()) {
    util::json::Object fields;
    fields.emplace_back("instance", inst.name());
    fields.emplace_back("protocol", core::protocol_name(protocol));
    fields.emplace_back("seed", script.seed);
    fields.emplace_back("trace_hash", campaign.trace_hash);
    fields.emplace_back("reconverged", campaign.reconverged());
    fields.emplace_back("clean", campaign.invariants.clean());
    options.trace->emit(campaign.run.end_time, "campaign", std::move(fields));
    // Flight-recorder semantics: an unclean verdict is exactly the moment
    // the retained tail of the event stream is worth keeping.
    if (options.trace->ring_mode() && !campaign.invariants.clean()) {
      options.trace->dump_ring();
    }
  }
  return campaign;
}

// The injector is attached only when it can drop or duplicate: otherwise
// it answers deliver to every message and never drops one, and leaving it
// off lets a budget-bound run jump its orbit (DESIGN.md §15).
void attach_injector(engine::EventEngine& engine, const FaultScript& script,
                     ScriptInjector& injector) {
  if (script.loss_prob > 0.0 || script.dup_prob > 0.0) engine.set_fault_injector(&injector);
}

// Builds and scripts a fresh engine exactly the way run_campaign always has.
void script_engine(engine::EventEngine& engine, const FaultScript& script,
                   const CampaignOptions& options, ScriptInjector& injector) {
  if (options.mrai > 0) engine.set_mrai(options.mrai);
  if (script.stale_timer > 0) engine.set_stale_timer(script.stale_timer);
  if (options.metrics != nullptr) {
    engine.set_metrics(options.metrics, engine::EventEngine::MetricScope::kVolatile);
  }
  if (options.profile) engine.set_profile(true);
  if (options.trace != nullptr) engine.set_trace(options.trace);
  attach_injector(engine, script, injector);
  engine.inject_all_exits(0);
  apply_script(script, engine);
}

}  // namespace

CampaignResult run_campaign(const core::Instance& inst, core::ProtocolKind protocol,
                            const FaultScript& script, const CampaignOptions& options) {
  engine::EventEngine engine(inst, protocol, options.delay);
  ScriptInjector injector(script);
  script_engine(engine, script, options, injector);
  return finish_campaign(engine, inst, protocol, script, options);
}

engine::EngineState campaign_checkpoint(const core::Instance& inst,
                                        core::ProtocolKind protocol,
                                        const FaultScript& script,
                                        const CampaignOptions& options,
                                        std::size_t deliveries_before_kill) {
  engine::EventEngine engine(inst, protocol, options.delay);
  ScriptInjector injector(script);
  // A partial run records nothing: resume_campaign records the finished
  // campaign, so the registry an uninterrupted run would have produced
  // appears only after it.
  CampaignOptions partial = options;
  partial.metrics = nullptr;
  script_engine(engine, script, partial, injector);
  if (options.deadline.count() > 0) {
    engine.set_deadline(std::chrono::steady_clock::now() + options.deadline);
  }
  (void)engine.run(deliveries_before_kill);
  engine::EngineState state = engine.capture();
  if (options.trace != nullptr && options.trace->enabled()) {
    util::json::Object fields;
    fields.emplace_back("seed", script.seed);
    fields.emplace_back("deliveries", state.deliveries);
    options.trace->emit(state.end_time, "checkpoint", std::move(fields));
  }
  return state;
}

CampaignResult resume_campaign(const core::Instance& inst, core::ProtocolKind protocol,
                               const FaultScript& script,
                               const engine::EngineState& state,
                               const CampaignOptions& options) {
  engine::EventEngine engine(inst, protocol, options.delay);
  ScriptInjector injector(script);
  // Attachments go on before restore() seals the engine; MRAI and the
  // stale timer come back from the state itself.  The script is NOT
  // re-applied: its actions (and its RNG draws) live in the captured
  // pending-event queue.
  if (options.metrics != nullptr) {
    engine.set_metrics(options.metrics, engine::EventEngine::MetricScope::kVolatile);
  }
  if (options.profile) engine.set_profile(true);
  if (options.trace != nullptr) engine.set_trace(options.trace);
  attach_injector(engine, script, injector);
  engine.restore(state);
  if (options.trace != nullptr && options.trace->enabled()) {
    util::json::Object fields;
    fields.emplace_back("seed", script.seed);
    fields.emplace_back("deliveries", state.deliveries);
    options.trace->emit(state.end_time, "resume", std::move(fields));
  }
  return finish_campaign(engine, inst, protocol, script, options);
}

}  // namespace ibgp::fault
