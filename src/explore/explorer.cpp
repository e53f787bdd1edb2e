#include "explore/explorer.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "confed/engine.hpp"
#include "engine/event_engine.hpp"
#include "explore/minimize.hpp"
#include "explore/mutate.hpp"
#include "topo/dsl.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ibgp::explore {

namespace {

/// log2 bucket (bit width): collapses counts so coverage keys describe the
/// *shape* of the rule histogram, not exact totals.
std::uint64_t bucket(std::uint64_t count) { return std::bit_width(count); }

struct FrontierItem {
  InstanceSpec spec;
  bool hybrid = false;
};

/// Everything one batched evaluation produces; folded sequentially after
/// the parallel_for, in index order.
struct Evaluation {
  bool valid = false;
  bool hybrid = false;
  InstanceSpec spec;
  analysis::ConvergenceSignature signature;
  std::uint64_t coverage = 0;
};

std::uint64_t canonical_fingerprint(const InstanceSpec& spec) {
  InstanceSpec canonical = spec;
  canonical.name = "ce";  // name-independent content address
  const auto inst = try_build(canonical);
  if (!inst) return 0;
  return util::fnv1a(topo::write_topo(*inst));
}

// --- round-granularity checkpointing (ibgp-explore-ckpt-v1) -----------------
//
// The InstanceSpec genotype is serialized field-for-field (NOT via a .topo
// round-trip): mutants are pure functions of the parent spec, so any
// normalization on the way through a different format would fork the resumed
// search from the uninterrupted one.

using util::json::Array;
using util::json::Object;
using util::json::Value;

constexpr std::string_view kExploreCkptSchema = "ibgp-explore-ckpt-v1";

Value spec_json(const InstanceSpec& spec) {
  Object out;
  out.emplace_back("name", spec.name);
  {
    Array nodes;
    nodes.reserve(spec.nodes.size());
    for (const auto& n : spec.nodes) {
      Array tuple;
      tuple.emplace_back(n.label);
      tuple.emplace_back(static_cast<std::uint64_t>(n.cluster));
      tuple.emplace_back(n.reflector);
      tuple.emplace_back(static_cast<std::uint64_t>(n.bgp_id));
      nodes.emplace_back(std::move(tuple));
    }
    out.emplace_back("nodes", std::move(nodes));
  }
  {
    Array links;
    links.reserve(spec.links.size());
    for (const auto& l : spec.links) {
      Array tuple;
      tuple.emplace_back(static_cast<std::uint64_t>(l.a));
      tuple.emplace_back(static_cast<std::uint64_t>(l.b));
      tuple.emplace_back(static_cast<std::int64_t>(l.cost));
      links.emplace_back(std::move(tuple));
    }
    out.emplace_back("links", std::move(links));
  }
  {
    Array sessions;
    sessions.reserve(spec.client_sessions.size());
    for (const auto& s : spec.client_sessions) {
      Array tuple;
      tuple.emplace_back(static_cast<std::uint64_t>(s.a));
      tuple.emplace_back(static_cast<std::uint64_t>(s.b));
      sessions.emplace_back(std::move(tuple));
    }
    out.emplace_back("client_sessions", std::move(sessions));
  }
  {
    Array exits;
    exits.reserve(spec.exits.size());
    for (const auto& e : spec.exits) {
      Array tuple;
      tuple.emplace_back(e.name);
      tuple.emplace_back(static_cast<std::uint64_t>(e.at));
      tuple.emplace_back(static_cast<std::uint64_t>(e.next_as));
      tuple.emplace_back(static_cast<std::uint64_t>(e.med));
      tuple.emplace_back(static_cast<std::uint64_t>(e.local_pref));
      tuple.emplace_back(static_cast<std::uint64_t>(e.as_path_length));
      tuple.emplace_back(static_cast<std::int64_t>(e.exit_cost));
      tuple.emplace_back(static_cast<std::uint64_t>(e.ebgp_peer));
      tuple.emplace_back(static_cast<std::uint64_t>(e.communities));
      exits.emplace_back(std::move(tuple));
    }
    out.emplace_back("exits", std::move(exits));
  }
  {
    Array maps;
    maps.reserve(spec.route_maps.size());
    for (const auto& m : spec.route_maps) {
      Object entry;
      entry.emplace_back("node", static_cast<std::uint64_t>(m.node));
      entry.emplace_back("match_as", m.clause.match_as
                                         ? Value(static_cast<std::uint64_t>(*m.clause.match_as))
                                         : Value(nullptr));
      entry.emplace_back("match_communities",
                         static_cast<std::uint64_t>(m.clause.match_communities));
      entry.emplace_back("set_local_pref",
                         m.clause.set_local_pref
                             ? Value(static_cast<std::uint64_t>(*m.clause.set_local_pref))
                             : Value(nullptr));
      entry.emplace_back("set_med", m.clause.set_med
                                        ? Value(static_cast<std::uint64_t>(*m.clause.set_med))
                                        : Value(nullptr));
      entry.emplace_back("add_communities",
                         static_cast<std::uint64_t>(m.clause.add_communities));
      maps.emplace_back(std::move(entry));
    }
    out.emplace_back("route_maps", std::move(maps));
  }
  {
    Object policy;
    policy.emplace_back("order", static_cast<std::uint64_t>(spec.policy.order));
    policy.emplace_back("med", static_cast<std::uint64_t>(spec.policy.med));
    Array overrides;
    overrides.reserve(spec.policy.med_overrides.size());
    for (const auto& o : spec.policy.med_overrides) {
      Array tuple;
      tuple.emplace_back(static_cast<std::uint64_t>(o.as));
      tuple.emplace_back(static_cast<std::uint64_t>(o.mode));
      overrides.emplace_back(std::move(tuple));
    }
    policy.emplace_back("med_overrides", std::move(overrides));
    out.emplace_back("policy", std::move(policy));
  }
  return Value(std::move(out));
}

constexpr util::json::Reader kReader{kExploreCkptSchema};

InstanceSpec parse_spec(const Value& doc) {
  InstanceSpec spec;
  spec.name = kReader.field(doc, "name").as_string();
  for (const auto& entry : kReader.field(doc, "nodes").as_array()) {
    const auto& tuple = kReader.tuple(entry, 4);
    NodeSpec n;
    n.label = tuple[0].as_string();
    n.cluster = kReader.integer<netsim::ClusterId>(tuple[1], "node cluster");
    n.reflector = tuple[2].as_bool();
    n.bgp_id = kReader.integer<BgpId>(tuple[3], "node bgp_id");
    spec.nodes.push_back(std::move(n));
  }
  for (const auto& entry : kReader.field(doc, "links").as_array()) {
    const auto& tuple = kReader.tuple(entry, 3);
    spec.links.push_back({kReader.integer<NodeId>(tuple[0], "link endpoint"),
                          kReader.integer<NodeId>(tuple[1], "link endpoint"),
                          kReader.integer<Cost>(tuple[2], "link cost")});
  }
  for (const auto& entry : kReader.field(doc, "client_sessions").as_array()) {
    const auto& tuple = kReader.tuple(entry, 2);
    spec.client_sessions.push_back({kReader.integer<NodeId>(tuple[0], "session endpoint"),
                                    kReader.integer<NodeId>(tuple[1], "session endpoint")});
  }
  for (const auto& entry : kReader.field(doc, "exits").as_array()) {
    const auto& tuple = kReader.tuple(entry, 9);
    ExitSpec e;
    e.name = tuple[0].as_string();
    e.at = kReader.integer<NodeId>(tuple[1], "exit at");
    e.next_as = kReader.integer<AsId>(tuple[2], "exit next_as");
    e.med = kReader.integer<Med>(tuple[3], "exit med");
    e.local_pref = kReader.integer<LocalPref>(tuple[4], "exit local_pref");
    e.as_path_length = kReader.integer<std::uint32_t>(tuple[5], "exit as_path_length");
    e.exit_cost = kReader.integer<Cost>(tuple[6], "exit cost");
    e.ebgp_peer = kReader.integer<BgpId>(tuple[7], "exit ebgp_peer");
    e.communities = kReader.integer<std::uint32_t>(tuple[8], "exit communities");
    spec.exits.push_back(std::move(e));
  }
  for (const auto& entry : kReader.field(doc, "route_maps").as_array()) {
    RouteMapSpec m;
    m.node = kReader.integer<NodeId>(kReader.field(entry, "node"), "route map node");
    const Value& match_as = kReader.field(entry, "match_as");
    if (!match_as.is_null()) m.clause.match_as = kReader.integer<AsId>(match_as, "match_as");
    m.clause.match_communities = kReader.integer<std::uint32_t>(
        kReader.field(entry, "match_communities"), "match_communities");
    const Value& set_lp = kReader.field(entry, "set_local_pref");
    if (!set_lp.is_null()) {
      m.clause.set_local_pref = kReader.integer<LocalPref>(set_lp, "set_local_pref");
    }
    const Value& set_med = kReader.field(entry, "set_med");
    if (!set_med.is_null()) m.clause.set_med = kReader.integer<Med>(set_med, "set_med");
    m.clause.add_communities = kReader.integer<std::uint32_t>(
        kReader.field(entry, "add_communities"), "add_communities");
    spec.route_maps.push_back(std::move(m));
  }
  const Value& policy = kReader.field(doc, "policy");
  {
    const std::uint64_t order = kReader.field(policy, "order").as_uint();
    if (order > static_cast<std::uint64_t>(bgp::RuleOrder::kIgpCostFirst)) {
      kReader.fail("policy order out of range");
    }
    spec.policy.order = static_cast<bgp::RuleOrder>(order);
    const std::uint64_t med = kReader.field(policy, "med").as_uint();
    if (med > static_cast<std::uint64_t>(bgp::MedMode::kIgnore)) {
      kReader.fail("policy med mode out of range");
    }
    spec.policy.med = static_cast<bgp::MedMode>(med);
    for (const auto& entry : kReader.field(policy, "med_overrides").as_array()) {
      const auto& tuple = kReader.tuple(entry, 2);
      const std::uint64_t mode = tuple[1].as_uint();
      if (mode > static_cast<std::uint64_t>(bgp::MedMode::kIgnore)) {
        kReader.fail("override med mode out of range");
      }
      spec.policy.med_overrides.push_back(
          {kReader.integer<AsId>(tuple[0], "override as"), static_cast<bgp::MedMode>(mode)});
    }
  }
  return spec;
}

Array sorted_set_json(const std::unordered_set<std::uint64_t>& set) {
  std::vector<std::uint64_t> values(set.begin(), set.end());
  std::sort(values.begin(), values.end());
  Array out;
  out.reserve(values.size());
  for (const auto v : values) out.emplace_back(v);
  return out;
}

void save_explore_checkpoint(const ExploreConfig& config, const ExploreResult& result,
                             const std::deque<FrontierItem>& frontier,
                             const std::unordered_set<std::uint64_t>& seen_coverage,
                             const std::unordered_set<std::uint64_t>& seen_hits,
                             std::size_t round) {
  Object doc;
  doc.emplace_back("schema", kExploreCkptSchema);
  doc.emplace_back("seed", config.seed);
  doc.emplace_back("attack", core::protocol_name(config.attack));
  doc.emplace_back("batch", config.batch);
  doc.emplace_back("round", round);
  {
    Object stats;
    stats.emplace_back("evaluated", result.stats.evaluated);
    stats.emplace_back("invalid", result.stats.invalid);
    stats.emplace_back("truncated_runs", result.stats.truncated_runs);
    stats.emplace_back("new_coverage", result.stats.new_coverage);
    stats.emplace_back("hits_raw", result.stats.hits_raw);
    stats.emplace_back("theorem_violations", result.stats.theorem_violations);
    doc.emplace_back("stats", std::move(stats));
  }
  {
    Array items;
    items.reserve(frontier.size());
    for (const auto& item : frontier) {
      Object entry;
      entry.emplace_back("hybrid", item.hybrid);
      entry.emplace_back("spec", spec_json(item.spec));
      items.emplace_back(std::move(entry));
    }
    doc.emplace_back("frontier", std::move(items));
  }
  doc.emplace_back("seen_coverage", sorted_set_json(seen_coverage));
  doc.emplace_back("seen_hits", sorted_set_json(seen_hits));
  {
    Array hits;
    hits.reserve(result.hits.size());
    for (const auto& hit : result.hits) {
      Object entry;
      entry.emplace_back("hybrid", hit.hybrid);
      entry.emplace_back("med_induced", hit.med_induced);
      entry.emplace_back("fingerprint", hit.fingerprint);
      entry.emplace_back("spec", spec_json(hit.spec));
      hits.emplace_back(std::move(entry));
    }
    doc.emplace_back("hits", std::move(hits));
  }
  // Best-effort: a failed write costs resumability, never the search.
  (void)util::json::write_file_atomic(config.checkpoint_path, Value(std::move(doc)));
}

bool load_explore_checkpoint(const ExploreConfig& config, ExploreResult& result,
                             std::deque<FrontierItem>& frontier,
                             std::unordered_set<std::uint64_t>& seen_coverage,
                             std::unordered_set<std::uint64_t>& seen_hits,
                             std::size_t& round) {
  const auto doc = util::json::read_file(config.checkpoint_path);
  if (!doc) return false;
  try {
    kReader.check_schema(*doc);
    // Identity guard on the determinism-critical parameters (budget is
    // deliberately NOT guarded: resuming with a larger budget extends the
    // very same search).
    if (kReader.field(*doc, "seed").as_uint() != config.seed) return false;
    if (kReader.field(*doc, "attack").as_string() != core::protocol_name(config.attack)) {
      return false;
    }
    if (kReader.field(*doc, "batch").as_uint() != config.batch) return false;

    round = kReader.field(*doc, "round").as_uint();
    const Value& stats = kReader.field(*doc, "stats");
    result.stats.evaluated = kReader.field(stats, "evaluated").as_uint();
    result.stats.invalid = kReader.field(stats, "invalid").as_uint();
    result.stats.truncated_runs = kReader.field(stats, "truncated_runs").as_uint();
    result.stats.new_coverage = kReader.field(stats, "new_coverage").as_uint();
    result.stats.hits_raw = kReader.field(stats, "hits_raw").as_uint();
    result.stats.theorem_violations = kReader.field(stats, "theorem_violations").as_uint();
    for (const auto& entry : kReader.field(*doc, "frontier").as_array()) {
      FrontierItem item;
      item.hybrid = kReader.field(entry, "hybrid").as_bool();
      item.spec = parse_spec(kReader.field(entry, "spec"));
      frontier.push_back(std::move(item));
    }
    for (const auto& v : kReader.field(*doc, "seen_coverage").as_array()) {
      seen_coverage.insert(v.as_uint());
    }
    for (const auto& v : kReader.field(*doc, "seen_hits").as_array()) {
      seen_hits.insert(v.as_uint());
    }
    for (const auto& entry : kReader.field(*doc, "hits").as_array()) {
      ExploreHit hit;
      hit.hybrid = kReader.field(entry, "hybrid").as_bool();
      hit.med_induced = kReader.field(entry, "med_induced").as_bool();
      hit.fingerprint = kReader.field(entry, "fingerprint").as_uint();
      hit.spec = parse_spec(kReader.field(entry, "spec"));
      // The signature is recomputed, not stored: classify() is a pure
      // function of the spec, and recomputing keeps the checkpoint free of
      // analysis-internal shapes.
      const auto inst = try_build(hit.spec);
      if (!inst) kReader.fail("unbuildable hit spec");
      hit.signature = analysis::classify(*inst, config.attack, config.max_steps);
      result.hits.push_back(std::move(hit));
    }
    return true;
  } catch (const std::exception&) {
    // Torn or stale checkpoint: discard any partial state and start fresh.
    result = ExploreResult{};
    frontier.clear();
    seen_coverage.clear();
    seen_hits.clear();
    round = 0;
    return false;
  }
}

}  // namespace

std::uint64_t coverage_key(const core::Instance& inst, core::ProtocolKind attack,
                           std::size_t max_deliveries) {
  engine::EventEngine event_engine(inst, attack);
  event_engine.inject_all_exits(0);
  const auto result = event_engine.run(max_deliveries);

  util::Fingerprint fp;
  fp.add(result.converged ? 1u : 0u);
  fp.add(bucket(result.best_flips));
  for (const auto count : result.decisions_by_rule) fp.add(bucket(count));
  fp.add(bucket(result.decisions_empty));
  return fp.value();
}

ExploreResult explore(const ExploreConfig& config) {
  ExploreResult result;
  std::deque<FrontierItem> frontier;
  std::unordered_set<std::uint64_t> seen_coverage;
  std::unordered_set<std::uint64_t> seen_hits;
  std::size_t round = 0;

  const auto admit = [&](FrontierItem item, std::uint64_t key) {
    if (!seen_coverage.insert(key).second) return;
    ++result.stats.new_coverage;
    frontier.push_back(std::move(item));
    if (frontier.size() > config.frontier_cap) frontier.pop_front();
  };

  const bool resumed =
      config.resume && !config.checkpoint_path.empty() &&
      load_explore_checkpoint(config, result, frontier, seen_coverage, seen_hits, round);

  if (!resumed) {
    // --- seed pool ----------------------------------------------------------
    for (std::size_t i = 0; i < config.random_seeds; ++i) {
      const auto inst =
          topo::random_instance(config.random_config, util::derive_seed(config.seed, i));
      if (inst.exits().empty()) continue;
      admit({spec_of(inst), /*hybrid=*/false},
            coverage_key(inst, config.attack, config.max_deliveries));
    }
    for (std::size_t i = 0; i < config.hybrid_seeds; ++i) {
      confed::ConfedInstance confed =
          i == 0 ? confed::rfc3345_confederation()
                 : confed::random_confederation(
                       confed::RandomConfedConfig{},
                       util::derive_seed(config.seed ^ 0x9e3779b9u, i));
      InstanceSpec spec = hybrid_spec(confed);
      const auto inst = try_build(spec);
      if (!inst || inst->exits().empty()) continue;
      admit({std::move(spec), /*hybrid=*/true},
            coverage_key(*inst, config.attack, config.max_deliveries));
    }
  }
  if (frontier.empty()) return result;  // nothing valid to mutate

  // --- handle one oscillating evaluation (sequential, index order) ----------
  const auto process_hit = [&](const Evaluation& eval) {
    ++result.stats.hits_raw;

    if (config.require_modified_converges) {
      const auto inst = try_build(eval.spec);
      const auto modified =
          analysis::classify(*inst, core::ProtocolKind::kModified, config.max_steps);
      if (modified.oscillates()) {
        ++result.stats.theorem_violations;
        return;
      }
      if (!modified.converges_always_tested()) return;  // indeterminate: skip
    }

    MinimizeGoal goal;
    goal.protocol = config.attack;
    goal.signature = eval.signature;
    goal.modified_converges = config.require_modified_converges;
    goal.med_induced = config.require_med_induced;
    goal.max_steps = config.max_steps;

    if (config.require_med_induced) {
      const auto inst = try_build(eval.spec);
      if (!satisfies(*inst, goal)) return;  // not MED-induced: not a hit here
    }

    ExploreHit hit;
    hit.spec = config.minimize ? minimize(eval.spec, goal) : eval.spec;
    hit.hybrid = eval.hybrid;
    hit.med_induced = config.require_med_induced;
    hit.fingerprint = canonical_fingerprint(hit.spec);
    const auto minimized_inst = try_build(hit.spec);
    if (!minimized_inst || hit.fingerprint == 0) return;
    hit.signature = analysis::classify(*minimized_inst, config.attack, config.max_steps);
    if (!config.require_med_induced) {
      // Opportunistic tag: is the find MED-induced anyway?
      MinimizeGoal med_goal = goal;
      med_goal.signature = hit.signature;
      med_goal.med_induced = true;
      hit.med_induced = satisfies(*minimized_inst, med_goal);
    }
    if (seen_hits.insert(hit.fingerprint).second) result.hits.push_back(std::move(hit));
  };

  // --- batched coverage-guided search ---------------------------------------
  // Rounds are always FULL batches (the final round may overshoot the budget
  // by up to batch-1 mutants): round r's contents are a pure function of
  // (seed, r, batch), so a checkpoint taken at any round boundary resumes
  // bit-for-bit even when the interrupting budget was not batch-aligned.
  while (result.stats.evaluated < config.budget) {
    const std::size_t batch = config.batch;
    // Snapshot: mutants of this round see a fixed frontier regardless of
    // evaluation order.
    const std::vector<FrontierItem> snapshot(frontier.begin(), frontier.end());

    std::vector<Evaluation> evals(batch);
    util::parallel_for(batch, util::resolve_jobs(config.jobs), [&](std::size_t i) {
      const std::uint64_t child_seed =
          util::derive_seed(config.seed, 1 + round * config.batch + i);
      util::Xoshiro256 rng(child_seed);
      const FrontierItem& parent = snapshot[rng.pick_index(snapshot)];
      Evaluation& eval = evals[i];
      eval.hybrid = parent.hybrid;
      eval.spec = mutate(parent.spec, util::derive_seed(child_seed, 1));
      const auto inst = try_build(eval.spec);
      if (!inst || inst->exits().empty()) return;
      eval.valid = true;
      eval.coverage = coverage_key(*inst, config.attack, config.max_deliveries);
      eval.signature = analysis::classify(*inst, config.attack, config.max_steps);
    });

    for (Evaluation& eval : evals) {
      ++result.stats.evaluated;
      if (!eval.valid) {
        ++result.stats.invalid;
        continue;
      }
      if (eval.signature.truncated()) ++result.stats.truncated_runs;
      admit({eval.spec, eval.hybrid}, eval.coverage);
      // A hit needs a PROVEN cycle; truncated() alone never qualifies
      // (oscillates() is only true on a kCycleDetected verdict).
      if (eval.signature.oscillates()) process_hit(eval);
    }
    ++round;
    if (!config.checkpoint_path.empty()) {
      save_explore_checkpoint(config, result, frontier, seen_coverage, seen_hits, round);
    }
  }
  return result;
}

}  // namespace ibgp::explore
