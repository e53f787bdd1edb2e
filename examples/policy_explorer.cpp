// policy_explorer — coverage-guided adversarial search over the policy
// space (route-maps, MED regime mixes, community tagging, confederation/RR
// hybrid layouts), with a delta-debugging minimizer feeding the checked-in
// counterexample corpus.
//
// Every oscillating find is shrunk to a 1-minimal configuration whose
// convergence signature survives both deterministic schedules, then written
// as a self-describing corpus entry (examples/data/corpus/ce-<hash>.topo)
// that bench_corpus (E18) replays as a regression gate.
//
//   $ ./policy_explorer --budget 4000 --seed 7 --corpus-out ../examples/data/corpus
//   $ ./policy_explorer --protocol walton --med-induced --budget 8000

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/policy.hpp"
#include "explore/corpus.hpp"
#include "explore/explorer.hpp"
#include "explore/minimize.hpp"
#include "topo/dsl.hpp"
#include "util/flags.hpp"
#include "util/hash.hpp"

int main(int argc, char** argv) {
  using namespace ibgp;

  util::Flags flags("policy_explorer",
                    "coverage-guided policy-space fuzzer with delta-debugging minimizer");
  flags.add_string("protocol", "standard", "protocol to attack: standard|walton|modified");
  flags.add_int("budget", 2000, "mutants to evaluate");
  flags.add_int("seed", 1, "base RNG seed");
  flags.add_int("max-steps", 4000, "step budget per classification run");
  flags.add_int("max-deliveries", 20000, "event-engine budget per coverage run");
  flags.add_int("batch", 64, "parallel evaluation batch size");
  flags.add_int("frontier", 64, "retained frontier size");
  flags.add_int("random-seeds", 8, "random route-reflection seed instances");
  flags.add_int("hybrid-seeds", 2, "confederation-derived hybrid seed instances");
  flags.add_bool("med-induced", false,
                 "only keep hits whose oscillation vanishes when MEDs are ignored");
  flags.add_bool("modified-converges", true,
                 "require the paper's modified protocol to converge on every hit");
  flags.add_bool("minimize", true, "delta-debug every hit to a 1-minimal config");
  flags.add_string("corpus-out", "", "directory to write corpus entries into");
  flags.add_string("checkpoint", "",
                   "write the search frontier to this file after every round "
                   "(ibgp-explore-ckpt-v1)");
  flags.add_bool("resume", false,
                 "continue a killed search from --checkpoint instead of starting over");
  flags.add_int("limit", 0, "max corpus entries to write (0 = all hits)");
  flags.add_int("clusters", 4, "random seed instances: clusters");
  flags.add_int("exits", 5, "random seed instances: exit paths");
  flags.add_int("max-med", 2, "random seed instances: maximum MED");
  flags.add_int("jobs", 0, "worker threads (0 = one per hardware thread)");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", std::string(flags.error()).c_str(),
                 flags.help_text().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.help_text().c_str());
    return 0;
  }

  explore::ExploreConfig config;
  const std::string_view protocol = flags.get_string("protocol");
  if (protocol == "standard") {
    config.attack = core::ProtocolKind::kStandard;
  } else if (protocol == "walton") {
    config.attack = core::ProtocolKind::kWalton;
  } else if (protocol == "modified") {
    config.attack = core::ProtocolKind::kModified;
  } else {
    std::fprintf(stderr, "unknown protocol '%s'\n", std::string(protocol).c_str());
    return 2;
  }
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.budget = static_cast<std::size_t>(flags.get_int("budget"));
  config.batch = static_cast<std::size_t>(flags.get_int("batch"));
  config.max_steps = static_cast<std::size_t>(flags.get_int("max-steps"));
  config.max_deliveries = static_cast<std::size_t>(flags.get_int("max-deliveries"));
  config.frontier_cap = static_cast<std::size_t>(flags.get_int("frontier"));
  config.random_seeds = static_cast<std::size_t>(flags.get_int("random-seeds"));
  config.hybrid_seeds = static_cast<std::size_t>(flags.get_int("hybrid-seeds"));
  config.require_med_induced = flags.get_bool("med-induced");
  config.require_modified_converges = flags.get_bool("modified-converges");
  config.minimize = flags.get_bool("minimize");
  config.checkpoint_path = std::string(flags.get_string("checkpoint"));
  config.resume = flags.get_bool("resume");
  if (config.resume && config.checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint\n");
    return 2;
  }
  config.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  config.random_config.clusters = static_cast<std::size_t>(flags.get_int("clusters"));
  config.random_config.exits = static_cast<std::size_t>(flags.get_int("exits"));
  config.random_config.max_med = static_cast<Med>(flags.get_int("max-med"));
  config.random_config.max_clients = 1;

  std::printf("exploring: attack=%s budget=%zu seed=%llu med-induced=%s\n",
              core::protocol_name(config.attack), config.budget,
              static_cast<unsigned long long>(config.seed),
              config.require_med_induced ? "yes" : "no");

  const auto result = explore::explore(config);
  std::printf(
      "evaluated=%zu invalid=%zu truncated=%zu new-coverage=%zu raw-hits=%zu "
      "unique-hits=%zu theorem-violations=%zu\n",
      result.stats.evaluated, result.stats.invalid, result.stats.truncated_runs,
      result.stats.new_coverage, result.stats.hits_raw, result.hits.size(),
      result.stats.theorem_violations);
  if (result.stats.theorem_violations != 0) {
    std::printf("!! the modified protocol oscillated on %zu mutants — this would\n"
                "!! falsify the paper's Theorem 2; inspect immediately.\n",
                result.stats.theorem_violations);
  }

  const std::string corpus_out(flags.get_string("corpus-out"));
  const std::size_t limit = static_cast<std::size_t>(flags.get_int("limit"));
  std::size_t written = 0;
  for (const auto& hit : result.hits) {
    const std::string name = "ce-" + util::hex64(hit.fingerprint);

    auto spec = hit.spec;
    spec.name = name;
    const auto inst = explore::try_build(spec);
    if (!inst) continue;

    std::printf("  hit %s: nodes=%zu exits=%zu maps=%zu%s%s rr=%s sync=%s\n", name.c_str(),
                spec.nodes.size(), spec.exits.size(), spec.route_maps.size(),
                hit.med_induced ? " [med-induced]" : "", hit.hybrid ? " [hybrid]" : "",
                engine::run_status_name(hit.signature.round_robin),
                engine::run_status_name(hit.signature.synchronous));

    if (corpus_out.empty()) continue;
    if (limit != 0 && written >= limit) continue;
    const auto entry = explore::make_corpus_entry(*inst, config.max_steps,
                                                  hit.med_induced, hit.hybrid);
    std::filesystem::create_directories(corpus_out);
    const std::string path = corpus_out + "/" + name + ".topo";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << explore::write_corpus_entry(entry);
    std::printf("    wrote %s\n", path.c_str());
    ++written;
  }
  if (!corpus_out.empty()) std::printf("corpus entries written: %zu\n", written);
  return 0;
}
