// bench_churn — IGP topology churn: oscillation & deflection under runtime
// link-cost/link-failure faults (E16).
//
// The paper prices every route by its IGP shortest-path distance (Section
// 4), so the underlay is a decision input: moving a link metric can flip
// selections across the AS without a single BGP message being lost.  This
// bench sweeps IGP churn intensity — metric jitter, link failures, router
// partitions, and a mixed storm that layers session flaps and graceful
// restarts on top — over the three protocols and reports, per cell batch:
// reconvergence, post-quiescence cleanliness under the churn-aware
// invariants (including the IGP-metric currency check), IGP epoch swaps,
// and the transient damage continuity prices per churn event — forwarding
// loops, blackholes, and RR-induced deflections (packets delivered at an
// exit the source never chose, Fig 12's phenomenon made quantitative).
//
// The whole grid is one deterministic parallel sweep (fault/sweep.hpp):
// SPF recomputation is memoized in the instance's SpfCache keyed by the
// effective link-state vector, shared across worker threads, and the
// per-cell trace hashes cover the full IGP epoch timeline — so --jobs N is
// byte-identical to --jobs 1, which `bench_churn --smoke` verifies by
// running the reduced grid serially AND in parallel in one process.
// --json PATH emits the machine-readable result (BENCH_E16.json).

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "fault/script.hpp"
#include "fault/sweep.hpp"
#include "topo/figures.hpp"
#include "util/rng.hpp"

namespace {

using namespace ibgp;

constexpr std::size_t kSeeds = 30;
constexpr std::size_t kBudget = 200000;

struct Level {
  const char* label;
  std::size_t cost_changes;
  std::size_t link_downs;
  std::size_t partitions;
  std::size_t session_flaps;
  std::size_t graceful_restarts;
};

constexpr Level kLevels[] = {
    {"none", 0, 0, 0, 0, 0},
    {"jitter    (4 cost changes)", 4, 0, 0, 0, 0},
    {"failures  (3 link downs)", 0, 3, 0, 0, 0},
    {"partition (1 router isolated)", 0, 0, 1, 0, 0},
    {"mixed     (2+2 churn, 2 flaps, 1 GR)", 2, 2, 0, 2, 1},
};

struct CellStats {
  std::size_t reconverged = 0;
  std::size_t clean = 0;
  std::size_t igp_mismatch = 0;
  std::uint64_t settle_sum = 0;  // over reconverged runs (settle_time engaged)
  std::uint64_t swaps_sum = 0;
  std::uint64_t loop_sum = 0;
  std::uint64_t blackhole_sum = 0;
  std::uint64_t deflection_sum = 0;
};

fault::FaultScriptConfig cell_config(std::uint64_t seed, const Level& level) {
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

/// Aggregates `count` consecutive sweep cells starting at `first`.
CellStats aggregate(const fault::SweepResult& sweep, std::size_t first,
                    std::size_t count) {
  CellStats stats;
  for (std::size_t i = first; i < first + count; ++i) {
    const auto& campaign = sweep.cells[i];
    if (campaign.reconverged()) {
      ++stats.reconverged;
      stats.settle_sum += *campaign.settle_time;
      if (campaign.invariants.clean()) ++stats.clean;
    }
    stats.igp_mismatch += campaign.invariants.igp_mismatch;
    stats.swaps_sum += campaign.run.igp_epoch_swaps;
    stats.loop_sum += campaign.continuity.loop_ticks;
    stats.blackhole_sum += campaign.continuity.blackhole_ticks;
    stats.deflection_sum += campaign.continuity.deflection_ticks;
  }
  return stats;
}

std::vector<fault::SweepCell> make_grid(
    const std::vector<std::pair<std::string, core::Instance>>& figures,
                                        std::size_t seeds, std::size_t budget) {
  std::vector<fault::SweepCell> cells;
  for (const auto& [name, inst] : figures) {
    if (inst.name() != "fig1a" && inst.name() != "fig3") continue;
    for (const auto& level : kLevels) {
      for (const auto protocol :
           {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
            core::ProtocolKind::kModified}) {
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          fault::SweepCell cell;
          cell.instance = &inst;
          cell.protocol = protocol;
          cell.script = fault::make_fault_script(inst, cell_config(seed, level));
          cell.options.max_deliveries = budget;
          cell.group = inst.name() + std::string("/") + level.label;
          cell.seed = seed;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

void report() {
  bench::heading("E16: IGP churn — oscillation & deflection vs link-fault rate",
                 "routes are IGP distances plus exit paths (Section 4): metric "
                 "churn alone re-prices selections AS-wide, and hop-by-hop "
                 "forwarding deflects where reflection hides the move (Fig 12)");

  const auto figures = topo::all_figures();
  auto cells = make_grid(figures, kSeeds, kBudget);

  bench::ObsSession obs;
  const auto sweep = bench::run_full_sweep(obs, cells);

  std::size_t next = 0;
  for (const auto& [name, inst] : figures) {
    if (inst.name() != "fig1a" && inst.name() != "fig3") continue;
    std::printf("\n%s (%zu seeds per cell, budget %zu deliveries):\n", name.c_str(),
                kSeeds, kBudget);
    std::printf("  %-37s | %-9s | %-11s | %-6s | %-5s | %-7s | %-7s | %-9s\n",
                "churn level", "protocol", "reconverged", "clean", "swaps", "loops",
                "deflect", "blackhole");
    std::printf("  %.37s-+-----------+-------------+--------+-------+---------+---------+----------\n",
                "---------------------------------------");
    for (const auto& level : kLevels) {
      for (const auto protocol :
           {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
            core::ProtocolKind::kModified}) {
        const CellStats stats = aggregate(sweep, next, kSeeds);
        next += kSeeds;
        std::printf("  %-37s | %-9s | %5zu/%-5zu | %2zu/%-3zu | %5.1f | %7.1f | %7.1f | %9.1f\n",
                    level.label, core::protocol_name(protocol), stats.reconverged,
                    kSeeds, stats.clean, stats.reconverged,
                    static_cast<double>(stats.swaps_sum) / kSeeds,
                    static_cast<double>(stats.loop_sum) / kSeeds,
                    static_cast<double>(stats.deflection_sum) / kSeeds,
                    static_cast<double>(stats.blackhole_sum) / kSeeds);
      }
    }
  }
  std::printf("\n(swaps = mean IGP epochs installed per run; loops / deflect /\n"
              " blackhole = mean transient source-ticks from the continuity replay,\n"
              " traced against the epoch live in each interval; clean counts runs the\n"
              " churn-aware invariants — incl. the IGP-metric currency check — passed)\n");

  bench::finish_full_sweep(obs, "bench_churn", "E16", cells, sweep);
}

// Reduced deterministic sweep for CI: runs serially and in parallel, fails
// on any per-cell hash divergence, prints the (deterministic) per-cell
// hashes to stdout and timing to stderr, and records the speedup in the
// --json document.  The grid reuses kLevels, so the serial-vs-parallel
// byte-diff covers the SPF cache shared across worker threads.
int smoke() {
  const auto figures = topo::all_figures();
  auto cells = make_grid(figures, /*seeds=*/3, /*budget=*/100000);

  const auto print_cell = [](std::size_t i, const fault::SweepCell& cell,
                             const fault::CampaignResult& result) {
    std::printf("  cell %3zu %-42s %-9s seed=%" PRIu64 " hash=%016" PRIx64 " swaps=%zu\n", i,
                cell.group.c_str(), core::protocol_name(cell.protocol), cell.seed,
                result.trace_hash, result.run.igp_epoch_swaps);
  };
  return bench::run_smoke(cells, "bench_churn", "E16", "cells", print_cell);
}

void BM_ChurnCampaign(benchmark::State& state, core::ProtocolKind protocol) {
  const auto inst = topo::fig3();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto script = fault::make_fault_script(inst, cell_config(++seed, kLevels[4]));
    fault::CampaignOptions options;
    options.max_deliveries = kBudget;
    const auto campaign = fault::run_campaign(inst, protocol, script, options);
    benchmark::DoNotOptimize(campaign.trace_hash);
  }
}

BENCHMARK_CAPTURE(BM_ChurnCampaign, standard, ibgp::core::ProtocolKind::kStandard)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChurnCampaign, modified, ibgp::core::ProtocolKind::kModified)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ibgp::bench::sweep_bench_main(argc, argv, report, smoke);
}
