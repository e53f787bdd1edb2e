// bench_faults — resilience under operational churn (the fault harness).
//
// Sweeps fault intensity (session flaps, message loss, crashes) over the
// three protocols and reports, per cell and over a batch of seeds: how many
// campaigns reconverge, how long re-convergence takes after the last fault
// (settle time), flap volume, and whether the post-quiescence invariants
// (analysis/invariants) hold.  The paper's Section 7 theorem predicts the
// modified-protocol column reads "all reconverge, all clean" at every fault
// rate; standard I-BGP has no such guarantee and fails visibly.
//
// The whole grid is one deterministic parallel sweep (fault/sweep.hpp):
// every (figure, level, protocol, seed) cell is self-contained, so --jobs N
// produces byte-identical per-cell trace hashes to --jobs 1.  --json PATH
// emits the machine-readable result (BENCH_E13.json); --smoke runs a
// reduced CI-sized sweep serially AND in parallel, verifies the two agree
// hash-for-hash, and records the measured speedup in the JSON.

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
  std::size_t flaps;
  double loss;
  std::size_t crashes;
};

constexpr Level kLevels[] = {
    {"none", 0, 0.0, 0},
    {"light   (2 flaps)", 2, 0.0, 0},
    {"medium  (4 flaps, 5% loss)", 4, 0.05, 0},
    {"heavy   (8 flaps, 10% loss, 1 crash)", 8, 0.10, 1},
};

struct CellStats {
  std::size_t reconverged = 0;
  std::size_t clean = 0;
  std::uint64_t settle_sum = 0;   // over reconverged runs (settle_time engaged)
  std::uint64_t flips_sum = 0;
  std::uint64_t dropped_sum = 0;
};

fault::FaultScriptConfig cell_config(std::uint64_t seed, std::size_t flaps, double loss,
                                     std::size_t crashes) {
  fault::FaultScriptConfig config;
  config.seed = seed;
  config.session_flaps = flaps;
  config.crashes = crashes;
  config.loss_prob = loss;
  config.window_start = 20;
  config.window_end = 400;
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
    stats.flips_sum += campaign.run.best_flips;
    stats.dropped_sum += campaign.run.messages_dropped;
  }
  return stats;
}

void report() {
  bench::heading("E13: fault campaigns — reconvergence & invariants vs fault rate",
                 "the modified protocol reconverges consistently after any finite "
                 "fault burst (Section 7); standard I-BGP does not");

  // Materialize the whole grid as one sweep: figures outermost, then levels,
  // protocols, seeds innermost — aggregation below walks the same order.
  const auto figures = topo::all_figures();
  std::vector<fault::SweepCell> cells;
  for (const auto& [name, inst] : figures) {
    if (inst.name() != "fig1a" && inst.name() != "fig3") continue;
    for (const auto& level : kLevels) {
      for (const auto protocol :
           {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
            core::ProtocolKind::kModified}) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
          fault::SweepCell cell;
          cell.instance = &inst;
          cell.protocol = protocol;
          cell.script = fault::make_fault_script(
              inst, cell_config(seed, level.flaps, level.loss, level.crashes));
          cell.options.max_deliveries = kBudget;
          cell.group = inst.name() + std::string("/") + level.label;
          cell.seed = seed;
          cells.push_back(std::move(cell));
        }
      }
    }
  }

  bench::ObsSession obs;
  const auto sweep = bench::run_full_sweep(obs, cells);

  std::size_t next = 0;
  for (const auto& [name, inst] : figures) {
    if (inst.name() != "fig1a" && inst.name() != "fig3") continue;
    std::printf("\n%s (%zu seeds per cell, budget %zu deliveries):\n", name.c_str(),
                kSeeds, kBudget);
    std::printf("  %-38s | %-9s | %-11s | %-6s | %-9s | %-7s\n", "fault level", "protocol",
                "reconverged", "clean", "settle", "flips");
    std::printf("  %.38s-+-----------+-------------+--------+-----------+--------\n",
                "----------------------------------------");
    for (const auto& level : kLevels) {
      for (const auto protocol :
           {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
            core::ProtocolKind::kModified}) {
        const CellStats stats = aggregate(sweep, next, kSeeds);
        next += kSeeds;
        const double settle =
            stats.reconverged ? static_cast<double>(stats.settle_sum) / stats.reconverged
                              : 0;
        std::printf("  %-38s | %-9s | %5zu/%-5zu | %2zu/%-3zu | %9.1f | %6.1f\n",
                    level.label, core::protocol_name(protocol), stats.reconverged, kSeeds,
                    stats.clean, stats.reconverged, settle,
                    static_cast<double>(stats.flips_sum) / kSeeds);
      }
    }
  }
  std::printf("\n(settle = mean virtual ticks from the last applied fault to quiescence,\n"
              " over reconverged runs; clean = invariant checker found no stale routes,\n"
              " RIB desync, or forwarding loops after quiescence)\n");

  bench::finish_full_sweep(obs, "bench_faults", "E13", cells, sweep);
}

// Reduced deterministic sweep for CI: runs serially and in parallel, fails
// on any per-cell hash divergence, prints the (deterministic) per-cell
// hashes to stdout and timing to stderr, and records the speedup in the
// --json document.
int smoke() {
  const auto inst = topo::fig3();
  std::vector<fault::SweepCell> cells;
  // Two fault levels: "none" leaves standard I-BGP oscillating to the
  // delivery budget (the heavy, budget-bound cells that give the speedup
  // measurement something to parallelize); "medium" exercises the fault
  // machinery.
  struct SmokeLevel {
    const char* label;
    std::size_t flaps;
    double loss;
    std::size_t crashes;
  };
  for (const SmokeLevel& level : {SmokeLevel{"none", 0, 0.0, 0},
                                  SmokeLevel{"medium", 4, 0.05, 1}}) {
    for (const auto protocol :
         {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
          core::ProtocolKind::kModified}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        fault::SweepCell cell;
        cell.instance = &inst;
        cell.protocol = protocol;
        cell.script = fault::make_fault_script(
            inst, cell_config(seed, level.flaps, level.loss, level.crashes));
        cell.options.max_deliveries = 100000;
        cell.group = std::string("fig3/") + level.label;
        cell.seed = seed;
        cells.push_back(std::move(cell));
      }
    }
  }

  const auto print_cell = [](std::size_t i, const fault::SweepCell& cell,
                             const fault::CampaignResult& result) {
    std::printf("  cell %2zu %s %-9s seed=%" PRIu64 " hash=%016" PRIx64 "\n", i,
                cell.group.c_str(), core::protocol_name(cell.protocol), cell.seed,
                result.trace_hash);
  };
  return bench::run_smoke(cells, "bench_faults", "E13", "cells", print_cell);
}

void BM_FaultCampaign(benchmark::State& state, core::ProtocolKind protocol) {
  const auto inst = topo::fig3();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto script =
        fault::make_fault_script(inst, cell_config(++seed, 4, 0.05, 1));
    fault::CampaignOptions options;
    options.max_deliveries = kBudget;
    const auto campaign = fault::run_campaign(inst, protocol, script, options);
    benchmark::DoNotOptimize(campaign.trace_hash);
  }
}

BENCHMARK_CAPTURE(BM_FaultCampaign, standard, ibgp::core::ProtocolKind::kStandard)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FaultCampaign, modified, ibgp::core::ProtocolKind::kModified)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ibgp::bench::sweep_bench_main(argc, argv, report, smoke);
}
