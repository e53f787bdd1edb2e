// bench_gr — graceful restart vs cold restart (E14).
//
// Runs PAIRED fault campaigns: for each (figure, protocol, outage level,
// seed), one campaign crashes the victims cold and one restarts the SAME
// victims at the SAME times gracefully (RFC 4724-style stale-path
// retention; the two scripts share one RNG draw sequence — see
// fault/script.hpp).  The forwarding-continuity checker then prices each
// run tick-by-tick: blackhole ticks (source-ticks with no usable route),
// stale ticks (forwarding carried by retained-stale state), transient
// loop ticks, and the longest contiguous per-source blackhole window.
//
// The headline claim: graceful restart strictly shrinks total blackhole
// time relative to cold restart, for every protocol variant — retention
// keeps the data plane forwarding while the control plane reboots.  The
// report ends with a per-protocol PASS/FAIL verdict on exactly that.
//
// The grid runs as one deterministic parallel sweep (fault/sweep.hpp), so
// --jobs N matches --jobs 1 hash-for-hash.  `bench_gr --smoke` runs a
// reduced paired sweep serially AND in parallel, prints the per-cell trace
// hashes (stdout is deterministic — CI diffs it across processes and
// across --jobs values), fails on any divergence, and records the measured
// speedup in the --json document (BENCH_E14.json).

#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "fault/script.hpp"
#include "fault/sweep.hpp"
#include "topo/figures.hpp"

namespace {

using namespace ibgp;

constexpr std::size_t kSeeds = 20;
constexpr std::size_t kBudget = 100000;
constexpr engine::SimTime kStaleTimer = 300;

struct Level {
  const char* label;
  std::size_t outages;  // crash/restart (cold) or graceful-down/restart pairs
  std::size_t flaps;
  double loss;
};

constexpr Level kLevels[] = {
    {"1 outage, quiet background", 1, 0, 0.0},
    {"2 outages, 2 flaps, 5% loss", 2, 2, 0.05},
};

struct CellStats {
  std::size_t reconverged = 0;
  std::size_t clean = 0;
  std::uint64_t blackhole = 0;   // total source-ticks, summed over seeds
  std::uint64_t stale = 0;
  std::uint64_t loops = 0;
  std::uint64_t max_window = 0;  // worst contiguous blackhole window seen
  std::uint64_t settle_sum = 0;  // over reconverged runs
};

fault::FaultScriptConfig cell_config(std::uint64_t seed, const Level& level,
                                     bool graceful) {
  fault::FaultScriptConfig config;
  config.seed = seed;
  config.session_flaps = level.flaps;
  config.loss_prob = level.loss;
  config.window_start = 20;
  config.window_end = 400;
  if (graceful) {
    config.graceful_restarts = level.outages;
    config.stale_timer = kStaleTimer;
  } else {
    config.crashes = level.outages;
  }
  return config;
}

fault::SweepCell make_cell(const core::Instance& inst, core::ProtocolKind protocol,
                           const Level& level, bool graceful, std::uint64_t seed,
                           std::size_t budget) {
  fault::SweepCell cell;
  cell.instance = &inst;
  cell.protocol = protocol;
  cell.script = fault::make_fault_script(inst, cell_config(seed, level, graceful));
  cell.options.max_deliveries = budget;
  cell.group = inst.name() + std::string(graceful ? "/graceful/" : "/cold/") + level.label;
  cell.seed = seed;
  return cell;
}

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
    stats.blackhole += campaign.continuity.blackhole_ticks;
    stats.stale += campaign.continuity.stale_ticks;
    stats.loops += campaign.continuity.loop_ticks;
    stats.max_window = std::max(stats.max_window, campaign.continuity.max_blackhole_window);
  }
  return stats;
}

void report() {
  bench::heading("E14: graceful restart vs cold restart — forwarding continuity",
                 "stale-path retention (RFC 4724 semantics) strictly shrinks "
                 "blackhole time vs cold restart, for every protocol variant");

  // One sweep over the whole paired grid: figures outermost, then levels,
  // protocols, restart styles, seeds innermost — aggregation walks the
  // same order.
  const auto figures = topo::all_figures();
  std::vector<fault::SweepCell> cells;
  for (const auto& [name, inst] : figures) {
    if (inst.name() != "fig1a" && inst.name() != "fig3") continue;
    for (const auto& level : kLevels) {
      for (const auto protocol :
           {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
            core::ProtocolKind::kModified}) {
        for (const bool graceful : {false, true}) {
          for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            cells.push_back(make_cell(inst, protocol, level, graceful, seed, kBudget));
          }
        }
      }
    }
  }

  bench::ObsSession obs;
  const auto sweep = bench::run_full_sweep(obs, cells);

  // protocol -> (cold, graceful) blackhole totals across figures and levels.
  std::map<core::ProtocolKind, std::pair<std::uint64_t, std::uint64_t>> verdict;

  std::size_t next = 0;
  for (const auto& [name, inst] : figures) {
    if (inst.name() != "fig1a" && inst.name() != "fig3") continue;
    std::printf("\n%s (%zu paired seeds per cell, budget %zu deliveries, "
                "stale timer %" PRIu64 "):\n",
                name.c_str(), kSeeds, kBudget, kStaleTimer);
    std::printf("  %-28s | %-9s | %-8s | %-11s | %-6s | %-9s | %-6s | %-6s\n",
                "fault level", "protocol", "restart", "reconverged", "clean",
                "blackhole", "max-bh", "stale");
    std::printf("  %.28s-+-----------+----------+-------------+--------+-----------+--------+-------\n",
                "------------------------------");
    for (const auto& level : kLevels) {
      for (const auto protocol :
           {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
            core::ProtocolKind::kModified}) {
        for (const bool graceful : {false, true}) {
          const CellStats stats = aggregate(sweep, next, kSeeds);
          next += kSeeds;
          std::printf("  %-28s | %-9s | %-8s | %5zu/%-5zu | %2zu/%-3zu | %9" PRIu64
                      " | %6" PRIu64 " | %6" PRIu64 "\n",
                      level.label, core::protocol_name(protocol),
                      graceful ? "graceful" : "cold", stats.reconverged, kSeeds,
                      stats.clean, stats.reconverged, stats.blackhole, stats.max_window,
                      stats.stale);
          auto& totals = verdict[protocol];
          (graceful ? totals.second : totals.first) += stats.blackhole;
        }
      }
    }
  }

  std::printf("\npaired verdict (total blackhole source-ticks, cold vs graceful):\n");
  for (const auto& [protocol, totals] : verdict) {
    std::printf("  %-9s : cold=%-8" PRIu64 " graceful=%-8" PRIu64 " -> %s\n",
                core::protocol_name(protocol), totals.first, totals.second,
                totals.second < totals.first ? "PASS (strictly smaller)" : "FAIL");
  }
  std::printf("\n(blackhole = source-ticks with no usable route; max-bh = longest\n"
              " contiguous per-source blackhole window; stale = source-ticks carried\n"
              " by retained-stale forwarding state — the price of continuity)\n");

  bench::finish_full_sweep(obs, "bench_gr", "E14", cells, sweep);
}

// Reduced paired sweep, run twice (serial, then --jobs N parallel; default
// 4).  stdout carries only deterministic lines, so CI can diff two
// invocations — across processes and across --jobs values — byte for byte.
int smoke() {
  const auto inst = topo::fig3();
  std::vector<fault::SweepCell> cells;
  for (const auto protocol : {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
                              core::ProtocolKind::kModified}) {
    for (const bool graceful : {false, true}) {
      for (std::uint64_t seed = 7; seed <= 10; ++seed) {
        cells.push_back(make_cell(inst, protocol, kLevels[1], graceful, seed, 60000));
      }
    }
  }

  const auto print_cell = [](std::size_t i, const fault::SweepCell& cell,
                             const fault::CampaignResult& result) {
    std::printf("  cell %2zu %-9s %-42s seed=%" PRIu64 " hash=%016" PRIx64
                " reconverged=%d blackhole=%" PRIu64 " stale=%" PRIu64 "\n",
                i, core::protocol_name(cell.protocol), cell.group.c_str(), cell.seed,
                result.trace_hash, result.reconverged() ? 1 : 0,
                result.continuity.blackhole_ticks, result.continuity.stale_ticks);
  };
  return bench::run_smoke(cells, "bench_gr", "E14", "paired cells", print_cell);
}

void BM_GrCampaign(benchmark::State& state, bool graceful) {
  const auto inst = topo::fig3();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto script =
        fault::make_fault_script(inst, cell_config(++seed, kLevels[1], graceful));
    fault::CampaignOptions options;
    options.max_deliveries = kBudget;
    const auto campaign =
        fault::run_campaign(inst, core::ProtocolKind::kModified, script, options);
    benchmark::DoNotOptimize(campaign.trace_hash);
  }
}

BENCHMARK_CAPTURE(BM_GrCampaign, cold, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GrCampaign, graceful, true)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ibgp::bench::sweep_bench_main(argc, argv, report, smoke);
}
