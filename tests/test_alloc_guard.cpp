// Allocation guard: this binary replaces the global operator new/delete
// with versions that count heap blocks, then asserts the decision path and
// the forwarding replay stay allocation-free once their reused buffers have
// grown.  Wall clocks on a shared one-core runner are noisy; these counts
// are exact, so a regression that reintroduces a per-call allocation fails
// here deterministically.
//
//   - core::decide: zero blocks per call for all three protocols on fig1a,
//     fig3 and a 64-exit random instance, with and without provenance;
//   - a budget-bound fig3 standard run: under 0.01 blocks per delivery;
//   - check_continuity: a count that does not grow with the intervals;
//   - a ShortestPaths build: its two matrices and nothing else, at fig3, 108
//     and 999 routers (the kernel's adjacency and heap are per-thread
//     scratch, so explore-search's thousands of small builds stay cheap).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/continuity.hpp"
#include "core/policy.hpp"
#include "engine/event_engine.hpp"
#include "netsim/shortest_paths.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"

namespace {

std::atomic<std::uint64_t> g_blocks{0};

std::uint64_t blocks() { return g_blocks.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  g_blocks.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace ibgp {
namespace {

using core::ProtocolKind;

constexpr ProtocolKind kProtocols[] = {ProtocolKind::kStandard, ProtocolKind::kWalton,
                                       ProtocolKind::kModified};

TEST(AllocationGuard, CounterSeesHeapBlocks) {
  const std::uint64_t before = blocks();
  std::vector<int>* volatile escaped = new std::vector<int>(64);
  delete escaped;
  EXPECT_EQ(blocks() - before, 2u);
}

/// Candidate sets per node: every exit, and every other exit, attributed
/// the way the engine does (own exits to their E-BGP peer).
std::vector<std::vector<bgp::Candidate>> candidate_sets(const core::Instance& inst) {
  std::vector<std::vector<bgp::Candidate>> sets;
  for (NodeId u = 0; u < inst.node_count(); ++u) {
    for (const PathId stride : {PathId{1}, PathId{2}}) {
      std::vector<bgp::Candidate> set;
      for (PathId p = 0; p < inst.exits().size(); p += stride) {
        const auto& path = inst.exits()[p];
        set.push_back({p, path.exit_point == u ? path.ebgp_peer : inst.bgp_id(path.exit_point)});
      }
      sets.push_back(std::move(set));
    }
  }
  return sets;
}

/// Heap blocks allocated by `rounds` passes of decide over every node and
/// candidate set, after one warm-up pass.
std::uint64_t decide_blocks(const core::Instance& inst, ProtocolKind kind, int rounds) {
  const auto sets = candidate_sets(inst);
  core::NodeDecision out;
  bgp::SelectionProvenance provenance;
  const auto pass = [&] {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const auto node = static_cast<NodeId>(i / 2);
      core::decide(inst, inst.igp(), kind, node, sets[i], out, &provenance);
      core::decide(inst, inst.igp(), kind, node, sets[i], out);
    }
  };
  pass();
  const std::uint64_t before = blocks();
  for (int round = 0; round < rounds; ++round) pass();
  return blocks() - before;
}

core::Instance sixty_four_exits() {
  topo::RandomConfig config;
  config.clusters = 6;
  config.min_clients = 2;
  config.max_clients = 4;
  config.neighbor_ases = 5;
  config.exits = 64;
  config.equal_local_pref = false;
  config.equal_as_path_length = false;
  return topo::random_instance(config, 64);
}

TEST(AllocationGuard, DecideAllocatesNothingAfterWarmUp) {
  const core::Instance instances[] = {topo::fig1a(), topo::fig3(), sixty_four_exits()};
  for (const auto& inst : instances) {
    for (const ProtocolKind kind : kProtocols) {
      EXPECT_EQ(decide_blocks(inst, kind, 3), 0u)
          << inst.name() << " " << core::protocol_name(kind);
    }
  }
}

TEST(AllocationGuard, BudgetBoundFig3RunAllocatesUnderOneBlockPerHundredDeliveries) {
  const auto inst = topo::fig3();
  engine::EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits(0);
  ASSERT_EQ(engine.run(20'000).deliveries, 20'000u);  // warm-up: buffers grown
  const std::uint64_t before = blocks();
  const auto result = engine.run(200'000);
  const std::uint64_t allocated = blocks() - before;
  ASSERT_FALSE(result.converged) << "Fig 3 oscillates under the standard protocol";
  ASSERT_EQ(result.deliveries, 200'000u);
  EXPECT_LT(static_cast<double>(allocated) / 200'000.0, 0.01) << allocated << " blocks";
}

/// Heap blocks check_continuity allocates over a fig1a standard run of
/// `budget` deliveries; `intervals` receives the replayed interval count.
std::uint64_t continuity_blocks(std::size_t budget, std::size_t& intervals) {
  const auto inst = topo::fig1a();
  engine::EventEngine engine(inst, ProtocolKind::kStandard);
  engine.inject_all_exits(0);
  const auto result = engine.run(budget);
  const std::uint64_t before = blocks();
  const auto report = analysis::check_continuity(engine, result.end_time + 1);
  const std::uint64_t allocated = blocks() - before;
  intervals = report.intervals;
  return allocated;
}

TEST(AllocationGuard, ContinuityAllocationsDoNotGrowWithIntervals) {
  std::size_t short_intervals = 0;
  std::size_t long_intervals = 0;
  const std::uint64_t short_blocks = continuity_blocks(2'000, short_intervals);
  const std::uint64_t long_blocks = continuity_blocks(20'000, long_intervals);
  ASSERT_GT(long_intervals, 5 * short_intervals);
  EXPECT_EQ(long_blocks, short_blocks)
      << short_intervals << " intervals: " << short_blocks << " blocks; " << long_intervals
      << " intervals: " << long_blocks << " blocks";
  EXPECT_LT(long_blocks, 32u);
}

/// Heap blocks of one ShortestPaths build of `inst`'s graph, after a
/// warm-up build of the same graph.
std::uint64_t spf_build_blocks(const core::Instance& inst) {
  { const netsim::ShortestPaths warm_up(inst.physical()); }
  const std::uint64_t before = blocks();
  const netsim::ShortestPaths spf(inst.physical());
  const std::uint64_t allocated = blocks() - before;
  EXPECT_EQ(spf.node_count(), inst.node_count());
  return allocated;
}

/// The random instance of the given cluster count with 2-6 clients per
/// cluster: 24 clusters at seed 11 give 108 routers, 200 at seed 21 give 999.
core::Instance clustered(std::size_t clusters, double extra_link_prob, std::uint64_t seed) {
  topo::RandomConfig config;
  config.clusters = clusters;
  config.min_clients = 2;
  config.max_clients = 6;
  config.extra_link_prob = extra_link_prob;
  return topo::random_instance(config, seed);
}

TEST(AllocationGuard, ShortestPathsBuildAllocatesOnlyItsTwoMatrices) {
  const core::Instance instances[] = {topo::fig3(), clustered(24, 0.04, 11),
                                      clustered(200, 0.02, 21)};
  ASSERT_EQ(instances[1].node_count(), 108u);
  ASSERT_EQ(instances[2].node_count(), 999u);
  for (const auto& inst : instances) {
    EXPECT_EQ(spf_build_blocks(inst), 2u) << inst.name() << ", " << inst.node_count()
                                          << " routers";
  }
}

}  // namespace
}  // namespace ibgp
