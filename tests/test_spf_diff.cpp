// Differential SPF suite: ShortestPaths runs one radix-heap Dijkstra per
// source with first hops carried through the relaxation, and SpfCache
// derives a churn epoch from a cached epoch one link away.  On every input
// below each epoch must equal the frozen construction in
// shortest_paths_reference.hpp: every cost, every next hop and the
// fingerprint.
//
// Inputs: topo::random_instance over many seeds and sizes (3 to about 400
// routers), with second reflectors, spanning trees (extra_link_prob = 0) and
// low link costs that make equal-cost ties common; the six figures; every
// corpus entry; and seeded chains of single-link changes through
// Instance::igp_epoch (cost up, cost down, down, up and reverts, which
// disconnect and reconnect trees), with occasional two-link jumps that
// cannot be derived.  Revisiting a key must return the identical epoch.
// One case runs the chains on util::parallel_for workers that share one
// cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "explore/corpus.hpp"
#include "netsim/link_state.hpp"
#include "netsim/shortest_paths.hpp"
#include "shortest_paths_reference.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef IBGP_CORPUS_DIR
#define IBGP_CORPUS_DIR "examples/data/corpus"
#endif

namespace ibgp {
namespace {

/// What the compared epochs exercised, so an input change that stops
/// reaching equal-cost ties fails loudly.
struct Coverage {
  std::size_t epochs = 0;
  std::size_t ties = 0;  ///< pairs with two or more equal-cost first hops
};

/// Whether `spf` equals the reference for `graph` under `effective` in every
/// cost, every next hop and the fingerprint.
testing::AssertionResult same_epoch(const netsim::ShortestPaths& spf,
                                    const netsim::PhysicalGraph& graph,
                                    std::span<const Cost> effective, Coverage& coverage) {
  const auto ref = reference::shortest_paths(graph, effective);
  if (spf.node_count() != ref.n) {
    return testing::AssertionFailure() << "node count " << spf.node_count() << " vs " << ref.n;
  }
  std::vector<std::vector<netsim::Adjacency>> live(ref.n);
  const auto links = graph.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (effective[i] == kInfCost) continue;
    live[links[i].a].push_back({links[i].b, effective[i]});
    live[links[i].b].push_back({links[i].a, effective[i]});
  }
  for (NodeId u = 0; u < ref.n; ++u) {
    for (NodeId v = 0; v < ref.n; ++v) {
      if (spf.cost(u, v) != ref.cost(u, v)) {
        return testing::AssertionFailure() << "cost(" << u << "," << v << ") " << spf.cost(u, v)
                                           << " vs reference " << ref.cost(u, v);
      }
      if (spf.next_hop(u, v) != ref.next_hop(u, v)) {
        return testing::AssertionFailure() << "next_hop(" << u << "," << v << ") "
                                           << spf.next_hop(u, v) << " vs reference "
                                           << ref.next_hop(u, v);
      }
      if (u == v || ref.cost(u, v) == kInfCost) continue;
      std::size_t first_hops = 0;
      for (const auto& [x, c] : live[u]) {
        if (ref.cost(x, v) != kInfCost && c + ref.cost(x, v) == ref.cost(u, v)) ++first_hops;
      }
      if (first_hops > 1) ++coverage.ties;
    }
  }
  if (spf.fingerprint() != ref.fingerprint) {
    return testing::AssertionFailure() << "fingerprint differs from the reference";
  }
  ++coverage.epochs;
  return testing::AssertionSuccess();
}

std::vector<Cost> base_costs(const netsim::PhysicalGraph& graph) {
  std::vector<Cost> costs;
  for (const auto& link : graph.links()) costs.push_back(link.cost);
  return costs;
}

/// The base epoch both ways: primed through the instance's cache, and built
/// directly from the graph.
testing::AssertionResult base_matches(const core::Instance& inst, Coverage& coverage) {
  const auto costs = base_costs(inst.physical());
  if (auto r = same_epoch(inst.igp(), inst.physical(), costs, coverage); !r) return r;
  return same_epoch(netsim::ShortestPaths(inst.physical()), inst.physical(), costs, coverage);
}

topo::RandomConfig random_config(std::size_t clusters, double extra, double second,
                                 Cost max_link_cost) {
  topo::RandomConfig config;
  config.clusters = clusters;
  config.min_clients = 1;
  config.max_clients = 6;
  config.second_reflector_prob = second;
  config.extra_link_prob = extra;
  config.max_link_cost = max_link_cost;
  config.exits = 4;
  return config;
}

TEST(SpfDiff, RandomInstancesMatchReference) {
  Coverage coverage;
  std::size_t largest = 0;
  std::size_t smallest = ~std::size_t{0};
  std::uint64_t seed = 1;
  for (const std::size_t clusters : {1, 2, 3, 5, 8, 13, 21}) {
    for (const double extra : {0.0, 0.05, 0.25, 0.6}) {
      for (const double second : {0.0, 0.5}) {
        for (const Cost max_cost : {1, 2, 10}) {
          const auto inst =
              topo::random_instance(random_config(clusters, extra, second, max_cost), seed++);
          SCOPED_TRACE(testing::Message() << "seed " << seed - 1 << ", " << inst.node_count()
                                          << " routers");
          largest = std::max(largest, inst.node_count());
          smallest = std::min(smallest, inst.node_count());
          ASSERT_TRUE(base_matches(inst, coverage));
        }
      }
    }
  }
  // The large rungs: 60 and 80 clusters of up to six clients.
  for (const std::size_t clusters : {60, 80}) {
    for (const double extra : {0.0, 0.02}) {
      const auto inst = topo::random_instance(random_config(clusters, extra, 0.2, 3), seed++);
      SCOPED_TRACE(testing::Message() << "seed " << seed - 1 << ", " << inst.node_count()
                                      << " routers");
      largest = std::max(largest, inst.node_count());
      ASSERT_TRUE(base_matches(inst, coverage));
    }
  }
  EXPECT_LE(smallest, 3u);
  EXPECT_GE(largest, 300u);
  EXPECT_GT(coverage.ties, 0u) << "no equal-cost ties exercised";
}

TEST(SpfDiff, FiguresMatchReference) {
  Coverage coverage;
  for (const auto& [name, inst] : topo::all_figures()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(base_matches(inst, coverage));
  }
  EXPECT_EQ(coverage.epochs, 2 * topo::all_figures().size());
  EXPECT_GT(coverage.ties, 0u);
}

TEST(SpfDiff, CorpusMatchesReference) {
  const auto entries = explore::load_corpus_dir(IBGP_CORPUS_DIR);
  ASSERT_EQ(entries.size(), 60u);
  Coverage coverage;
  for (const auto& entry : entries) {
    SCOPED_TRACE(entry.name);
    ASSERT_TRUE(base_matches(topo::parse_topo(entry.topo_text), coverage));
  }
  EXPECT_EQ(coverage.epochs, 2 * entries.size());
}

/// What one chain of link changes exercised.
struct ChainReport {
  Coverage coverage;
  std::size_t revisits = 0;      ///< keys seen before, answered by the identical epoch
  std::size_t disconnects = 0;   ///< epochs with an unreachable pair
  std::size_t reconnects = 0;    ///< connected epochs right after a disconnected one
  std::vector<std::uint64_t> fingerprints;  ///< per step, in order
};

/// `steps` seeded changes to `inst`'s links, each queried through
/// Instance::igp_epoch and compared with the reference.  Most steps change
/// one link: its cost up or down, down, up, or a revert of the previous
/// step; one step in eight changes two links at once.
testing::AssertionResult run_chain(const core::Instance& inst, std::uint64_t seed,
                                   std::size_t steps, ChainReport& report) {
  util::Xoshiro256 rng(seed);
  netsim::LinkState state(inst.physical());
  std::map<std::vector<Cost>, const netsim::ShortestPaths*> seen;
  seen[{state.effective().begin(), state.effective().end()}] = inst.igp_handle().get();
  const std::size_t links = state.link_count();
  bool was_connected = true;
  struct Change {
    std::size_t link;
    bool down;
    Cost cost;
  };
  std::vector<Change> undo;  // the previous step's changes, as they were before it
  for (std::size_t step = 0; step < steps; ++step) {
    const auto change_one = [&](std::vector<Change>& log) {
      const std::size_t link = rng.below(links);
      const Cost delta = 1 + static_cast<Cost>(rng.below(6));
      log.push_back({link, state.is_down(link), state.cost(link)});
      switch (rng.below(4)) {
        case 0:
          state.set_cost(link, state.cost(link) + delta);
          break;
        case 1:
          state.set_cost(link, std::max<Cost>(1, state.cost(link) - delta));
          break;
        case 2:
          state.is_down(link) ? state.set_up(link) : state.set_down(link);
          break;
        default:
          state.set_down(link);
          break;
      }
    };
    std::vector<Change> log;
    if (!undo.empty() && rng.below(5) == 0) {
      // Revert the previous step, newest change first.
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        log.push_back({it->link, state.is_down(it->link), state.cost(it->link)});
        state.set_cost(it->link, it->cost);
        it->down ? state.set_down(it->link) : state.set_up(it->link);
      }
    } else {
      change_one(log);
      if (rng.below(8) == 0) change_one(log);
    }
    undo = std::move(log);

    const auto key = state.effective();
    const auto epoch = inst.igp_epoch(key);
    if (auto r = same_epoch(*epoch, inst.physical(), key, report.coverage); !r) {
      return r << " at step " << step;
    }
    const auto [it, fresh] = seen.emplace(std::vector<Cost>(key.begin(), key.end()), epoch.get());
    if (!fresh) {
      if (it->second != epoch.get()) {
        return testing::AssertionFailure() << "step " << step << " revisited a key but got a "
                                           << "different epoch object";
      }
      ++report.revisits;
    }
    bool connected = true;
    for (NodeId v = 1; v < epoch->node_count() && connected; ++v) {
      connected = epoch->reachable(0, v);
    }
    if (!connected) ++report.disconnects;
    if (connected && !was_connected) ++report.reconnects;
    was_connected = connected;
    report.fingerprints.push_back(epoch->fingerprint());
  }
  return testing::AssertionSuccess();
}

TEST(SpfDiff, SingleLinkChainsMatchReference) {
  ChainReport report;
  std::uint64_t derived = 0, misses = 0;
  std::uint64_t seed = 100;
  for (const std::size_t clusters : {2, 4, 8, 16}) {
    for (const double extra : {0.0, 0.1, 0.4}) {
      const auto inst = topo::random_instance(random_config(clusters, extra, 0.3, 4), seed);
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << inst.node_count()
                                      << " routers");
      const auto before = inst.spf_cache().stats();
      ASSERT_TRUE(run_chain(inst, seed * 7 + 1, 60, report));
      const auto after = inst.spf_cache().stats();
      derived += after.derived - before.derived;
      misses += after.misses - before.misses;
      ++seed;
    }
  }
  EXPECT_GT(report.coverage.epochs, 500u);
  EXPECT_GT(report.revisits, 0u) << "no key was revisited";
  EXPECT_GT(report.disconnects, 0u) << "no change disconnected the graph";
  EXPECT_GT(report.reconnects, 0u) << "no change reconnected the graph";
  EXPECT_GT(report.coverage.ties, 0u);
  EXPECT_GT(derived, 0u) << "no epoch was derived";
  EXPECT_LT(derived, misses) << "every miss was derived: the full build went unexercised";
}

TEST(SpfDiff, RevertingToTheBaseReturnsThePrimedEpoch) {
  const auto inst = topo::random_instance(random_config(6, 0.2, 0.0, 5), 42);
  netsim::LinkState state(inst.physical());
  const auto base = inst.igp_handle();
  Coverage coverage;
  for (std::size_t link = 0; link < state.link_count(); ++link) {
    state.set_down(link);
    const auto down = inst.igp_epoch(state.effective());
    ASSERT_TRUE(same_epoch(*down, inst.physical(), state.effective(), coverage));
    state.set_up(link);
    EXPECT_EQ(inst.igp_epoch(state.effective()).get(), base.get()) << "link " << link;
    EXPECT_EQ(inst.igp_epoch(state.effective()).get(), base.get());
  }
  EXPECT_EQ(inst.spf_cache().stats().derived, state.link_count())
      << "every single-link down epoch is one link from the base";
}

TEST(SpfDiff, SharedCacheChainsMatchSerialRunsOnWorkers) {
  // Workers share one instance, hence one SpfCache: derivation runs under
  // its mutex and each worker's kernel scratch is its own.
  const auto config = random_config(10, 0.1, 0.3, 4);
  constexpr std::size_t kChains = 8;
  std::vector<std::vector<std::uint64_t>> serial(kChains), parallel(kChains);
  for (std::size_t i = 0; i < kChains; ++i) {
    const auto inst = topo::random_instance(config, 5);
    ChainReport report;
    ASSERT_TRUE(run_chain(inst, 900 + i, 40, report));
    serial[i] = report.fingerprints;
  }
  const auto shared = topo::random_instance(config, 5);
  std::vector<char> ok(kChains, 0);
  util::parallel_for(kChains, 4, [&](std::size_t i) {
    ChainReport report;
    ok[i] = run_chain(shared, 900 + i, 40, report) ? 1 : 0;
    parallel[i] = report.fingerprints;
  });
  for (std::size_t i = 0; i < kChains; ++i) {
    EXPECT_TRUE(ok[i]) << "chain " << i;
    EXPECT_EQ(parallel[i], serial[i]) << "chain " << i;
  }
}

}  // namespace
}  // namespace ibgp
