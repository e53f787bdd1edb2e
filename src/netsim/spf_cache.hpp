#pragma once
// Memoized deterministic SPF recomputation for IGP churn.
//
// Every IGP epoch is a pure function of the effective link-cost vector
// (LinkState::effective()), so epochs are memoized on exactly that key.  A
// miss whose key differs from a cached key at exactly one link derives the
// new epoch from the cached one, re-running only the sources whose rows the
// link can touch (ShortestPaths::derive); any other miss computes every
// row.  Either way the value is the same, bit for bit (DESIGN.md §11).
//
// The cache is shared wherever the owning Instance is shared — including
// across the worker threads of a parallel fault sweep, where many cells
// visit the same churned states — so lookups, and the derivation, are
// mutex-serialized.  The mapping is key -> value for a *pure* value, which
// keeps sweep results byte-identical regardless of which thread first
// computed an epoch or which cached epoch it was derived from; only the
// counters are schedule-dependent, and they are deliberately not part of
// any per-cell result or trace hash.
//
// Epochs are handed out as shared_ptr<const ShortestPaths>: an engine holds
// its current epoch alive independently of the cache and of other engines,
// and reverting to previously seen costs returns the *identical* object
// (pointer equality), making "link_up restored the original IGP" checkable.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "netsim/physical_graph.hpp"
#include "netsim/shortest_paths.hpp"
#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace ibgp::netsim {

/// Lookup statistics.  Schedule-dependent when the cache is shared across
/// sweep workers (whichever thread sees a key first takes the miss), hence
/// exported as *volatile* metrics only — never folded into trace hashes.
struct SpfCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;   ///< == misses: every miss materializes an epoch
  std::uint64_t evictions = 0; ///< LRU evictions (0 while unbounded)
  std::uint64_t derived = 0;   ///< misses derived from a cached epoch one link away
  std::uint64_t rows_rerun = 0;  ///< source rows those derivations re-ran
};

class SpfCache {
 public:
  /// Copies the base graph (topology + node count); effective cost vectors
  /// passed to get() must be index-aligned with base.links().
  explicit SpfCache(const PhysicalGraph& base);

  /// The all-pairs shortest paths for the given effective link costs
  /// (kInfCost = link down), computing and memoizing on first sight.  A
  /// miss first looks for a cached key one link away, trying the most
  /// recently used entry first; it derives from that epoch when it finds
  /// one.  Throws std::invalid_argument on a size mismatch with the base
  /// graph, or on a cost the kernel rejects (see ShortestPaths).
  std::shared_ptr<const ShortestPaths> get(std::span<const Cost> effective);

  /// Distinct epochs materialized so far (>= 1 once the base was queried).
  [[nodiscard]] std::size_t size() const;

  /// Bounds the number of memoized epochs.  0 (the default) means
  /// unbounded — the batch/sweep contract, where "reverting to previously
  /// seen costs returns the identical object" must hold forever.  A
  /// long-lived daemon under IGP churn sets a cap instead: when a miss
  /// would exceed it, the least-recently-used epoch is evicted (counted in
  /// stats().evictions and the volatile metric "spf.evictions").  The
  /// *base* epoch — the first key ever inserted, primed by the owning
  /// Instance — is never evicted, so the steady-state graph stays warm and
  /// pointer-stable.  Engines keep their current epoch alive via
  /// shared_ptr, so eviction never invalidates an in-use epoch; a revisit
  /// after eviction simply recomputes the same pure value.
  void set_capacity(std::size_t max_epochs);

  /// Lookup counters since construction.  The base epoch is computed when
  /// the owning Instance primes the cache, so it costs exactly one miss at
  /// construction time and every later base-vector lookup is a hit (tested
  /// in test_obs).
  [[nodiscard]] SpfCacheStats stats() const;

  /// Mirrors the counters into `registry` as the volatile metrics
  /// "spf.hits" / "spf.misses" / "spf.inserts" / "spf.evictions" /
  /// "spf.derived" / "spf.rows_rerun", from now on, and records each miss's
  /// build wall time, derived or not, into the volatile span histogram
  /// "spf.recompute_ns".  Pass nullptr to detach.
  void attach_metrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    std::shared_ptr<const ShortestPaths> spf;
    std::uint64_t last_use = 0;  ///< tick of the most recent get() touch
    bool pinned = false;         ///< base epoch: never evicted
  };

  using Map = std::map<std::vector<Cost>, Entry>;

  void evict_lru_locked();  // requires mutex_ held; skips pinned entries

  /// A cached entry whose key differs from `key` at exactly one link, whose
  /// index goes to `changed`; cache_.end() if none.  Requires mutex_ held.
  Map::const_iterator one_link_away_locked(const std::vector<Cost>& key,
                                           std::size_t& changed) const;

  PhysicalGraph base_;
  mutable std::mutex mutex_;
  Map cache_;
  Map::iterator mru_ = cache_.end();  // most recently used entry
  SpfCacheStats stats_;  // guarded by mutex_
  std::size_t capacity_ = 0;   // 0 = unbounded
  std::uint64_t use_tick_ = 0; // monotonically increasing LRU clock
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* derived_ = nullptr;
  obs::Counter* rows_rerun_ = nullptr;
  obs::Histogram* recompute_ns_ = nullptr;  // miss-path wall time (volatile)
};

}  // namespace ibgp::netsim
