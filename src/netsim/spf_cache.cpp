#include "netsim/spf_cache.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"

namespace ibgp::netsim {

SpfCache::SpfCache(const PhysicalGraph& base) : base_(base) {}

namespace {

/// The only index at which `a` and `b` differ, or nullopt when they differ
/// at none or at more than one.  Stops at the second difference.
std::optional<std::size_t> single_difference(std::span<const Cost> a, std::span<const Cost> b) {
  std::optional<std::size_t> at;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    if (at) return std::nullopt;
    at = i;
  }
  return at;
}

}  // namespace

SpfCache::Map::const_iterator SpfCache::one_link_away_locked(const std::vector<Cost>& key,
                                                             std::size_t& changed) const {
  // Churn usually moves one link away from the epoch just used.
  if (mru_ != cache_.end()) {
    if (const auto at = single_difference(mru_->first, key)) {
      changed = *at;
      return mru_;
    }
  }
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it == mru_) continue;
    if (const auto at = single_difference(it->first, key)) {
      changed = *at;
      return it;
    }
  }
  return cache_.end();
}

std::shared_ptr<const ShortestPaths> SpfCache::get(std::span<const Cost> effective) {
  if (effective.size() != base_.link_count()) {
    throw std::invalid_argument("SpfCache: effective cost vector size mismatch");
  }
  std::vector<Cost> key(effective.begin(), effective.end());

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.hits;
    it->second.last_use = ++use_tick_;
    mru_ = it;
    if (hits_ != nullptr) hits_->increment();
    return it->second.spf;
  }
  // The span times the neighbour search plus the build, derived or not
  // (null sink when no registry is attached).  A key the kernel rejects
  // throws from the build before the miss is counted.
  std::shared_ptr<const ShortestPaths> spf;
  {
    const obs::Span recompute_span(recompute_ns_);
    std::size_t changed = 0;
    const auto near = one_link_away_locked(key, changed);
    if (near == cache_.end()) {
      spf = std::make_shared<const ShortestPaths>(base_, key);
    } else {
      std::size_t rows = 0;
      spf = std::make_shared<const ShortestPaths>(ShortestPaths::derive(
          *near->second.spf, base_, key, changed, near->first[changed], rows));
      ++stats_.derived;
      stats_.rows_rerun += rows;
      if (derived_ != nullptr) derived_->increment();
      if (rows_rerun_ != nullptr) rows_rerun_->add(rows);
    }
  }
  ++stats_.misses;
  ++stats_.inserts;
  if (misses_ != nullptr) misses_->increment();
  if (inserts_ != nullptr) inserts_->increment();
  if (capacity_ != 0 && cache_.size() >= capacity_) evict_lru_locked();
  Entry entry;
  entry.spf = spf;
  entry.last_use = ++use_tick_;
  entry.pinned = cache_.empty();  // first key ever inserted = base epoch
  mru_ = cache_.emplace(std::move(key), std::move(entry)).first;
  return spf;
}

void SpfCache::evict_lru_locked() {
  auto victim = cache_.end();
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->second.pinned) continue;
    if (victim == cache_.end() || it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == cache_.end()) return;  // only the pinned base left
  if (victim == mru_) mru_ = cache_.end();
  cache_.erase(victim);
  ++stats_.evictions;
  if (evictions_ != nullptr) evictions_->increment();
}

std::size_t SpfCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void SpfCache::set_capacity(std::size_t max_epochs) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = max_epochs;
  if (capacity_ == 0) return;
  while (cache_.size() > capacity_) {
    const std::size_t before = cache_.size();
    evict_lru_locked();
    if (cache_.size() == before) break;  // nothing evictable remains
  }
}

SpfCacheStats SpfCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SpfCache::attach_metrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry == nullptr) {
    hits_ = misses_ = inserts_ = evictions_ = derived_ = rows_rerun_ = nullptr;
    recompute_ns_ = nullptr;
    return;
  }
  hits_ = &registry->counter("spf.hits", obs::MetricClass::kVolatile);
  misses_ = &registry->counter("spf.misses", obs::MetricClass::kVolatile);
  inserts_ = &registry->counter("spf.inserts", obs::MetricClass::kVolatile);
  evictions_ = &registry->counter("spf.evictions", obs::MetricClass::kVolatile);
  derived_ = &registry->counter("spf.derived", obs::MetricClass::kVolatile);
  rows_rerun_ = &registry->counter("spf.rows_rerun", obs::MetricClass::kVolatile);
  recompute_ns_ = &obs::span_histogram(*registry, "spf.recompute_ns");
}

}  // namespace ibgp::netsim
