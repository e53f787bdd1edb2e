#pragma once
// Bounded ingest queue with deterministic overload shedding.
//
// The reader thread enqueues raw wire lines; the processing thread drains
// them in arrival order.  Policy, in one sentence: *state is sacred,
// queries are sheddable* — a full queue blocks the producer for state
// records (backpressure all the way to the peer's socket), while a query
// arriving at capacity sheds the OLDEST queued query first.
//
// Shedding preserves the one-reply-per-line, in-order contract: a shed
// query is not removed, it is *tombstoned* in place — its payload is
// dropped (freeing a live slot) and when its turn comes the service emits
// a structured `shed` error in exactly the slot its real reply would have
// occupied.  If nothing sheddable is queued, the incoming query itself is
// admitted pre-tombstoned with code `overload`.  Tombstones cost ~a
// cache line and drain at memcpy speed, so they are deliberately not
// counted against capacity.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>

#include "daemon/wire.hpp"

namespace ibgp::daemon {

struct IngestItem {
  std::string line;
  bool is_query = false;
  bool shed = false;  ///< tombstone: emit `shed_code` error instead of processing
  bool eos = false;   ///< end-of-stream sentinel (reader hit EOF or drain)
  ErrorCode shed_code = ErrorCode::kShed;
};

class IngestQueue {
 public:
  /// Throws std::invalid_argument on capacity 0: no state record could
  /// ever be admitted, so the producer would block for good.
  explicit IngestQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("IngestQueue: capacity must be at least 1");
  }

  /// Enqueues one line.  Blocks while the queue holds `capacity` live
  /// items and the line is a state record; sheds instead of blocking when
  /// it is a query.
  void push(std::string line, bool is_query) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!is_query) {
      can_push_.wait(lock, [&] { return live_ < capacity_; });
    } else if (live_ >= capacity_) {
      // Oldest-query-first: tombstone the stalest pending query.
      bool freed = false;
      for (IngestItem& item : items_) {
        if (!item.shed && !item.eos && item.is_query) {
          item.shed = true;
          item.shed_code = ErrorCode::kShed;
          item.line.clear();
          item.line.shrink_to_fit();
          --live_;
          ++sheds_;
          freed = true;
          break;
        }
      }
      if (!freed) {
        // Every queued item is route state: the incoming query is the only
        // thing we may drop.  Admit it as its own tombstone so its error
        // reply still lands in order.
        IngestItem item;
        item.is_query = true;
        item.shed = true;
        item.shed_code = ErrorCode::kOverload;
        ++sheds_;
        items_.push_back(std::move(item));
        can_pop_.notify_one();
        return;
      }
    }
    IngestItem item;
    item.line = std::move(line);
    item.is_query = is_query;
    items_.push_back(std::move(item));
    ++live_;
    max_depth_ = std::max(max_depth_, live_);
    can_pop_.notify_one();
  }

  void push_eos() {
    std::lock_guard<std::mutex> lock(mutex_);
    IngestItem item;
    item.eos = true;
    items_.push_back(std::move(item));
    can_pop_.notify_one();
  }

  /// Blocks until an item is available.
  IngestItem pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    can_pop_.wait(lock, [&] { return !items_.empty(); });
    IngestItem item = std::move(items_.front());
    items_.pop_front();
    if (!item.shed && !item.eos) {
      --live_;
      can_push_.notify_one();
    }
    return item;
  }

  [[nodiscard]] std::size_t sheds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sheds_;
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return live_;
  }

  /// High-water mark of live depth since construction — how close the
  /// stream has come to the shedding cliff (reported in `health`).
  [[nodiscard]] std::size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_depth_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<IngestItem> items_;
  std::size_t live_ = 0;   // non-tombstone, non-eos items (capacity applies to these)
  std::size_t max_depth_ = 0;
  std::size_t sheds_ = 0;
  std::size_t capacity_;
};

}  // namespace ibgp::daemon
