#ifndef SHADOOP_MAPREDUCE_ARTIFACT_CACHE_H_
#define SHADOOP_MAPREDUCE_ARTIFACT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace shadoop::mapreduce {

/// Process-wide cache of immutable artifacts derived from a block's bytes
/// — decoded local-index headers, parsed geometry columns, packed local
/// R-trees — shared across the map tasks of every job a runner executes.
///
/// Keys embed the HDFS BlockId, which is globally unique and never
/// reused (Replace/Append allocate fresh ids), so a hit can only return
/// an artifact built from exactly the bytes the task would have parsed.
/// Values are type-erased shared_ptrs: the caller that built the
/// artifact knows its concrete type, and entries own their data (no
/// views into block payloads), so the cache never pins block bytes.
///
/// The cache is strictly a wall-clock optimization: consumers must
/// charge the simulated cost model identically on hit and miss, and the
/// runner disables it entirely while any fault injector is active so
/// injected corruption or failover is never masked by a pre-fault
/// artifact.
class ArtifactCache {
 public:
  using Ptr = std::shared_ptr<const void>;

  explicit ArtifactCache(size_t capacity = 4096) : capacity_(capacity) {}

  /// The cached artifact for `key`, or nullptr. Counts one hit or miss;
  /// the counters are host diagnostics only (see hits()) and never feed
  /// the simulated cost model, which stays identical on hit and miss.
  Ptr Lookup(const std::string& key) const SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const auto it = map_.find(key);
    // Point lookup — no order observed.
    if (it == map_.end()) {  // lint:allow(unordered-iteration)
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Inserts `value` if `key` is absent and returns the resident value —
  /// the first inserter wins, so concurrent builders of the same block's
  /// artifact converge on one instance. Build artifacts *outside* any
  /// call into the cache; insertion itself is O(1) under the lock.
  Ptr Insert(const std::string& key, Ptr value) SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const auto [it, inserted] = map_.emplace(key, std::move(value));
    Ptr resident = it->second;  // Taken before eviction can touch `it`.
    if (inserted) {
      fifo_.push_back(key);
      while (fifo_.size() > capacity_) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
      }
    }
    return resident;
  }

  size_t size() const SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return map_.size();
  }

  /// Lifetime Lookup() outcomes for this cache instance: host facts, not
  /// deterministic ones. When two map tasks read the same block at once —
  /// routine for DJ partition pairs — both can miss before either
  /// inserts, so the split between hits and misses depends on thread
  /// interleaving. Read them here (the host channel); never render them
  /// into EXPLAIN, rows or any other checksummed output.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::unordered_map<std::string, Ptr> map_ SHADOOP_GUARDED_BY(mu_);
  std::deque<std::string> fifo_ SHADOOP_GUARDED_BY(mu_);
};

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_ARTIFACT_CACHE_H_
