#ifndef SHADOOP_SERVER_RESULT_CACHE_H_
#define SHADOOP_SERVER_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "index/record_shape.h"
#include "mapreduce/job.h"

namespace shadoop::server {

/// One cached query result: the materialized rows plus the *simulated
/// charges* of the execution that produced them, job by job, so a hit
/// runs no job and yet charges exactly what executing would. Wall-clock
/// time is deliberately absent: saving it is the cache's entire point.
///
/// Every cacheable operator charges only the jobs it runs, so `jobs`
/// (each job's JobCost, in run order) plus `counters` (the statement's
/// counter deltas) are its whole charge; replaying adds the jobs to a
/// report one at a time, in the same order and arithmetic as executing.
///
/// In the server-wide cache an entry holds only what every session with
/// the same key would pay: each job's `admission_wait_ms` and
/// `admission_queued` are zero, and there are no `admission.queued` or
/// `admission.wait_ms` counters. That wait came from the producing
/// tenant's own lane ledger; a session that meets the entry queues the
/// jobs through *its* ledger instead (DESIGN.md §14.2).
/// `admission_preempted_specs` stays, since it depends only on the lane
/// share, which is part of the key. A session's own record of a key is
/// the same struct holding what that session paid, admission included,
/// which it replays on every repeat.
///
/// `lines` is the immutable row buffer of the binding that produced the
/// entry; every hit binds that same buffer, so neither an insert nor a hit
/// copies a row.
struct CachedResult {
  std::shared_ptr<const std::vector<std::string>> lines;
  index::ShapeType shape = index::ShapeType::kPoint;
  std::vector<mapreduce::JobCost> jobs;
  std::map<std::string, int64_t> counters;
};

/// Server-wide result/plan cache (DESIGN.md §14), shared by every
/// session. Keys are built by the query server from (normalized query
/// text, each source's catalog name + pinned version, the tenant's lane
/// share), so a version bump from `LOAD ... APPEND` or a `SET
/// snapshot_version` re-pin changes the key and invalidates naturally —
/// entries for old versions simply stop being looked up and age out of
/// the FIFO.
///
/// First-inserter-wins, exactly like mapreduce::ArtifactCache: when two
/// sessions race to execute the same query, both compute identical
/// results (same snapshot, same charges), and whichever Insert lands
/// first becomes the resident entry, so the cache's contents never
/// depend on the interleaving.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity = 1024) : capacity_(capacity) {}

  /// The cached result for `key`, or nullptr. Counts one hit or miss.
  std::shared_ptr<const CachedResult> Lookup(const std::string& key) const
      SHADOOP_EXCLUDES(mu_) {
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

  /// Inserts `value` if `key` is absent and returns the resident entry
  /// (first inserter wins). Build the entry *outside* the call.
  std::shared_ptr<const CachedResult> Insert(
      const std::string& key, std::shared_ptr<const CachedResult> value)
      SHADOOP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const auto [it, inserted] = map_.emplace(key, std::move(value));
    std::shared_ptr<const CachedResult> resident = it->second;
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

  /// Lifetime Lookup() outcomes across all sessions (host channel).
  /// hits + misses is the number of lookups, but the split depends on the
  /// interleaving: sessions that meet a key concurrently may all miss it
  /// before one inserts. Sessions count their own outcomes by their own
  /// statement stream instead (QueryServer), which is what EXPLAIN shows.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::unordered_map<std::string, std::shared_ptr<const CachedResult>> map_
      SHADOOP_GUARDED_BY(mu_);
  std::deque<std::string> fifo_ SHADOOP_GUARDED_BY(mu_);
};

}  // namespace shadoop::server

#endif  // SHADOOP_SERVER_RESULT_CACHE_H_
