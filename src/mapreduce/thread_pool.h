#ifndef SHADOOP_MAPREDUCE_THREAD_POOL_H_
#define SHADOOP_MAPREDUCE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace shadoop::mapreduce {

/// Persistent worker pool behind the job runner's ParallelFor. Workers
/// are started once (lazily, on first use) and reused across every phase
/// of every job, replacing the per-phase std::thread spawn/join cycle.
///
/// ParallelFor(n, max_parallelism, fn) runs fn(0..n-1) with the calling
/// thread participating, so the pool can never deadlock the caller: even
/// with zero workers every index still executes. Indices are claimed from
/// a shared atomic counter, which preserves the old ParallelFor's
/// semantics — the assignment of indices to threads is scheduling
/// dependent, and nothing downstream may depend on it (the runner keeps
/// all accounting in per-index slots, so JobCost is deterministic either
/// way).
class ThreadPool {
 public:
  /// The process-wide shared pool, created on first use with
  /// hardware_concurrency - 1 workers (the caller supplies the last lane).
  static ThreadPool& Shared();

  explicit ThreadPool(int num_workers);
  ~ThreadPool() SHADOOP_EXCLUDES(mu_);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, n), using at most `max_parallelism`
  /// threads (including the caller). Blocks until every index completed.
  /// Calls from inside any lane of a running batch (a pool worker or the
  /// caller lane), or while another ParallelFor holds the pool, degrade
  /// to serial execution on the caller — correct, just not parallel — so
  /// nesting cannot deadlock.
  void ParallelFor(size_t n, int max_parallelism,
                   const std::function<void(size_t)>& fn)
      SHADOOP_EXCLUDES(mu_, run_mu_);

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  /// One ParallelFor invocation. Workers and the caller claim indices
  /// from `next`; the last finisher signals `done_cv`. All progress state
  /// is atomic, so `done_mu` guards nothing — it only orders the final
  /// notify against the waiter's predicate check.
  struct Batch {
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::atomic<int> extra_workers{0};  // Worker slots still available.
    Mutex done_mu;
    std::condition_variable done_cv;
  };

  void WorkerLoop();
  static void RunBatch(Batch& batch);

  Mutex mu_;
  std::condition_variable wake_cv_;
  std::shared_ptr<Batch> current_ SHADOOP_GUARDED_BY(mu_);
  uint64_t batch_generation_ SHADOOP_GUARDED_BY(mu_) = 0;
  bool stopping_ SHADOOP_GUARDED_BY(mu_) = false;
  Mutex run_mu_;  // Serializes ParallelFor callers.
  std::vector<std::thread> workers_;
};

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_THREAD_POOL_H_
