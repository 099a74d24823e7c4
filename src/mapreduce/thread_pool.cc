#include "mapreduce/thread_pool.h"

#include <algorithm>

namespace shadoop::mapreduce {
namespace {

/// Set on a pool worker for its whole life and on a caller for the span
/// of its parallel batch: a ParallelFor started there runs serially,
/// before it could touch run_mu_ (which a nested call on the caller lane
/// would otherwise try-lock while its own thread holds it).
thread_local bool t_in_parallel_for = false;

}  // namespace

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      std::max(0, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

ThreadPool::ThreadPool(int num_workers) {
  workers_.reserve(static_cast<size_t>(std::max(0, num_workers)));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunBatch(Batch& batch) {
  for (;;) {
    const size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.n) return;
    (*batch.fn)(i);
    if (batch.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.n) {
      MutexLock lock(&batch.done_mu);
      batch.done_cv.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  t_in_parallel_for = true;
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      // An explicit wait loop (not a predicate lambda): the analysis sees
      // mu_ held across every access to the guarded members, which a
      // lambda body would hide from it.
      MutexLock lock(&mu_);
      while (!stopping_ && (current_ == nullptr ||
                            batch_generation_ == seen_generation)) {
        wake_cv_.wait(lock.native());
      }
      if (stopping_) return;
      seen_generation = batch_generation_;
      batch = current_;
    }
    if (batch->extra_workers.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
      batch->extra_workers.fetch_add(1, std::memory_order_relaxed);
      continue;  // Parallelism cap reached; wait for the next batch.
    }
    RunBatch(*batch);
  }
}

void ThreadPool::ParallelFor(size_t n, int max_parallelism,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const int parallelism = static_cast<int>(std::min<size_t>(
      n, static_cast<size_t>(std::max(
             1, std::min(max_parallelism,
                         num_workers() + 1)))));
  if (parallelism <= 1 || t_in_parallel_for) {
    // Serial fallback: single lane requested, or nested in a batch lane.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (!run_mu_.TryLock()) {
    // Another caller already owns the pool; run serially rather than wait.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // run_mu_ is held manually (not RAII) so the try-acquire stays visible
  // to the thread-safety analysis; released on the single exit below.

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  batch->extra_workers.store(parallelism - 1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    current_ = batch;
    ++batch_generation_;
  }
  wake_cv_.notify_all();

  t_in_parallel_for = true;
  RunBatch(*batch);  // The caller is one of the lanes.
  t_in_parallel_for = false;

  {
    MutexLock lock(&batch->done_mu);
    while (batch->completed.load(std::memory_order_acquire) != batch->n) {
      batch->done_cv.wait(lock.native());
    }
  }
  {
    MutexLock lock(&mu_);
    if (current_ == batch) current_ = nullptr;
  }
  run_mu_.Unlock();
}

}  // namespace shadoop::mapreduce
