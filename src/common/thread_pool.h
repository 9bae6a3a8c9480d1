#ifndef TRIQ_COMMON_THREAD_POOL_H_
#define TRIQ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace triq::common {

/// The most threads a command-line flag (triq_run --threads,
/// triq_server --workers) or ChaseOptions::num_threads may ask for: far
/// above any real deployment, and low enough that a typo cannot exhaust
/// memory spawning threads.
inline constexpr uint64_t kMaxThreads = 1024;

/// A small fixed-size worker pool for fork-join parallel loops.
///
/// ParallelFor(n, fn) runs fn(i) for every i in [0, n) across the
/// workers plus the calling thread, and returns once every index has
/// finished. Participants take indices one at a time from a shared
/// atomic counter, so a participant that drew cheap indices simply
/// draws more. The pool's loops have coarse items (chase shards, the
/// dedup partitions, the server's accept loops), so one fetch_add per
/// item balances them without any per-participant state.
///
/// `fn` must be safe to call concurrently for distinct indices. Calls
/// to ParallelFor are serialized by the caller (one loop at a time);
/// the pool itself is not re-entrant.
class ThreadPool {
 public:
  /// Spawns `num_workers` OS threads. Callers that participate in
  /// ParallelFor (every caller does) typically pass one fewer thread
  /// than the total parallelism they want.
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return threads_.size(); }

  /// Runs fn(0) .. fn(n-1), distributing over the workers and the
  /// calling thread; blocks until all n calls have returned.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerMain();
  /// Runs fn on indices drawn from next_ until the loop's n are spent.
  void RunShare(size_t n, const std::function<void(size_t)>& fn);

  std::vector<std::thread> threads_;
  // The running loop's next undrawn index. Reset under mu_ before the
  // loop is published; every participant then fetch_adds it, so each
  // index is handed out exactly once.
  std::atomic<size_t> next_{0};

  Mutex mu_;
  CondVar start_cv_;
  CondVar done_cv_;
  const std::function<void(size_t)>* job_ TRIQ_GUARDED_BY(mu_) = nullptr;
  size_t job_size_ TRIQ_GUARDED_BY(mu_) = 0;
  uint64_t generation_ TRIQ_GUARDED_BY(mu_) = 0;
  size_t active_workers_ TRIQ_GUARDED_BY(mu_) = 0;
  bool shutdown_ TRIQ_GUARDED_BY(mu_) = false;
};

}  // namespace triq::common

#endif  // TRIQ_COMMON_THREAD_POOL_H_
