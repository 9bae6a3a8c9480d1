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

/// The most threads a command-line flag may ask for (triq_run --threads,
/// triq_server --workers): far above any real deployment, and low enough
/// that a typo cannot exhaust memory spawning threads.
inline constexpr uint64_t kMaxThreads = 1024;

/// A small fixed-size worker pool for fork-join parallel loops.
///
/// ParallelFor(n, fn) runs fn(i) for every i in [0, n) across the
/// workers plus the calling thread, and returns once every index has
/// finished. Load balancing is work-stealing over index ranges: each
/// participant starts with a contiguous slice of the iteration space,
/// pops indices from its front, and when it runs dry steals the back
/// half of the largest remaining slice. A slice lives in one 64-bit
/// atomic (begin | end), so owner pops and thief splits never hand out
/// an index twice.
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
  // One participant's remaining index range, packed begin<<32 | end so
  // pops and steals race on a single atomic. Padded to its own cache
  // line: ranges are the only cross-thread hot state in a loop.
  struct alignas(64) Range {
    std::atomic<uint64_t> bits{0};
  };
  static uint64_t Pack(uint32_t begin, uint32_t end) {
    return (static_cast<uint64_t>(begin) << 32) | end;
  }

  void WorkerMain(size_t self);
  /// Drains participant `self`'s range, then steals until no range has
  /// work left.
  void RunShare(size_t self, const std::function<void(size_t)>& fn);

  std::vector<std::thread> threads_;
  std::vector<Range> ranges_;  // one per participant; caller is last

  Mutex mu_;
  CondVar start_cv_;
  CondVar done_cv_;
  const std::function<void(size_t)>* job_ TRIQ_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ TRIQ_GUARDED_BY(mu_) = 0;
  size_t active_workers_ TRIQ_GUARDED_BY(mu_) = 0;
  bool shutdown_ TRIQ_GUARDED_BY(mu_) = false;
};

}  // namespace triq::common

#endif  // TRIQ_COMMON_THREAD_POOL_H_
