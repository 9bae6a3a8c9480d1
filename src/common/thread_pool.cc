#include "common/thread_pool.h"

namespace triq::common {

ThreadPool::ThreadPool(size_t num_workers) {
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  start_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    // Every worker finished the previous loop before it returned, so no
    // one draws from the counter while it is reset.
    MutexLock lock(mu_);
    next_.store(0);
    job_ = &fn;
    job_size_ = n;
    ++generation_;
    active_workers_ = threads_.size();
  }
  start_cv_.NotifyAll();
  RunShare(n, fn);
  MutexLock lock(mu_);
  while (active_workers_ != 0) done_cv_.Wait(mu_);
  job_ = nullptr;
}

void ThreadPool::WorkerMain() {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(size_t)>* job = nullptr;
    size_t n = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && generation_ == seen_generation) {
        start_cv_.Wait(mu_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      n = job_size_;
    }
    RunShare(n, *job);
    {
      MutexLock lock(mu_);
      --active_workers_;
    }
    done_cv_.NotifyOne();
  }
}

void ThreadPool::RunShare(size_t n, const std::function<void(size_t)>& fn) {
  for (size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1)) fn(i);
}

}  // namespace triq::common
