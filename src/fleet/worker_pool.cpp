// hbft-lint: allow-file(thread-spawn) — see worker_pool.hpp: the pool is the
// single sanctioned thread-creation site in src/; sharding is static and
// every Run joins at a barrier before the fleet touches shared state.
#include "fleet/worker_pool.hpp"

#include "common/check.hpp"

namespace hbft {

WorkerPool::WorkerPool(size_t threads) : threads_(threads) {
  HBFT_CHECK_GE(threads_, 1u);
  HBFT_CHECK_LE(threads_, kMaxThreads);
  workers_.reserve(threads_ - 1);
  for (size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerMain(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void WorkerPool::RunShard(size_t worker) {
  // Static sharding: worker w's indices are i ≡ w (mod threads), ascending.
  // count_/fn_ are published under mutex_ before the generation bump, so the
  // plain reads here are ordered by the wait in WorkerMain (and by the
  // caller's own lock in Run for worker 0).
  for (size_t i = worker; i < count_; i += threads_) {
    (*fn_)(i);
  }
}

void WorkerPool::WorkerMain(size_t worker) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
    }
    RunShard(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
      if (pending_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void WorkerPool::Run(size_t count, const std::function<void(size_t)>& fn) {
  if (threads_ == 1) {
    // The serial path: no locks, no signaling — byte-for-byte the plain loop.
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HBFT_CHECK(fn_ == nullptr) << "WorkerPool::Run is not reentrant";
    fn_ = &fn;
    count_ = count;
    pending_ = threads_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  RunShard(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  fn_ = nullptr;
}

}  // namespace hbft
