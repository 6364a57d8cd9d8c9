// WorkerPool: the fleet's deterministic fixed-size thread pool.
//
// Parallelism here is deliberately boring: Run(count, fn) shards indices
// statically — worker w executes exactly the i with i % threads == w, in
// increasing order — so the assignment of chains to threads is a pure
// function of (count, threads), never of scheduling luck. There is no work
// stealing and no shared queue; the only synchronization is the start signal
// and the completion barrier. The caller participates as worker 0, so a
// 1-thread pool spawns nothing and Run degenerates to the plain serial loop
// (the fleet's threads=1 path is literally the pre-pool code path).
//
// fn runs concurrently across shards: it must touch only per-index state
// (the fleet hands workers one chain each; all cross-chain mutation happens
// after Run returns, at the round barrier, in chain-id order).
//
// hbft-lint: allow-file(thread-spawn) — the worker pool is the one
// sanctioned thread-creation site in src/: static sharding plus the round
// barrier keep fleet results bit-identical at any thread count.
#ifndef HBFT_FLEET_WORKER_POOL_HPP_
#define HBFT_FLEET_WORKER_POOL_HPP_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hbft {

class WorkerPool {
 public:
  // The most threads a pool takes: the spawn happens at construction, all
  // at once, so an unbounded count would ask the OS for that many threads.
  static constexpr size_t kMaxThreads = 256;

  // 1 <= threads <= kMaxThreads; the pool spawns threads-1 workers (the
  // caller is worker 0).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t threads() const { return threads_; }

  // Runs fn(i) for every i in [0, count) across the pool and returns only
  // after every shard finished — the barrier. Not reentrant.
  void Run(size_t count, const std::function<void(size_t)>& fn);

 private:
  void WorkerMain(size_t worker);
  void RunShard(size_t worker);

  const size_t threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;  // Bumped per Run; workers wake on change.
  size_t pending_ = 0;       // Spawned workers still inside the current Run.
  size_t count_ = 0;
  const std::function<void(size_t)>* fn_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hbft

#endif  // HBFT_FLEET_WORKER_POOL_HPP_
