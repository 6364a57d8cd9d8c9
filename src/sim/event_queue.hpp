// Deterministic discrete-event queue, partitionable by host.
//
// Every event carries a partition id. A World uses the default partition 0
// for everything; a Fleet gives every simulated host its own partition. This
// is the seam the parallel fleet (FleetConfig::threads) builds on: worker
// threads advance per-chain worlds between round horizons, while this queue
// is drained single-threaded at the barrier — the documented pop order below
// is what makes that drain identical no matter which worker finished when.
//
// Pop order is total and documented, so every run is bit-for-bit
// reproducible regardless of how many events share a timestamp:
//   1. earliest event time first;
//   2. ties across partitions break toward the LOWEST partition id;
//   3. ties within a partition pop in insertion order.
// With a single partition this degenerates to the classic (time, insertion
// sequence) order. One binary heap holds every event, ordered by (time,
// partition, insertion sequence): the sequence is global, so it orders each
// partition's events by insertion, which is rule 3. Push CHECKs that the
// partition and the sequence fit their shared key (2^24 partitions, 2^40
// events). Cross-partition events (e.g. a repair admission on host B caused
// by a resync completion on host A) must therefore carry explicit
// timestamps assigned by deterministic rules — never "now" on some host's
// local clock — for rule 1 to mean the same thing on every run.
#ifndef HBFT_SIM_EVENT_QUEUE_HPP_
#define HBFT_SIM_EVENT_QUEUE_HPP_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace hbft {

class EventQueue {
 public:
  // Partition 0: the single-queue (per-world) form.
  void Push(SimTime time, std::function<void()> fn) { Push(0, time, std::move(fn)); }
  // Explicit partition (fleet: one per host).
  void Push(uint32_t partition, SimTime time, std::function<void()> fn);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // The next event under the documented pop order.
  SimTime PeekTime() const;
  uint32_t PeekPartition() const;

  // Pops and runs the earliest event (ties: lowest partition id, then
  // insertion order).
  void RunNext();

 private:
  // Rules 2 and 3 as one key: the partition above a global insertion
  // sequence, which orders each partition's events by insertion.
  static constexpr int kSeqBits = 40;
  struct Event {
    SimTime time;
    uint64_t order = 0;  // partition << kSeqBits | insertion sequence.
    std::function<void()> fn;
  };
  // The heap's comparator: whether `a` pops after `b`.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.order > b.order;
    }
  };

  std::vector<Event> heap_;  // A binary heap under Later: front() pops next.
  uint64_t next_seq_ = 0;
};

}  // namespace hbft

#endif  // HBFT_SIM_EVENT_QUEUE_HPP_
