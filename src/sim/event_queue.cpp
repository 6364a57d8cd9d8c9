#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace hbft {

void EventQueue::Push(uint32_t partition, SimTime time, std::function<void()> fn) {
  HBFT_CHECK(partition < (1u << (64 - kSeqBits)) && next_seq_ < (uint64_t{1} << kSeqBits));
  const uint64_t order = static_cast<uint64_t>(partition) << kSeqBits | next_seq_++;
  heap_.push_back(Event{time, order, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimTime EventQueue::PeekTime() const {
  HBFT_CHECK(!heap_.empty());
  return heap_.front().time;
}

uint32_t EventQueue::PeekPartition() const {
  HBFT_CHECK(!heap_.empty());
  return static_cast<uint32_t>(heap_.front().order >> kSeqBits);
}

void EventQueue::RunNext() {
  HBFT_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  // Move out before running: the handler may push new events.
  std::function<void()> fn = std::move(heap_.back().fn);
  heap_.pop_back();
  fn();
}

}  // namespace hbft
