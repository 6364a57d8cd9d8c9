#include "core/state_transfer.hpp"

#include "common/check.hpp"
#include "machine/memory.hpp"

namespace hbft {

StateTransferSource::StateTransferSource(const PhysicalMemory& memory,
                                         const StateTransferConfig& config)
    : config_(config), queued_(memory.PageCount(), 1) {
  HBFT_CHECK_GT(config.window, 0u);
  report_.full_pages = memory.PageCount();
  for (uint32_t page = 0; page < memory.PageCount(); ++page) {
    pending_.push_back(page);
    versions_.push_back(memory.PageVersion(page));
  }
}

std::vector<uint32_t> StateTransferSource::TakeWrittenPages(const PhysicalMemory& memory) {
  std::vector<uint32_t> pages;
  for (uint32_t page = 0; page < versions_.size(); ++page) {
    if (versions_[page] != memory.PageVersion(page)) {
      versions_[page] = memory.PageVersion(page);
      pages.push_back(page);
    }
  }
  return pages;
}

uint32_t StateTransferSource::PopPage() {
  HBFT_CHECK(!pending_.empty());
  uint32_t page = pending_.front();
  pending_.pop_front();
  queued_[page] = 0;
  return page;
}

void StateTransferSource::EnqueueDelta(const std::vector<uint32_t>& pages) {
  ++report_.rounds;
  for (uint32_t page : pages) {
    if (queued_[page] != 0) {
      continue;  // Still queued from an earlier round: one send covers both.
    }
    queued_[page] = 1;
    pending_.push_back(page);
    ++report_.delta_pages;
  }
}

}  // namespace hbft
