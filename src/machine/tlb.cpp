#include "machine/tlb.hpp"

#include <utility>

#include "common/check.hpp"

namespace hbft {

Tlb::Tlb(uint32_t entries, TlbPolicy policy, uint64_t machine_seed)
    : policy_(policy), rng_(machine_seed ^ 0x7718BFD5C0FFEE00ULL) {
  HBFT_CHECK_GT(entries, 0u);
  HBFT_CHECK_LE(entries, kMaxEntries) << "TLB slot numbers must fit the index";
  slots_.resize(entries);
  // At least four buckets per slot keeps hot VPNs from sharing a bucket.
  uint32_t bits = 2;
  while ((1u << bits) < 4 * entries) {
    ++bits;
  }
  index_.assign(size_t{1} << bits, 0);
  index_shift_ = 32 - bits;
}

std::optional<uint32_t> Tlb::Scan(uint32_t vpn) {
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.valid && slot.vpn == vpn) {
      index_[Bucket(vpn)] = static_cast<IndexSlot>(i);
      return slot.pte;
    }
  }
  ++misses_;
  return std::nullopt;
}

uint32_t Tlb::PickVictim() {
  // Prefer an invalid slot.
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].valid) {
      return i;
    }
  }
  // All valid: policy decides among non-wired slots.
  std::vector<uint32_t> candidates;
  candidates.reserve(slots_.size());
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].wired) {
      candidates.push_back(i);
    }
  }
  HBFT_CHECK(!candidates.empty()) << "TLB entirely wired; cannot insert";
  switch (policy_) {
    case TlbPolicy::kRoundRobin: {
      uint32_t victim = candidates[next_victim_ % candidates.size()];
      next_victim_ = (next_victim_ + 1) % static_cast<uint32_t>(candidates.size());
      return victim;
    }
    case TlbPolicy::kHardwareRandom:
      return candidates[rng_.NextBelow(candidates.size())];
  }
  HBFT_CHECK(false);
  return 0;
}

void Tlb::Insert(uint32_t vpn, uint32_t pte, bool wired) {
  // Replace an existing mapping for the same VPN in place: this is what
  // keeps at most one valid slot per VPN.
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.valid && slot.vpn == vpn) {
      slot.pte = pte;
      slot.wired = wired;
      index_[Bucket(vpn)] = static_cast<IndexSlot>(i);
      return;
    }
  }
  const uint32_t victim = PickVictim();
  slots_[victim] = Slot{true, wired, vpn, pte};
  index_[Bucket(vpn)] = static_cast<IndexSlot>(victim);
}

void Tlb::FlushUnwired() {
  for (Slot& slot : slots_) {
    if (!slot.wired) {
      slot.valid = false;
    }
  }
}

void Tlb::Reset() {
  for (Slot& slot : slots_) {
    slot = Slot{};
  }
  next_victim_ = 0;
}

void Tlb::CaptureState(SnapshotWriter& w) const {
  w.U32(static_cast<uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    w.Bool(slot.valid);
    w.Bool(slot.wired);
    w.U32(slot.vpn);
    w.U32(slot.pte);
  }
  w.U32(next_victim_);
  w.U64(rng_.state());
  w.U64(lookups_);
  w.U64(misses_);
}

bool Tlb::RestoreState(SnapshotReader& r) {
  uint32_t count = 0;
  if (!r.U32(&count) || count != slots_.size()) {
    return false;
  }
  std::vector<Slot> restored(count);
  for (uint32_t i = 0; i < count; ++i) {
    Slot& slot = restored[i];
    if (!r.Bool(&slot.valid) || !r.Bool(&slot.wired) || !r.U32(&slot.vpn) || !r.U32(&slot.pte)) {
      return false;
    }
    for (uint32_t j = 0; slot.valid && j < i; ++j) {
      if (restored[j].valid && restored[j].vpn == slot.vpn) {
        return false;  // Two valid slots for one VPN: the index could not be exact.
      }
    }
  }
  uint64_t rng_state = 0;
  if (!r.U32(&next_victim_) || !r.U64(&rng_state) || !r.U64(&lookups_) || !r.U64(&misses_)) {
    return false;
  }
  slots_ = std::move(restored);
  rng_.set_state(rng_state);
  return true;
}

}  // namespace hbft
