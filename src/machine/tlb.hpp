// Software-managed translation lookaside buffer.
//
// The paper (section 3.2) found that the HP 9000/720's TLB replacement is
// nondeterministic: identical reference strings on primary and backup lead to
// different TLB contents, which becomes visible through software-handled miss
// traps and breaks lockstep. This model reproduces both the problem (the
// kHardwareRandom policy draws victims from a per-machine seed) and the fix
// (the hypervisor takes over miss handling so the guest never observes them).
//
// Lookups go through a hashed index before the slot scan. The index holds
// one slot number per bucket of a multiplicative hash of the VPN; it is a
// hint, checked against the slot it names on every lookup and refreshed by
// Insert and by every scan hit, so it is derived state and never serialised.
// It relies on one invariant: at most one valid slot holds any VPN. Insert
// keeps it (a repeated VPN replaces its slot in place) and RestoreState
// refuses snapshots that break it, so a hinted slot that matches is exactly
// the slot a first-match scan would return.
#ifndef HBFT_MACHINE_TLB_HPP_
#define HBFT_MACHINE_TLB_HPP_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "isa/isa.hpp"

namespace hbft {

enum class TlbPolicy {
  kRoundRobin,      // Deterministic; same contents on both replicas.
  kHardwareRandom,  // Victim drawn from a per-machine seed; replicas diverge.
};

class Tlb : public Snapshotable {
 public:
  // Index buckets hold slot numbers in one byte, which bounds the capacity.
  using IndexSlot = uint8_t;
  static constexpr uint32_t kMaxEntries = std::numeric_limits<IndexSlot>::max() + 1u;

  Tlb(uint32_t entries, TlbPolicy policy, uint64_t machine_seed);

  // Returns the PTE mapping `vpn`, or nullopt on miss. O(1) when the index
  // bucket names the VPN's slot; otherwise the scan decides and, on a hit,
  // re-points the bucket.
  std::optional<uint32_t> Lookup(uint32_t vpn) {
    ++lookups_;
    const Slot& hinted = slots_[index_[Bucket(vpn)]];
    if (hinted.valid && hinted.vpn == vpn) {
      return hinted.pte;
    }
    return Scan(vpn);
  }

  // Inserts a mapping, evicting a victim according to the policy if full.
  // Wired entries are never chosen as victims.
  void Insert(uint32_t vpn, uint32_t pte, bool wired);

  // Removes all non-wired entries (TLBF instruction).
  void FlushUnwired();

  // Removes every entry including wired ones (machine reset).
  void Reset();

  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }
  uint64_t lookups() const { return lookups_; }
  uint64_t misses() const { return misses_; }

  // Accounts `n` hitting lookups without searching. The cached interpreter
  // translates a superblock's fetch once but the slow path looks up every
  // instruction fetch — and the counters are snapshot state, so the
  // guaranteed-hit lookups it skips must still be credited.
  void CreditLookups(uint64_t n) { lookups_ += n; }

  // Snapshot: slot contents plus the replacement state (round-robin cursor
  // and "hardware" RNG stream), so a restored TLB evicts identically.
  // Restore requires matching capacity and at most one valid slot per VPN
  // (see the index invariant above); the policy is construction-time
  // hardware configuration and is not serialised. A refused restore leaves
  // the slots untouched.
  void CaptureState(SnapshotWriter& w) const override;
  bool RestoreState(SnapshotReader& r) override;

 private:
  struct Slot {
    bool valid = false;
    bool wired = false;
    uint32_t vpn = 0;
    uint32_t pte = 0;
  };

  size_t Bucket(uint32_t vpn) const { return (vpn * 0x9E3779B1u) >> index_shift_; }
  std::optional<uint32_t> Scan(uint32_t vpn);
  uint32_t PickVictim();

  std::vector<Slot> slots_;
  TlbPolicy policy_;  // hbft-lint: derived-state — construction-time config; identical on every replica.
  DeterministicRng rng_;
  uint32_t next_victim_ = 0;
  uint64_t lookups_ = 0;
  uint64_t misses_ = 0;
  // hbft-lint: derived-state — lookup hints, each checked against its slot before use.
  std::vector<IndexSlot> index_;
  uint32_t index_shift_ = 0;  // hbft-lint: derived-state — sized from the capacity.
};

}  // namespace hbft

#endif  // HBFT_MACHINE_TLB_HPP_
