// TLB tests: lookup/insert/flush semantics, wiring, and the replacement
// policies — including the nondeterminism that drives the paper's section 3.2
// discovery — plus the lookup index held to a plain first-match scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "machine/tlb.hpp"

namespace hbft {
namespace {

TEST(Tlb, HitAfterInsertMissOtherwise) {
  Tlb tlb(4, TlbPolicy::kRoundRobin, 1);
  EXPECT_FALSE(tlb.Lookup(5).has_value());
  tlb.Insert(5, 0x5007, false);
  auto pte = tlb.Lookup(5);
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(*pte, 0x5007u);
  EXPECT_FALSE(tlb.Lookup(6).has_value());
  EXPECT_EQ(tlb.misses(), 2u);
  EXPECT_EQ(tlb.lookups(), 3u);
}

TEST(Tlb, SameVpnReplacesInPlace) {
  Tlb tlb(2, TlbPolicy::kRoundRobin, 1);
  tlb.Insert(5, 0x5007, false);
  tlb.Insert(5, 0x500F, false);
  EXPECT_EQ(*tlb.Lookup(5), 0x500Fu);
  // Still room for one more without eviction.
  tlb.Insert(6, 0x6007, false);
  EXPECT_TRUE(tlb.Lookup(5).has_value());
  EXPECT_TRUE(tlb.Lookup(6).has_value());
}

TEST(Tlb, EvictionRespectsCapacity) {
  Tlb tlb(4, TlbPolicy::kRoundRobin, 1);
  for (uint32_t vpn = 0; vpn < 8; ++vpn) {
    tlb.Insert(vpn, (vpn << 12) | 1, false);
  }
  int present = 0;
  for (uint32_t vpn = 0; vpn < 8; ++vpn) {
    if (tlb.Lookup(vpn).has_value()) {
      ++present;
    }
  }
  EXPECT_EQ(present, 4);
}

TEST(Tlb, WiredEntriesSurviveEvictionAndFlush) {
  Tlb tlb(4, TlbPolicy::kHardwareRandom, 99);
  tlb.Insert(100, 0x100 << 12 | 1, true);
  tlb.Insert(101, 0x101 << 12 | 1, true);
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    tlb.Insert(vpn, (vpn << 12) | 1, false);
  }
  EXPECT_TRUE(tlb.Lookup(100).has_value());
  EXPECT_TRUE(tlb.Lookup(101).has_value());
  tlb.FlushUnwired();
  EXPECT_TRUE(tlb.Lookup(100).has_value());
  int unwired_present = 0;
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    if (tlb.Lookup(vpn).has_value()) {
      ++unwired_present;
    }
  }
  EXPECT_EQ(unwired_present, 0);
}

TEST(Tlb, ResetClearsEverything) {
  Tlb tlb(4, TlbPolicy::kRoundRobin, 1);
  tlb.Insert(1, 0x1001, true);
  tlb.Insert(2, 0x2001, false);
  tlb.Reset();
  EXPECT_FALSE(tlb.Lookup(1).has_value());
  EXPECT_FALSE(tlb.Lookup(2).has_value());
}

// The paper's observation: identical reference strings on two processors
// yield different TLB contents under the hardware's nondeterministic
// replacement — visible only through software-handled misses.
TEST(Tlb, HardwareRandomPolicyDivergesAcrossMachines) {
  Tlb a(8, TlbPolicy::kHardwareRandom, /*machine_seed=*/1);
  Tlb b(8, TlbPolicy::kHardwareRandom, /*machine_seed=*/2);
  // Identical insert sequences.
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    a.Insert(vpn, (vpn << 12) | 1, false);
    b.Insert(vpn, (vpn << 12) | 1, false);
  }
  int differing = 0;
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    if (a.Lookup(vpn).has_value() != b.Lookup(vpn).has_value()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0) << "seeds should produce different resident sets";
}

TEST(Tlb, RoundRobinPolicyIsIdenticalAcrossMachines) {
  Tlb a(8, TlbPolicy::kRoundRobin, 1);
  Tlb b(8, TlbPolicy::kRoundRobin, 2);  // Seed must not matter.
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    a.Insert(vpn, (vpn << 12) | 1, false);
    b.Insert(vpn, (vpn << 12) | 1, false);
  }
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    EXPECT_EQ(a.Lookup(vpn).has_value(), b.Lookup(vpn).has_value()) << "vpn " << vpn;
  }
}

TEST(Tlb, SameSeedSamePolicyIsReproducible) {
  Tlb a(8, TlbPolicy::kHardwareRandom, 7);
  Tlb b(8, TlbPolicy::kHardwareRandom, 7);
  for (uint32_t vpn = 0; vpn < 200; ++vpn) {
    a.Insert(vpn, (vpn << 12) | 1, false);
    b.Insert(vpn, (vpn << 12) | 1, false);
  }
  for (uint32_t vpn = 0; vpn < 200; ++vpn) {
    EXPECT_EQ(a.Lookup(vpn).has_value(), b.Lookup(vpn).has_value()) << "vpn " << vpn;
  }
}

// --- Snapshot bytes and the lookup index ------------------------------------

// The TLB's snapshot, decoded field by field in CaptureState order.
struct DecodedTlb {
  struct Slot {
    bool valid = false;
    bool wired = false;
    uint32_t vpn = 0;
    uint32_t pte = 0;
  };
  std::vector<Slot> slots;
  uint64_t lookups = 0;
  uint64_t misses = 0;

  // The reference lookup: the first valid slot holding `vpn`.
  std::optional<uint32_t> Scan(uint32_t vpn) const {
    for (const Slot& slot : slots) {
      if (slot.valid && slot.vpn == vpn) {
        return slot.pte;
      }
    }
    return std::nullopt;
  }
  size_t wired() const {
    return static_cast<size_t>(std::count_if(slots.begin(), slots.end(),
                                             [](const Slot& s) { return s.valid && s.wired; }));
  }
};

Snapshot CaptureTlb(const Tlb& tlb) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  tlb.CaptureState(w);
  return snap;
}

DecodedTlb DecodeTlb(const Tlb& tlb) {
  Snapshot snap = CaptureTlb(tlb);
  SnapshotReader r(snap);
  DecodedTlb out;
  uint32_t count = 0;
  EXPECT_TRUE(r.U32(&count));
  out.slots.resize(count);
  for (DecodedTlb::Slot& slot : out.slots) {
    EXPECT_TRUE(r.Bool(&slot.valid) && r.Bool(&slot.wired) && r.U32(&slot.vpn) &&
                r.U32(&slot.pte));
  }
  uint32_t next_victim = 0;
  uint64_t rng_state = 0;
  EXPECT_TRUE(r.U32(&next_victim) && r.U64(&rng_state) && r.U64(&out.lookups) &&
              r.U64(&out.misses));
  return out;
}

// Writes a TLB snapshot with the given slots and zeroed replacement state.
Snapshot TlbSnapshot(const std::vector<DecodedTlb::Slot>& slots) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  w.U32(static_cast<uint32_t>(slots.size()));
  for (const DecodedTlb::Slot& slot : slots) {
    w.Bool(slot.valid);
    w.Bool(slot.wired);
    w.U32(slot.vpn);
    w.U32(slot.pte);
  }
  w.U32(0);
  w.U64(0);
  w.U64(0);
  w.U64(0);
  return snap;
}

TEST(Tlb, RestoreRefusesTwoValidSlotsForOneVpn) {
  Tlb tlb(4, TlbPolicy::kRoundRobin, 1);
  tlb.Insert(3, 0x3007, false);
  // Slots 1 and 3 both map VPN 9: no lookup order could make that exact.
  const Snapshot duplicate =
      TlbSnapshot({{true, false, 7, 0x7007}, {true, false, 9, 0x9007}, {}, {true, true, 9, 0xA007}});
  SnapshotReader r(duplicate);
  EXPECT_FALSE(tlb.RestoreState(r));
  // The refused restore left the slots as they were.
  EXPECT_EQ(tlb.Lookup(3), std::optional<uint32_t>(0x3007));
  EXPECT_FALSE(tlb.Lookup(9).has_value());

  // An invalid slot may hold any VPN; distinct valid VPNs restore.
  const Snapshot stale =
      TlbSnapshot({{true, false, 7, 0x7007}, {true, false, 9, 0x9007}, {}, {false, false, 9, 0}});
  SnapshotReader r2(stale);
  ASSERT_TRUE(tlb.RestoreState(r2));
  EXPECT_EQ(tlb.Lookup(9), std::optional<uint32_t>(0x9007));
  EXPECT_FALSE(tlb.Lookup(3).has_value());
}

TEST(Tlb, CapacityBoundIsTheIndexSlotRange) {
  Tlb largest(Tlb::kMaxEntries, TlbPolicy::kRoundRobin, 1);
  EXPECT_EQ(largest.capacity(), 256u);
  EXPECT_DEATH(Tlb(Tlb::kMaxEntries + 1, TlbPolicy::kRoundRobin, 1), "fit the index");
}

// VPNs that share an index bucket for a TLB of `capacity` slots: the bucket
// is the top bits of a Fibonacci-hash product, over at least four buckets per
// slot (rounded to a power of two), as Tlb sizes it.
std::vector<uint32_t> CollidingVpns(uint32_t capacity, size_t count) {
  uint32_t bits = 2;
  while ((1u << bits) < 4 * capacity) {
    ++bits;
  }
  auto bucket = [bits](uint32_t vpn) { return (vpn * 0x9E3779B1u) >> (32 - bits); };
  std::vector<uint32_t> out = {0x123};
  for (uint32_t vpn = 0; out.size() < count; ++vpn) {
    if (vpn != 0x123 && bucket(vpn) == bucket(0x123)) {
      out.push_back(vpn);
    }
  }
  return out;
}

// Random Insert / Lookup / FlushUnwired / Reset / capture-restore sequences.
// After every step each pool VPN's Lookup equals a first-match scan of the
// slots decoded from CaptureState, and lookups()/misses() count one per
// Lookup and one per miss, whether the index or the scan answered.
void CheckIndexAgainstScan(uint32_t capacity, TlbPolicy policy, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << " policy "
                                  << static_cast<int>(policy) << " seed " << seed);
  DeterministicRng rng(seed);
  // Half the pool shares one bucket; the rest is spread out.
  std::vector<uint32_t> pool = CollidingVpns(capacity, capacity + 2);
  for (uint32_t i = 0; i < capacity + 2; ++i) {
    pool.push_back(0x40000 + i * 37);
  }
  Tlb tlb(capacity, policy, seed);
  std::optional<Snapshot> saved;
  uint64_t lookups = 0;
  uint64_t misses = 0;
  for (int step = 0; step < 120; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 50) {
      DecodedTlb before = DecodeTlb(tlb);
      // Keep one slot unwired: Insert CHECKs that a victim exists.
      bool wired = rng.NextBelow(8) == 0 && before.wired() + 1 < capacity;
      uint32_t vpn = pool[rng.NextBelow(pool.size())];
      tlb.Insert(vpn, (vpn << 12) | static_cast<uint32_t>(rng.NextBelow(16)), wired);
    } else if (op < 80) {
      uint32_t vpn = pool[rng.NextBelow(pool.size())];
      std::optional<uint32_t> expected = DecodeTlb(tlb).Scan(vpn);
      EXPECT_EQ(tlb.Lookup(vpn), expected) << "step " << step;
      ++lookups;
      misses += expected.has_value() ? 0 : 1;
    } else if (op < 85) {
      tlb.FlushUnwired();
    } else if (op < 88) {
      tlb.Reset();
    } else if (op < 93) {
      saved = CaptureTlb(tlb);
    } else if (saved.has_value()) {
      // Restore into this TLB (its index still hints at later contents) or
      // into a fresh one (an all-zero index); the counters come back too.
      Tlb fresh(capacity, policy, seed + 1);
      Tlb& target = op % 2 == 0 ? tlb : fresh;
      SnapshotReader r(*saved);
      ASSERT_TRUE(target.RestoreState(r));
      if (&target == &fresh) {
        SnapshotReader again(*saved);
        ASSERT_TRUE(tlb.RestoreState(again));
      }
      DecodedTlb restored = DecodeTlb(target);
      lookups = restored.lookups;
      misses = restored.misses;
      for (uint32_t vpn : pool) {
        std::optional<uint32_t> expected = restored.Scan(vpn);
        EXPECT_EQ(target.Lookup(vpn), expected) << "step " << step << " vpn " << vpn;
        if (&target == &fresh) {
          EXPECT_EQ(tlb.Lookup(vpn), expected);
        }
        ++lookups;
        misses += expected.has_value() ? 0 : 1;
      }
      EXPECT_EQ(fresh.lookups(), &target == &fresh ? lookups : 0u);
    }
    DecodedTlb now = DecodeTlb(tlb);
    for (uint32_t vpn : pool) {
      std::optional<uint32_t> expected = now.Scan(vpn);
      ASSERT_EQ(tlb.Lookup(vpn), expected) << "step " << step << " vpn " << vpn;
      ++lookups;
      misses += expected.has_value() ? 0 : 1;
    }
    ASSERT_EQ(tlb.lookups(), lookups) << "step " << step;
    ASSERT_EQ(tlb.misses(), misses) << "step " << step;
  }
}

TEST(Tlb, IndexedLookupMatchesFirstMatchScan) {
  std::vector<uint32_t> capacities;
  for (uint32_t c = 1; c <= 64; ++c) {
    capacities.push_back(c);
  }
  capacities.push_back(Tlb::kMaxEntries);
  for (TlbPolicy policy : {TlbPolicy::kRoundRobin, TlbPolicy::kHardwareRandom}) {
    for (uint32_t capacity : capacities) {
      CheckIndexAgainstScan(capacity, policy, 1000 + capacity);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace hbft
