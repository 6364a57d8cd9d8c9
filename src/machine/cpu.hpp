// Architected CPU state: general registers, control registers, PC, and the
// retired-instruction counter.
//
// Everything in CpuState is part of the virtual-machine state in the paper's
// sense ("memory and registers that change only with execution of
// instructions") EXCEPT the environment registers (TOD, ITMR, PRID) and the
// recovery counter, which belong to the physical processor; the fingerprint
// used for lockstep comparison therefore excludes them.
#ifndef HBFT_MACHINE_CPU_HPP_
#define HBFT_MACHINE_CPU_HPP_

#include <array>
#include <cstdint>

#include "common/hash.hpp"
#include "common/snapshot.hpp"
#include "isa/isa.hpp"

namespace hbft {

struct CpuState {
  std::array<uint32_t, kNumGprs> gpr{};
  std::array<uint32_t, kNumControlRegs> cr{};
  uint32_t pc = 0;
  uint64_t instret = 0;

  uint32_t priv() const { return StatusBits::Priv(cr[kCrStatus]); }
  bool interrupts_enabled() const { return (cr[kCrStatus] & StatusBits::kIe) != 0; }
  bool vm_enabled() const { return (cr[kCrStatus] & StatusBits::kVmEn) != 0; }

  void set_gpr(uint8_t idx, uint32_t value) {
    if (idx != 0) {
      gpr[idx] = value;
    }
  }

  // Fingerprint over the replica-coordinated portion of the register state.
  uint64_t Fingerprint() const {
    Fnv1aHasher hasher;
    for (uint32_t r : gpr) {
      hasher.UpdateU32(r);
    }
    hasher.UpdateU32(pc);
    hasher.UpdateU64(instret);
    // Environment/physical registers are excluded: TOD, ITMR, PRID, RCTR.
    static constexpr uint8_t kCoordinatedCrs[] = {
        kCrStatus,   kCrTvec,     kCrEpc,      kCrEcause,   kCrEvaddr, kCrPtbase,
        kCrEirr,     kCrScratch0, kCrScratch1, kCrScratch2, kCrScratch3,
    };
    for (uint8_t idx : kCoordinatedCrs) {
      hasher.UpdateU32(cr[idx]);
    }
    return hasher.digest();
  }

  // Snapshot of the full architected register file (environment registers
  // included: a restored machine must resume from the exact capture point).
  void CaptureState(SnapshotWriter& w) const {
    for (uint32_t r : gpr) {
      w.U32(r);
    }
    for (uint32_t r : cr) {
      w.U32(r);
    }
    w.U32(pc);
    w.U64(instret);
  }
  bool RestoreState(SnapshotReader& r) {
    for (uint32_t& reg : gpr) {
      if (!r.U32(&reg)) {
        return false;
      }
    }
    for (uint32_t& reg : cr) {
      if (!r.U32(&reg)) {
        return false;
      }
    }
    return r.U32(&pc) && r.U64(&instret);
  }
};

}  // namespace hbft

#endif  // HBFT_MACHINE_CPU_HPP_
