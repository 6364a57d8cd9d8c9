// The virtual processor: interpreter, MMU, traps, recovery counter.
//
// A Machine models one "HP 9000/720": CPU state, physical memory, TLB, and
// the trap architecture. It has two trap modes:
//
//  * kDirect — the bare machine of the paper's baseline runs. Traps vector
//    directly into the guest kernel; privileged instructions execute natively
//    at privilege 0. Environment-register accesses (TOD/ITMR/PRID) and MMIO
//    accesses exit to the embedder, which implements them against local
//    devices and the local clock (their behaviour is, by definition, not part
//    of the virtual-machine state).
//
//  * kHostFirst — the hypervised machine. EVERY trap and interrupt exits to
//    the embedding hypervisor, which simulates privileged instructions,
//    virtualises devices and clocks, reflects traps into the guest at mapped
//    privilege levels, and runs epochs via the recovery counter.
//
// The recovery counter reproduces PA-RISC semantics: when enabled it is
// decremented once per retired instruction, and execution stops (exit
// kRecovery) after the instruction that drives it negative — giving the
// hypervisor control at an exact point in the instruction stream (the paper's
// Instruction-Stream Interrupt Assumption).
#ifndef HBFT_MACHINE_MACHINE_HPP_
#define HBFT_MACHINE_MACHINE_HPP_

#include <array>
#include <cstdint>
#include <optional>

#include "isa/assembler.hpp"
#include "isa/isa.hpp"
#include "machine/cpu.hpp"
#include "machine/memory.hpp"
#include "machine/tcache.hpp"
#include "machine/tlb.hpp"

namespace hbft {

enum class TrapMode {
  kDirect,     // Bare machine: traps vector into the guest.
  kHostFirst,  // Hypervised: every trap exits to the embedder.
};

// Two interpreters over identical semantics. kCached, the engine every
// machine runs by default, executes predecoded superblocks from the
// translation cache. kSlow fetches, decodes, and dispatches every
// instruction; it is the reference implementation, selected only by the
// differential tests and the fig6 throughput comparison. Every guest-visible
// effect — retired counts, the recovery counter, trap and interrupt delivery
// points, TLB counters, idle-loop dynamics, snapshot bytes — is dispatch-mode
// invariant (tests/dispatch_diff_test.cpp holds both paths to that contract).
enum class InterpMode {
  kSlow,
  kCached,
};

struct MachineConfig {
  uint32_t ram_bytes = 4 * 1024 * 1024;
  uint32_t tlb_entries = 32;
  TlbPolicy tlb_policy = TlbPolicy::kHardwareRandom;
  uint64_t machine_seed = 0;  // Seeds per-machine hardware nondeterminism.
  TrapMode trap_mode = TrapMode::kDirect;
  InterpMode interp = InterpMode::kCached;
  uint32_t tcache_slots = 2048;  // Superblock slots (rounded up to a power of 2).
};

enum class ExitKind {
  kLimit,      // Instruction budget exhausted.
  kHalt,       // HALT retired.
  kRecovery,   // Recovery counter went negative (epoch boundary).
  kGuestTrap,  // kHostFirst only: trap awaiting host decision.
  kEnvCr,      // kDirect only: environment CR access at privilege 0.
  kMmio,       // kDirect only: MMIO load/store at privilege 0.
};

struct MachineExit {
  ExitKind kind = ExitKind::kLimit;
  uint64_t executed = 0;      // Instructions retired during this Run call.
  TrapCause cause = TrapCause::kNone;
  uint32_t pc = 0;            // PC of the faulting/env/MMIO instruction.
  uint32_t vaddr = 0;         // Faulting virtual address for memory traps.
  DecodedInstr instr;         // Decoded instruction for kGuestTrap/kEnvCr/kMmio.
  bool instr_valid = false;
  uint32_t mmio_paddr = 0;
  bool mmio_is_store = false;
  uint32_t mmio_value = 0;    // Store data for MMIO stores.
  uint32_t mmio_bytes = 0;    // Access width.
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  // Copies image sections into physical memory. Does not set the PC.
  void LoadImage(const AssembledImage& image);

  // Executes up to `max_instructions`; returns on budget exhaustion, host
  // events, HALT, or recovery-counter expiry.
  MachineExit Run(uint64_t max_instructions);

  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }
  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }
  Tlb& tlb() { return tlb_; }
  const MachineConfig& config() const { return config_; }

  // --- Host services (hypervisor / bare-node embedder) ---------------------

  // Vectors a trap into the guest: saves EPC/ECAUSE/EVADDR, stacks privilege
  // and IE into STATUS, and jumps to TVEC. `handler_priv` is the real
  // privilege the handler runs at (0 bare; 1 when a hypervisor maps virtual
  // privilege 0 to real 1).
  void VectorTrap(TrapCause cause, uint32_t epc, uint32_t vaddr, uint32_t handler_priv);

  // Accounts one host-simulated instruction as retired: sets PC, bumps
  // instret, ticks the recovery counter. Returns true when the recovery
  // counter just expired (the host must treat this as an epoch boundary).
  bool RetireSimulated(uint32_t next_pc);

  // External interrupt lines (guest-visible EIRR bits).
  void RaiseIrq(uint32_t lines) { cpu_.cr[kCrEirr] |= lines; }
  void AckIrq(uint32_t lines) { cpu_.cr[kCrEirr] &= ~lines; }
  uint32_t pending_irqs() const { return cpu_.cr[kCrEirr]; }

  // Recovery counter: "trap after `remaining` further retirements".
  void SetRecoveryCounter(int64_t remaining) { rctr_ = remaining - 1; }
  int64_t RecoveryRemaining() const { return rctr_ + 1; }
  void SetRctrEnabled(bool enabled);

  // Registers the guest's idle spin loop [begin,end) for exact fast-forward.
  // A loop iteration is skipped in bulk only after one fully-emulated
  // iteration is observed to be a pure fixed point: no stores, no CR writes,
  // no traps, and general registers exactly equal at its start and end
  // (compared word for word, not by hash). So skipping is exactly equivalent
  // to emulation.
  void ConfigureIdleLoop(uint32_t begin_pc, uint32_t end_pc);

  // Combined memory+register fingerprint of the coordinated VM state.
  uint64_t Fingerprint();

  uint64_t idle_skipped_instructions() const { return idle_skipped_; }

  // Translation-cache observability (kCached; all-zero stats under kSlow).
  const TranslationCache::Stats& tcache_stats() const { return tcache_.stats(); }
  uint32_t tcache_capacity() const { return tcache_.capacity(); }

  // --- Snapshot (uniform Snapshotable shape, plus a memory-less variant) ----
  //
  // Captures the complete virtual-machine state: registers, TLB, recovery
  // counter, idle-loop dynamics, and (unless `include_memory` is false) all
  // of RAM. Round-trip is byte-identical: capture, restore into a fresh
  // machine of the same configuration, capture again — equal bytes. The
  // memory-less variant backs the live state transfer, which streams RAM
  // separately as dirty-page chunks.
  void CaptureState(SnapshotWriter& w, bool include_memory) const;
  bool RestoreState(SnapshotReader& r, bool include_memory);

 private:
  struct Translation {
    bool ok = false;
    uint32_t paddr = 0;
    TrapCause cause = TrapCause::kNone;
  };
  enum class Access { kFetch, kLoad, kStore };

  // Translate, IdleCheck and TranslationCache::Find run on every dispatch
  // (Translate also on every load and store), so they are forced inline
  // into both interpreters' loops.
  [[gnu::always_inline]] Translation Translate(uint32_t vaddr, Access access);
  // Returns true when the trap was delivered in-machine (kDirect); false when
  // the caller must exit to host (kHostFirst). kDirect delivery increments
  // *executed so trap storms cannot outlive the budget.
  bool DeliverTrap(TrapCause cause, uint32_t pc, uint32_t vaddr, const DecodedInstr* instr,
                   MachineExit* exit, uint64_t* executed);

  // The two interpreters behind Run(); identical guest-visible semantics.
  MachineExit RunSlow(uint64_t max_instructions);
  MachineExit RunCached(uint64_t max_instructions);

  // Idle-loop fast-forward, shared verbatim by both interpreters: the slow
  // path runs it before every fetch, the cached path before every superblock
  // dispatch (equivalent because blocks never span the idle boundaries).
  enum class IdleOutcome { kProceed, kBudgetExhausted, kRecoveryExit };
  [[gnu::always_inline]] IdleOutcome IdleCheck(uint64_t max_instructions, uint64_t* executed,
                                               MachineExit* exit);
  // The purity test of a machine restored mid-observation, which knows the
  // entry registers only by their fingerprint. Kept out of line so neither
  // interpreter loop grows by a hash that runs at most once per restore.
  [[gnu::cold, gnu::noinline]] bool RestoredIdleEntryMatches() const;

  // Executes one superblock. kReturn: `exit` is filled and Run must return;
  // kContinue: dispatch again at the (updated) PC.
  //
  // Retirement is per block, not per instruction. At entry the block works
  // out how many instructions it may retire (its length, the budget left,
  // the recovery counter's allowance) and then counts them in a register.
  // PC, instret, `executed`, the recovery counter and the TLB fetch-lookup
  // credit are written back once, by CommitBlock, at one of four commit
  // points: block end (including budget or recovery-counter expiry and a
  // store into the block's own code page), a trap, an MMIO or
  // environment-register exit, and HALT. Between commit points the machine
  // state lags the slow path by the uncommitted count, so the two
  // instructions that can observe it compensate: MFCR of rctr or instret
  // reads the in-flight value, and MTCR of rctr re-bases the counter against
  // the pending commit. RunSlow keeps per-instruction retirement and is the
  // oracle these commit points are held to (tests/dispatch_diff_test.cpp).
  enum class BlockOutcome { kContinue, kReturn };
  BlockOutcome ExecuteBlock(const Superblock& block, uint64_t max_instructions, MachineExit* exit,
                            uint64_t* executed);

  // Commits `retired` instructions of the running block, leaving the PC at
  // `pc`, and credits `fetch_credits` hitting TLB lookups.
  void CommitBlock(uint32_t pc, uint64_t retired, uint64_t fetch_credits, uint64_t* executed) {
    cpu_.pc = pc;
    cpu_.instret += retired;
    *executed += retired;
    if (rctr_enabled_) {
      rctr_ -= static_cast<int64_t>(retired);
    }
    tlb_.CreditLookups(fetch_credits);
  }

  MachineConfig config_;  // hbft-lint: derived-state — construction-time config; identical on every replica.
  CpuState cpu_;
  PhysicalMemory memory_;
  Tlb tlb_;
  TranslationCache tcache_;
  int64_t rctr_ = -1;
  bool rctr_enabled_ = false;

  // Idle-loop fast-forward state.
  // hbft-lint: derived-state — idle-loop bounds come from the guest program at
  // construction, not the snapshot (see Machine::CaptureState).
  uint32_t idle_begin_ = 0;
  uint32_t idle_end_ = 0;  // hbft-lint: derived-state — see idle_begin_ above.
  bool idle_configured_ = false;  // hbft-lint: derived-state — see idle_begin_ above.
  bool idle_observing_ = false;
  bool idle_clean_ = false;
  // The general registers at the observed iteration's entry: the next arrival
  // at idle_begin_ skips only if cpu_.gpr equals them exactly.
  std::array<uint32_t, kNumGprs> idle_entry_gpr_{};
  // Set while the entry registers are known only by their IdleFingerprint:
  // 0 before the first observation, the snapshot's value after RestoreState.
  // Cleared when an observation copies the registers.
  std::optional<uint64_t> idle_entry_fp_ = 0;
  uint64_t idle_entry_instret_ = 0;
  uint64_t idle_skipped_ = 0;

  uint64_t RegisterFingerprint() const { return cpu_.Fingerprint(); }

  // The idle loop's entry registers as the snapshot carries them: general
  // registers only. instret/pc necessarily advance per iteration and are
  // excluded; control-register writes already mark the iteration unclean.
  static uint64_t IdleFingerprint(const std::array<uint32_t, kNumGprs>& gpr) {
    Fnv1aHasher hasher;
    for (uint32_t r : gpr) {
      hasher.UpdateU32(r);
    }
    return hasher.digest();
  }
};

}  // namespace hbft

#endif  // HBFT_MACHINE_MACHINE_HPP_
