// Differential execution: the cached (predecoded-superblock) interpreter
// against the slow fetch-decode path. The contract under test is total
// equivalence of guest-visible state — snapshot bytes (registers, memory,
// TLB incl. its lookup/miss counters, recovery counter, idle-loop dynamics),
// exit kinds and PCs, trap and interrupt delivery points, and scenario-level
// results (epoch fingerprints, environment traces, completion times, resync
// reports, per-channel transport counters) — over machine-level lockstep
// runs, the cached engine's per-block commit points (recovery boundaries at
// every block offset, counter reads and writes after uncommitted
// retirements, HALT on a boundary, traps at every block position),
// whole-scenario runs with failovers, cascades, lossy links and live
// state transfer, self-modifying code, cache-eviction pressure, and
// snapshot/restore with a warm cache. The cached engine runs everywhere
// else; this file is where the slow reference path still runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

MachineConfig ModeConfig(InterpMode mode, uint32_t tcache_slots = 2048,
                         uint32_t ram_bytes = MachineConfig{}.ram_bytes) {
  MachineConfig config;
  config.trap_mode = TrapMode::kDirect;
  config.interp = mode;
  config.tcache_slots = tcache_slots;
  config.ram_bytes = ram_bytes;
  return config;
}

std::vector<uint8_t> Capture(const Machine& machine) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  machine.CaptureState(w, /*include_memory=*/true);
  return snap.bytes;
}

struct Twins {
  std::unique_ptr<Machine> slow;
  std::unique_ptr<Machine> cached;
};

Twins MakeTwins(const std::string& source, uint32_t tcache_slots = 2048,
                uint32_t ram_bytes = MachineConfig{}.ram_bytes) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << (assembled.ok() ? "" : assembled.error().ToString());
  Twins twins;
  twins.slow = std::make_unique<Machine>(ModeConfig(InterpMode::kSlow, 2048, ram_bytes));
  twins.cached =
      std::make_unique<Machine>(ModeConfig(InterpMode::kCached, tcache_slots, ram_bytes));
  for (Machine* m : {twins.slow.get(), twins.cached.get()}) {
    m->LoadImage(assembled.value());
    m->cpu().pc = 0;
  }
  return twins;
}

// Runs both machines through identical slice budgets until both halt (or the
// step limit trips), asserting identical exits and identical snapshot bytes
// (TLB lookup/miss counters included) after every single slice — equivalence
// at every observable cut, not just at the end. With `rearm`, every recovery
// exit re-arms both counters to it, as a hypervisor starting the next epoch
// does; without, an armed counter runs on below zero.
void RunLockstep(Machine& slow, Machine& cached, const std::vector<uint64_t>& slices,
                 std::optional<int64_t> rearm = std::nullopt) {
  bool halted = false;
  for (int step = 0; step < 10000 && !halted; ++step) {
    uint64_t budget = slices[step % slices.size()];
    MachineExit a = slow.Run(budget);
    MachineExit b = cached.Run(budget);
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << "step " << step;
    ASSERT_EQ(a.executed, b.executed) << "step " << step;
    ASSERT_EQ(a.pc, b.pc) << "step " << step;
    ASSERT_EQ(static_cast<int>(a.cause), static_cast<int>(b.cause)) << "step " << step;
    ASSERT_EQ(a.vaddr, b.vaddr) << "step " << step;
    ASSERT_EQ(slow.tlb().lookups(), cached.tlb().lookups()) << "step " << step;
    ASSERT_EQ(slow.tlb().misses(), cached.tlb().misses()) << "step " << step;
    ASSERT_EQ(Capture(slow), Capture(cached)) << "step " << step;
    halted = a.kind == ExitKind::kHalt;
    if (a.kind == ExitKind::kRecovery && rearm.has_value()) {
      slow.SetRecoveryCounter(*rearm);
      cached.SetRecoveryCounter(*rearm);
    }
  }
  ASSERT_TRUE(halted) << "lockstep run never reached HALT";
}

void ArmRecovery(const Twins& t, int64_t remaining) {
  for (Machine* m : {t.slow.get(), t.cached.get()}) {
    m->SetRecoveryCounter(remaining);
    m->SetRctrEnabled(true);
  }
}

// Slice widths chosen to cut superblocks at every phase: mid-block (1..7),
// around typical block lengths, and bulk.
const std::vector<uint64_t> kSlices = {1, 2, 3, 5, 7, 13, 64, 1000};

// STATUS with translation on and privilege 3 stacked for the next RFI.
constexpr uint32_t kVmToUser = StatusBits::kVmEn | (3u << StatusBits::kPrevPrivShift);

// Wires pages 0..3 (identity, V|W|X|U|WIRED) so both kernel and user code
// can run with translation on, then sets STATUS to `status`.
std::string VmPrologue(uint32_t status) {
  return R"(
    li r2, 0
wire_loop:
    slli r3, r2, 12
    ori r4, r3, 0x1F     ; V|W|X|U|WIRED
    tlbi r3, r4
    addi r2, r2, 1
    li r5, 4
    bltu r2, r5, wire_loop
    li r1, )" + std::to_string(status) + R"(
    mtcr status, r1
)";
}

TEST(DispatchDiff, LockstepAluMemoryLoops) {
  Twins t = MakeTwins(R"(
    li r10, 0
    li r11, 12
outer:
    li r12, 5
inner:
    mul r13, r11, r12
    add r10, r10, r13
    slli r14, r10, 3
    xor r10, r10, r14
    srli r14, r10, 5
    add r10, r10, r14
    sw r10, 0x800(zero)
    lh r15, 0x800(zero)
    lbu r16, 0x801(zero)
    addi r12, r12, -1
    bnez r12, inner
    addi r11, r11, -1
    bnez r11, outer
    halt
  )");
  RunLockstep(*t.slow, *t.cached, kSlices);
}

TEST(DispatchDiff, LockstepTrapsResumeIdentically) {
  // Divide-by-zero faults (epc = faulting pc; the handler skips it) and
  // syscalls (epc = pc + 4) inside a loop: delivery points and the STATUS
  // privilege/IE stacking must land identically in both modes.
  Twins t = MakeTwins(R"(
    la r1, handler
    mtcr tvec, r1
    li r11, 6
    li r20, 0
loop:
    li r3, 0
    div r4, r11, r3      ; traps, handler skips
    syscall              ; traps, handler resumes after
    addi r11, r11, -1
    bnez r11, loop
    halt
handler:
    mfcr r21, ecause
    add r20, r20, r21
    mfcr r22, epc
    li r23, 11           ; TrapCause::kDivideByZero
    bne r21, r23, resume
    addi r22, r22, 4     ; skip the faulting div
    mtcr epc, r22
resume:
    rfi
  )");
  // The handler's kDivideByZero constant must track the enum.
  ASSERT_EQ(static_cast<uint32_t>(TrapCause::kDivideByZero), 11u);
  RunLockstep(*t.slow, *t.cached, kSlices);
}

TEST(DispatchDiff, LockstepRecoveryCounterEpochs) {
  // Epoch-style slicing: with the recovery counter armed, both modes must
  // exit kRecovery after exactly the same retirement, epoch after epoch —
  // the property the whole replication protocol rests on. Odd epoch lengths
  // guarantee boundaries land mid-superblock.
  Twins t = MakeTwins(R"(
    li r11, 300
loop:
    slli r14, r10, 3
    xor r10, r10, r14
    addi r10, r10, 7
    sw r10, 0x900(zero)
    lw r15, 0x900(zero)
    addi r11, r11, -1
    bnez r11, loop
    halt
  )");
  for (Machine* m : {t.slow.get(), t.cached.get()}) {
    m->SetRecoveryCounter(61);
    m->SetRctrEnabled(true);
  }
  bool halted = false;
  for (int epoch = 0; epoch < 200 && !halted; ++epoch) {
    MachineExit a = t.slow->Run(100000);
    MachineExit b = t.cached->Run(100000);
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << "epoch " << epoch;
    ASSERT_EQ(a.pc, b.pc) << "epoch " << epoch;
    ASSERT_EQ(a.executed, b.executed) << "epoch " << epoch;
    ASSERT_EQ(Capture(*t.slow), Capture(*t.cached)) << "epoch " << epoch;
    if (a.kind == ExitKind::kHalt) {
      halted = true;
    } else {
      ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(ExitKind::kRecovery));
      t.slow->SetRecoveryCounter(61);
      t.cached->SetRecoveryCounter(61);
    }
  }
  ASSERT_TRUE(halted);
}

TEST(DispatchDiff, LockstepVirtualMemoryUserMode) {
  // VM on, user mode, TLB misses handled by the guest: the TLB lookup/miss
  // counters are snapshot state, so the cached path's fetch-lookup crediting
  // must reproduce the slow path's counts exactly (snapshot equality below
  // covers them).
  Twins t = MakeTwins(R"(
    la r1, handler
    mtcr tvec, r1
)" + VmPrologue(kVmToUser) +
                      R"(
    la r2, user
    mtcr epc, r2
    rfi
user:
    li r10, 40
uloop:
    sw r10, 0x2800(zero)
    lw r11, 0x2800(zero)
    add r12, r12, r11
    addi r10, r10, -1
    bnez r10, uloop
    syscall              ; back to the kernel to halt
    halt
handler:
    mfcr r5, ecause
    halt
  )");
  RunLockstep(*t.slow, *t.cached, kSlices);
}

TEST(DispatchDiff, InterruptDeliveryPointsMatch) {
  // IE starts off with an interrupt already pending; the MTCR that sets IE
  // is the only place the deliverable predicate flips. The slow path's
  // hoisted re-check after MTCR and the cached path's dispatch-boundary
  // check must deliver at the same instruction (same EPC, same state).
  auto assembled = Assemble(R"(
    la r1, handler
    mtcr tvec, r1
    li r10, 5
warm:
    addi r10, r10, -1    ; a few instructions with delivery blocked
    bnez r10, warm
    mfcr r2, status
    ori r2, r2, 4        ; set IE with the interrupt already pending
    mtcr status, r2
    addi r11, r11, 1     ; must NOT run before delivery
    halt
handler:
    mfcr r20, epc        ; where delivery interrupted
    li r9, 42
    halt
  )");
  ASSERT_TRUE(assembled.ok());
  Machine slow(ModeConfig(InterpMode::kSlow));
  Machine cached(ModeConfig(InterpMode::kCached));
  for (Machine* m : {&slow, &cached}) {
    m->LoadImage(assembled.value());
    m->cpu().pc = 0;
    m->RaiseIrq(1);
    MachineExit exit = m->Run(10000);
    ASSERT_EQ(static_cast<int>(exit.kind), static_cast<int>(ExitKind::kHalt));
    EXPECT_EQ(m->cpu().gpr[9], 42u);   // Handler ran...
    EXPECT_EQ(m->cpu().gpr[11], 0u);   // ...before the post-MTCR instruction.
  }
  EXPECT_EQ(slow.cpu().gpr[20], cached.cpu().gpr[20]);  // Same delivery EPC.
  EXPECT_EQ(Capture(slow), Capture(cached));
}

// ---------------------------------------------------------------------------
// Self-modifying code: page-version invalidation.
// ---------------------------------------------------------------------------

TEST(SelfModifyingCode, PatchedInstructionExecutesNotStaleOne) {
  // A loop whose body is patched from "addi r1, zero, 111" to
  // "addi r1, zero, 222" by a store into its own code page, mid-superblock.
  // The first iteration predecodes (and runs) 111; the store must end the
  // block and bump the page version so the second iteration rebuilds and
  // runs 222 — never the stale predecode.
  auto assembled = Assemble(R"(
    lw r5, 0x100(zero)   ; the replacement instruction word
    addi r7, zero, 2
loop:
    addi r1, zero, 111   ; patch target
    addi r6, zero, 0
    sw r5, 8(zero)       ; overwrite the instruction at `loop` (same page)
    addi r7, r7, -1
    bnez r7, loop
    halt
  )");
  ASSERT_TRUE(assembled.ok());
  ASSERT_EQ(assembled.value().SymbolOrDie("loop"), 8u);

  const uint32_t patched = EncodeI(Opcode::kAddi, /*rd=*/1, /*rs1=*/0, /*imm=*/222);
  Machine slow(ModeConfig(InterpMode::kSlow));
  Machine cached(ModeConfig(InterpMode::kCached));
  for (Machine* m : {&slow, &cached}) {
    m->LoadImage(assembled.value());
    m->memory().Write32(0x100, patched);
    m->cpu().pc = 0;
    MachineExit exit = m->Run(10000);
    ASSERT_EQ(static_cast<int>(exit.kind), static_cast<int>(ExitKind::kHalt));
    EXPECT_EQ(m->cpu().gpr[1], 222u);  // The patched instruction ran.
  }
  EXPECT_EQ(Capture(slow), Capture(cached));
  // The cached run really did detect staleness (rebuilt at least one block
  // whose page version moved) rather than never caching at all. No hit is
  // expected: every redispatch in this program follows a code-page store.
  EXPECT_GE(cached.tcache_stats().stale, 1u);
  EXPECT_GE(cached.tcache_stats().builds, 4u);
}

TEST(SelfModifyingCode, EvictionPressureTinyCacheStaysExact) {
  // One-slot cache: every alternation between blocks evicts the other.
  // Correctness must not depend on capacity — only speed may.
  Twins t = MakeTwins(R"(
    li r11, 40
loop:
    addi r10, r10, 3
    slli r12, r10, 1
    beqz zero, join      ; unconditional: forces a second block
join:
    xor r13, r12, r10
    addi r11, r11, -1
    bnez r11, loop
    halt
  )",
                      /*tcache_slots=*/1);
  EXPECT_EQ(t.cached->tcache_capacity(), 1u);
  RunLockstep(*t.slow, *t.cached, kSlices);
  EXPECT_GT(t.cached->tcache_stats().evictions, 0u);
}

TEST(DispatchDiff, IdentityMappedBlocksNeverEvict) {
  // 256 one-instruction blocks at consecutive PCs with vaddr == paddr, as all
  // kernel code runs. The default cache has 8x as many slots, so two passes
  // over them must never evict.
  std::string source = "    li r11, 2\n    beqz zero, b0\n";
  for (int i = 0; i < 256; ++i) {
    source += "b" + std::to_string(i) + ":\n    beqz zero, b" + std::to_string(i + 1) + "\n";
  }
  source += "b256:\n    addi r11, r11, -1\n    bnez r11, b0\n    halt\n";
  Twins t = MakeTwins(source);
  RunLockstep(*t.slow, *t.cached, kSlices);
  EXPECT_EQ(t.cached->tcache_stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Commit points: the cached path retires a block at once; the slow path
// retires each instruction. Every place the block's count is committed or
// observed must land exactly where per-instruction retirement would.
// ---------------------------------------------------------------------------

// Machines for these programs need little RAM, which keeps the per-slice
// snapshot comparison cheap.
constexpr uint32_t kSmallRam = 64 * 1024;

// A 27-instruction straight-line body: ALU work plus a data store and load,
// so with translation on every instruction after the first also owes the
// slow path's fetch lookup.
std::string LongBlockLoop() {
  std::string body = "    li r11, 4\nloop:\n";
  for (int i = 0; i < 12; ++i) {
    body += "    addi r10, r10, " + std::to_string(i + 1) + "\n";
    body += "    xor r13, r13, r10\n";
  }
  body += "    sw r13, 0x2800(zero)\n    lw r14, 0x2800(zero)\n    add r15, r15, r14\n";
  body += "    addi r11, r11, -1\n    bnez r11, loop\n    halt\n";
  return body;
}

TEST(CommitPoints, RecoveryBoundaryAtEveryOffsetOfALongBlock) {
  // The first boundary lands on each offset of the first block, including
  // counters armed at 0 and below (expiry after the next retirement); 29
  // after each boundary then walks the boundary through later blocks.
  for (bool vm : {false, true}) {
    const std::string source = (vm ? VmPrologue(StatusBits::kVmEn) : "") + LongBlockLoop();
    for (int64_t first = -3; first <= 32; ++first) {
      SCOPED_TRACE(testing::Message() << "vm " << vm << " first " << first);
      Twins t = MakeTwins(source, 2048, kSmallRam);
      ArmRecovery(t, first);
      RunLockstep(*t.slow, *t.cached, kSlices, /*rearm=*/29);
    }
    // Never re-armed: from 0 or below, every retirement is a boundary.
    for (int64_t first : {0, -5}) {
      SCOPED_TRACE(testing::Message() << "vm " << vm << " unarmed from " << first);
      Twins t = MakeTwins(source, 2048, kSmallRam);
      ArmRecovery(t, first);
      RunLockstep(*t.slow, *t.cached, kSlices);
      EXPECT_LT(t.cached->RecoveryRemaining(), 0);
    }
  }
}

TEST(CommitPoints, MfcrReadsInFlightCountersMidBlock) {
  // Each MFCR follows instructions the block has retired but not committed;
  // it must read rctr and instret as the slow path holds them.
  const std::string loop = R"(
    li r11, 6
loop:
    addi r10, r10, 3
    slli r12, r10, 1
    add r13, r13, r12
    mfcr r5, rctr
    add r20, r20, r5
    xori r14, r14, 0x55
    mfcr r6, instret
    add r21, r21, r6
    addi r11, r11, -1
    bnez r11, loop
    halt
  )";
  for (bool vm : {false, true}) {
    const std::string source = (vm ? VmPrologue(StatusBits::kVmEn) : "") + loop;
    for (std::optional<int64_t> armed : {std::optional<int64_t>(), std::optional<int64_t>(7),
                                         std::optional<int64_t>(1000)}) {
      SCOPED_TRACE(testing::Message() << "vm " << vm << " armed " << armed.value_or(-1));
      Twins t = MakeTwins(source, 2048, kSmallRam);
      if (armed.has_value()) {
        ArmRecovery(t, *armed);
      }
      RunLockstep(*t.slow, *t.cached, kSlices, armed);
      EXPECT_NE(t.cached->cpu().gpr[20], 0u);
      EXPECT_NE(t.cached->cpu().gpr[21], 0u);
    }
  }
}

TEST(CommitPoints, MtcrRctrEndingABlockRebasesTheCount) {
  // MTCR rctr is the last instruction of its block, after `lead` retirements
  // the block has not committed. Writing 0 or a negative value expires the
  // counter on the MTCR itself; 1 expires it one instruction later.
  for (int32_t value : {0, 1, -1, -9}) {
    for (int lead : {0, 1, 2, 5}) {
      std::string source = "    li r7, " + std::to_string(value) + "\n    li r11, 3\nloop:\n";
      for (int i = 0; i < lead; ++i) {
        source += "    addi r10, r10, " + std::to_string(i + 1) + "\n";
      }
      source += R"(
    mtcr rctr, r7
    addi r12, r12, 1
    mfcr r5, rctr
    add r20, r20, r5
    addi r11, r11, -1
    bnez r11, loop
    halt
  )";
      for (bool enabled : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "value " << value << " lead " << lead << " enabled " << enabled);
        Twins t = MakeTwins(source, 2048, kSmallRam);
        if (enabled) {
          ArmRecovery(t, 40);
        }
        RunLockstep(*t.slow, *t.cached, kSlices);
      }
    }
  }
}

TEST(CommitPoints, HaltOnTheRecoveryBoundary) {
  // HALT is the ninth retirement. Boundaries just before, on and just after
  // it: on it, HALT's exit outranks the expiry it causes.
  const std::string source = R"(
    addi r1, r1, 1
    addi r2, r2, 2
    addi r3, r3, 3
    addi r4, r4, 4
    addi r5, r5, 5
    addi r6, r6, 6
    addi r7, r7, 7
    addi r8, r8, 8
    halt
  )";
  for (int64_t first : {8, 9, 10}) {
    SCOPED_TRACE(testing::Message() << "first " << first);
    Twins t = MakeTwins(source, 2048, kSmallRam);
    ArmRecovery(t, first);
    RunLockstep(*t.slow, *t.cached, {1000});
    EXPECT_EQ(t.cached->RecoveryRemaining(), first - 9);
    Twins sliced = MakeTwins(source, 2048, kSmallRam);
    ArmRecovery(sliced, first);
    RunLockstep(*sliced.slow, *sliced.cached, kSlices, /*rearm=*/first);
  }
}

TEST(CommitPoints, VirtualMemoryTrapAtEveryBlockPosition) {
  // User mode with translation on; one instruction of a 10-instruction block
  // traps and the handler resumes after it. Every trap position commits the
  // retirements before it and the fetch lookups up to and including it.
  const struct {
    const char* instr;
    TrapCause cause;
  } kTraps[] = {
      {"lw r15, 0(r9)", TrapCause::kTlbMissLoad},  // r9 = 0x8000: page 8 unmapped.
      {"sw r15, 4(r9)", TrapCause::kTlbMissStore},
      {"lwp r15, 0x100(zero)", TrapCause::kPrivilegeViolation},  // In user mode.
      {"lw r15, 0x2802(zero)", TrapCause::kUnalignedAccess},
      {"div r15, r12, zero", TrapCause::kDivideByZero},
  };
  constexpr int kBlockLength = 10;
  for (const auto& trap : kTraps) {
    for (int position = 0; position < kBlockLength; ++position) {
      std::string source = R"(
    la r1, handler
    mtcr tvec, r1
    li r9, 0x8000
)" + VmPrologue(kVmToUser) +
                           R"(
    la r2, user
    mtcr epc, r2
    rfi
user:
    li r10, 3
uloop:
)";
      for (int i = 0; i < kBlockLength; ++i) {
        if (i == position) {
          source += std::string("    ") + trap.instr + "\n";
        } else if (i % 3 == 2) {
          source += "    sw r12, 0x2800(zero)\n";
        } else {
          source += "    addi r12, r12, " + std::to_string(i + 1) + "\n";
        }
      }
      source += R"(
    addi r10, r10, -1
    bnez r10, uloop
    syscall
handler:
    mfcr r21, ecause
    add r20, r20, r21
    li r23, 9            ; TrapCause::kSyscall
    beq r21, r23, finish
    mfcr r22, epc
    addi r22, r22, 4
    mtcr epc, r22
    rfi
finish:
    halt
  )";
      SCOPED_TRACE(testing::Message() << trap.instr << " at " << position);
      Twins t = MakeTwins(source, 2048, kSmallRam);
      RunLockstep(*t.slow, *t.cached, kSlices);
      // The handler summed the causes: three trapped iterations, then the
      // syscall.
      EXPECT_EQ(t.cached->cpu().gpr[20], 3 * static_cast<uint32_t>(trap.cause) + 9);
      EXPECT_GT(t.cached->tlb().lookups(), 0u);
    }
  }
  ASSERT_EQ(static_cast<uint32_t>(TrapCause::kSyscall), 9u);
}

// ---------------------------------------------------------------------------
// Snapshot interaction: the cache is derived state, never serialised.
// ---------------------------------------------------------------------------

TEST(WarmCacheSnapshot, SnapshotIsDispatchModeInvariantAndRestoreContinues) {
  const char* source = R"(
    li r11, 120
loop:
    addi r10, r10, 7
    mul r12, r10, r11
    sw r12, 0xA00(zero)
    lw r13, 0xA00(zero)
    addi r11, r11, -1
    bnez r11, loop
    halt
  )";
  Twins t = MakeTwins(source);
  // Stop mid-run: the cached machine now has a warm translation cache.
  MachineExit a = t.slow->Run(100);
  MachineExit b = t.cached->Run(100);
  ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(ExitKind::kLimit));
  ASSERT_EQ(static_cast<int>(b.kind), static_cast<int>(ExitKind::kLimit));
  ASSERT_GT(t.cached->tcache_stats().builds, 0u);

  // Warm cache leaves no trace in the snapshot: bytes match the slow twin.
  std::vector<uint8_t> snap_bytes = Capture(*t.cached);
  ASSERT_EQ(Capture(*t.slow), snap_bytes);

  // Restoring into fresh machines of either mode continues identically.
  Machine restored_slow(ModeConfig(InterpMode::kSlow));
  Machine restored_cached(ModeConfig(InterpMode::kCached));
  Snapshot snap;
  snap.bytes = snap_bytes;
  for (Machine* m : {&restored_slow, &restored_cached}) {
    SnapshotReader r(snap);
    ASSERT_TRUE(m->RestoreState(r, /*include_memory=*/true));
  }
  RunLockstep(restored_slow, restored_cached, kSlices);
  // And the originals, run onward, agree with each other too.
  RunLockstep(*t.slow, *t.cached, kSlices);
}

// ---------------------------------------------------------------------------
// Whole-scenario differential: replication, failover, lossy links.
// ---------------------------------------------------------------------------

ScenarioResult RunWith(Scenario scenario, InterpMode mode) {
  return scenario.Interp(mode).Run();
}

void ExpectSameScenarioResults(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.completion_time.picos(), b.completion_time.picos());
  EXPECT_EQ(a.exited_flag, b.exited_flag);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.guest_checksum, b.guest_checksum);
  EXPECT_EQ(a.console_output, b.console_output);
  EXPECT_EQ(a.promoted, b.promoted);
  EXPECT_EQ(a.promotion_time.picos(), b.promotion_time.picos());
  ASSERT_EQ(a.env_trace.size(), b.env_trace.size());
  for (size_t i = 0; i < a.env_trace.size(); ++i) {
    EXPECT_EQ(a.env_trace[i].op_hash, b.env_trace[i].op_hash) << "env op " << i;
    EXPECT_EQ(a.env_trace[i].performed, b.env_trace[i].performed) << "env op " << i;
    EXPECT_EQ(static_cast<int>(a.env_trace[i].device_id),
              static_cast<int>(b.env_trace[i].device_id))
        << "env op " << i;
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].boundary_fingerprints, b.nodes[i].boundary_fingerprints)
        << "node " << i << " epoch fingerprints diverged";
  }
  ASSERT_EQ(a.resyncs.size(), b.resyncs.size());
  for (size_t i = 0; i < a.resyncs.size(); ++i) {
    const ResyncReport& x = a.resyncs[i];
    const ResyncReport& y = b.resyncs[i];
    EXPECT_EQ(x.source, y.source) << "resync " << i;
    EXPECT_EQ(x.joined, y.joined) << "resync " << i;
    EXPECT_EQ(x.start.picos(), y.start.picos()) << "resync " << i;
    EXPECT_EQ(x.join_time.picos(), y.join_time.picos()) << "resync " << i;
    EXPECT_EQ(x.completed, y.completed) << "resync " << i;
    EXPECT_EQ(x.transfer.cut, y.transfer.cut) << "resync " << i;
    EXPECT_EQ(x.transfer.cut_time.picos(), y.transfer.cut_time.picos()) << "resync " << i;
    EXPECT_EQ(x.transfer.cut_epoch, y.transfer.cut_epoch) << "resync " << i;
    EXPECT_EQ(x.transfer.page_chunks, y.transfer.page_chunks) << "resync " << i;
    EXPECT_EQ(x.transfer.zero_run_chunks, y.transfer.zero_run_chunks) << "resync " << i;
    EXPECT_EQ(x.transfer.full_pages, y.transfer.full_pages) << "resync " << i;
    EXPECT_EQ(x.transfer.delta_pages, y.transfer.delta_pages) << "resync " << i;
    EXPECT_EQ(x.transfer.rounds, y.transfer.rounds) << "resync " << i;
    EXPECT_EQ(x.transfer.bytes_sent, y.transfer.bytes_sent) << "resync " << i;
  }
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (size_t i = 0; i < a.channels.size(); ++i) {
    const Channel::Counters& x = a.channels[i].counters;
    const Channel::Counters& y = b.channels[i].counters;
    EXPECT_EQ(a.channels[i].from, b.channels[i].from) << "channel " << i;
    EXPECT_EQ(a.channels[i].to, b.channels[i].to) << "channel " << i;
    EXPECT_EQ(x.messages_enqueued, y.messages_enqueued) << "channel " << i;
    EXPECT_EQ(x.wire_sends, y.wire_sends) << "channel " << i;
    EXPECT_EQ(x.retransmits, y.retransmits) << "channel " << i;
    EXPECT_EQ(x.link_drops, y.link_drops) << "channel " << i;
    EXPECT_EQ(x.link_duplicates, y.link_duplicates) << "channel " << i;
    EXPECT_EQ(x.link_reorders, y.link_reorders) << "channel " << i;
    EXPECT_EQ(x.queue_high_water, y.queue_high_water) << "channel " << i;
    EXPECT_EQ(x.rx_duplicates, y.rx_duplicates) << "channel " << i;
    EXPECT_EQ(x.rx_gaps, y.rx_gaps) << "channel " << i;
    EXPECT_EQ(x.messages_delivered, y.messages_delivered) << "channel " << i;
    EXPECT_EQ(x.bytes_on_wire, y.bytes_on_wire) << "channel " << i;
    EXPECT_EQ(x.bytes_delivered, y.bytes_delivered) << "channel " << i;
  }
}

TEST(ScenarioDiff, CpuBareRun) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 1200;
  ScenarioResult slow = RunWith(Scenario::Bare(spec), InterpMode::kSlow);
  ScenarioResult cached = RunWith(Scenario::Bare(spec), InterpMode::kCached);
  ASSERT_TRUE(slow.completed);
  ExpectSameScenarioResults(slow, cached);
}

TEST(ScenarioDiff, DiskReadReplicated) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskRead;
  spec.iterations = 12;
  Scenario base = Scenario::Replicated(spec).Epoch(4096);
  ScenarioResult slow = RunWith(base, InterpMode::kSlow);
  ScenarioResult cached = RunWith(base, InterpMode::kCached);
  ASSERT_TRUE(slow.completed);
  ExpectSameScenarioResults(slow, cached);
}

TEST(ScenarioDiff, TxnLogFailoverSchedule) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 8;
  spec.num_blocks = 8;
  Scenario base = Scenario::Replicated(spec).Epoch(4096).FailAtTime(SimTime::Millis(40));
  ScenarioResult slow = RunWith(base, InterpMode::kSlow);
  ScenarioResult cached = RunWith(base, InterpMode::kCached);
  ASSERT_TRUE(slow.completed);
  ASSERT_TRUE(slow.promoted);
  ExpectSameScenarioResults(slow, cached);
}

TEST(ScenarioDiff, NetEchoLossyLink) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kNetEcho;
  spec.iterations = 4;
  LinkFaults faults;
  faults.drop_probability = 0.05;
  Scenario base = Scenario::Replicated(spec).Epoch(4096).LinkFaults(faults);
  for (uint64_t i = 0; i < spec.iterations; ++i) {
    char text[16];
    std::snprintf(text, sizeof(text), "pkt-%04u....", static_cast<unsigned>(i));
    base.InjectPacket(std::vector<uint8_t>(text, text + 12));
  }
  ScenarioResult slow = RunWith(base, InterpMode::kSlow);
  ScenarioResult cached = RunWith(base, InterpMode::kCached);
  ASSERT_TRUE(slow.completed);
  ExpectSameScenarioResults(slow, cached);
}

// Live state transfer over a lossy, reordering wire: the joiner's RAM
// arrives as page and zero-run chunks, its restore drops its translation
// cache, and it runs on from the source's cut; the source tracks the pages
// the guest dirties for its delta rounds meanwhile.
TEST(ScenarioDiff, TxnLogLossyRejoin) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 8;
  spec.num_blocks = 16;
  LinkFaults faults;
  faults.drop_probability = 0.05;
  faults.reorder_probability = 0.05;
  Scenario base = Scenario::Replicated(spec)
                      .Backups(2)
                      .Seed(7)
                      .LinkFaults(faults)
                      .FailAtTime(SimTime::Millis(4))
                      .RejoinAfterFail(SimTime::Millis(10));
  ScenarioResult slow = RunWith(base, InterpMode::kSlow);
  ScenarioResult cached = RunWith(base, InterpMode::kCached);
  ASSERT_TRUE(slow.completed);
  ASSERT_EQ(slow.resyncs.size(), 1u);
  ASSERT_TRUE(slow.resyncs[0].completed);
  EXPECT_GT(slow.resyncs[0].transfer.zero_run_chunks, 0u);
  ExpectSameScenarioResults(slow, cached);
}

// A 2-backup cascade: a timed kill of the primary, then a kill of the
// promoted backup right after it issues an I/O.
TEST(ScenarioDiff, CascadeTimeThenPhaseKill) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 10;
  spec.num_blocks = 16;
  Scenario base = Scenario::Replicated(spec)
                      .Backups(2)
                      .FailAtTime(SimTime::Millis(6))
                      .FailAtPhase(FailPhase::kAfterIoIssue);
  ScenarioResult slow = RunWith(base, InterpMode::kSlow);
  ScenarioResult cached = RunWith(base, InterpMode::kCached);
  ASSERT_TRUE(slow.completed);
  ASSERT_EQ(slow.crash_times.size(), 2u);
  ExpectSameScenarioResults(slow, cached);
}

}  // namespace
}  // namespace hbft
