// Machine (virtual processor) tests: instruction semantics, privilege
// enforcement, traps, virtual memory, the recovery counter, the
// branch-and-link privilege quirk, and idle-loop fast-forward exactness.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/hash.hpp"
#include "common/snapshot.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"

namespace hbft {
namespace {

// Assembles and runs `source` on a bare (kDirect) machine until HALT or the
// instruction limit; returns the machine for inspection.
std::unique_ptr<Machine> RunBareProgram(const std::string& source, uint64_t limit = 100000,
                                        ExitKind expected = ExitKind::kHalt) {
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << (assembled.ok() ? "" : assembled.error().ToString());
  MachineConfig config;
  config.trap_mode = TrapMode::kDirect;
  auto machine = std::make_unique<Machine>(config);
  machine->LoadImage(assembled.value());
  machine->cpu().pc = 0;
  MachineExit exit = machine->Run(limit);
  EXPECT_EQ(exit.kind, expected) << "cause=" << TrapCauseName(exit.cause) << " pc=" << exit.pc;
  return machine;
}

TEST(MachineAlu, ArithmeticAndLogic) {
  auto m = RunBareProgram(R"(
    li r1, 7
    li r2, 5
    add r3, r1, r2      ; 12
    sub r4, r1, r2      ; 2
    mul r5, r1, r2      ; 35
    div r6, r1, r2      ; 1
    rem r7, r1, r2      ; 2
    and r8, r1, r2      ; 5
    or r9, r1, r2       ; 7
    xor r10, r1, r2     ; 2
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[3], 12u);
  EXPECT_EQ(m->cpu().gpr[4], 2u);
  EXPECT_EQ(m->cpu().gpr[5], 35u);
  EXPECT_EQ(m->cpu().gpr[6], 1u);
  EXPECT_EQ(m->cpu().gpr[7], 2u);
  EXPECT_EQ(m->cpu().gpr[8], 5u);
  EXPECT_EQ(m->cpu().gpr[9], 7u);
  EXPECT_EQ(m->cpu().gpr[10], 2u);
}

TEST(MachineAlu, SignedOperations) {
  auto m = RunBareProgram(R"(
    li r1, 0xFFFFFFF8   ; -8
    li r2, 3
    div r3, r1, r2      ; -2
    rem r4, r1, r2      ; -2
    sra r5, r1, r2      ; -1
    srl r6, r1, r2      ; 0x1FFFFFFF
    slt r7, r1, r2      ; 1 (signed)
    sltu r8, r1, r2     ; 0 (unsigned)
    halt
  )");
  EXPECT_EQ(static_cast<int32_t>(m->cpu().gpr[3]), -2);
  EXPECT_EQ(static_cast<int32_t>(m->cpu().gpr[4]), -2);
  EXPECT_EQ(static_cast<int32_t>(m->cpu().gpr[5]), -1);
  EXPECT_EQ(m->cpu().gpr[6], 0x1FFFFFFFu);
  EXPECT_EQ(m->cpu().gpr[7], 1u);
  EXPECT_EQ(m->cpu().gpr[8], 0u);
}

TEST(MachineAlu, R0IsHardwiredZero) {
  auto m = RunBareProgram(R"(
    li r1, 99
    add zero, r1, r1
    addi zero, zero, 55
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[0], 0u);
}

TEST(MachineAlu, IntMinDivMinusOneDefined) {
  auto m = RunBareProgram(R"(
    li r1, 0x80000000
    li r2, 0xFFFFFFFF
    div r3, r1, r2
    rem r4, r1, r2
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[3], 0x80000000u);
  EXPECT_EQ(m->cpu().gpr[4], 0u);
}

TEST(MachineMemory, LoadStoreWidthsAndSignExtension) {
  auto m = RunBareProgram(R"(
    li r1, 0x1000
    li r2, 0xFFFFFF80   ; low byte 0x80
    sb r2, 0(r1)
    lb r3, 0(r1)        ; sign-extends to 0xFFFFFF80
    lbu r4, 0(r1)       ; 0x80
    li r2, 0xFFFF8001
    sh r2, 4(r1)
    lh r5, 4(r1)        ; 0xFFFF8001
    lhu r6, 4(r1)       ; 0x8001
    li r2, 0xCAFEBABE
    sw r2, 8(r1)
    lw r7, 8(r1)
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[3], 0xFFFFFF80u);
  EXPECT_EQ(m->cpu().gpr[4], 0x80u);
  EXPECT_EQ(m->cpu().gpr[5], 0xFFFF8001u);
  EXPECT_EQ(m->cpu().gpr[6], 0x8001u);
  EXPECT_EQ(m->cpu().gpr[7], 0xCAFEBABEu);
}

// ---------------------------------------------------------------------------
// Property sweep: every R-type ALU instruction against a host-side oracle
// over boundary-heavy operand patterns.
// ---------------------------------------------------------------------------

uint32_t AluOracle(Opcode op, uint32_t a, uint32_t b) {
  int32_t sa = static_cast<int32_t>(a);
  int32_t sb = static_cast<int32_t>(b);
  switch (op) {
    case Opcode::kAdd:
      return a + b;
    case Opcode::kSub:
      return a - b;
    case Opcode::kAnd:
      return a & b;
    case Opcode::kOr:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kSll:
      return a << (b & 31);
    case Opcode::kSrl:
      return a >> (b & 31);
    case Opcode::kSra:
      return static_cast<uint32_t>(sa >> (b & 31));
    case Opcode::kSlt:
      return sa < sb ? 1 : 0;
    case Opcode::kSltu:
      return a < b ? 1 : 0;
    case Opcode::kMul:
      return static_cast<uint32_t>(static_cast<uint64_t>(a) * b);
    case Opcode::kDiv:
      if (b == 0) {
        return 0;  // Trap case, handled separately.
      }
      if (sa == INT32_MIN && sb == -1) {
        return static_cast<uint32_t>(INT32_MIN);
      }
      return static_cast<uint32_t>(sa / sb);
    case Opcode::kRem:
      if (b == 0) {
        return 0;
      }
      if (sa == INT32_MIN && sb == -1) {
        return 0;
      }
      return static_cast<uint32_t>(sa % sb);
    default:
      ADD_FAILURE() << "not an ALU op";
      return 0;
  }
}

class AluOracleSweep : public testing::TestWithParam<Opcode> {};

TEST_P(AluOracleSweep, MatchesHostArithmetic) {
  Opcode op = GetParam();
  const uint32_t patterns[] = {0,          1,          2,          31,        32,
                               0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xDEADBEEF, 0x00010000,
                               0xFFFF0000, 7};
  MachineConfig config;
  for (uint32_t a : patterns) {
    for (uint32_t b : patterns) {
      if ((op == Opcode::kDiv || op == Opcode::kRem) && b == 0) {
        continue;  // Divide-by-zero traps; covered elsewhere.
      }
      Machine machine(config);
      machine.memory().Write32(0, EncodeR(op, 3, 1, 2));
      machine.memory().Write32(4, EncodeR(Opcode::kHalt, 0, 0, 0));
      machine.cpu().set_gpr(1, a);
      machine.cpu().set_gpr(2, b);
      machine.cpu().pc = 0;
      MachineExit exit = machine.Run(10);
      ASSERT_EQ(exit.kind, ExitKind::kHalt);
      EXPECT_EQ(machine.cpu().gpr[3], AluOracle(op, a, b))
          << MnemonicFor(op) << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRTypeAlu, AluOracleSweep,
                         testing::Values(Opcode::kAdd, Opcode::kSub, Opcode::kAnd, Opcode::kOr,
                                         Opcode::kXor, Opcode::kSll, Opcode::kSrl, Opcode::kSra,
                                         Opcode::kSlt, Opcode::kSltu, Opcode::kMul, Opcode::kDiv,
                                         Opcode::kRem),
                         [](const testing::TestParamInfo<Opcode>& param_info) {
                           return std::string(MnemonicFor(param_info.param));
                         });

TEST(MachineTrap, DivideByZeroVectorsToGuest) {
  auto m = RunBareProgram(R"(
    la r1, handler
    mtcr tvec, r1
    li r2, 4
    li r3, 0
    div r4, r2, r3       ; traps
    halt                 ; skipped by handler redirect
handler:
    mfcr r5, ecause
    li r6, 1
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[5], static_cast<uint32_t>(TrapCause::kDivideByZero));
  EXPECT_EQ(m->cpu().gpr[6], 1u);
}

TEST(MachineTrap, IllegalInstructionVectors) {
  auto assembled = Assemble(R"(
    la r1, handler
    mtcr tvec, r1
    .word 0xA8000000     ; opcode 0x2A: unassigned
    halt
handler:
    mfcr r5, ecause
    halt
  )");
  ASSERT_TRUE(assembled.ok());
  MachineConfig config;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.Run(1000);
  EXPECT_EQ(machine.cpu().gpr[5], static_cast<uint32_t>(TrapCause::kIllegalInstruction));
}

TEST(MachineTrap, UnalignedAccessVectors) {
  auto m = RunBareProgram(R"(
    la r1, handler
    mtcr tvec, r1
    li r2, 0x1001
    lw r3, 0(r2)         ; unaligned
    halt
handler:
    mfcr r5, ecause
    mfcr r6, evaddr
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[5], static_cast<uint32_t>(TrapCause::kUnalignedAccess));
  EXPECT_EQ(m->cpu().gpr[6], 0x1001u);
}

// User mode requires translation (real mode is privileged): this prologue
// wires user-accessible identity TLB entries for the low pages, enables VM,
// and RFIs to `user` at privilege 3.
constexpr const char* kUserModePrologue = R"(
    la r1, handler
    mtcr tvec, r1
    li r2, 0
wire_loop:
    slli r3, r2, 12
    ori r4, r3, 0x1F     ; V|W|X|U|WIRED
    tlbi r3, r4
    addi r2, r2, 1
    li r5, 4
    bltu r2, r5, wire_loop
    li r1, 0x98          ; VM | prev_priv=3
    mtcr status, r1
    la r2, user
    mtcr epc, r2
    rfi
)";

TEST(MachinePrivilege, UserModeNeedsTranslation) {
  // With translation off, only privilege <= 1 may access memory: an RFI to
  // privilege 3 without enabling VM faults on the very first user fetch.
  auto m = RunBareProgram(R"(
    la r1, handler
    mtcr tvec, r1
    li r1, 0x18          ; prev_priv=3, VM still off
    mtcr status, r1
    la r2, user
    mtcr epc, r2
    rfi
user:
    nop
    halt
handler:
    mfcr r5, ecause
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[5], static_cast<uint32_t>(TrapCause::kProtectionFault));
}

TEST(MachinePrivilege, UserCannotExecutePrivileged) {
  // Drop to privilege 3 via RFI, try MFCR, expect a privilege trap with the
  // correct previous-privilege bookkeeping.
  auto m = RunBareProgram(std::string(kUserModePrologue) + R"(
user:
    mfcr r3, tod         ; privileged at priv 3 -> trap
    halt
handler:
    mfcr r5, ecause
    mfcr r6, status
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[5], static_cast<uint32_t>(TrapCause::kPrivilegeViolation));
  // Handler runs at privilege 0 with prev_priv=3 recorded.
  EXPECT_EQ(m->cpu().gpr[6] & StatusBits::kPrivMask, 0u);
  EXPECT_EQ((m->cpu().gpr[6] & StatusBits::kPrevPrivMask) >> StatusBits::kPrevPrivShift, 3u);
}

TEST(MachinePrivilege, JalDepositsPrivilegeInLink) {
  // At privilege 0 the low bits are 00; at privilege 3 they are 11 — the
  // PA-RISC branch-and-link behaviour of paper section 3.1.
  auto m = RunBareProgram(std::string("    jal r10, next0\nnext0:\n") + kUserModePrologue + R"(
user:
    jal r4, next3
next3:
    syscall 0
handler:
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[10] & 3u, 0u);
  EXPECT_EQ(m->cpu().gpr[4] & 3u, 3u);
}

TEST(MachinePrivilege, JalrMasksLinkBitsOnUse) {
  auto m = RunBareProgram(std::string(kUserModePrologue) + R"(
user:
    call f              ; ra = return | 3
    li r9, 77           ; must execute after return
    syscall 0
f:
    ret                 ; jalr through ra: low bits masked
handler:
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[9], 77u);
}

TEST(MachineVm, TranslationProtectionAndFaults) {
  auto m = RunBareProgram(R"(
    .equ PTBASE, 0x8000
    la r1, handler
    mtcr tvec, r1
    li r1, PTBASE
    mtcr ptbase, r1
    ; map vpn 0..3 identity kernel V|W|X, wire them
    li r2, 0
loop:
    slli r3, r2, 12
    ori r4, r3, 0x17     ; V|W|X|WIRED
    tlbi r3, r4
    slli r5, r2, 2
    add r5, r5, r1
    ori r6, r3, 7        ; PT entry: V|W|X
    sw r6, 0(r5)
    addi r2, r2, 1
    li r7, 4
    bltu r2, r7, loop
    ; enable VM
    mfcr r8, status
    ori r8, r8, 0x80
    mtcr status, r8
    ; mapped access works
    li r9, 0x2000
    li r10, 0x1234
    sw r10, 0(r9)
    lw r11, 0(r9)
    ; unmapped access: TLB miss trap
    li r12, 0x100000
    lw r13, 0(r12)
    halt
handler:
    mfcr r14, ecause
    mfcr r15, evaddr
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[11], 0x1234u);
  EXPECT_EQ(m->cpu().gpr[14], static_cast<uint32_t>(TrapCause::kTlbMissLoad));
  EXPECT_EQ(m->cpu().gpr[15], 0x100000u);
}

TEST(MachineVm, ProbeChecksAccessWithoutFaulting) {
  auto m = RunBareProgram(R"(
    la r1, handler
    mtcr tvec, r1
    ; wire the code page (vpn 0) and a data mapping for vpn 2 (no user bit)
    li r2, 0
    li r3, 0x17          ; V|W|X|WIRED
    tlbi r2, r3
    li r2, 0x2000
    ori r3, r2, 0x17
    tlbi r2, r3
    mfcr r4, status
    ori r4, r4, 0x80
    mtcr status, r4
    probe r5, r2        ; kernel: readable -> 1
    halt
handler:
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[5], 1u);
}

TEST(MachineVm, TrapStormCannotOutliveBudget) {
  // Enabling VM with no wired code page makes the very first fetch miss, and
  // the handler (same unmapped page) miss again: an endless storm on real
  // hardware. The emulator must still honour the instruction budget.
  auto assembled = Assemble(R"(
    la r1, handler
    mtcr tvec, r1
    mfcr r4, status
    ori r4, r4, 0x80
    mtcr status, r4      ; VM on, nothing wired
handler:
    halt
  )");
  ASSERT_TRUE(assembled.ok());
  MachineConfig config;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.cpu().pc = 0;
  MachineExit exit = machine.Run(5000);
  EXPECT_EQ(exit.kind, ExitKind::kLimit);
  EXPECT_GE(exit.executed, 5000u);
}

TEST(MachineRecovery, TrapsAfterExactInstructionCount) {
  auto assembled = Assemble(R"(
loop:
    addi r1, r1, 1
    j loop
  )");
  ASSERT_TRUE(assembled.ok());
  MachineConfig config;
  config.trap_mode = TrapMode::kHostFirst;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.cpu().pc = 0;
  machine.cpu().cr[kCrStatus] = 0;  // Real privilege 0 so nothing traps.
  machine.SetRecoveryCounter(100);
  machine.SetRctrEnabled(true);
  MachineExit exit = machine.Run(100000);
  EXPECT_EQ(exit.kind, ExitKind::kRecovery);
  EXPECT_EQ(exit.executed, 100u);
  EXPECT_EQ(machine.cpu().instret, 100u);

  // Epochs tile exactly: next epoch of 64 retires exactly 64 more.
  machine.SetRecoveryCounter(64);
  exit = machine.Run(100000);
  EXPECT_EQ(exit.kind, ExitKind::kRecovery);
  EXPECT_EQ(machine.cpu().instret, 164u);
}

TEST(MachineRecovery, HostSimulatedInstructionsCount) {
  MachineConfig config;
  Machine machine(config);
  machine.SetRecoveryCounter(2);
  machine.SetRctrEnabled(true);
  EXPECT_FALSE(machine.RetireSimulated(4));
  EXPECT_TRUE(machine.RetireSimulated(8));  // Second retire expires it.
  EXPECT_EQ(machine.cpu().pc, 8u);
  EXPECT_EQ(machine.cpu().instret, 2u);
}

// A guest spinning on a flag that stays zero. With `impure`, the body also
// counts iterations in r3, so no iteration is a fixed point.
AssembledImage SpinImage(bool impure) {
  std::string source = R"(
    li r1, 0x2000
wait:
    lw r2, 0(r1)
)";
  if (impure) {
    source += "    addi r3, r3, 1\n";
  }
  source += R"(
    bnez r2, done
    j wait
done:
    halt
  )";
  auto assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok());
  return assembled.value();
}

std::unique_ptr<Machine> SpinMachine(const AssembledImage& image, InterpMode interp,
                                     bool configure_idle) {
  MachineConfig config;
  config.interp = interp;
  auto machine = std::make_unique<Machine>(config);
  machine->LoadImage(image);
  machine->cpu().pc = 0;
  if (configure_idle) {
    machine->ConfigureIdleLoop(image.SymbolOrDie("wait"), image.SymbolOrDie("done"));
  }
  return machine;
}

std::vector<uint8_t> CaptureBytes(const Machine& machine, bool include_memory) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  machine.CaptureState(w, include_memory);
  return snap.bytes;
}

TEST(MachineIdleSkip, ExactlyMatchesEmulation) {
  for (bool impure : {false, true}) {
    const AssembledImage image = SpinImage(impure);
    for (InterpMode interp : {InterpMode::kSlow, InterpMode::kCached}) {
      for (uint64_t budget : {6ull, 7ull, 100ull, 1001ull, 99998ull}) {
        SCOPED_TRACE(::testing::Message() << (impure ? "impure" : "pure") << " spin, budget "
                                          << budget);
        auto plain = SpinMachine(image, interp, /*configure_idle=*/false);
        auto idle = SpinMachine(image, interp, /*configure_idle=*/true);
        MachineExit plain_exit = plain->Run(budget);
        MachineExit idle_exit = idle->Run(budget);
        EXPECT_EQ(idle_exit.kind, plain_exit.kind);
        EXPECT_EQ(idle_exit.executed, plain_exit.executed);
        EXPECT_EQ(idle->cpu().instret, plain->cpu().instret);
        EXPECT_EQ(idle->cpu().pc, plain->cpu().pc);
        EXPECT_EQ(idle->cpu().gpr, plain->cpu().gpr);
        // A spin that changes a register every iteration is never skipped.
        if (impure) {
          EXPECT_EQ(idle->idle_skipped_instructions(), 0u);
        } else if (budget >= 100) {
          EXPECT_GT(idle->idle_skipped_instructions(), 0u);
        }
      }
    }
  }
}

TEST(MachineIdleSkip, StopsAtRecoveryBoundary) {
  auto assembled = Assemble(R"(
    li r1, 0x2000
wait:
    lw r2, 0(r1)
    bnez r2, done
    j wait
done:
    halt
  )");
  ASSERT_TRUE(assembled.ok());
  MachineConfig config;
  config.trap_mode = TrapMode::kHostFirst;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.cpu().pc = 0;
  machine.ConfigureIdleLoop(assembled.value().SymbolOrDie("wait"),
                            assembled.value().SymbolOrDie("done"));
  machine.SetRecoveryCounter(5000);
  machine.SetRctrEnabled(true);
  MachineExit exit = machine.Run(1000000);
  EXPECT_EQ(exit.kind, ExitKind::kRecovery);
  EXPECT_EQ(machine.cpu().instret, 5000u);
  EXPECT_GT(machine.idle_skipped_instructions(), 0u);
}

TEST(MachineIdleSkip, WakesOnInterrupt) {
  auto assembled = Assemble(R"(
    la r1, handler
    mtcr tvec, r1
    mfcr r2, status
    ori r2, r2, 4        ; enable interrupts
    mtcr status, r2
    li r1, 0x2000
wait:
    lw r2, 0(r1)
    bnez r2, wait_done
    j wait
wait_done:
    halt
handler:
    li r9, 42
    halt
  )");
  ASSERT_TRUE(assembled.ok());
  MachineConfig config;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.cpu().pc = 0;
  machine.ConfigureIdleLoop(assembled.value().SymbolOrDie("wait"),
                            assembled.value().SymbolOrDie("wait_done"));
  // Run a while (spinning), then raise an interrupt: the machine must vector.
  MachineExit exit = machine.Run(10000);
  EXPECT_EQ(exit.kind, ExitKind::kLimit);
  machine.RaiseIrq(kIrqTimer);
  exit = machine.Run(10000);
  EXPECT_EQ(exit.kind, ExitKind::kHalt);
  EXPECT_EQ(machine.cpu().gpr[9], 42u);
}

// A machine restored mid-observation knows the iteration's entry registers
// only by the snapshot's fingerprint, so its next arrival at the loop head
// compares hashes where the original compares registers. Both must go on
// identically, skipping the pure spin and never the impure one.
void ExpectRestoreMidObservationContinuesExactly(bool impure, InterpMode interp) {
  SCOPED_TRACE(impure ? "impure spin" : "pure spin");
  const AssembledImage image = SpinImage(impure);
  const uint32_t wait = image.SymbolOrDie("wait");
  auto original = SpinMachine(image, interp, /*configure_idle=*/true);
  // The instructions before the loop, then the first two of the iteration.
  original->Run(wait / 4 + 2);
  ASSERT_GT(original->cpu().pc, wait);
  ASSERT_LT(original->cpu().pc, image.SymbolOrDie("done"));

  Snapshot snap;
  snap.bytes = CaptureBytes(*original, /*include_memory=*/true);
  auto restored = SpinMachine(image, interp, /*configure_idle=*/true);
  SnapshotReader r(snap);
  ASSERT_TRUE(restored->RestoreState(r, /*include_memory=*/true));
  ASSERT_TRUE(r.AtEnd());

  for (uint64_t budget : {1000ull, 7ull, 99998ull}) {
    original->Run(budget);
    restored->Run(budget);
    EXPECT_EQ(restored->cpu().instret, original->cpu().instret) << "budget " << budget;
    EXPECT_EQ(restored->cpu().pc, original->cpu().pc) << "budget " << budget;
    EXPECT_EQ(restored->cpu().gpr, original->cpu().gpr) << "budget " << budget;
    EXPECT_EQ(restored->idle_skipped_instructions(), original->idle_skipped_instructions())
        << "budget " << budget;
    EXPECT_EQ(CaptureBytes(*restored, true), CaptureBytes(*original, true))
        << "budget " << budget;
  }
  EXPECT_EQ(original->idle_skipped_instructions() > 0, !impure);
}

TEST(MachineIdleSkip, RestoreMidObservationContinuesExactly) {
  for (bool impure : {false, true}) {
    for (InterpMode interp : {InterpMode::kSlow, InterpMode::kCached}) {
      ExpectRestoreMidObservationContinuesExactly(impure, interp);
    }
  }
}

// The idle fields end a memory-less snapshot: the observing and clean flags,
// then Fnv1a over the general registers at the observed iteration's entry
// (0 before the machine ever reached the loop), the entry's instret, the
// skipped count, and the has-memory flag.
TEST(MachineIdleSkip, SnapshotCarriesEntryRegisterFingerprint) {
  struct IdleFields {
    bool observing = false;
    bool clean = false;
    uint64_t entry_fp = 0;
    uint64_t entry_instret = 0;
    uint64_t skipped = 0;
  };
  auto read_idle_fields = [](const Machine& machine) {
    const std::vector<uint8_t> bytes = CaptureBytes(machine, /*include_memory=*/false);
    constexpr size_t kTail = 2 + 3 * 8 + 1;
    const std::vector<uint8_t> tail(bytes.end() - kTail, bytes.end());
    SnapshotReader r(tail);
    IdleFields f;
    bool has_memory = true;
    EXPECT_TRUE(r.Bool(&f.observing) && r.Bool(&f.clean) && r.U64(&f.entry_fp) &&
                r.U64(&f.entry_instret) && r.U64(&f.skipped) && r.Bool(&has_memory));
    EXPECT_FALSE(has_memory);
    return f;
  };

  const AssembledImage image = SpinImage(/*impure=*/true);
  const uint32_t wait = image.SymbolOrDie("wait");
  auto machine = SpinMachine(image, InterpMode::kCached, /*configure_idle=*/true);
  IdleFields before = read_idle_fields(*machine);
  EXPECT_FALSE(before.observing);
  EXPECT_EQ(before.entry_fp, 0u);

  // Stop after the iteration's load and increment: r3 is already 1, but the
  // entry registers had r1 = 0x2000 and every other register 0.
  machine->Run(wait / 4 + 2);
  ASSERT_EQ(machine->cpu().gpr[3], 1u);
  std::array<uint32_t, kNumGprs> entry{};
  entry[1] = 0x2000;
  Fnv1aHasher hasher;
  for (uint32_t reg : entry) {
    hasher.UpdateU32(reg);
  }
  IdleFields during = read_idle_fields(*machine);
  EXPECT_TRUE(during.observing);
  EXPECT_TRUE(during.clean);
  EXPECT_EQ(during.entry_fp, hasher.digest());
  EXPECT_EQ(during.entry_instret, wait / 4);
  EXPECT_EQ(during.skipped, 0u);
}

TEST(MachineFingerprint, SensitiveToStateChanges) {
  MachineConfig config;
  Machine a(config);
  Machine b(config);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.cpu().set_gpr(5, 1);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b.cpu().set_gpr(5, 0);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.memory().Write8(0x123, 7);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(MachineFingerprint, EnvironmentRegistersExcluded) {
  MachineConfig config;
  Machine a(config);
  Machine b(config);
  b.cpu().cr[kCrTod] = 999;
  b.cpu().cr[kCrItmr] = 123;
  b.cpu().cr[kCrPrid] = 7;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.cpu().cr[kCrEpc] = 0x44;  // Coordinated register: must matter.
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(MachineMmio, DirectModeExitsForDeviceAccess) {
  auto assembled = Assemble(R"(
    li r1, 0xF0000000
    li r2, 3
    sw r2, 8(r1)
    halt
  )");
  ASSERT_TRUE(assembled.ok());
  MachineConfig config;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.cpu().pc = 0;
  MachineExit exit = machine.Run(100);
  EXPECT_EQ(exit.kind, ExitKind::kMmio);
  EXPECT_TRUE(exit.mmio_is_store);
  EXPECT_EQ(exit.mmio_paddr, kDiskMmioBase + kDiskRegBlock);
  EXPECT_EQ(exit.mmio_value, 3u);
}

TEST(MachineMmio, UserModeMmioIsProtectionFault) {
  auto m = RunBareProgram(R"(
    la r1, handler
    mtcr tvec, r1
    li r1, 0x18
    mtcr status, r1
    la r2, user
    mtcr epc, r2
    rfi
user:
    li r3, 0xF0000000
    lw r4, 0(r3)        ; priv 3 + VM off -> protection fault
    halt
handler:
    mfcr r5, ecause
    halt
  )");
  EXPECT_EQ(m->cpu().gpr[5], static_cast<uint32_t>(TrapCause::kProtectionFault));
}

}  // namespace
}  // namespace hbft
