#include "machine/machine.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace hbft {

namespace {

// Environment control registers: their values are not a function of the
// virtual-machine state, so the machine never evaluates them itself — the
// embedder (bare node or hypervisor) must.
bool IsEnvironmentCr(uint32_t cr) { return cr == kCrTod || cr == kCrItmr || cr == kCrPrid; }

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      memory_(config.ram_bytes),
      tlb_(config.tlb_entries, config.tlb_policy, config.machine_seed),
      tcache_(config.tcache_slots) {}

void Machine::LoadImage(const AssembledImage& image) {
  for (const AssembledSection& section : image.sections) {
    if (section.bytes.empty()) {
      continue;
    }
    memory_.WriteBlock(section.base, section.bytes.data(),
                       static_cast<uint32_t>(section.bytes.size()));
  }
}

void Machine::SetRctrEnabled(bool enabled) {
  rctr_enabled_ = enabled;
  if (enabled) {
    cpu_.cr[kCrStatus] |= StatusBits::kRctrEn;
  } else {
    cpu_.cr[kCrStatus] &= ~StatusBits::kRctrEn;
  }
}

void Machine::ConfigureIdleLoop(uint32_t begin_pc, uint32_t end_pc) {
  HBFT_CHECK_LT(begin_pc, end_pc);
  idle_begin_ = begin_pc;
  idle_end_ = end_pc;
  idle_configured_ = true;
  // Superblocks built before the loop was registered may span its boundaries;
  // the builder clips at them, so force a rebuild.
  tcache_.InvalidateAll();
}

void Machine::VectorTrap(TrapCause cause, uint32_t epc, uint32_t vaddr, uint32_t handler_priv) {
  uint32_t status = cpu_.cr[kCrStatus];
  uint32_t prev_priv = StatusBits::Priv(status);
  uint32_t prev_ie = (status & StatusBits::kIe) != 0 ? 1 : 0;
  status &= ~(StatusBits::kPrivMask | StatusBits::kIe | StatusBits::kPrevPrivMask |
              StatusBits::kPrevIe);
  status |= handler_priv & StatusBits::kPrivMask;
  status |= prev_priv << StatusBits::kPrevPrivShift;
  if (prev_ie != 0) {
    status |= StatusBits::kPrevIe;
  }
  cpu_.cr[kCrStatus] = status;
  cpu_.cr[kCrEpc] = epc;
  cpu_.cr[kCrEcause] = static_cast<uint32_t>(cause);
  cpu_.cr[kCrEvaddr] = vaddr;
  cpu_.pc = cpu_.cr[kCrTvec];
}

bool Machine::RetireSimulated(uint32_t next_pc) {
  cpu_.pc = next_pc;
  ++cpu_.instret;
  if (rctr_enabled_) {
    --rctr_;
    return rctr_ < 0;
  }
  return false;
}

uint64_t Machine::Fingerprint() {
  return memory_.Fingerprint() ^ (RegisterFingerprint() * 0x9E3779B97F4A7C15ULL);
}

void Machine::CaptureState(SnapshotWriter& w, bool include_memory) const {
  cpu_.CaptureState(w);
  tlb_.CaptureState(w);
  w.I64(rctr_);
  w.Bool(rctr_enabled_);
  // Idle-loop fast-forward dynamics: skipping is exactly equivalent to
  // emulation, but capturing them keeps a restored machine's timing (and the
  // round-trip bytes) identical to the original's. The configured loop
  // bounds come from the guest program at construction, not the snapshot.
  // The entry registers are written as their IdleFingerprint, one u64: that
  // keeps the snapshot's length (and the live transfer's control chunk)
  // unchanged, and a restored machine needs no more for its one check.
  w.Bool(idle_observing_);
  w.Bool(idle_clean_);
  w.U64(idle_entry_fp_.has_value() ? *idle_entry_fp_ : IdleFingerprint(idle_entry_gpr_));
  w.U64(idle_entry_instret_);
  w.U64(idle_skipped_);
  w.Bool(include_memory);
  if (include_memory) {
    memory_.CaptureState(w);
  }
}

bool Machine::RestoreState(SnapshotReader& r, bool include_memory) {
  if (!cpu_.RestoreState(r) || !tlb_.RestoreState(r)) {
    return false;
  }
  if (!r.I64(&rctr_) || !r.Bool(&rctr_enabled_)) {
    return false;
  }
  uint64_t idle_entry_fp = 0;
  if (!r.Bool(&idle_observing_) || !r.Bool(&idle_clean_) || !r.U64(&idle_entry_fp) ||
      !r.U64(&idle_entry_instret_) || !r.U64(&idle_skipped_)) {
    return false;
  }
  idle_entry_fp_ = idle_entry_fp;
  bool has_memory = false;
  if (!r.Bool(&has_memory) || has_memory != include_memory) {
    return false;
  }
  if (include_memory && !memory_.RestoreState(r)) {
    return false;
  }
  // The translation cache is derived state: it contributes nothing to the
  // canonical bytes above and anything predecoded from pre-restore memory is
  // now wrong. Drop it; blocks rebuild on demand from restored RAM.
  tcache_.InvalidateAll();
  return true;
}

inline Machine::Translation Machine::Translate(uint32_t vaddr, Access access) {
  Translation result;
  uint32_t priv = cpu_.priv();
  uint32_t paddr;
  if (!cpu_.vm_enabled()) {
    if (priv > 1) {
      result.cause = TrapCause::kProtectionFault;
      return result;
    }
    paddr = vaddr;
  } else {
    uint32_t vpn = vaddr >> kPageShift;
    auto pte = tlb_.Lookup(vpn);
    if (!pte.has_value()) {
      switch (access) {
        case Access::kFetch:
          result.cause = TrapCause::kTlbMissFetch;
          break;
        case Access::kLoad:
          result.cause = TrapCause::kTlbMissLoad;
          break;
        case Access::kStore:
          result.cause = TrapCause::kTlbMissStore;
          break;
      }
      return result;
    }
    uint32_t entry = *pte;
    if ((entry & Pte::kValid) == 0) {
      result.cause = TrapCause::kProtectionFault;
      return result;
    }
    bool priv_ok = priv <= 1 || (entry & Pte::kUser) != 0;
    bool kind_ok = true;
    if (access == Access::kStore) {
      kind_ok = (entry & Pte::kWritable) != 0;
    } else if (access == Access::kFetch) {
      kind_ok = (entry & Pte::kExecutable) != 0;
    }
    if (!priv_ok || !kind_ok) {
      result.cause = TrapCause::kProtectionFault;
      return result;
    }
    paddr = (Pte::PfnOf(entry) << kPageShift) | (vaddr & (kPageBytes - 1));
  }
  if (IsMmioAddress(paddr)) {
    // MMIO pages are reachable only at real privilege 0 — this is how the
    // hypervisor (which keeps the guest at privilege >= 1) intercepts every
    // device access (paper section 3.2).
    if (priv != 0 || access == Access::kFetch) {
      result.cause = TrapCause::kProtectionFault;
      return result;
    }
    result.ok = true;
    result.paddr = paddr;
    return result;
  }
  if (!memory_.Contains(paddr, 1)) {
    result.cause = TrapCause::kProtectionFault;
    return result;
  }
  result.ok = true;
  result.paddr = paddr;
  return result;
}

bool Machine::DeliverTrap(TrapCause cause, uint32_t pc, uint32_t vaddr, const DecodedInstr* instr,
                          MachineExit* exit, uint64_t* executed) {
  idle_observing_ = false;
  if (config_.trap_mode == TrapMode::kHostFirst) {
    exit->kind = ExitKind::kGuestTrap;
    exit->cause = cause;
    exit->pc = pc;
    exit->vaddr = vaddr;
    if (instr != nullptr) {
      exit->instr = *instr;
      exit->instr_valid = true;
    }
    return false;
  }
  // kDirect: vector into the guest at real privilege 0. Syscall and break
  // return past the trapping instruction; everything else retries it.
  // Vector delivery consumes one budget unit (it is real work, and a guest
  // whose handler itself faults — a trap storm — must not hang the host).
  ++*executed;
  uint32_t epc = (cause == TrapCause::kSyscall || cause == TrapCause::kBreak) ? pc + 4 : pc;
  VectorTrap(cause, epc, vaddr, /*handler_priv=*/0);
  return true;
}

bool Machine::RestoredIdleEntryMatches() const {
  return IdleFingerprint(cpu_.gpr) == *idle_entry_fp_;
}

inline Machine::IdleOutcome Machine::IdleCheck(uint64_t max_instructions, uint64_t* executed,
                                               MachineExit* exit) {
  // Idle-loop fast-forward: after one observed pure iteration, skip whole
  // iterations in bulk (bounded by budget and recovery counter).
  if (idle_configured_ && cpu_.pc == idle_begin_) {
    if (idle_observing_ && idle_clean_ &&
        (idle_entry_fp_.has_value() ? RestoredIdleEntryMatches()
                                    : cpu_.gpr == idle_entry_gpr_)) {
      uint64_t loop_len = cpu_.instret - idle_entry_instret_;
      if (loop_len > 0) {
        uint64_t budget_iters = (max_instructions - *executed) / loop_len;
        uint64_t rctr_iters = std::numeric_limits<uint64_t>::max();
        if (rctr_enabled_) {
          int64_t allowance = rctr_ + 1;
          rctr_iters = allowance <= 0 ? 0 : static_cast<uint64_t>(allowance) / loop_len;
        }
        uint64_t k = budget_iters < rctr_iters ? budget_iters : rctr_iters;
        if (k > 0) {
          uint64_t skipped = k * loop_len;
          cpu_.instret += skipped;
          *executed += skipped;
          idle_skipped_ += skipped;
          if (rctr_enabled_) {
            rctr_ -= static_cast<int64_t>(skipped);
            if (rctr_ < 0) {
              // The skip landed exactly on the recovery boundary.
              idle_observing_ = false;
              exit->kind = ExitKind::kRecovery;
              exit->executed = *executed;
              exit->pc = cpu_.pc;
              return IdleOutcome::kRecoveryExit;
            }
          }
          // PC unchanged: still at loop head, exactly as if emulated.
        }
      }
      idle_observing_ = false;
      if (*executed >= max_instructions) {
        return IdleOutcome::kBudgetExhausted;
      }
    } else {
      idle_observing_ = true;
      idle_clean_ = true;
      idle_entry_gpr_ = cpu_.gpr;
      idle_entry_fp_.reset();
      idle_entry_instret_ = cpu_.instret;
    }
  } else if (idle_observing_ && (cpu_.pc < idle_begin_ || cpu_.pc >= idle_end_)) {
    idle_observing_ = false;
  }
  return IdleOutcome::kProceed;
}

MachineExit Machine::Run(uint64_t max_instructions) {
  return config_.interp == InterpMode::kCached ? RunCached(max_instructions)
                                               : RunSlow(max_instructions);
}

MachineExit Machine::RunSlow(uint64_t max_instructions) {
  MachineExit exit;
  uint64_t executed = 0;

  auto retire = [&](uint32_t next_pc) -> bool {
    cpu_.pc = next_pc;
    ++cpu_.instret;
    ++executed;
    if (rctr_enabled_) {
      --rctr_;
      if (rctr_ < 0) {
        return true;
      }
    }
    return false;
  };

  // External interrupt delivery (bare machine only; the hypervisor delivers
  // interrupts explicitly at epoch boundaries). Delivery consumes budget so a
  // guest that never acknowledges its interrupt cannot hang the host. The
  // deliverable predicate can only flip to true inside Run via MTCR or RFI
  // (RaiseIrq happens between Run calls, and trap delivery clears IE), so the
  // check is hoisted out of the per-instruction loop: it runs at entry and
  // again after those instructions, with identical delivery points.
  bool check_irq = true;

  while (executed < max_instructions) {
    if (check_irq) {
      check_irq = false;
      if (config_.trap_mode == TrapMode::kDirect && pending_irqs() != 0 &&
          cpu_.interrupts_enabled()) {
        idle_observing_ = false;
        ++executed;
        VectorTrap(TrapCause::kInterrupt, cpu_.pc, 0, 0);
        continue;
      }
    }

    IdleOutcome idle = IdleCheck(max_instructions, &executed, &exit);
    if (idle == IdleOutcome::kRecoveryExit) {
      return exit;
    }
    if (idle == IdleOutcome::kBudgetExhausted) {
      break;
    }

    uint32_t pc = cpu_.pc;

    // ---- Fetch -------------------------------------------------------------
    if ((pc & 3) != 0) {
      if (!DeliverTrap(TrapCause::kUnalignedAccess, pc, pc, nullptr, &exit, &executed)) {
        exit.executed = executed;
        return exit;
      }
      continue;
    }
    Translation fetch = Translate(pc, Access::kFetch);
    if (!fetch.ok) {
      if (!DeliverTrap(fetch.cause, pc, pc, nullptr, &exit, &executed)) {
        exit.executed = executed;
        return exit;
      }
      continue;
    }
    auto decoded = Decode(memory_.Read32(fetch.paddr));
    if (!decoded.has_value()) {
      if (!DeliverTrap(TrapCause::kIllegalInstruction, pc, 0, nullptr, &exit, &executed)) {
        exit.executed = executed;
        return exit;
      }
      continue;
    }
    const DecodedInstr instr = *decoded;

    // ---- Privilege check ---------------------------------------------------
    if (IsPrivileged(instr.op) && cpu_.priv() != 0) {
      if (!DeliverTrap(TrapCause::kPrivilegeViolation, pc, 0, &instr, &exit, &executed)) {
        exit.executed = executed;
        return exit;
      }
      continue;
    }

    // ---- Execute -----------------------------------------------------------
    const uint32_t rs1 = cpu_.gpr[instr.rs1];
    const uint32_t rs2 = cpu_.gpr[instr.rs2];
    const uint32_t imm_u = static_cast<uint32_t>(instr.imm);
    uint32_t next_pc = pc + 4;
    bool trap_recovery = false;

    switch (instr.op) {
      case Opcode::kAdd:
        cpu_.set_gpr(instr.rd, rs1 + rs2);
        break;
      case Opcode::kSub:
        cpu_.set_gpr(instr.rd, rs1 - rs2);
        break;
      case Opcode::kAnd:
        cpu_.set_gpr(instr.rd, rs1 & rs2);
        break;
      case Opcode::kOr:
        cpu_.set_gpr(instr.rd, rs1 | rs2);
        break;
      case Opcode::kXor:
        cpu_.set_gpr(instr.rd, rs1 ^ rs2);
        break;
      case Opcode::kSll:
        cpu_.set_gpr(instr.rd, rs1 << (rs2 & 31));
        break;
      case Opcode::kSrl:
        cpu_.set_gpr(instr.rd, rs1 >> (rs2 & 31));
        break;
      case Opcode::kSra:
        cpu_.set_gpr(instr.rd, static_cast<uint32_t>(static_cast<int32_t>(rs1) >> (rs2 & 31)));
        break;
      case Opcode::kSlt:
        cpu_.set_gpr(instr.rd, static_cast<int32_t>(rs1) < static_cast<int32_t>(rs2) ? 1 : 0);
        break;
      case Opcode::kSltu:
        cpu_.set_gpr(instr.rd, rs1 < rs2 ? 1 : 0);
        break;
      case Opcode::kMul:
        cpu_.set_gpr(instr.rd, rs1 * rs2);
        break;
      case Opcode::kDiv: {
        if (rs2 == 0) {
          if (!DeliverTrap(TrapCause::kDivideByZero, pc, 0, &instr, &exit, &executed)) {
            exit.executed = executed;
            return exit;
          }
          continue;
        }
        int32_t a = static_cast<int32_t>(rs1);
        int32_t b = static_cast<int32_t>(rs2);
        // INT_MIN / -1 overflows; define the result as INT_MIN (no trap).
        int32_t q = (a == std::numeric_limits<int32_t>::min() && b == -1) ? a : a / b;
        cpu_.set_gpr(instr.rd, static_cast<uint32_t>(q));
        break;
      }
      case Opcode::kRem: {
        if (rs2 == 0) {
          if (!DeliverTrap(TrapCause::kDivideByZero, pc, 0, &instr, &exit, &executed)) {
            exit.executed = executed;
            return exit;
          }
          continue;
        }
        int32_t a = static_cast<int32_t>(rs1);
        int32_t b = static_cast<int32_t>(rs2);
        int32_t r = (a == std::numeric_limits<int32_t>::min() && b == -1) ? 0 : a % b;
        cpu_.set_gpr(instr.rd, static_cast<uint32_t>(r));
        break;
      }
      case Opcode::kAddi:
        cpu_.set_gpr(instr.rd, rs1 + imm_u);
        break;
      case Opcode::kAndi:
        cpu_.set_gpr(instr.rd, rs1 & imm_u);
        break;
      case Opcode::kOri:
        cpu_.set_gpr(instr.rd, rs1 | imm_u);
        break;
      case Opcode::kXori:
        cpu_.set_gpr(instr.rd, rs1 ^ imm_u);
        break;
      case Opcode::kSlti:
        cpu_.set_gpr(instr.rd, static_cast<int32_t>(rs1) < instr.imm ? 1 : 0);
        break;
      case Opcode::kSltiu:
        cpu_.set_gpr(instr.rd, rs1 < imm_u ? 1 : 0);
        break;
      case Opcode::kSlli:
        cpu_.set_gpr(instr.rd, rs1 << (imm_u & 31));
        break;
      case Opcode::kSrli:
        cpu_.set_gpr(instr.rd, rs1 >> (imm_u & 31));
        break;
      case Opcode::kSrai:
        cpu_.set_gpr(instr.rd, static_cast<uint32_t>(static_cast<int32_t>(rs1) >> (imm_u & 31)));
        break;
      case Opcode::kLui:
        cpu_.set_gpr(instr.rd, imm_u << 16);
        break;

      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
      case Opcode::kLwp:
      case Opcode::kSwp: {
        bool is_store = instr.op == Opcode::kSw || instr.op == Opcode::kSh ||
                        instr.op == Opcode::kSb || instr.op == Opcode::kSwp;
        bool physical = instr.op == Opcode::kLwp || instr.op == Opcode::kSwp;
        uint32_t bytes = 4;
        if (instr.op == Opcode::kLh || instr.op == Opcode::kLhu || instr.op == Opcode::kSh) {
          bytes = 2;
        } else if (instr.op == Opcode::kLb || instr.op == Opcode::kLbu ||
                   instr.op == Opcode::kSb) {
          bytes = 1;
        }
        uint32_t vaddr = rs1 + imm_u;
        if ((vaddr & (bytes - 1)) != 0) {
          if (!DeliverTrap(TrapCause::kUnalignedAccess, pc, vaddr, &instr, &exit, &executed)) {
            exit.executed = executed;
            return exit;
          }
          continue;
        }
        uint32_t paddr;
        if (physical) {
          // Privileged physical window (page-table walks); no translation.
          if (IsMmioAddress(vaddr)) {
            paddr = vaddr;  // MMIO reachable physically at privilege 0.
          } else if (!memory_.Contains(vaddr, bytes)) {
            if (!DeliverTrap(TrapCause::kProtectionFault, pc, vaddr, &instr, &exit, &executed)) {
              exit.executed = executed;
              return exit;
            }
            continue;
          } else {
            paddr = vaddr;
          }
        } else {
          Translation tr = Translate(vaddr, is_store ? Access::kStore : Access::kLoad);
          if (!tr.ok) {
            if (!DeliverTrap(tr.cause, pc, vaddr, &instr, &exit, &executed)) {
              exit.executed = executed;
              return exit;
            }
            continue;
          }
          paddr = tr.paddr;
        }
        if (IsMmioAddress(paddr)) {
          // kDirect at privilege 0 reaches here; kHostFirst never does
          // (privilege rule in Translate and the privileged LWP/SWP check).
          idle_observing_ = false;
          exit.kind = ExitKind::kMmio;
          exit.executed = executed;
          exit.pc = pc;
          exit.instr = instr;
          exit.instr_valid = true;
          exit.mmio_paddr = paddr;
          exit.mmio_is_store = is_store;
          exit.mmio_bytes = bytes;
          exit.mmio_value = is_store ? cpu_.gpr[instr.rd] : 0;
          return exit;
        }
        if (is_store) {
          idle_clean_ = false;
          uint32_t data = cpu_.gpr[instr.rd];
          if (bytes == 4) {
            memory_.Write32(paddr, data);
          } else if (bytes == 2) {
            memory_.Write16(paddr, static_cast<uint16_t>(data));
          } else {
            memory_.Write8(paddr, static_cast<uint8_t>(data));
          }
        } else {
          uint32_t value = 0;
          switch (instr.op) {
            case Opcode::kLw:
            case Opcode::kLwp:
              value = memory_.Read32(paddr);
              break;
            case Opcode::kLh:
              value = static_cast<uint32_t>(static_cast<int32_t>(
                  static_cast<int16_t>(memory_.Read16(paddr))));
              break;
            case Opcode::kLhu:
              value = memory_.Read16(paddr);
              break;
            case Opcode::kLb:
              value = static_cast<uint32_t>(
                  static_cast<int32_t>(static_cast<int8_t>(memory_.Read8(paddr))));
              break;
            case Opcode::kLbu:
              value = memory_.Read8(paddr);
              break;
            default:
              HBFT_CHECK(false);
          }
          cpu_.set_gpr(instr.rd, value);
        }
        break;
      }

      case Opcode::kBeq:
        if (rs1 == cpu_.gpr[instr.rs2]) {
          next_pc = pc + 4 + static_cast<uint32_t>(instr.imm) * 4;
        }
        break;
      case Opcode::kBne:
        if (rs1 != cpu_.gpr[instr.rs2]) {
          next_pc = pc + 4 + static_cast<uint32_t>(instr.imm) * 4;
        }
        break;
      case Opcode::kBlt:
        if (static_cast<int32_t>(rs1) < static_cast<int32_t>(cpu_.gpr[instr.rs2])) {
          next_pc = pc + 4 + static_cast<uint32_t>(instr.imm) * 4;
        }
        break;
      case Opcode::kBge:
        if (static_cast<int32_t>(rs1) >= static_cast<int32_t>(cpu_.gpr[instr.rs2])) {
          next_pc = pc + 4 + static_cast<uint32_t>(instr.imm) * 4;
        }
        break;
      case Opcode::kBltu:
        if (rs1 < cpu_.gpr[instr.rs2]) {
          next_pc = pc + 4 + static_cast<uint32_t>(instr.imm) * 4;
        }
        break;
      case Opcode::kBgeu:
        if (rs1 >= cpu_.gpr[instr.rs2]) {
          next_pc = pc + 4 + static_cast<uint32_t>(instr.imm) * 4;
        }
        break;

      case Opcode::kJal:
        // PA-RISC branch-and-link quirk: the current privilege level is
        // deposited in the low two bits of the link value (paper section 3.1).
        cpu_.set_gpr(instr.rd, (pc + 4) | cpu_.priv());
        next_pc = pc + 4 + static_cast<uint32_t>(instr.imm) * 4;
        break;
      case Opcode::kJalr: {
        uint32_t target = (rs1 + imm_u) & ~3u;  // Low bits masked on use.
        cpu_.set_gpr(instr.rd, (pc + 4) | cpu_.priv());
        next_pc = target;
        break;
      }

      case Opcode::kSyscall:
        if (!DeliverTrap(TrapCause::kSyscall, pc, 0, &instr, &exit, &executed)) {
          exit.executed = executed;
          return exit;
        }
        continue;
      case Opcode::kBreak:
        if (!DeliverTrap(TrapCause::kBreak, pc, 0, &instr, &exit, &executed)) {
          exit.executed = executed;
          return exit;
        }
        continue;

      case Opcode::kRfi: {
        idle_clean_ = false;
        uint32_t status = cpu_.cr[kCrStatus];
        uint32_t prev_priv = (status & StatusBits::kPrevPrivMask) >> StatusBits::kPrevPrivShift;
        bool prev_ie = (status & StatusBits::kPrevIe) != 0;
        status &= ~(StatusBits::kPrivMask | StatusBits::kIe);
        status |= prev_priv;
        if (prev_ie) {
          status |= StatusBits::kIe;
        }
        cpu_.cr[kCrStatus] = status;
        next_pc = cpu_.cr[kCrEpc];
        check_irq = true;  // RFI can restore IE with interrupts pending.
        break;
      }

      case Opcode::kMfcr: {
        uint32_t cr = imm_u & 0xFF;
        if (cr >= kNumControlRegs) {
          if (!DeliverTrap(TrapCause::kIllegalInstruction, pc, 0, &instr, &exit, &executed)) {
            exit.executed = executed;
            return exit;
          }
          continue;
        }
        if (IsEnvironmentCr(cr)) {
          idle_observing_ = false;
          exit.kind = ExitKind::kEnvCr;
          exit.executed = executed;
          exit.pc = pc;
          exit.instr = instr;
          exit.instr_valid = true;
          return exit;
        }
        uint32_t value;
        if (cr == kCrRctr) {
          value = static_cast<uint32_t>(rctr_);
        } else if (cr == kCrInstret) {
          value = static_cast<uint32_t>(cpu_.instret);
        } else {
          value = cpu_.cr[cr];
        }
        cpu_.set_gpr(instr.rd, value);
        break;
      }
      case Opcode::kMtcr: {
        uint32_t cr = imm_u & 0xFF;
        if (cr >= kNumControlRegs) {
          if (!DeliverTrap(TrapCause::kIllegalInstruction, pc, 0, &instr, &exit, &executed)) {
            exit.executed = executed;
            return exit;
          }
          continue;
        }
        if (IsEnvironmentCr(cr)) {
          idle_observing_ = false;
          exit.kind = ExitKind::kEnvCr;
          exit.executed = executed;
          exit.pc = pc;
          exit.instr = instr;
          exit.instr_valid = true;
          return exit;
        }
        idle_clean_ = false;
        if (cr == kCrEirr) {
          cpu_.cr[kCrEirr] &= ~rs1;  // Write-1-to-clear.
        } else if (cr == kCrRctr) {
          rctr_ = static_cast<int64_t>(static_cast<int32_t>(rs1));
        } else if (cr == kCrInstret) {
          // Read-only; writes ignored.
        } else {
          cpu_.cr[cr] = rs1;
        }
        check_irq = true;  // A STATUS write can enable pending interrupts.
        break;
      }

      case Opcode::kTlbi: {
        idle_clean_ = false;
        uint32_t pte = rs2;
        constexpr uint32_t kWiredBit = 1u << 4;  // Software convention.
        tlb_.Insert(rs1 >> kPageShift, pte, (pte & kWiredBit) != 0);
        break;
      }
      case Opcode::kTlbf:
        idle_clean_ = false;
        tlb_.FlushUnwired();
        break;

      case Opcode::kProbe: {
        // Determines readability of the address at the current privilege.
        // TLB misses trap (so the result depends only on the PTE, which is
        // replica-deterministic); other failures yield 0 without trapping.
        Translation tr = Translate(rs1, Access::kLoad);
        if (!tr.ok && (tr.cause == TrapCause::kTlbMissLoad)) {
          if (!DeliverTrap(tr.cause, pc, rs1, &instr, &exit, &executed)) {
            exit.executed = executed;
            return exit;
          }
          continue;
        }
        cpu_.set_gpr(instr.rd, tr.ok ? 1 : 0);
        break;
      }

      case Opcode::kHalt:
        exit.kind = ExitKind::kHalt;
        retire(next_pc);
        exit.executed = executed;
        exit.pc = pc;
        return exit;
    }

    trap_recovery = retire(next_pc);
    if (trap_recovery) {
      exit.kind = ExitKind::kRecovery;
      exit.executed = executed;
      exit.pc = cpu_.pc;
      return exit;
    }
  }

  exit.kind = ExitKind::kLimit;
  exit.executed = executed;
  exit.pc = cpu_.pc;
  return exit;
}

// ---------------------------------------------------------------------------
// Cached interpreter: predecoded superblocks through threaded dispatch.
// ---------------------------------------------------------------------------

// Cache-line aligned so the dispatch loop's speed does not depend on where
// the linker places it. Unaligned, its start moves with the size of
// unrelated object files, and perfbench cpu-epoch's wall_s moved 5-10% with
// it on a 4-CPU x86-64 host.
[[gnu::aligned(64)]] MachineExit Machine::RunCached(uint64_t max_instructions) {
  MachineExit exit;
  uint64_t executed = 0;

  while (executed < max_instructions) {
    // Superblock dispatch is the interrupt window: the deliverable predicate
    // cannot flip to true mid-block (MTCR and RFI end superblocks, RaiseIrq
    // happens between Run calls, and delivery itself clears IE), so checking
    // here reproduces the slow path's delivery points exactly.
    if (config_.trap_mode == TrapMode::kDirect && pending_irqs() != 0 &&
        cpu_.interrupts_enabled()) {
      idle_observing_ = false;
      ++executed;
      VectorTrap(TrapCause::kInterrupt, cpu_.pc, 0, 0);
      continue;
    }

    IdleOutcome idle = IdleCheck(max_instructions, &executed, &exit);
    if (idle == IdleOutcome::kRecoveryExit) {
      return exit;
    }
    if (idle == IdleOutcome::kBudgetExhausted) {
      break;
    }

    const uint32_t pc = cpu_.pc;
    if ((pc & 3) != 0) {
      if (!DeliverTrap(TrapCause::kUnalignedAccess, pc, pc, nullptr, &exit, &executed)) {
        exit.executed = executed;
        return exit;
      }
      continue;
    }
    Translation fetch = Translate(pc, Access::kFetch);
    if (!fetch.ok) {
      if (!DeliverTrap(fetch.cause, pc, pc, nullptr, &exit, &executed)) {
        exit.executed = executed;
        return exit;
      }
      continue;
    }

    Superblock* block =
        tcache_.Find(pc, fetch.paddr, memory_.PageVersion(fetch.paddr >> kPageShift));
    if (block == nullptr) {
      block = tcache_.Claim(pc, fetch.paddr);
      BuildSuperblock(memory_, pc, fetch.paddr, idle_configured_, idle_begin_, idle_end_, block);
      if (!block->valid) {
        // The entry word itself is undecodable: take the illegal-instruction
        // trap, as the slow path does.
        if (!DeliverTrap(TrapCause::kIllegalInstruction, pc, 0, nullptr, &exit, &executed)) {
          exit.executed = executed;
          return exit;
        }
        continue;
      }
    }

    if (ExecuteBlock(*block, max_instructions, &exit, &executed) == BlockOutcome::kReturn) {
      return exit;
    }
  }

  exit.kind = ExitKind::kLimit;
  exit.executed = executed;
  exit.pc = cpu_.pc;
  return exit;
}

// The dispatch core threads through a dense per-opcode table of
// computed-goto label addresses (GNU C: one indirect jump per instruction).
// Every real opcode maps to its handler label; the ten memory opcodes share
// one.
#define HBFT_OPCODE_HANDLERS(X)                                                          \
  X(kAdd, Add) X(kSub, Sub) X(kAnd, And) X(kOr, Or) X(kXor, Xor) X(kSll, Sll)            \
  X(kSrl, Srl) X(kSra, Sra) X(kSlt, Slt) X(kSltu, Sltu) X(kMul, Mul) X(kDiv, Div)        \
  X(kRem, Rem) X(kAddi, Addi) X(kAndi, Andi) X(kOri, Ori) X(kXori, Xori)                 \
  X(kSlti, Slti) X(kSltiu, Sltiu) X(kSlli, Slli) X(kSrli, Srli) X(kSrai, Srai)           \
  X(kLui, Lui) X(kLw, Mem) X(kLh, Mem) X(kLhu, Mem) X(kLb, Mem) X(kLbu, Mem)             \
  X(kSw, Mem) X(kSh, Mem) X(kSb, Mem) X(kLwp, Mem) X(kSwp, Mem) X(kBeq, Beq)             \
  X(kBne, Bne) X(kBlt, Blt) X(kBge, Bge) X(kBltu, Bltu) X(kBgeu, Bgeu) X(kJal, Jal)      \
  X(kJalr, Jalr) X(kSyscall, Syscall) X(kBreak, Break) X(kRfi, Rfi) X(kMfcr, Mfcr)       \
  X(kMtcr, Mtcr) X(kTlbi, Tlbi) X(kTlbf, Tlbf) X(kProbe, Probe) X(kHalt, Halt)

Machine::BlockOutcome Machine::ExecuteBlock(const Superblock& block, uint64_t max_instructions,
                                            MachineExit* exit, uint64_t* executed) {
  const PredecodedInstr* code = block.code.data();
  // The block runs at most `limit` instructions: its length, the budget left,
  // and, with the recovery counter armed, the retirements until it expires
  // (one when it is already negative). Each bound is at least 1.
  uint64_t limit = std::min<uint64_t>(block.code.size(), max_instructions - *executed);
  if (rctr_enabled_) {
    limit = std::min<uint64_t>(limit, rctr_ < 0 ? 1 : static_cast<uint64_t>(rctr_) + 1);
  }
  // VM-enable state is read at entry: the MTCR or RFI that may flip it ends
  // the block, and the slow path looked up that instruction's fetch under the
  // old state.
  const bool credit_fetch = cpu_.vm_enabled();
  // Instructions retired in this block and not yet committed; also the
  // position of the instruction running.
  uint64_t index = 0;
  uint32_t pc = cpu_.pc;
  const PredecodedInstr* p = nullptr;
  uint32_t rs1 = 0;
  uint32_t rs2 = 0;
  uint32_t imm_u = 0;
  uint32_t next_pc = 0;
  bool leave_block = false;
  TrapCause trap_cause = TrapCause::kNone;
  uint32_t trap_vaddr = 0;

  // Built once per process: a function-local static's initialiser runs
  // exactly once even when fleet workers reach their first block together.
  // Label addresses exist only in this function, so they are passed in.
  using JumpTable = std::array<const void*, kMaxOpcode + 1>;
  static const JumpTable jump_table =
      [](const void* invalid, std::initializer_list<std::pair<Opcode, const void*>> handlers) {
        JumpTable table;
        table.fill(invalid);
        for (const auto& [op, label] : handlers) {
          table[static_cast<uint8_t>(op)] = label;
        }
        return table;
      }(&&h_Invalid, {
#define X(name, handler) {Opcode::name, &&h_##handler},
                         HBFT_OPCODE_HANDLERS(X)
#undef X
                     });

front:
  if (index == limit) {
    goto stop;
  }
  p = &code[index];
  if (p->privileged && cpu_.priv() != 0) {
    trap_cause = TrapCause::kPrivilegeViolation;
    trap_vaddr = 0;
    goto trap;
  }
  rs1 = cpu_.gpr[p->instr.rs1];
  rs2 = cpu_.gpr[p->instr.rs2];
  imm_u = p->imm_u;
  next_pc = pc + 4;
  goto* jump_table[static_cast<uint8_t>(p->instr.op)];

h_Add:
  cpu_.set_gpr(p->instr.rd, rs1 + rs2);
  goto retire;
h_Sub:
  cpu_.set_gpr(p->instr.rd, rs1 - rs2);
  goto retire;
h_And:
  cpu_.set_gpr(p->instr.rd, rs1 & rs2);
  goto retire;
h_Or:
  cpu_.set_gpr(p->instr.rd, rs1 | rs2);
  goto retire;
h_Xor:
  cpu_.set_gpr(p->instr.rd, rs1 ^ rs2);
  goto retire;
h_Sll:
  cpu_.set_gpr(p->instr.rd, rs1 << (rs2 & 31));
  goto retire;
h_Srl:
  cpu_.set_gpr(p->instr.rd, rs1 >> (rs2 & 31));
  goto retire;
h_Sra:
  cpu_.set_gpr(p->instr.rd, static_cast<uint32_t>(static_cast<int32_t>(rs1) >> (rs2 & 31)));
  goto retire;
h_Slt:
  cpu_.set_gpr(p->instr.rd, static_cast<int32_t>(rs1) < static_cast<int32_t>(rs2) ? 1 : 0);
  goto retire;
h_Sltu:
  cpu_.set_gpr(p->instr.rd, rs1 < rs2 ? 1 : 0);
  goto retire;
h_Mul:
  cpu_.set_gpr(p->instr.rd, rs1 * rs2);
  goto retire;
h_Div: {
  if (rs2 == 0) {
    trap_cause = TrapCause::kDivideByZero;
    trap_vaddr = 0;
    goto trap;
  }
  int32_t a = static_cast<int32_t>(rs1);
  int32_t b = static_cast<int32_t>(rs2);
  // INT_MIN / -1 overflows; define the result as INT_MIN (no trap).
  int32_t q = (a == std::numeric_limits<int32_t>::min() && b == -1) ? a : a / b;
  cpu_.set_gpr(p->instr.rd, static_cast<uint32_t>(q));
  goto retire;
}
h_Rem: {
  if (rs2 == 0) {
    trap_cause = TrapCause::kDivideByZero;
    trap_vaddr = 0;
    goto trap;
  }
  int32_t a = static_cast<int32_t>(rs1);
  int32_t b = static_cast<int32_t>(rs2);
  int32_t r = (a == std::numeric_limits<int32_t>::min() && b == -1) ? 0 : a % b;
  cpu_.set_gpr(p->instr.rd, static_cast<uint32_t>(r));
  goto retire;
}
h_Addi:
  cpu_.set_gpr(p->instr.rd, rs1 + imm_u);
  goto retire;
h_Andi:
  cpu_.set_gpr(p->instr.rd, rs1 & imm_u);
  goto retire;
h_Ori:
  cpu_.set_gpr(p->instr.rd, rs1 | imm_u);
  goto retire;
h_Xori:
  cpu_.set_gpr(p->instr.rd, rs1 ^ imm_u);
  goto retire;
h_Slti:
  cpu_.set_gpr(p->instr.rd, static_cast<int32_t>(rs1) < p->instr.imm ? 1 : 0);
  goto retire;
h_Sltiu:
  cpu_.set_gpr(p->instr.rd, rs1 < imm_u ? 1 : 0);
  goto retire;
h_Slli:
  cpu_.set_gpr(p->instr.rd, rs1 << (imm_u & 31));
  goto retire;
h_Srli:
  cpu_.set_gpr(p->instr.rd, rs1 >> (imm_u & 31));
  goto retire;
h_Srai:
  cpu_.set_gpr(p->instr.rd, static_cast<uint32_t>(static_cast<int32_t>(rs1) >> (imm_u & 31)));
  goto retire;
h_Lui:
  cpu_.set_gpr(p->instr.rd, imm_u << 16);
  goto retire;

h_Mem: {
  const uint32_t bytes = p->mem_bytes;
  uint32_t vaddr = rs1 + imm_u;
  uint32_t paddr;
  if ((vaddr & (bytes - 1)) != 0) {
    trap_cause = TrapCause::kUnalignedAccess;
    trap_vaddr = vaddr;
    goto trap;
  }
  if (p->mem_physical) {
    // Privileged physical window (page-table walks); no translation.
    if (IsMmioAddress(vaddr)) {
      paddr = vaddr;  // MMIO reachable physically at privilege 0.
    } else if (!memory_.Contains(vaddr, bytes)) {
      trap_cause = TrapCause::kProtectionFault;
      trap_vaddr = vaddr;
      goto trap;
    } else {
      paddr = vaddr;
    }
  } else {
    Translation tr = Translate(vaddr, p->mem_store ? Access::kStore : Access::kLoad);
    if (!tr.ok) {
      trap_cause = tr.cause;
      trap_vaddr = vaddr;
      goto trap;
    }
    paddr = tr.paddr;
  }
  if (IsMmioAddress(paddr)) {
    // kDirect at privilege 0 reaches here; kHostFirst never does (privilege
    // rule in Translate and the privileged LWP/SWP check).
    CommitBlock(pc, index, credit_fetch ? index : 0, executed);
    idle_observing_ = false;
    exit->kind = ExitKind::kMmio;
    exit->executed = *executed;
    exit->pc = pc;
    exit->instr = p->instr;
    exit->instr_valid = true;
    exit->mmio_paddr = paddr;
    exit->mmio_is_store = p->mem_store;
    exit->mmio_bytes = bytes;
    exit->mmio_value = p->mem_store ? cpu_.gpr[p->instr.rd] : 0;
    return BlockOutcome::kReturn;
  }
  if (p->mem_store) {
    idle_clean_ = false;
    uint32_t data = cpu_.gpr[p->instr.rd];
    if (bytes == 4) {
      memory_.Write32(paddr, data);
    } else if (bytes == 2) {
      memory_.Write16(paddr, static_cast<uint16_t>(data));
    } else {
      memory_.Write8(paddr, static_cast<uint8_t>(data));
    }
    if ((paddr >> kPageShift) == block.page) {
      // The store hit this block's own code page: anything predecoded past
      // this instruction may be stale, so finish the retire and redispatch
      // (the bumped page version forces a rebuild from current bytes).
      leave_block = true;
    }
  } else {
    uint32_t value = 0;
    switch (p->instr.op) {
      case Opcode::kLw:
      case Opcode::kLwp:
        value = memory_.Read32(paddr);
        break;
      case Opcode::kLh:
        value = static_cast<uint32_t>(
            static_cast<int32_t>(static_cast<int16_t>(memory_.Read16(paddr))));
        break;
      case Opcode::kLhu:
        value = memory_.Read16(paddr);
        break;
      case Opcode::kLb:
        value = static_cast<uint32_t>(
            static_cast<int32_t>(static_cast<int8_t>(memory_.Read8(paddr))));
        break;
      case Opcode::kLbu:
        value = memory_.Read8(paddr);
        break;
      default:
        HBFT_CHECK(false);
    }
    cpu_.set_gpr(p->instr.rd, value);
  }
  goto retire;
}

h_Beq:
  if (rs1 == rs2) {
    next_pc = p->target;
  }
  goto retire;
h_Bne:
  if (rs1 != rs2) {
    next_pc = p->target;
  }
  goto retire;
h_Blt:
  if (static_cast<int32_t>(rs1) < static_cast<int32_t>(rs2)) {
    next_pc = p->target;
  }
  goto retire;
h_Bge:
  if (static_cast<int32_t>(rs1) >= static_cast<int32_t>(rs2)) {
    next_pc = p->target;
  }
  goto retire;
h_Bltu:
  if (rs1 < rs2) {
    next_pc = p->target;
  }
  goto retire;
h_Bgeu:
  if (rs1 >= rs2) {
    next_pc = p->target;
  }
  goto retire;

h_Jal:
  // PA-RISC branch-and-link quirk: privilege in the low link bits.
  cpu_.set_gpr(p->instr.rd, (pc + 4) | cpu_.priv());
  next_pc = p->target;
  goto retire;
h_Jalr:
  next_pc = (rs1 + imm_u) & ~3u;  // Low bits masked on use.
  cpu_.set_gpr(p->instr.rd, (pc + 4) | cpu_.priv());
  goto retire;

h_Syscall:
  trap_cause = TrapCause::kSyscall;
  trap_vaddr = 0;
  goto trap;
h_Break:
  trap_cause = TrapCause::kBreak;
  trap_vaddr = 0;
  goto trap;

h_Rfi: {
  idle_clean_ = false;
  uint32_t status = cpu_.cr[kCrStatus];
  uint32_t prev_priv = (status & StatusBits::kPrevPrivMask) >> StatusBits::kPrevPrivShift;
  bool prev_ie = (status & StatusBits::kPrevIe) != 0;
  status &= ~(StatusBits::kPrivMask | StatusBits::kIe);
  status |= prev_priv;
  if (prev_ie) {
    status |= StatusBits::kIe;
  }
  cpu_.cr[kCrStatus] = status;
  next_pc = cpu_.cr[kCrEpc];
  goto retire;
}

h_Mfcr: {
  uint32_t cr = imm_u & 0xFF;
  if (cr >= kNumControlRegs) {
    trap_cause = TrapCause::kIllegalInstruction;
    trap_vaddr = 0;
    goto trap;
  }
  if (IsEnvironmentCr(cr)) {
    goto env_exit;
  }
  // The counters read as the slow path holds them: net of the `index`
  // retirements this block has not committed yet.
  uint32_t value;
  if (cr == kCrRctr) {
    value = static_cast<uint32_t>(rctr_enabled_ ? rctr_ - static_cast<int64_t>(index) : rctr_);
  } else if (cr == kCrInstret) {
    value = static_cast<uint32_t>(cpu_.instret + index);
  } else {
    value = cpu_.cr[cr];
  }
  cpu_.set_gpr(p->instr.rd, value);
  goto retire;
}
h_Mtcr: {
  uint32_t cr = imm_u & 0xFF;
  if (cr >= kNumControlRegs) {
    trap_cause = TrapCause::kIllegalInstruction;
    trap_vaddr = 0;
    goto trap;
  }
  if (IsEnvironmentCr(cr)) {
    goto env_exit;
  }
  idle_clean_ = false;
  if (cr == kCrEirr) {
    cpu_.cr[kCrEirr] &= ~rs1;  // Write-1-to-clear.
  } else if (cr == kCrRctr) {
    // Re-based so the commit at block end, which subtracts this block's
    // retirements including this one, leaves the written value minus one.
    rctr_ = static_cast<int64_t>(static_cast<int32_t>(rs1)) +
            (rctr_enabled_ ? static_cast<int64_t>(index) : 0);
  } else if (cr == kCrInstret) {
    // Read-only; writes ignored.
  } else {
    cpu_.cr[cr] = rs1;
  }
  goto retire;
}

h_Tlbi: {
  idle_clean_ = false;
  uint32_t pte = rs2;
  constexpr uint32_t kWiredBit = 1u << 4;  // Software convention.
  tlb_.Insert(rs1 >> kPageShift, pte, (pte & kWiredBit) != 0);
  goto retire;
}
h_Tlbf:
  idle_clean_ = false;
  tlb_.FlushUnwired();
  goto retire;

h_Probe: {
  // Same contract as the slow path: TLB misses trap, other failures yield 0.
  Translation tr = Translate(rs1, Access::kLoad);
  if (!tr.ok && tr.cause == TrapCause::kTlbMissLoad) {
    trap_cause = tr.cause;
    trap_vaddr = rs1;
    goto trap;
  }
  cpu_.set_gpr(p->instr.rd, tr.ok ? 1 : 0);
  goto retire;
}

h_Halt:
  // HALT retires (the recovery counter still ticks) but its exit outranks a
  // simultaneous recovery expiry, exactly as the slow path orders it.
  CommitBlock(next_pc, index + 1, credit_fetch ? index : 0, executed);
  exit->kind = ExitKind::kHalt;
  exit->executed = *executed;
  exit->pc = pc;
  return BlockOutcome::kReturn;

h_Invalid:
  HBFT_CHECK(false) << "undecodable opcode inside a superblock";
  goto stop;

retire:
  pc = next_pc;
  ++index;
  if (!leave_block) {
    goto front;
  }

stop:
  // Block end, budget, recovery expiry or a code-page store: `index` >= 1
  // instructions retired, and every one after the first skipped the slow
  // path's (always hitting) fetch lookup.
  CommitBlock(pc, index, credit_fetch ? index - 1 : 0, executed);
  if (rctr_enabled_ && rctr_ < 0) {
    exit->kind = ExitKind::kRecovery;
    exit->executed = *executed;
    exit->pc = pc;
    return BlockOutcome::kReturn;
  }
  return BlockOutcome::kContinue;

env_exit:
  CommitBlock(pc, index, credit_fetch ? index : 0, executed);
  idle_observing_ = false;
  exit->kind = ExitKind::kEnvCr;
  exit->executed = *executed;
  exit->pc = pc;
  exit->instr = p->instr;
  exit->instr_valid = true;
  return BlockOutcome::kReturn;

trap:
  // The trapping instruction does not retire, but its fetch was looked up.
  CommitBlock(pc, index, credit_fetch ? index : 0, executed);
  if (!DeliverTrap(trap_cause, pc, trap_vaddr, &p->instr, exit, executed)) {
    exit->executed = *executed;
    return BlockOutcome::kReturn;
  }
  return BlockOutcome::kContinue;
}

#undef HBFT_OPCODE_HANDLERS

}  // namespace hbft
