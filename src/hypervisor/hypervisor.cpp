#include "hypervisor/hypervisor.hpp"

#include "common/check.hpp"
#include "common/logging.hpp"

namespace hbft {

namespace {

// Coverage of the guest's linear page table (MiniOS maps vpns 0..0x3FF); the
// TLB-fill walk treats any vpn past it as unmapped.
constexpr uint32_t kPageTableEntries = 1024;

}  // namespace

Hypervisor::Hypervisor(const MachineConfig& machine_config, const HypervisorConfig& hv_config,
                       const CostModel& costs, std::unique_ptr<DeviceRegistry> devices)
    : machine_config_(machine_config), hv_config_(hv_config), costs_(costs),
      devices_(devices != nullptr ? std::move(devices) : CreateDefaultRegistry()),
      machine_([&] {
        MachineConfig mc = machine_config;
        mc.trap_mode = TrapMode::kHostFirst;
        return mc;
      }()) {}

uint32_t Hypervisor::VirtualStatusFromReal(uint32_t real) const {
  // Real privilege 1 carries "virtual privilege 0" (paper section 3.1).
  uint32_t virt = real;
  if ((virt & StatusBits::kPrivMask) == 1) {
    virt &= ~StatusBits::kPrivMask;
  }
  uint32_t prev = (virt & StatusBits::kPrevPrivMask) >> StatusBits::kPrevPrivShift;
  if (prev == 1) {
    virt &= ~StatusBits::kPrevPrivMask;
  }
  return virt;
}

uint32_t Hypervisor::RealStatusFromVirtual(uint32_t virt) const {
  // Virtual privilege 0 runs at real 1; 3 at 3. Like HP-UX, the guest must
  // not use levels 1 and 2 (they collapse onto 1 and 3 respectively).
  auto map = [](uint32_t p) -> uint32_t { return p == 0 ? 1 : (p == 2 ? 3 : p); };
  uint32_t real = virt;
  uint32_t priv = map(virt & StatusBits::kPrivMask);
  uint32_t prev = map((virt & StatusBits::kPrevPrivMask) >> StatusBits::kPrevPrivShift);
  real &= ~(StatusBits::kPrivMask | StatusBits::kPrevPrivMask);
  real |= priv;
  real |= prev << StatusBits::kPrevPrivShift;
  return real;
}

std::optional<uint32_t> Hypervisor::WalkPageTable(uint32_t vaddr) const {
  uint32_t vpn = vaddr >> kPageShift;
  if (vpn >= kPageTableEntries) {
    return std::nullopt;
  }
  const PhysicalMemory& memory = machine_.memory();
  uint32_t pt_base = machine_.cpu().cr[kCrPtbase];
  uint32_t pte_addr = pt_base + vpn * 4;
  if (!memory.Contains(pte_addr, 4)) {
    return std::nullopt;
  }
  return memory.Read32(pte_addr);
}

void Hypervisor::ReflectTrap(TrapCause cause, uint32_t epc, uint32_t vaddr) {
  clock_ += costs_.hv_trap_reflect_cost;
  ++stats_.traps_reflected;
  machine_.VectorTrap(cause, epc, vaddr, /*handler_priv=*/1);
}

void Hypervisor::MaybeVectorInterrupt() {
  if (machine_.pending_irqs() != 0 && machine_.cpu().interrupts_enabled()) {
    ReflectTrap(TrapCause::kInterrupt, machine_.cpu().pc, 0);
  }
}

void Hypervisor::RetireSimulatedInstr(uint32_t next_pc) {
  if (machine_.RetireSimulated(next_pc)) {
    epoch_end_pending_ = true;
  }
}

void Hypervisor::BeginEpoch() {
  machine_.SetRecoveryCounter(static_cast<int64_t>(hv_config_.epoch_length));
  machine_.SetRctrEnabled(true);
}

void Hypervisor::BufferInterrupt(const VirtualInterrupt& interrupt) {
  buffered_.push_back(interrupt);
}

uint32_t Hypervisor::DeliverEpochInterrupts(
    uint64_t epoch, uint64_t tme,
    const std::function<void(const VirtualInterrupt&)>& on_delivered) {
  uint32_t delivered = 0;
  // Interval-timer interrupts are generated from the epoch's Tme value, never
  // relayed: both replicas evaluate the same comparison (rules P2/P5).
  if (timer_armed_ && tme >= virtual_itmr_) {
    timer_armed_ = false;
    machine_.RaiseIrq(kIrqTimer);
    clock_ += costs_.hv_interrupt_deliver_cost;
    ++delivered;
  }
  while (!buffered_.empty() && buffered_.front().epoch <= epoch) {
    const VirtualInterrupt& vi = buffered_.front();
    // Generic delivery: the owning device model applies the completion
    // (registers, virtualised DMA, IRQ line) — no per-device cases here.
    HBFT_CHECK(vi.io.has_value());
    VirtualDevice* device = devices_->by_irq(vi.irq_line);
    HBFT_CHECK(device != nullptr) << "no device for buffered irq line " << vi.irq_line;
    device->ApplyCompletion(*vi.io, machine_);
    if (on_delivered) {
      on_delivered(vi);
    }
    buffered_.pop_front();
    clock_ += costs_.hv_interrupt_deliver_cost;
    ++delivered;
    ++stats_.interrupts_delivered;
  }
  MaybeVectorInterrupt();
  return delivered;
}

void Hypervisor::CaptureState(SnapshotWriter& w, bool include_memory) const {
  HBFT_CHECK(pending_ == PendingKind::kNone)
      << "hypervisor state captured mid-decision (pending TOD read or I/O command)";
  machine_.CaptureState(w, include_memory);
  w.I64(clock_.picos());
  w.U64(virtual_itmr_);
  w.Bool(timer_armed_);
  w.U64(next_guest_op_seq_);
  w.Bool(epoch_end_pending_);
  w.U32(static_cast<uint32_t>(buffered_.size()));
  for (const VirtualInterrupt& vi : buffered_) {
    w.U32(vi.irq_line);
    w.U64(vi.epoch);
    w.Bool(vi.io.has_value());
    if (vi.io.has_value()) {
      CaptureIoCompletion(w, *vi.io);
    }
  }
  devices_->CaptureState(w);
}

bool Hypervisor::RestoreState(SnapshotReader& r, bool include_memory) {
  if (!machine_.RestoreState(r, include_memory)) {
    return false;
  }
  int64_t clock_picos = 0;
  if (!r.I64(&clock_picos) || !r.U64(&virtual_itmr_) || !r.Bool(&timer_armed_) ||
      !r.U64(&next_guest_op_seq_) || !r.Bool(&epoch_end_pending_)) {
    return false;
  }
  clock_ = SimTime::Picos(clock_picos);
  uint32_t buffered_count = 0;
  if (!r.U32(&buffered_count)) {
    return false;
  }
  buffered_.clear();
  for (uint32_t i = 0; i < buffered_count; ++i) {
    VirtualInterrupt vi;
    bool has_io = false;
    if (!r.U32(&vi.irq_line) || !r.U64(&vi.epoch) || !r.Bool(&has_io)) {
      return false;
    }
    if (has_io) {
      IoCompletionPayload io;
      if (!RestoreIoCompletion(r, &io)) {
        return false;
      }
      vi.io = std::move(io);
    }
    buffered_.push_back(std::move(vi));
  }
  pending_ = PendingKind::kNone;
  return devices_->RestoreState(r);
}

std::vector<VirtualInterrupt> Hypervisor::PurgeBufferedAfter(uint64_t epoch) {
  std::vector<VirtualInterrupt> purged;
  std::deque<VirtualInterrupt> kept;
  for (VirtualInterrupt& vi : buffered_) {
    if (vi.epoch > epoch) {
      purged.push_back(std::move(vi));
    } else {
      kept.push_back(std::move(vi));
    }
  }
  buffered_ = std::move(kept);
  return purged;
}

void Hypervisor::CompleteTodRead(uint64_t tod_value) {
  HBFT_CHECK(pending_ == PendingKind::kTodRead);
  pending_ = PendingKind::kNone;
  machine_.cpu().set_gpr(pending_instr_.rd, static_cast<uint32_t>(tod_value));
  RetireSimulatedInstr(pending_pc_ + 4);
}

void Hypervisor::CompleteIoCommand() {
  HBFT_CHECK(pending_ == PendingKind::kIoCommand);
  pending_ = PendingKind::kNone;
  RetireSimulatedInstr(pending_pc_ + 4);
}

GuestEvent Hypervisor::RunGuest(SimTime until) {
  HBFT_CHECK(pending_ == PendingKind::kNone)
      << "RunGuest while a TOD read / IO command is still pending";
  GuestEvent event;
  while (true) {
    if (epoch_end_pending_) {
      epoch_end_pending_ = false;
      event.kind = GuestEvent::Kind::kEpochEnd;
      return event;
    }
    if (clock_ >= until) {
      event.kind = GuestEvent::Kind::kNone;
      return event;
    }
    uint64_t budget =
        static_cast<uint64_t>((until - clock_).picos() / costs_.instruction_cost.picos()) + 1;
    MachineExit exit = machine_.Run(budget);
    clock_ += costs_.instruction_cost * static_cast<int64_t>(exit.executed);
    switch (exit.kind) {
      case ExitKind::kLimit:
        break;  // Loop re-checks the horizon.
      case ExitKind::kRecovery:
        event.kind = GuestEvent::Kind::kEpochEnd;
        return event;
      case ExitKind::kHalt:
        // Unreachable in kHostFirst (HALT is privileged and the guest never
        // runs at real privilege 0), but harmless to honour.
        event.kind = GuestEvent::Kind::kHalted;
        return event;
      case ExitKind::kGuestTrap: {
        GuestEvent trap_event = HandleTrap(exit);
        if (trap_event.kind != GuestEvent::Kind::kNone) {
          return trap_event;
        }
        break;
      }
      case ExitKind::kEnvCr:
      case ExitKind::kMmio:
        HBFT_CHECK(false) << "kHostFirst machine produced a kDirect-only exit";
    }
  }
}

GuestEvent Hypervisor::HandleTrap(const MachineExit& exit) {
  GuestEvent none;
  switch (exit.cause) {
    case TrapCause::kPrivilegeViolation: {
      uint32_t real_priv = machine_.cpu().priv();
      if (real_priv == 1) {
        // Virtual privilege 0: simulate the instruction.
        return SimulatePrivileged(exit);
      }
      // Genuine guest-level violation (virtual user mode): reflect.
      ReflectTrap(exit.cause, exit.pc, exit.vaddr);
      return none;
    }

    case TrapCause::kTlbMissFetch:
    case TrapCause::kTlbMissLoad:
    case TrapCause::kTlbMissStore: {
      if (!hv_config_.tlb_takeover) {
        // Ablation mode: hand the miss to the guest's refill handler, exactly
        // what made the nondeterministic TLB visible in the paper.
        ReflectTrap(exit.cause, exit.pc, exit.vaddr);
        return none;
      }
      clock_ += costs_.hv_tlb_fill_cost;
      auto pte = WalkPageTable(exit.vaddr);
      if (pte.has_value() && (*pte & Pte::kValid) != 0) {
        ++stats_.tlb_fills;
        machine_.tlb().Insert(exit.vaddr >> kPageShift, *pte, /*wired=*/false);
        return none;  // Instruction re-executes; invisible to the guest.
      }
      ReflectTrap(TrapCause::kPageFault, exit.pc, exit.vaddr);
      return none;
    }

    case TrapCause::kProtectionFault: {
      // Either an MMIO access (privilege rule) or a real protection error.
      uint32_t paddr = exit.vaddr;
      if (machine_.cpu().vm_enabled()) {
        auto pte = WalkPageTable(exit.vaddr);
        if (pte.has_value() && (*pte & Pte::kValid) != 0) {
          paddr = (Pte::PfnOf(*pte) << kPageShift) | (exit.vaddr & (kPageBytes - 1));
        }
      }
      if (IsMmioAddress(paddr) && exit.instr_valid) {
        return HandleMmio(paddr, exit.instr, exit.pc);
      }
      ReflectTrap(exit.cause, exit.pc, exit.vaddr);
      return none;
    }

    case TrapCause::kSyscall:
    case TrapCause::kBreak:
      ReflectTrap(exit.cause, exit.pc + 4, 0);
      return none;

    case TrapCause::kIllegalInstruction:
    case TrapCause::kUnalignedAccess:
    case TrapCause::kPageFault:
    case TrapCause::kDivideByZero:
      ReflectTrap(exit.cause, exit.pc, exit.vaddr);
      return none;

    case TrapCause::kInterrupt:
    case TrapCause::kNone:
      HBFT_CHECK(false) << "unexpected trap cause " << TrapCauseName(exit.cause);
  }
  return none;
}

GuestEvent Hypervisor::SimulatePrivileged(const MachineExit& exit) {
  GuestEvent none;
  const DecodedInstr& instr = exit.instr;
  HBFT_CHECK(exit.instr_valid);
  CpuState& cpu = machine_.cpu();
  const uint32_t rs1_value = cpu.gpr[instr.rs1];
  clock_ += costs_.hv_priv_sim_cost;
  ++stats_.privileged_simulated;

  switch (instr.op) {
    case Opcode::kMfcr: {
      uint32_t cr = static_cast<uint32_t>(instr.imm) & 0xFF;
      switch (cr) {
        case kCrTod: {
          // Environment value: the replication layer must provide it.
          pending_ = PendingKind::kTodRead;
          pending_instr_ = instr;
          pending_pc_ = exit.pc;
          GuestEvent event;
          event.kind = GuestEvent::Kind::kTodRead;
          return event;
        }
        case kCrStatus:
          cpu.set_gpr(instr.rd, VirtualStatusFromReal(cpu.cr[kCrStatus]));
          break;
        case kCrItmr:
          cpu.set_gpr(instr.rd, static_cast<uint32_t>(virtual_itmr_));
          break;
        case kCrPrid:
          // Virtualised: both replicas present processor id 0.
          cpu.set_gpr(instr.rd, 0);
          break;
        case kCrRctr:
          cpu.set_gpr(instr.rd, 0);  // The hypervisor owns the real counter.
          break;
        case kCrInstret:
          cpu.set_gpr(instr.rd, static_cast<uint32_t>(cpu.instret));
          break;
        default:
          HBFT_CHECK_LT(cr, kNumControlRegs);
          cpu.set_gpr(instr.rd, cpu.cr[cr]);
          break;
      }
      RetireSimulatedInstr(exit.pc + 4);
      return none;
    }

    case Opcode::kMtcr: {
      uint32_t cr = static_cast<uint32_t>(instr.imm) & 0xFF;
      switch (cr) {
        case kCrStatus: {
          cpu.cr[kCrStatus] = RealStatusFromVirtual(rs1_value);
          RetireSimulatedInstr(exit.pc + 4);
          MaybeVectorInterrupt();  // IE may have just been enabled.
          return none;
        }
        case kCrItmr:
          virtual_itmr_ = rs1_value;
          timer_armed_ = true;
          break;
        case kCrEirr:
          machine_.AckIrq(rs1_value);
          break;
        case kCrTod:
        case kCrPrid:
        case kCrRctr:
        case kCrInstret:
          break;  // Host-owned or read-only; writes ignored.
        default:
          HBFT_CHECK_LT(cr, kNumControlRegs);
          cpu.cr[cr] = rs1_value;
          break;
      }
      RetireSimulatedInstr(exit.pc + 4);
      return none;
    }

    case Opcode::kRfi: {
      uint32_t status = cpu.cr[kCrStatus];
      uint32_t prev_priv = (status & StatusBits::kPrevPrivMask) >> StatusBits::kPrevPrivShift;
      bool prev_ie = (status & StatusBits::kPrevIe) != 0;
      status &= ~(StatusBits::kPrivMask | StatusBits::kIe);
      status |= prev_priv;
      if (prev_ie) {
        status |= StatusBits::kIe;
      }
      cpu.cr[kCrStatus] = status;
      RetireSimulatedInstr(cpu.cr[kCrEpc]);
      MaybeVectorInterrupt();
      return none;
    }

    case Opcode::kTlbi: {
      uint32_t pte = cpu.gpr[instr.rs2];
      constexpr uint32_t kWiredBit = 1u << 4;
      machine_.tlb().Insert(rs1_value >> kPageShift, pte, (pte & kWiredBit) != 0);
      RetireSimulatedInstr(exit.pc + 4);
      return none;
    }
    case Opcode::kTlbf:
      machine_.tlb().FlushUnwired();
      RetireSimulatedInstr(exit.pc + 4);
      return none;

    case Opcode::kLwp: {
      uint32_t addr = rs1_value + static_cast<uint32_t>(instr.imm);
      HBFT_CHECK(machine_.memory().Contains(addr, 4)) << "lwp out of range under hypervisor";
      cpu.set_gpr(instr.rd, machine_.memory().Read32(addr));
      RetireSimulatedInstr(exit.pc + 4);
      return none;
    }
    case Opcode::kSwp: {
      uint32_t addr = rs1_value + static_cast<uint32_t>(instr.imm);
      HBFT_CHECK(machine_.memory().Contains(addr, 4)) << "swp out of range under hypervisor";
      machine_.memory().Write32(addr, cpu.gpr[instr.rd]);
      RetireSimulatedInstr(exit.pc + 4);
      return none;
    }

    case Opcode::kHalt: {
      GuestEvent event;
      event.kind = GuestEvent::Kind::kHalted;
      return event;
    }

    default:
      HBFT_CHECK(false) << "unexpected privileged opcode in simulation";
  }
  return none;
}

GuestEvent Hypervisor::HandleMmio(uint32_t paddr, const DecodedInstr& instr, uint32_t pc) {
  GuestEvent none;
  CpuState& cpu = machine_.cpu();
  bool is_store = instr.op == Opcode::kSw || instr.op == Opcode::kSh || instr.op == Opcode::kSb;
  bool is_load = instr.op == Opcode::kLw || instr.op == Opcode::kLh || instr.op == Opcode::kLhu ||
                 instr.op == Opcode::kLb || instr.op == Opcode::kLbu;
  if (!is_store && !is_load) {
    ReflectTrap(TrapCause::kProtectionFault, pc, paddr);
    return none;
  }
  clock_ += costs_.hv_priv_sim_cost;  // I/O instructions are simulated too.
  ++stats_.privileged_simulated;

  VirtualDevice* device = devices_->by_mmio(paddr);
  if (device == nullptr) {
    ReflectTrap(TrapCause::kProtectionFault, pc, paddr);
    return none;
  }
  const uint32_t offset = paddr - device->mmio_base();

  if (is_store) {
    VirtualDevice::StoreResult result =
        device->MmioStore(offset, cpu.gpr[instr.rd], machine_);
    if (result.fault) {
      ReflectTrap(TrapCause::kProtectionFault, pc, paddr);
      return none;
    }
    if (result.initiate) {
      // Guest-initiated I/O: the replication layer decides whether to drive
      // the real backend or suppress. The initiating store retires when the
      // decision is made (CompleteIoCommand).
      GuestEvent event;
      event.kind = GuestEvent::Kind::kIoCommand;
      event.io = std::move(result.io);
      event.io.guest_op_seq = next_guest_op_seq_++;
      pending_ = PendingKind::kIoCommand;
      pending_instr_ = instr;
      pending_pc_ = pc;
      return event;
    }
    RetireSimulatedInstr(pc + 4);
    return none;
  }

  // Loads: served from the virtual registers (deterministic).
  cpu.set_gpr(instr.rd, device->MmioLoad(offset));
  RetireSimulatedInstr(pc + 4);
  return none;
}

}  // namespace hbft
