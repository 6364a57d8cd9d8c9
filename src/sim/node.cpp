#include "sim/node.hpp"

#include "common/check.hpp"

namespace hbft {

BareNode::BareNode(int id, const GuestProgram& guest, const MachineConfig& machine_config,
                   const CostModel& costs, std::unique_ptr<DeviceRegistry> devices,
                   EventScheduler* scheduler)
    : id_(id),
      costs_(costs),
      devices_(std::move(devices)),
      machine_([&] {
        MachineConfig mc = machine_config;
        mc.trap_mode = TrapMode::kDirect;
        mc.machine_seed = machine_config.machine_seed * 1000003ULL + static_cast<uint64_t>(id);
        return mc;
      }()),
      scheduler_(scheduler) {
  HBFT_CHECK(guest.image != nullptr);
  HBFT_CHECK(devices_ != nullptr);
  machine_.LoadImage(*guest.image);
  machine_.cpu().pc = guest.entry_pc;
  machine_.cpu().cr[kCrStatus] = 0;  // Real privilege 0, VM off, IE off.
  if (guest.wait_loop_end > guest.wait_loop_begin) {
    machine_.ConfigureIdleLoop(guest.wait_loop_begin, guest.wait_loop_end);
  }
}

void BareNode::RunSlice(SimTime until) {
  while (!halted_ && clock_ < until) {
    // Cap the horizon by events scheduled during this very slice (device
    // completions, the interval timer).
    SimTime horizon = scheduler_->NextEventTime();
    if (horizon > until) {
      horizon = until;
    }
    if (clock_ >= horizon) {
      return;
    }
    uint64_t budget =
        static_cast<uint64_t>((horizon - clock_).picos() / costs_.instruction_cost.picos()) + 1;
    MachineExit exit = machine_.Run(budget);
    clock_ += costs_.instruction_cost * static_cast<int64_t>(exit.executed);
    switch (exit.kind) {
      case ExitKind::kLimit:
        break;
      case ExitKind::kHalt:
        halted_ = true;
        return;
      case ExitKind::kEnvCr:
        HandleEnvCr(exit);
        break;
      case ExitKind::kMmio:
        HandleMmio(exit);
        break;
      case ExitKind::kRecovery:
      case ExitKind::kGuestTrap:
        HBFT_CHECK(false) << "bare machine produced hypervisor-only exit";
    }
  }
}

void BareNode::HandleEnvCr(const MachineExit& exit) {
  const DecodedInstr& instr = exit.instr;
  uint32_t cr = static_cast<uint32_t>(instr.imm) & 0xFF;
  CpuState& cpu = machine_.cpu();
  if (instr.op == Opcode::kMfcr) {
    uint32_t value = 0;
    switch (cr) {
      case kCrTod:
        value = static_cast<uint32_t>(costs_.TodFromTime(clock_));
        break;
      case kCrItmr:
        value = static_cast<uint32_t>(itmr_value_);
        break;
      case kCrPrid:
        value = static_cast<uint32_t>(id_);
        break;
      default:
        HBFT_CHECK(false);
    }
    cpu.set_gpr(instr.rd, value);
  } else {
    HBFT_CHECK(instr.op == Opcode::kMtcr);
    uint32_t value = cpu.gpr[instr.rs1];
    if (cr == kCrItmr) {
      itmr_value_ = value;
      timer_armed_ = true;
      uint64_t generation = ++timer_generation_;
      SimTime fire = costs_.TimeFromTod(static_cast<int64_t>(value));
      if (fire <= clock_) {
        timer_armed_ = false;
        machine_.RaiseIrq(kIrqTimer);
      } else {
        scheduler_->ScheduleAt(fire, [this, generation] {
          if (!halted_ && timer_armed_ && generation == timer_generation_) {
            timer_armed_ = false;
            machine_.RaiseIrq(kIrqTimer);
          }
        });
      }
    }
    // Writes to TOD/PRID are ignored (host-owned).
  }
  Retire(exit.pc + 4);
}

void BareNode::HandleMmio(const MachineExit& exit) {
  const DecodedInstr& instr = exit.instr;
  uint32_t paddr = exit.mmio_paddr;
  VirtualDevice* device = devices_->by_mmio(paddr);
  HBFT_CHECK(device != nullptr) << "MMIO access outside device windows";
  const uint32_t offset = paddr - device->mmio_base();

  if (exit.mmio_is_store) {
    VirtualDevice::StoreResult result = device->MmioStore(offset, exit.mmio_value, machine_);
    HBFT_CHECK(!result.fault) << "bad " << device->name() << " register store offset " << offset;
    if (result.initiate) {
      result.io.guest_op_seq = next_op_seq_++;
      DeviceBackend* backend = device->backend();
      HBFT_CHECK(backend != nullptr) << device->name() << " has no backend";
      DeviceBackend::Issued issued = backend->Issue(std::move(result.io), id_, clock_);
      const uint64_t op_id = issued.op_id;
      SimTime completion = clock_ + issued.latency;
      scheduler_->ScheduleAt(completion, [this, device, backend, op_id, completion] {
        if (halted_) {
          return;
        }
        if (clock_ < completion) {
          clock_ = completion;
        }
        // Applied immediately: the bare machine has no epoch boundaries.
        device->ApplyCompletion(backend->Complete(op_id), machine_);
      });
    }
  } else {
    machine_.cpu().set_gpr(instr.rd, device->MmioLoad(offset));
  }
  Retire(exit.pc + 4);
}

void BareNode::InjectInput(DeviceId device_id, const std::vector<uint8_t>& payload, SimTime t) {
  if (halted_) {
    return;
  }
  (void)t;  // The device latches asynchronously; the node clock is unaffected,
            // but the interrupt is visible from the next RunSlice.
  VirtualDevice* device = devices_->by_id(device_id);
  HBFT_CHECK(device != nullptr);
  IoCompletionPayload completion;
  if (!device->MakeInputCompletion(payload, &completion)) {
    return;
  }
  device->ApplyCompletion(completion, machine_);
}

}  // namespace hbft
