// The hypervisor: runs one guest virtual machine in kHostFirst trap mode and
// virtualises everything the paper's section 3 virtualises.
//
// Responsibilities (mechanics only; replication policy lives in core/):
//   * privileged-instruction simulation at 15.12 us apiece — the guest kernel
//     executes at real privilege 1 ("virtual privilege 0"), so every
//     privileged instruction traps (paper section 3.1);
//   * trap reflection into the guest at mapped privilege levels;
//   * TLB-miss takeover: the hypervisor walks the guest page table and
//     inserts entries itself so nondeterministic TLB replacement never
//     becomes visible to the guest (paper section 3.2); optionally disabled
//     to reproduce the divergence the paper discovered;
//   * virtual device registers (MMIO pages trap via page protection) and
//     virtualised DMA: data is copied into guest memory only at interrupt
//     delivery, a deterministic point in the instruction stream;
//   * epoch control via the recovery counter, buffering interrupts for
//     delivery at epoch boundaries, identically on primary and backup;
//   * the virtual clock: interval-timer interrupts are evaluated at epoch
//     boundaries against the epoch's Tme value; time-of-day reads surface to
//     the replication layer (environment values).
//
// The replication layer drives the hypervisor through RunGuest(), which
// executes the guest until a policy decision is needed (a GuestEvent), and
// through the delivery/epoch services below.
#ifndef HBFT_HYPERVISOR_HYPERVISOR_HPP_
#define HBFT_HYPERVISOR_HYPERVISOR_HPP_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "devices/virtual_device.hpp"
#include "hypervisor/cost_model.hpp"
#include "hypervisor/virtual_devices.hpp"
#include "machine/machine.hpp"

namespace hbft {

struct HypervisorConfig {
  uint64_t epoch_length = 4096;     // Instructions per epoch (the paper's EL).
  bool tlb_takeover = true;         // Paper's fix; disable for the ablation.
};

// Policy decision points surfaced to the replication layer.
struct GuestEvent {
  enum class Kind {
    kNone,         // Ran until the time horizon; nothing to decide.
    kEpochEnd,     // Recovery counter expired: run the boundary protocol.
    kTodRead,      // Guest read the time-of-day clock (environment value).
    kIoCommand,    // Guest initiated an I/O operation.
    kHalted,       // Guest executed HALT at virtual privilege 0.
  };
  Kind kind = Kind::kNone;
  IoDescriptor io;  // kIoCommand payload.
};

class Hypervisor {
 public:
  // The registry holds this node's guest-facing device models; MMIO traps
  // and epoch-boundary interrupt delivery dispatch through it. When omitted,
  // the default disk+console registry (no backends) is created — enough for
  // everything the hypervisor itself does.
  Hypervisor(const MachineConfig& machine_config, const HypervisorConfig& hv_config,
             const CostModel& costs, std::unique_ptr<DeviceRegistry> devices = nullptr);

  // --- Guest execution ------------------------------------------------------

  // Runs the guest, simulating traps, until a policy event occurs or the
  // local clock reaches `until`. Advances clock() by instruction execution
  // and hypervisor overheads.
  GuestEvent RunGuest(SimTime until);

  // Completes a pending kTodRead with the value the replication layer chose
  // (local clock at the primary; forwarded value at the backup).
  void CompleteTodRead(uint64_t tod_value);

  // Completes a pending kIoCommand (the replication layer has recorded /
  // issued / suppressed it). The initiating MMIO store retires here.
  void CompleteIoCommand();

  // --- Epoch control --------------------------------------------------------

  // Arms the recovery counter for the next epoch.
  void BeginEpoch();

  // Buffers an interrupt for delivery at the end of its epoch.
  void BufferInterrupt(const VirtualInterrupt& interrupt);

  // Synthesises timer interrupts against `tme` (the epoch's clock value) and
  // delivers every interrupt buffered for `epoch`: applies DMA data, updates
  // virtual device registers, raises EIRR lines, and vectors the guest's
  // interrupt trap if interrupts are enabled. `on_delivered` (optional) fires
  // per delivered interrupt — the backup uses it to retire outstanding-I/O
  // records. Returns the number delivered.
  uint32_t DeliverEpochInterrupts(uint64_t epoch, uint64_t tme,
                                  const std::function<void(const VirtualInterrupt&)>& on_delivered =
                                      nullptr);

  // Drops buffered interrupts for epochs > `epoch`. Used at failover: the
  // dead primary may have relayed completions for epochs the backup will
  // never reach through the protocol; the corresponding operations are
  // re-driven via uncertain interrupts instead (rule P7).
  std::vector<VirtualInterrupt> PurgeBufferedAfter(uint64_t epoch);

  // --- State access ---------------------------------------------------------

  SimTime clock() const { return clock_; }
  void AdvanceClock(SimTime amount) { clock_ += amount; }
  void SetClock(SimTime t) { clock_ = t; }

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  DeviceRegistry& devices() { return *devices_; }
  const DeviceRegistry& devices() const { return *devices_; }
  uint64_t virtual_itmr() const { return virtual_itmr_; }
  bool timer_armed() const { return timer_armed_; }
  const CostModel& costs() const { return costs_; }
  const HypervisorConfig& config() const { return hv_config_; }

  // --- Snapshot --------------------------------------------------------------
  //
  // Captures everything the hypervisor virtualises on top of the machine:
  // the virtual clock, the interval-timer state, the guest-op sequence
  // counter, the buffered-interrupt queue, and the device register models —
  // plus the machine itself (with or without RAM; the live state transfer
  // streams RAM separately as dirty-page chunks). Only capturable at a
  // decision-free point (no pending TOD read or I/O command): epoch
  // boundaries qualify, which is where the transfer cuts. Stats are
  // observability, not state, and are excluded.
  void CaptureState(SnapshotWriter& w, bool include_memory) const;
  bool RestoreState(SnapshotReader& r, bool include_memory);

  // Statistics for the performance study.
  struct Stats {
    uint64_t privileged_simulated = 0;  // The paper's n_sim.
    uint64_t traps_reflected = 0;
    uint64_t tlb_fills = 0;
    uint64_t interrupts_delivered = 0;
  };
  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  enum class PendingKind { kNone, kTodRead, kIoCommand };

  // Handles one kGuestTrap machine exit. Returns a policy event when the
  // replication layer must decide; kNone when handled internally.
  GuestEvent HandleTrap(const MachineExit& exit);

  // Simulates a privileged instruction executed at virtual privilege 0.
  GuestEvent SimulatePrivileged(const MachineExit& exit);

  // Serves a virtual-device MMIO access (paddr within a registered device
  // window), dispatching to the owning device model.
  GuestEvent HandleMmio(uint32_t paddr, const DecodedInstr& instr, uint32_t pc);

  // Walks the guest page table for `vaddr`; returns the PTE or nullopt.
  std::optional<uint32_t> WalkPageTable(uint32_t vaddr) const;

  // Reflects a trap into the guest kernel at real privilege 1.
  void ReflectTrap(TrapCause cause, uint32_t epc, uint32_t vaddr);

  // Vectors the guest interrupt trap when lines are pending and IE is set.
  void MaybeVectorInterrupt();

  // Retires the currently-simulated instruction; if the recovery counter
  // expires as a result, records a pending epoch end.
  void RetireSimulatedInstr(uint32_t next_pc);

  uint32_t VirtualStatusFromReal(uint32_t real) const;
  uint32_t RealStatusFromVirtual(uint32_t virt) const;

  HypervisorConfig hv_config_;  // hbft-lint: derived-state — construction-time config; identical on every replica.
  CostModel costs_;  // hbft-lint: derived-state — construction-time config; identical on every replica.
  std::unique_ptr<DeviceRegistry> devices_;
  Machine machine_;
  SimTime clock_ = SimTime::Zero();

  uint64_t virtual_itmr_ = 0;
  bool timer_armed_ = false;
  uint64_t next_guest_op_seq_ = 1;

  std::deque<VirtualInterrupt> buffered_;
  bool epoch_end_pending_ = false;

  PendingKind pending_ = PendingKind::kNone;
  // hbft-lint: derived-state — capture asserts pending_ == kNone, so the
  // decision scratch below never spans a snapshot boundary.
  DecodedInstr pending_instr_;
  uint32_t pending_pc_ = 0;  // hbft-lint: derived-state — see pending_instr_ above.

  Stats stats_;  // hbft-lint: derived-state — diagnostic counters, not replicated guest state.
};

}  // namespace hbft

#endif  // HBFT_HYPERVISOR_HYPERVISOR_HPP_
