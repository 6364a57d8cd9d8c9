// Dual-ported block disk — the shared SCSI disk of the paper's prototype.
//
// Two classes, per the VirtualDevice split:
//   * Disk — the DeviceBackend: block store, fault plan, environment trace.
//   * DiskDevice — the per-node VirtualDevice: controller registers, DMA
//     snapshot at issue, completion application at epoch delivery.
//
// The device satisfies the paper's I/O interface axioms:
//   IO1: an issued-and-performed operation raises a completion interrupt;
//   IO2: an uncertain completion (SCSI CHECK_CONDITION analogue) means the
//        operation may or may not have been performed.
// Drivers must therefore retry after uncertain completions, and the device
// tolerates re-issued operations (block writes are idempotent). Protocol rule
// P7 exploits exactly this: at failover the backup's hypervisor synthesises
// uncertain interrupts for all outstanding operations.
//
// The disk is passive with respect to time: the simulation issues operations,
// decides when they complete (transfer-time model), and calls Complete().
// Until then the backend owns each operation, write data included. A crash of
// the issuing processor mid-operation is resolved by ResolveCrash, whose
// verdict says whether each abandoned operation was performed — the "may or
// may not" of IO2 made concrete and testable. The disk is the only device
// that asks for that verdict.
#ifndef HBFT_DEVICES_DISK_HPP_
#define HBFT_DEVICES_DISK_HPP_

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "devices/virtual_device.hpp"

namespace hbft {

inline constexpr uint32_t kDiskBlockBytes = 8192;  // The paper's 8K blocks.

// Disk opcodes (IoDescriptor::opcode; equal to the guest CMD register values).
inline constexpr uint32_t kDiskOpRead = 1;
inline constexpr uint32_t kDiskOpWrite = 2;

// Disk controller status bits (guest-visible).
inline constexpr uint32_t kDiskStatusBusy = 1u << 0;
inline constexpr uint32_t kDiskStatusDone = 1u << 1;
inline constexpr uint32_t kDiskStatusCheck = 1u << 2;

// Result register codes.
inline constexpr uint32_t kDiskResultOk = 0;
inline constexpr uint32_t kDiskResultCheckCondition = 1;

class Disk : public DeviceBackend {
 public:
  Disk(uint32_t num_blocks, uint64_t seed);

  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  void set_latencies(SimTime read, SimTime write) {
    read_latency_ = read;
    write_latency_ = write;
  }

  DeviceId device_id() const override { return DeviceId::kDisk; }

  // Direct content access for verification (not a device operation).
  std::vector<uint8_t> PeekBlock(uint32_t block) const;

 private:
  // Completion applies the fault plan and traces the operation, performed
  // or not; an abandoned operation is traced only if the verdict says it
  // was performed.
  SimTime Start(Op& op, SimTime now) override;
  IoCompletionPayload Finish(const Op& op) override;
  void Abandon(const Op& op, const std::function<bool()>& performed) override;

  // Applies a performed write to the medium and traces the operation.
  void Settle(const Op& op, bool performed);

  // Unwritten blocks hold a deterministic per-block pattern so reads are
  // verifiable without priming the disk.
  std::vector<uint8_t> DefaultBlockContent(uint32_t block) const;

  uint32_t num_blocks_ = 0;
  DeterministicRng rng_;
  FaultPlan fault_plan_;
  SimTime read_latency_ = SimTime::Zero();
  SimTime write_latency_ = SimTime::Zero();
  std::map<uint32_t, std::vector<uint8_t>> blocks_;
};

// The per-node disk controller model.
class DiskDevice : public VirtualDevice {
 public:
  // Guest-visible controller registers; see DiskReg in isa/isa.hpp.
  struct State {
    uint32_t reg_block = 0;
    uint32_t reg_count = 1;
    uint32_t reg_dma = 0;
    uint32_t reg_status = 0;
    uint32_t reg_result = 0;
    bool busy = false;
  };

  explicit DiskDevice(DeviceBackend* backend = nullptr) : VirtualDevice(backend) {}

  DeviceId device_id() const override { return DeviceId::kDisk; }
  const char* name() const override { return "disk"; }
  uint32_t mmio_base() const override;
  uint32_t irq_mask() const override;

  StoreResult MmioStore(uint32_t offset, uint32_t value, Machine& machine) override;
  uint32_t MmioLoad(uint32_t offset) const override;
  void ApplyCompletion(const IoCompletionPayload& io, Machine& machine) override;
  IoCompletionPayload MakeUncertainCompletion(const IoDescriptor& io) const override;

  void CaptureState(SnapshotWriter& w) const override;
  bool RestoreState(SnapshotReader& r) override;

  const State& state() const { return state_; }

 private:
  State state_;
};

}  // namespace hbft

#endif  // HBFT_DEVICES_DISK_HPP_
