// Guest workload programs and their host-side parameterisation.
//
// Workloads mirror the paper's evaluation:
//   kCpu       — the Dhrystone 2.1 stand-in: integer arithmetic, memory
//                copies, branches, and leaf calls in a tight loop (section
//                4.1's CPU-intensive workload).
//   kDiskRead  — random-block reads, each awaited before the next (the read
//                benchmark of section 4.2).
//   kDiskWrite — random-block writes, each awaited (section 4.2).
//   kHello     — quickstart: console output plus a write/read-back check.
//   kTxnLog    — sequentially numbered transaction records to disk with
//                per-record console progress; used by failover scenarios.
//   kEcho      — console echo loop (exercises the RX forwarding path).
//   kHeap      — touches the demand-zero heap (page-fault path).
//   kTime      — repeated time-of-day reads with a monotonicity check
//                (exercises environment-value forwarding).
//
// The calibration knobs reproduce the paper's measured instruction mixes:
// compute_burst is the per-operation block-selection work, driver_loops the
// privileged-instruction depth of the guest's disk driver (HP-UX's SCSI
// stack), tick_loops the privileged work per clock tick.
#ifndef HBFT_GUEST_WORKLOADS_HPP_
#define HBFT_GUEST_WORKLOADS_HPP_

#include <cstdint>

#include "machine/memory.hpp"

namespace hbft {

extern const char* const kWorkloadsSource;

enum class WorkloadKind : uint32_t {
  kCpu = 1,
  kDiskRead = 2,
  kDiskWrite = 3,
  kHello = 4,
  kTxnLog = 5,
  kEcho = 6,
  kHeap = 7,
  kTime = 8,
  kNetEcho = 9,
};

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kCpu;
  uint32_t iterations = 1000;
  uint32_t compute_burst = 0;   // Per-op 4-instruction burst loop count.
  uint32_t driver_loops = 0;    // Privileged instructions per disk command.
  uint32_t tick_loops = 8;      // Privileged instructions per clock tick.
  uint32_t num_blocks = 64;     // Block range for disk workloads.
  uint32_t seed = 12345;        // Guest-side LCG seed for block selection.
  uint32_t tick_period = 100000;  // TOD ticks (100ns): 10 ms clock tick.
  uint32_t verbosity = 0;

  // The paper's CPU-intensive workload scaled by 1/50 (normalized
  // performance is a ratio; scaling preserves the instruction mix).
  static WorkloadSpec PaperCpu();
  // The paper's I/O benchmarks scaled from 2048 to `ops` operations.
  static WorkloadSpec PaperDiskRead(uint32_t ops);
  static WorkloadSpec PaperDiskWrite(uint32_t ops);
  // Packet echo over the NIC: receive `packets` packets, transmit each back.
  static WorkloadSpec NetEcho(uint32_t packets);
};

// Writes the spec into the guest's parameter block.
void PatchWorkloadParams(PhysicalMemory* memory, const WorkloadSpec& spec);

// Whether a workload's guest checksum is timing-free, so a replicated run
// must report the bare run's value. False for kTime, whose checksum is the
// last time-of-day value it read.
bool ChecksumMatchesBare(WorkloadKind kind);

}  // namespace hbft

#endif  // HBFT_GUEST_WORKLOADS_HPP_
