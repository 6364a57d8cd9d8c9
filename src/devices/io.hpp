// Device-generic I/O types: the vocabulary shared by the hypervisor, the
// replication protocol, the interconnect, and the environment observer.
//
// The paper states its protocol (P1-P7) over two I/O axioms, not over any
// particular device:
//   IO1: an issued-and-performed operation raises a completion interrupt;
//   IO2: an uncertain completion means the operation may or may not have been
//        performed, and drivers must re-issue (devices tolerate repetition).
// Everything in this header is therefore device-agnostic. A device is known
// to the core and sim layers only by its DeviceId, its IoDescriptor-shaped
// initiations, and its IoCompletionPayload-shaped completions; the concrete
// register models and environment backends live behind the VirtualDevice /
// DeviceBackend interfaces (devices/virtual_device.hpp).
#ifndef HBFT_DEVICES_IO_HPP_
#define HBFT_DEVICES_IO_HPP_

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/time.hpp"

namespace hbft {

// Stable identity of a device class within a node's registry. Values are
// wire-visible (relayed completions carry the id implicitly through the IRQ
// line); keep them stable.
enum class DeviceId : uint32_t {
  kNone = 0,
  kDisk = 1,
  kConsole = 2,
  kNic = 3,
};

const char* DeviceIdName(DeviceId id);

// A guest-initiated I/O operation, produced by a device model when the guest
// writes the device's "go" register and consumed by the replication layer,
// which decides whether to drive the real backend (active replica) or
// suppress and record it (standing backup). Every field is a deterministic
// function of the guest instruction stream, so primary and backup produce
// identical descriptors.
struct IoDescriptor {
  DeviceId device_id = DeviceId::kNone;
  uint64_t guest_op_seq = 0;  // Node-wide deterministic initiation counter.
  uint32_t opcode = 0;        // Device-specific operation code.
  uint32_t arg0 = 0;          // Device-specific (disk: block, NIC: length).
  uint32_t arg1 = 0;          // Device-specific (disk/NIC: DMA paddr).
  std::vector<uint8_t> payload;  // Outbound data snapshot taken at issue.
};

// A virtual I/O completion: buffered by the hypervisor for delivery at the
// end of the epoch, relayed to backups as the payload of an [E, Int]
// message, and applied to the guest-visible device registers by the owning
// device model (VirtualDevice::ApplyCompletion). `device_irq` is the EIRR
// line bit and doubles as the registry dispatch key.
struct IoCompletionPayload {
  uint32_t device_irq = 0;     // IrqLine bit for the device (dispatch key).
  uint64_t guest_op_seq = 0;   // The guest-visible I/O sequence number.
  uint32_t result_code = 0;    // Virtual device result register value.
  bool has_dma_data = false;
  uint32_t dma_guest_paddr = 0;
  std::vector<uint8_t> dma_data;
};

// Transient-fault injection, symmetric across devices: each completion
// independently becomes uncertain with `uncertain_probability`; when
// uncertain, the operation was actually performed with probability
// `performed_when_uncertain` (IO2 made concrete and testable).
struct FaultPlan {
  double uncertain_probability = 0.0;
  double performed_when_uncertain = 0.5;
};

// One environment-visible event, device-tagged so a single generalised
// checker can verify the paper's transparency criterion per device
// (sim/environment_observer.hpp). Backends append these as the environment
// sees their operations (DeviceBackend::trace()); it is the only record of
// device output. `op_hash` identifies the operation including its content:
// two entries with equal hashes are the same operation repeated (which
// IO1/IO2 license inside the in-flight window); unequal hashes are different
// operations.
struct EnvTraceEntry {
  DeviceId device_id = DeviceId::kNone;
  int issuer = 0;                  // Node id that drove the operation.
  bool performed = false;          // Whether the environment actually saw it.
  uint32_t opcode = 0;             // IoDescriptor::opcode (disk: read or write).
  uint32_t block = 0;              // Disk block.
  SimTime time = SimTime::Zero();  // Console/NIC: the issuer's clock at the latch.
  std::vector<uint8_t> bytes;      // NIC: the latched packet.
  uint64_t op_hash = 0;            // Operation identity incl. content (console: the char).
};

// Canonical snapshot codecs for the I/O vocabulary, shared by the hypervisor
// snapshot (buffered interrupts), the node resync payload (outstanding
// operations), and their fuzz tests. Defined in virtual_device.cpp.
void CaptureIoDescriptor(SnapshotWriter& w, const IoDescriptor& io);
bool RestoreIoDescriptor(SnapshotReader& r, IoDescriptor* io);
void CaptureIoCompletion(SnapshotWriter& w, const IoCompletionPayload& io);
bool RestoreIoCompletion(SnapshotReader& r, IoCompletionPayload* io);

}  // namespace hbft

#endif  // HBFT_DEVICES_IO_HPP_
