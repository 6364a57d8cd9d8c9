// The pluggable device-model API.
//
// Two interfaces split a device the same way the paper splits the system:
//
//   * VirtualDevice — the PER-NODE, guest-facing register model. It owns one
//     MMIO page and the virtual register state the hypervisor serves reads
//     from. Its state changes only at epoch-synchronised points (guest MMIO
//     stores, completion delivery at epoch boundaries), so it is a pure
//     function of the virtual-machine history and identical on every
//     replica. A guest store to the device's "go" register yields an
//     IoDescriptor initiation, which the replication layer routes (P1/P3).
//
//   * DeviceBackend — the SHARED, environment-facing real device. One
//     instance per world, touched only by the replica that currently drives
//     the devices. It owns every real operation from issue until the
//     operation completes or its issuer crashes: it performs operations,
//     applies the fault plan (IO2's uncertain completions), appends what the
//     environment saw to its one EnvTraceEntry trace, and resolves the
//     operations a crashed issuer left in flight.
//
// The DeviceRegistry holds a node's VirtualDevice instances and dispatches
// by MMIO window, IRQ line, or DeviceId. The hypervisor, the replica roles,
// the bare reference node, and P7's uncertain-interrupt synthesis all
// iterate the registry instead of naming any concrete device.
#ifndef HBFT_DEVICES_VIRTUAL_DEVICE_HPP_
#define HBFT_DEVICES_VIRTUAL_DEVICE_HPP_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/snapshot.hpp"
#include "common/time.hpp"
#include "devices/io.hpp"

namespace hbft {

class Machine;

// The environment side of a device (shared per world). Its one table holds
// each operation from Issue until Complete or ResolveCrash retires it; a
// device supplies only its start, finish and crash-abandon steps.
class DeviceBackend {
 public:
  virtual ~DeviceBackend() = default;

  virtual DeviceId device_id() const = 0;

  struct Issued {
    uint64_t op_id = 0;   // Backend-scoped in-flight handle.
    SimTime latency;      // Virtual time until the completion event.
  };

  // Starts a real operation on behalf of node `issuer`, whose clock reads
  // `now`. Environment-visible output (console characters, NIC packets) is
  // latched here and stamped with `now`, its latch time (the fleet's
  // per-request latency measurements read NIC entry timestamps).
  Issued Issue(IoDescriptor io, int issuer, SimTime now);

  // Finishes an in-flight operation, applying the fault plan, and builds the
  // completion the device model will apply at delivery.
  IoCompletionPayload Complete(uint64_t op_id);

  // Retires every operation `issuer` still has in flight, in op-id order:
  // the issuer crashed, so no completion interrupt will follow. Where the
  // crash leaves IO2's "may or may not have been performed" open (the disk),
  // `performed` is asked once per operation for the environment's verdict;
  // output latched at issue (console, NIC) already reached the environment.
  void ResolveCrash(int issuer, const std::function<bool()>& performed);

  // The descriptors of `issuer`'s in-flight operations, in op-id order.
  std::vector<const IoDescriptor*> InFlight(int issuer) const;

  // Everything the environment saw this device do, in order: the record the
  // transparency checker, the fleet's request matching and the serve
  // frontend's output release all read.
  const std::deque<EnvTraceEntry>& trace() const { return trace_; }

 protected:
  struct Op {
    int issuer = 0;
    IoDescriptor io;      // Moved in at issue: a write's payload exists once.
    uint32_t result = 0;  // Set at issue by devices that decide it then.
  };

  // The device's steps. Start validates the operation, may latch output and
  // decide `op.result`, and returns the latency until completion. Finish
  // builds the completion. Abandon settles an operation whose issuer crashed.
  virtual SimTime Start(Op& op, SimTime now) = 0;
  virtual IoCompletionPayload Finish(const Op& op) = 0;
  virtual void Abandon(const Op& /*op*/, const std::function<bool()>& /*performed*/) {}

  // Tags `entry` with this device's id and appends it to the trace.
  const EnvTraceEntry& Record(EnvTraceEntry entry);

 private:
  uint64_t next_op_id_ = 1;
  std::map<uint64_t, Op> in_flight_;
  // A deque: entries never move, so Record's reference stays valid, and
  // growth leaves no outgrown buffers behind (with a vector, the fleet-storm
  // benchmark's 32 chains peaked about 0.3 MB higher).
  std::deque<EnvTraceEntry> trace_;
};

// The guest-facing side of a device (one instance per node). Snapshotable:
// the register model is part of the virtual-machine state, so it rides in
// every node snapshot and in the live state transfer that lets a fresh
// backup rejoin the chain.
class VirtualDevice : public Snapshotable {
 public:
  ~VirtualDevice() override = default;

  virtual DeviceId device_id() const = 0;
  virtual const char* name() const = 0;
  virtual uint32_t mmio_base() const = 0;  // One page starting here.
  virtual uint32_t irq_mask() const = 0;   // All EIRR lines this device owns.

  struct StoreResult {
    bool fault = false;     // Store to an unknown register.
    bool initiate = false;  // The store started an I/O operation.
    IoDescriptor io;        // Valid when `initiate`; guest_op_seq unassigned.
  };

  // Guest MMIO access at `offset` within the device window. Stores may
  // mutate registers, acknowledge interrupts, or initiate I/O; loads are
  // served from the virtual registers (unknown offsets read 0, as real
  // controllers' reserved registers do).
  virtual StoreResult MmioStore(uint32_t offset, uint32_t value, Machine& machine) = 0;
  virtual uint32_t MmioLoad(uint32_t offset) const = 0;

  // Applies a completion to the guest-visible state: DMA data lands in guest
  // memory, status/result registers update, the IRQ line rises. Called at a
  // deterministic instruction-stream point (epoch delivery on replicas,
  // completion time on the bare reference machine).
  virtual void ApplyCompletion(const IoCompletionPayload& io, Machine& machine) = 0;

  // P7: the uncertain completion that re-drives an outstanding operation
  // after failover. The guest driver cannot distinguish it from a transient
  // device fault and takes its retry path.
  virtual IoCompletionPayload MakeUncertainCompletion(const IoDescriptor& io) const = 0;

  // Environment input (console characters, NIC packets) shaped as a
  // completion so one delivery mechanism serves every device. Returns false
  // for pure output devices.
  virtual bool MakeInputCompletion(const std::vector<uint8_t>& payload,
                                   IoCompletionPayload* out) const {
    (void)payload, (void)out;
    return false;
  }

  // The shared backend, null for guest-facing-only instantiations (tests).
  DeviceBackend* backend() const { return backend_; }

 protected:
  explicit VirtualDevice(DeviceBackend* backend) : backend_(backend) {}

 private:
  DeviceBackend* backend_;
};

// A node's device set, dispatchable by MMIO window, IRQ line, or id.
// Snapshotable as one unit: capture tags each device model with its id, and
// restore walks this registry's devices in order, rejecting any shape
// mismatch — two registries built by the same DeviceSet always align.
class DeviceRegistry : public Snapshotable {
 public:
  void Add(std::unique_ptr<VirtualDevice> device);

  void CaptureState(SnapshotWriter& w) const override;
  bool RestoreState(SnapshotReader& r) override;

  // All lookups return null when nothing matches.
  VirtualDevice* by_id(DeviceId id) const;
  VirtualDevice* by_irq(uint32_t irq_line) const;
  VirtualDevice* by_mmio(uint32_t paddr) const;

  const std::vector<std::unique_ptr<VirtualDevice>>& devices() const { return devices_; }

 private:
  std::vector<std::unique_ptr<VirtualDevice>> devices_;
};

// The default two-device registry of the paper's prototype (disk + console)
// with no backends attached: guest-facing state machines only. Used by the
// hypervisor when no registry is supplied (unit tests).
std::unique_ptr<DeviceRegistry> CreateDefaultRegistry();

}  // namespace hbft

#endif  // HBFT_DEVICES_VIRTUAL_DEVICE_HPP_
