// LatchedOutputBackend: the shared environment-side machinery for devices
// whose output commits at issue (console bytes, NIC packets).
//
// Such a device latches its payload into the environment the moment the
// guest's "go" register write reaches the backend; the completion interrupt
// merely reports the latch result a transmit time later. IO2 enters at the
// latch: the fault plan can make the completion uncertain, deciding then
// whether the output actually reached the environment — the driver
// retransmits, and the environment tolerates the bounded duplicate window
// (at a transient fault or at failover alike). Subclasses provide only the
// latch itself and the completion IRQ line.
#ifndef HBFT_DEVICES_LATCHED_OUTPUT_HPP_
#define HBFT_DEVICES_LATCHED_OUTPUT_HPP_

#include <cstdint>
#include <map>

#include "common/rng.hpp"
#include "devices/virtual_device.hpp"

namespace hbft {

class LatchedOutputBackend : public DeviceBackend {
 public:
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  void set_tx_latency(SimTime latency) { tx_latency_ = latency; }

  Issued Issue(const IoDescriptor& io, int issuer) final;
  IoCompletionPayload Complete(uint64_t op_id, const IoDescriptor& io) final;

  // Output already committed at issue: a crash poses no IO2 question
  // (crash_resolvable stays false, so the world draws no resolution), but
  // the latch result of the vanished completion is dropped here.
  void ResolveAtCrash(uint64_t op_id, bool performed) override {
    (void)performed;
    in_flight_result_.erase(op_id);
  }

 protected:
  LatchedOutputBackend(uint64_t seed, uint64_t salt) : rng_(seed ^ salt) {}

  // Commits `payload` to the environment: completes `entry` (issuer, opcode
  // and latch time are filled) with the device's identity of the output and
  // records it.
  virtual void Latch(const std::vector<uint8_t>& payload, EnvTraceEntry entry) = 0;
  // The EIRR line completions of this device raise.
  virtual uint32_t completion_irq() const = 0;
  // The single opcode this device accepts.
  virtual uint32_t accepted_opcode() const = 0;

 private:
  DeterministicRng rng_;
  FaultPlan fault_plan_;
  SimTime tx_latency_ = SimTime::Zero();
  uint64_t next_op_id_ = 1;
  std::map<uint64_t, uint32_t> in_flight_result_;  // op id -> result code.
};

}  // namespace hbft

#endif  // HBFT_DEVICES_LATCHED_OUTPUT_HPP_
