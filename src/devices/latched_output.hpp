// LatchedOutputBackend: the shared environment-side machinery for devices
// whose output commits at issue (console bytes, NIC packets).
//
// Such a device latches its payload into the environment the moment the
// guest's "go" register write reaches the backend; the completion interrupt
// merely reports the latch result a transmit time later. IO2 enters at the
// latch: the fault plan can make the completion uncertain, deciding then
// whether the output actually reached the environment — the driver
// retransmits, and the environment tolerates the bounded duplicate window
// (at a transient fault or at failover alike). The backend owns each
// operation until it completes or its issuer crashes; a crash poses no IO2
// question, since the latch already decided what the environment saw, so
// the vanished completion is just dropped. Subclasses provide only the latch
// itself, plus their opcode and completion IRQ line as constructor values.
#ifndef HBFT_DEVICES_LATCHED_OUTPUT_HPP_
#define HBFT_DEVICES_LATCHED_OUTPUT_HPP_

#include <cstdint>

#include "common/rng.hpp"
#include "devices/virtual_device.hpp"

namespace hbft {

class LatchedOutputBackend : public DeviceBackend {
 public:
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  void set_tx_latency(SimTime latency) { tx_latency_ = latency; }

 protected:
  // `opcode` is the single opcode the device accepts; `completion_irq` the
  // EIRR line its completions raise.
  LatchedOutputBackend(uint64_t seed, uint64_t salt, uint32_t opcode, uint32_t completion_irq)
      : rng_(seed ^ salt), opcode_(opcode), completion_irq_(completion_irq) {}

  // Commits `payload` to the environment: completes `entry` (issuer, opcode
  // and latch time are filled) with the device's identity of the output and
  // records it.
  virtual void Latch(const std::vector<uint8_t>& payload, EnvTraceEntry entry) = 0;

 private:
  SimTime Start(Op& op, SimTime now) final;
  IoCompletionPayload Finish(const Op& op) final;

  DeterministicRng rng_;
  FaultPlan fault_plan_;
  SimTime tx_latency_ = SimTime::Zero();
  const uint32_t opcode_;
  const uint32_t completion_irq_;
};

}  // namespace hbft

#endif  // HBFT_DEVICES_LATCHED_OUTPUT_HPP_
