// BareNode: the unreplicated reference machine.
//
// Runs the same guest image on a kDirect machine: traps vector straight into
// MiniOS, privileged instructions execute natively at real privilege 0, and
// environment instructions / MMIO exit to this node, which implements them
// against the local device registry and clock. Completions are applied by
// the same per-node VirtualDevice models the hypervisor uses — just
// immediately at completion time instead of at epoch boundaries. Bare runs
// provide the paper's denominator N in normalized performance N'/N, and the
// reference environment traces for transparency checking.
#ifndef HBFT_SIM_NODE_HPP_
#define HBFT_SIM_NODE_HPP_

#include <memory>

#include "core/protocol.hpp"
#include "devices/virtual_device.hpp"

namespace hbft {

class BareNode : public NodeActor {
 public:
  BareNode(int id, const GuestProgram& guest, const MachineConfig& machine_config,
           const CostModel& costs, std::unique_ptr<DeviceRegistry> devices,
           EventScheduler* scheduler);

  void RunSlice(SimTime until) override;
  bool runnable() const override { return !halted_; }
  SimTime clock() const override { return clock_; }
  bool halted() const override { return halted_; }
  bool dead() const override { return false; }

  Machine& machine() { return machine_; }
  DeviceRegistry& devices() { return *devices_; }

  // Environment input (console characters, NIC packets): the device model
  // applies it immediately — the bare machine takes interrupts as they come.
  void InjectInput(DeviceId device, const std::vector<uint8_t>& payload, SimTime t);

 private:
  void HandleEnvCr(const MachineExit& exit);
  void HandleMmio(const MachineExit& exit);
  void Retire(uint32_t next_pc) {
    machine_.RetireSimulated(next_pc);
    clock_ += costs_.instruction_cost;
  }

  int id_ = 0;
  CostModel costs_;
  std::unique_ptr<DeviceRegistry> devices_;
  Machine machine_;
  SimTime clock_ = SimTime::Zero();
  EventScheduler* scheduler_ = nullptr;
  bool halted_ = false;

  uint64_t itmr_value_ = 0;
  bool timer_armed_ = false;
  uint64_t timer_generation_ = 0;
  uint64_t next_op_seq_ = 1;
};

}  // namespace hbft

#endif  // HBFT_SIM_NODE_HPP_
