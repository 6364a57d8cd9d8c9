// Network interface card: packet TX as environment output, packet RX
// injection with interrupt semantics — the third device on the generic
// VirtualDevice API, and the proof that the protocol really is stated over
// the I/O axioms rather than over the disk/console pair.
//
// TX mirrors the console's semantics: the packet is latched into the
// environment at issue (snapshot of the guest TX buffer, taken at a
// deterministic instruction-stream point) and the completion interrupt
// arrives a transmit time later. The fault plan can make completions
// uncertain (IO2), and P7 synthesises uncertain completions for TX
// operations outstanding at failover — the driver retransmits, so the
// environment may see a bounded window of duplicated packets at handover,
// exactly like duplicated console output.
//
// RX mirrors the console's input path, scaled from characters to packets:
// the world injects a packet, the active replica buffers it as a virtual
// interrupt (relaying it down the chain like any other), and at epoch
// delivery the NIC model DMAs it into the guest RX buffer and raises the RX
// line. Packets arriving while the guest still holds an unconsumed one (or
// before it enabled reception) queue inside the model; the queue drains at
// deterministic points (RX enable, RX interrupt-ack), so every replica sees
// the identical delivery sequence.
#ifndef HBFT_DEVICES_NIC_HPP_
#define HBFT_DEVICES_NIC_HPP_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "devices/latched_output.hpp"

namespace hbft {

// NIC opcode (IoDescriptor::opcode; equal to the TX_CMD register value).
inline constexpr uint32_t kNicOpTx = 1;

// TX result codes (0 ok, 1 uncertain).
inline constexpr uint32_t kNicResultOk = 0;
inline constexpr uint32_t kNicResultUncertain = 1;

class Nic : public LatchedOutputBackend {
 public:
  explicit Nic(uint64_t seed = 0);

  DeviceId device_id() const override { return DeviceId::kNic; }

  // Serve-frontend hook: fires at every TX latch with the entry just
  // recorded. Under the revised protocol a latch is already gated on
  // all-acked, so the callback instant IS the output-commit instant — the
  // earliest moment a reply may leave for a real client.
  void set_on_latch(std::function<void(const EnvTraceEntry&)> fn) { on_latch_ = std::move(fn); }

 protected:
  void Latch(const std::vector<uint8_t>& payload, EnvTraceEntry entry) override;

 private:
  std::function<void(const EnvTraceEntry&)> on_latch_;
};

// The per-node NIC register model.
class NicDevice : public VirtualDevice {
 public:
  struct State {
    uint32_t reg_tx_dma = 0;
    uint32_t reg_tx_len = 0;
    uint32_t reg_rx_dma = 0;
    uint32_t reg_rx_len = 0;
    uint32_t reg_tx_result = 0;
    bool tx_busy = false;
    bool rx_enabled = false;
    bool rx_ready = false;  // A packet sits in the guest RX buffer, unacked.
  };

  explicit NicDevice(DeviceBackend* backend = nullptr) : VirtualDevice(backend) {}

  DeviceId device_id() const override { return DeviceId::kNic; }
  const char* name() const override { return "nic"; }
  uint32_t mmio_base() const override;
  uint32_t irq_mask() const override;

  StoreResult MmioStore(uint32_t offset, uint32_t value, Machine& machine) override;
  uint32_t MmioLoad(uint32_t offset) const override;
  void ApplyCompletion(const IoCompletionPayload& io, Machine& machine) override;
  IoCompletionPayload MakeUncertainCompletion(const IoDescriptor& io) const override;
  bool MakeInputCompletion(const std::vector<uint8_t>& payload,
                           IoCompletionPayload* out) const override;

  void CaptureState(SnapshotWriter& w) const override;
  bool RestoreState(SnapshotReader& r) override;

  const State& state() const { return state_; }

 private:
  // Delivers the front queued packet into the guest RX buffer if the guest
  // can take one (reception enabled, previous packet consumed).
  void TryDeliverRx(Machine& machine);

  State state_;
  std::deque<std::vector<uint8_t>> rx_queue_;
};

}  // namespace hbft

#endif  // HBFT_DEVICES_NIC_HPP_
