// Remote console device: byte-oriented TX (environment output) and RX input
// with interrupt semantics.
//
// In the paper's prototype the remote console sits on the Ethernet and is the
// second I/O device besides the SCSI disk. Console output is the clearest
// "interaction with the environment": the replication protocol must suppress
// backup output while the primary lives and allow at most a window of
// duplicated output across failover.
//
// Console (the DeviceBackend) latches each character into the environment at
// issue — one trace entry per character, whose op_hash is the character, so
// the terminal's text is the console entries' op_hash values in order — and
// completes the TX latch after a UART character time. Its fault plan mirrors
// the disk's (IO2): a completion may come back uncertain, in which case the
// character may or may not have reached the terminal and the guest driver
// retransmits — the environment tolerates the duplicate.
// ConsoleDevice (the VirtualDevice) is the per-node register model; console
// RX input reaches the guest through the same generic completion path as
// every other device interrupt.
#ifndef HBFT_DEVICES_CONSOLE_HPP_
#define HBFT_DEVICES_CONSOLE_HPP_

#include <cstdint>
#include <vector>

#include "devices/latched_output.hpp"

namespace hbft {

// Console opcode (IoDescriptor::opcode).
inline constexpr uint32_t kConsoleOpTx = 1;

// TX result register codes (0 ok, 1 uncertain), shared with the disk's.
inline constexpr uint32_t kConsoleResultOk = 0;
inline constexpr uint32_t kConsoleResultUncertain = 1;

class Console : public LatchedOutputBackend {
 public:
  explicit Console(uint64_t seed = 0);

  DeviceId device_id() const override { return DeviceId::kConsole; }

 protected:
  void Latch(const std::vector<uint8_t>& payload, EnvTraceEntry entry) override;
};

// The per-node console register model.
class ConsoleDevice : public VirtualDevice {
 public:
  struct State {
    uint32_t rx_char = 0;
    bool rx_ready = false;
    bool tx_busy = false;
    uint32_t reg_result = 0;  // TX completion code (0 ok, 1 uncertain).
  };

  explicit ConsoleDevice(DeviceBackend* backend = nullptr) : VirtualDevice(backend) {}

  DeviceId device_id() const override { return DeviceId::kConsole; }
  const char* name() const override { return "console"; }
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
  State state_;
};

}  // namespace hbft

#endif  // HBFT_DEVICES_CONSOLE_HPP_
