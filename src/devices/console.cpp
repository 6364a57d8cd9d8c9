#include "devices/console.hpp"

#include <utility>

#include "common/check.hpp"
#include "isa/isa.hpp"
#include "machine/machine.hpp"

namespace hbft {

Console::Console(uint64_t seed)
    : LatchedOutputBackend(seed, 0xC0501EULL, kConsoleOpTx, kIrqConsoleTx) {}

void Console::Latch(const std::vector<uint8_t>& payload, EnvTraceEntry entry) {
  entry.op_hash = payload[0];  // The character is the whole operation.
  Record(std::move(entry));
}

// --- ConsoleDevice -----------------------------------------------------------

uint32_t ConsoleDevice::mmio_base() const { return kConsoleMmioBase; }
uint32_t ConsoleDevice::irq_mask() const { return kIrqConsoleTx | kIrqConsoleRx; }

VirtualDevice::StoreResult ConsoleDevice::MmioStore(uint32_t offset, uint32_t value,
                                                    Machine& machine) {
  StoreResult result;
  switch (offset) {
    case kConsoleRegTx: {
      HBFT_CHECK(!state_.tx_busy) << "guest wrote console TX while busy";
      state_.tx_busy = true;
      result.initiate = true;
      result.io.device_id = DeviceId::kConsole;
      result.io.opcode = kConsoleOpTx;
      result.io.payload.push_back(static_cast<uint8_t>(value & 0xFF));
      break;
    }
    case kConsoleRegIntAck:
      // Bit-selective: bit 0 acknowledges RX (consuming the character),
      // bit 1 acknowledges TX. A TX-only ack must not drop RX data.
      if ((value & 1) != 0) {
        machine.AckIrq(kIrqConsoleRx);
        state_.rx_ready = false;
      }
      if ((value & 2) != 0) {
        machine.AckIrq(kIrqConsoleTx);
      }
      break;
    default:
      result.fault = true;
      break;
  }
  return result;
}

uint32_t ConsoleDevice::MmioLoad(uint32_t offset) const {
  switch (offset) {
    case kConsoleRegRx:
      return state_.rx_char;
    case kConsoleRegStatus:
      return (state_.rx_ready ? 1u : 0u) | (state_.tx_busy ? 2u : 0u);
    case kConsoleRegResult:
      return state_.reg_result;
    default:
      return 0;
  }
}

void ConsoleDevice::ApplyCompletion(const IoCompletionPayload& io, Machine& machine) {
  if (io.device_irq == kIrqConsoleTx) {
    state_.tx_busy = false;
    state_.reg_result = io.result_code;
    machine.RaiseIrq(kIrqConsoleTx);
    return;
  }
  HBFT_CHECK_EQ(io.device_irq, static_cast<uint32_t>(kIrqConsoleRx));
  // RX carries its character in result_code: the one delivery mechanism all
  // devices share.
  state_.rx_char = io.result_code & 0xFF;
  state_.rx_ready = true;
  machine.RaiseIrq(kIrqConsoleRx);
}

IoCompletionPayload ConsoleDevice::MakeUncertainCompletion(const IoDescriptor& io) const {
  IoCompletionPayload payload;
  payload.device_irq = kIrqConsoleTx;
  payload.guest_op_seq = io.guest_op_seq;
  payload.result_code = kConsoleResultUncertain;
  return payload;
}

bool ConsoleDevice::MakeInputCompletion(const std::vector<uint8_t>& payload,
                                        IoCompletionPayload* out) const {
  HBFT_CHECK(!payload.empty());
  out->device_irq = kIrqConsoleRx;
  out->guest_op_seq = 0;
  out->result_code = payload[0];
  return true;
}

void ConsoleDevice::CaptureState(SnapshotWriter& w) const {
  w.U32(state_.rx_char);
  w.Bool(state_.rx_ready);
  w.Bool(state_.tx_busy);
  w.U32(state_.reg_result);
}

bool ConsoleDevice::RestoreState(SnapshotReader& r) {
  return r.U32(&state_.rx_char) && r.Bool(&state_.rx_ready) && r.Bool(&state_.tx_busy) &&
         r.U32(&state_.reg_result);
}

}  // namespace hbft
