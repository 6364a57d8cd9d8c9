#include "devices/nic.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "isa/isa.hpp"
#include "machine/machine.hpp"

namespace hbft {

Nic::Nic(uint64_t seed) : LatchedOutputBackend(seed, 0x21C0FFEEULL, kNicOpTx, kIrqNicTx) {}

void Nic::Latch(const std::vector<uint8_t>& payload, EnvTraceEntry entry) {
  entry.bytes = payload;
  entry.op_hash = Fnv1a(payload.data(), payload.size());
  const EnvTraceEntry& latched = Record(std::move(entry));
  if (on_latch_) {
    on_latch_(latched);
  }
}

// --- NicDevice ---------------------------------------------------------------

uint32_t NicDevice::mmio_base() const { return kNicMmioBase; }
uint32_t NicDevice::irq_mask() const { return kIrqNicTx | kIrqNicRx; }

void NicDevice::TryDeliverRx(Machine& machine) {
  if (!state_.rx_enabled || state_.rx_ready || rx_queue_.empty()) {
    return;
  }
  std::vector<uint8_t> packet = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  machine.memory().WriteBlock(state_.reg_rx_dma, packet.data(),
                              static_cast<uint32_t>(packet.size()));
  state_.reg_rx_len = static_cast<uint32_t>(packet.size());
  state_.rx_ready = true;
  machine.RaiseIrq(kIrqNicRx);
}

VirtualDevice::StoreResult NicDevice::MmioStore(uint32_t offset, uint32_t value,
                                                Machine& machine) {
  StoreResult result;
  switch (offset) {
    case kNicRegTxDma:
      state_.reg_tx_dma = value;
      break;
    case kNicRegTxLen:
      state_.reg_tx_len = value;
      break;
    case kNicRegRxDma:
      state_.reg_rx_dma = value;
      break;
    case kNicRegRxCtrl:
      state_.rx_enabled = value != 0;
      TryDeliverRx(machine);
      break;
    case kNicRegIntAck:
      if ((value & 1) != 0) {
        machine.AckIrq(kIrqNicRx);
        state_.rx_ready = false;
        TryDeliverRx(machine);  // The next queued packet, if any.
      }
      if ((value & 2) != 0) {
        machine.AckIrq(kIrqNicTx);
      }
      break;
    case kNicRegTxCmd: {
      HBFT_CHECK(!state_.tx_busy) << "guest issued a NIC transmit while busy";
      HBFT_CHECK_EQ(value, kNicOpTx) << "bad NIC command " << value;
      HBFT_CHECK(state_.reg_tx_len > 0 && state_.reg_tx_len <= kNicMaxPacketBytes)
          << "bad NIC TX length " << state_.reg_tx_len;
      state_.tx_busy = true;
      result.initiate = true;
      result.io.device_id = DeviceId::kNic;
      result.io.opcode = kNicOpTx;
      result.io.arg0 = state_.reg_tx_len;
      result.io.arg1 = state_.reg_tx_dma;
      // Packet snapshot at issue: deterministic, identical at all replicas.
      result.io.payload.resize(state_.reg_tx_len);
      machine.memory().ReadBlock(state_.reg_tx_dma, result.io.payload.data(), state_.reg_tx_len);
      break;
    }
    default:
      result.fault = true;
      break;
  }
  return result;
}

uint32_t NicDevice::MmioLoad(uint32_t offset) const {
  switch (offset) {
    case kNicRegStatus:
      return (state_.rx_ready ? 1u : 0u) | (state_.tx_busy ? 2u : 0u);
    case kNicRegTxDma:
      return state_.reg_tx_dma;
    case kNicRegTxLen:
      return state_.reg_tx_len;
    case kNicRegRxDma:
      return state_.reg_rx_dma;
    case kNicRegRxLen:
      return state_.reg_rx_len;
    case kNicRegTxResult:
      return state_.reg_tx_result;
    default:
      return 0;
  }
}

void NicDevice::ApplyCompletion(const IoCompletionPayload& io, Machine& machine) {
  if (io.device_irq == kIrqNicTx) {
    state_.tx_busy = false;
    state_.reg_tx_result = io.result_code;
    machine.RaiseIrq(kIrqNicTx);
    return;
  }
  HBFT_CHECK_EQ(io.device_irq, static_cast<uint32_t>(kIrqNicRx));
  // An injected packet: queue it; delivery into the guest buffer happens at
  // the deterministic points TryDeliverRx guards (enable / intack / here).
  rx_queue_.push_back(io.dma_data);
  TryDeliverRx(machine);
}

IoCompletionPayload NicDevice::MakeUncertainCompletion(const IoDescriptor& io) const {
  IoCompletionPayload payload;
  payload.device_irq = kIrqNicTx;
  payload.guest_op_seq = io.guest_op_seq;
  payload.result_code = kNicResultUncertain;
  return payload;
}

void NicDevice::CaptureState(SnapshotWriter& w) const {
  w.U32(state_.reg_tx_dma);
  w.U32(state_.reg_tx_len);
  w.U32(state_.reg_rx_dma);
  w.U32(state_.reg_rx_len);
  w.U32(state_.reg_tx_result);
  w.Bool(state_.tx_busy);
  w.Bool(state_.rx_enabled);
  w.Bool(state_.rx_ready);
  w.U32(static_cast<uint32_t>(rx_queue_.size()));
  for (const std::vector<uint8_t>& packet : rx_queue_) {
    w.Blob(packet);
  }
}

bool NicDevice::RestoreState(SnapshotReader& r) {
  if (!r.U32(&state_.reg_tx_dma) || !r.U32(&state_.reg_tx_len) || !r.U32(&state_.reg_rx_dma) ||
      !r.U32(&state_.reg_rx_len) || !r.U32(&state_.reg_tx_result) || !r.Bool(&state_.tx_busy) ||
      !r.Bool(&state_.rx_enabled) || !r.Bool(&state_.rx_ready)) {
    return false;
  }
  uint32_t queued = 0;
  if (!r.U32(&queued)) {
    return false;
  }
  rx_queue_.clear();
  for (uint32_t i = 0; i < queued; ++i) {
    std::vector<uint8_t> packet;
    if (!r.Blob(&packet)) {
      return false;
    }
    rx_queue_.push_back(std::move(packet));
  }
  return true;
}

bool NicDevice::MakeInputCompletion(const std::vector<uint8_t>& payload,
                                    IoCompletionPayload* out) const {
  HBFT_CHECK(!payload.empty());
  HBFT_CHECK_LE(payload.size(), static_cast<size_t>(kNicMaxPacketBytes));
  out->device_irq = kIrqNicRx;
  out->guest_op_seq = 0;
  out->result_code = static_cast<uint32_t>(payload.size());
  out->has_dma_data = true;
  out->dma_guest_paddr = 0;  // Resolved against the model's RX_DMA at delivery.
  out->dma_data = payload;
  return true;
}

}  // namespace hbft
