#include "devices/disk.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "isa/isa.hpp"
#include "machine/machine.hpp"

namespace hbft {

Disk::Disk(uint32_t num_blocks, uint64_t seed) : num_blocks_(num_blocks), rng_(seed) {
  HBFT_CHECK_GT(num_blocks, 0u);
}

std::vector<uint8_t> Disk::DefaultBlockContent(uint32_t block) const {
  std::vector<uint8_t> data(kDiskBlockBytes);
  uint64_t x = Fnv1a(&block, sizeof(block));
  for (uint32_t i = 0; i < kDiskBlockBytes; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    data[i] = static_cast<uint8_t>(x >> 56);
  }
  return data;
}

SimTime Disk::Start(Op& op, SimTime /*now*/) {
  const IoDescriptor& io = op.io;
  HBFT_CHECK(io.opcode == kDiskOpRead || io.opcode == kDiskOpWrite)
      << "bad disk opcode " << io.opcode;
  HBFT_CHECK_LT(io.arg0, num_blocks_);
  if (io.opcode == kDiskOpWrite) {
    HBFT_CHECK_EQ(io.payload.size(), kDiskBlockBytes);
    return write_latency_;
  }
  return read_latency_;
}

IoCompletionPayload Disk::Finish(const Op& op) {
  const bool uncertain = rng_.NextBool(fault_plan_.uncertain_probability);
  IoCompletionPayload payload;
  payload.device_irq = kIrqDisk;
  payload.guest_op_seq = op.io.guest_op_seq;
  payload.result_code = uncertain ? kDiskResultCheckCondition : kDiskResultOk;
  if (op.io.opcode == kDiskOpRead && !uncertain) {
    payload.has_dma_data = true;
    payload.dma_guest_paddr = op.io.arg1;
    payload.dma_data = PeekBlock(op.io.arg0);
  }
  Settle(op, !uncertain || rng_.NextBool(fault_plan_.performed_when_uncertain));
  return payload;
}

void Disk::Abandon(const Op& op, const std::function<bool()>& performed) {
  if (performed()) {
    Settle(op, true);  // Done at the device; interrupt lost.
  }
  // Otherwise the environment never saw the operation.
}

void Disk::Settle(const Op& op, bool performed) {
  const bool is_write = op.io.opcode == kDiskOpWrite;
  EnvTraceEntry entry;
  entry.issuer = op.issuer;
  entry.performed = performed;
  entry.opcode = op.io.opcode;
  entry.block = op.io.arg0;
  Fnv1aHasher hasher;
  hasher.UpdateU32(is_write ? 1u : 0u);
  hasher.UpdateU32(op.io.arg0);
  if (is_write) {
    hasher.UpdateU64(Fnv1a(op.io.payload.data(), op.io.payload.size()));
    if (performed) {
      blocks_[op.io.arg0] = op.io.payload;
    }
  }
  entry.op_hash = hasher.digest();
  Record(std::move(entry));
}

std::vector<uint8_t> Disk::PeekBlock(uint32_t block) const {
  auto it = blocks_.find(block);
  if (it != blocks_.end()) {
    return it->second;
  }
  return DefaultBlockContent(block);
}

// --- DiskDevice --------------------------------------------------------------

uint32_t DiskDevice::mmio_base() const { return kDiskMmioBase; }
uint32_t DiskDevice::irq_mask() const { return kIrqDisk; }

VirtualDevice::StoreResult DiskDevice::MmioStore(uint32_t offset, uint32_t value,
                                                 Machine& machine) {
  StoreResult result;
  switch (offset) {
    case kDiskRegBlock:
      state_.reg_block = value;
      break;
    case kDiskRegCount:
      state_.reg_count = value;
      break;
    case kDiskRegDma:
      state_.reg_dma = value;
      break;
    case kDiskRegIntAck:
      machine.AckIrq(kIrqDisk);
      state_.reg_status &= ~(kDiskStatusDone | kDiskStatusCheck);
      break;
    case kDiskRegCmd: {
      HBFT_CHECK(!state_.busy) << "guest issued a disk command while busy";
      HBFT_CHECK(value == kDiskOpRead || value == kDiskOpWrite) << "bad disk command " << value;
      state_.busy = true;
      state_.reg_status = kDiskStatusBusy;
      result.initiate = true;
      result.io.device_id = DeviceId::kDisk;
      result.io.opcode = value;
      result.io.arg0 = state_.reg_block;
      result.io.arg1 = state_.reg_dma;
      if (value == kDiskOpWrite) {
        // DMA-out snapshot at issue: a deterministic instruction-stream
        // point, identical at both replicas.
        result.io.payload.resize(kDiskBlockBytes);
        machine.memory().ReadBlock(state_.reg_dma, result.io.payload.data(),
                                   static_cast<uint32_t>(result.io.payload.size()));
      }
      break;
    }
    default:
      result.fault = true;
      break;
  }
  return result;
}

uint32_t DiskDevice::MmioLoad(uint32_t offset) const {
  switch (offset) {
    case kDiskRegStatus:
      return state_.reg_status;
    case kDiskRegResult:
      return state_.reg_result;
    case kDiskRegBlock:
      return state_.reg_block;
    case kDiskRegCount:
      return state_.reg_count;
    case kDiskRegDma:
      return state_.reg_dma;
    default:
      return 0;
  }
}

void DiskDevice::ApplyCompletion(const IoCompletionPayload& io, Machine& machine) {
  if (io.has_dma_data) {
    // Virtualised DMA: guest memory changes only here, at a deterministic
    // point in the instruction stream.
    HBFT_CHECK_EQ(io.dma_guest_paddr, state_.reg_dma);
    machine.memory().WriteBlock(state_.reg_dma, io.dma_data.data(),
                                static_cast<uint32_t>(io.dma_data.size()));
  }
  state_.busy = false;
  state_.reg_status =
      kDiskStatusDone | (io.result_code == kDiskResultCheckCondition ? kDiskStatusCheck : 0);
  state_.reg_result = io.result_code;
  machine.RaiseIrq(kIrqDisk);
}

IoCompletionPayload DiskDevice::MakeUncertainCompletion(const IoDescriptor& io) const {
  IoCompletionPayload payload;
  payload.device_irq = kIrqDisk;
  payload.guest_op_seq = io.guest_op_seq;
  payload.result_code = kDiskResultCheckCondition;
  return payload;
}

void DiskDevice::CaptureState(SnapshotWriter& w) const {
  w.U32(state_.reg_block);
  w.U32(state_.reg_count);
  w.U32(state_.reg_dma);
  w.U32(state_.reg_status);
  w.U32(state_.reg_result);
  w.Bool(state_.busy);
}

bool DiskDevice::RestoreState(SnapshotReader& r) {
  return r.U32(&state_.reg_block) && r.U32(&state_.reg_count) && r.U32(&state_.reg_dma) &&
         r.U32(&state_.reg_status) && r.U32(&state_.reg_result) && r.Bool(&state_.busy);
}

}  // namespace hbft
