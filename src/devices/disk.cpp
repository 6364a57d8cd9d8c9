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

DeviceBackend::Issued Disk::Issue(const IoDescriptor& io, int issuer) {
  HBFT_CHECK(io.opcode == kDiskOpRead || io.opcode == kDiskOpWrite)
      << "bad disk opcode " << io.opcode;
  HBFT_CHECK_LT(io.arg0, num_blocks_);
  InFlightOp op{io.opcode == kDiskOpWrite, io.arg0, issuer, {}};
  if (op.is_write) {
    HBFT_CHECK_EQ(io.payload.size(), kDiskBlockBytes);
    op.data = io.payload;
  }
  Issued issued;
  issued.op_id = next_op_id_++;
  issued.latency = op.is_write ? write_latency_ : read_latency_;
  in_flight_[issued.op_id] = std::move(op);
  return issued;
}

IoCompletionPayload Disk::Complete(uint64_t op_id, const IoDescriptor& io) {
  auto node = in_flight_.extract(op_id);
  HBFT_CHECK(!node.empty()) << "completing unknown disk op " << op_id;
  const InFlightOp& op = node.mapped();
  const bool uncertain = rng_.NextBool(fault_plan_.uncertain_probability);
  IoCompletionPayload payload;
  payload.device_irq = kIrqDisk;
  payload.guest_op_seq = io.guest_op_seq;
  payload.result_code = uncertain ? kDiskResultCheckCondition : kDiskResultOk;
  if (!op.is_write && !uncertain) {
    payload.has_dma_data = true;
    payload.dma_guest_paddr = io.arg1;
    payload.dma_data = PeekBlock(op.block);
  }
  Settle(op, !uncertain || rng_.NextBool(fault_plan_.performed_when_uncertain));
  return payload;
}

void Disk::ResolveAtCrash(uint64_t op_id, bool performed) {
  auto node = in_flight_.extract(op_id);
  HBFT_CHECK(!node.empty()) << "resolving unknown disk op " << op_id;
  if (performed) {
    Settle(node.mapped(), true);  // Done at the device; interrupt lost.
  }
  // Otherwise the environment never saw the operation.
}

void Disk::Settle(const InFlightOp& op, bool performed) {
  EnvTraceEntry entry;
  entry.issuer = op.issuer;
  entry.performed = performed;
  entry.opcode = op.is_write ? kDiskOpWrite : kDiskOpRead;
  entry.block = op.block;
  Fnv1aHasher hasher;
  hasher.UpdateU32(op.is_write ? 1u : 0u);
  hasher.UpdateU32(op.block);
  if (op.is_write) {
    hasher.UpdateU64(Fnv1a(op.data.data(), op.data.size()));
    if (performed) {
      blocks_[op.block] = op.data;
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
