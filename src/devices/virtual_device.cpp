#include "devices/virtual_device.hpp"

#include <utility>

#include "common/check.hpp"
#include "devices/console.hpp"
#include "devices/disk.hpp"
#include "isa/isa.hpp"

namespace hbft {

const char* DeviceIdName(DeviceId id) {
  switch (id) {
    case DeviceId::kNone:
      return "none";
    case DeviceId::kDisk:
      return "disk";
    case DeviceId::kConsole:
      return "console";
    case DeviceId::kNic:
      return "nic";
  }
  return "unknown";
}

DeviceBackend::Issued DeviceBackend::Issue(IoDescriptor io, int issuer, SimTime now) {
  const uint64_t op_id = next_op_id_++;
  Op& op = in_flight_.emplace(op_id, Op{issuer, std::move(io)}).first->second;
  return Issued{op_id, Start(op, now)};
}

IoCompletionPayload DeviceBackend::Complete(uint64_t op_id) {
  auto node = in_flight_.extract(op_id);
  HBFT_CHECK(!node.empty()) << "completing unknown " << DeviceIdName(device_id()) << " op "
                            << op_id;
  return Finish(node.mapped());
}

void DeviceBackend::ResolveCrash(int issuer, const std::function<bool()>& performed) {
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->second.issuer == issuer) {
      Abandon(it->second, performed);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<const IoDescriptor*> DeviceBackend::InFlight(int issuer) const {
  std::vector<const IoDescriptor*> ops;
  for (const auto& [op_id, op] : in_flight_) {
    if (op.issuer == issuer) {
      ops.push_back(&op.io);
    }
  }
  return ops;
}

const EnvTraceEntry& DeviceBackend::Record(EnvTraceEntry entry) {
  entry.device_id = device_id();
  trace_.push_back(std::move(entry));
  return trace_.back();
}

void CaptureIoDescriptor(SnapshotWriter& w, const IoDescriptor& io) {
  w.U32(static_cast<uint32_t>(io.device_id));
  w.U64(io.guest_op_seq);
  w.U32(io.opcode);
  w.U32(io.arg0);
  w.U32(io.arg1);
  w.Blob(io.payload);
}

bool RestoreIoDescriptor(SnapshotReader& r, IoDescriptor* io) {
  uint32_t device_id = 0;
  if (!r.U32(&device_id) || !r.U64(&io->guest_op_seq) || !r.U32(&io->opcode) ||
      !r.U32(&io->arg0) || !r.U32(&io->arg1) || !r.Blob(&io->payload)) {
    return false;
  }
  io->device_id = static_cast<DeviceId>(device_id);
  return true;
}

void CaptureIoCompletion(SnapshotWriter& w, const IoCompletionPayload& io) {
  w.U32(io.device_irq);
  w.U64(io.guest_op_seq);
  w.U32(io.result_code);
  w.Bool(io.has_dma_data);
  w.U32(io.dma_guest_paddr);
  w.Blob(io.dma_data);
}

bool RestoreIoCompletion(SnapshotReader& r, IoCompletionPayload* io) {
  return r.U32(&io->device_irq) && r.U64(&io->guest_op_seq) && r.U32(&io->result_code) &&
         r.Bool(&io->has_dma_data) && r.U32(&io->dma_guest_paddr) && r.Blob(&io->dma_data);
}

void DeviceRegistry::Add(std::unique_ptr<VirtualDevice> device) {
  HBFT_CHECK(device != nullptr);
  HBFT_CHECK(by_id(device->device_id()) == nullptr)
      << "duplicate device " << device->name() << " in registry";
  for (const auto& existing : devices_) {
    HBFT_CHECK_EQ(existing->irq_mask() & device->irq_mask(), 0u)
        << "IRQ line collision between " << existing->name() << " and " << device->name();
    HBFT_CHECK(existing->mmio_base() != device->mmio_base())
        << "MMIO window collision between " << existing->name() << " and " << device->name();
  }
  devices_.push_back(std::move(device));
}

VirtualDevice* DeviceRegistry::by_id(DeviceId id) const {
  for (const auto& device : devices_) {
    if (device->device_id() == id) {
      return device.get();
    }
  }
  return nullptr;
}

VirtualDevice* DeviceRegistry::by_irq(uint32_t irq_line) const {
  for (const auto& device : devices_) {
    if ((device->irq_mask() & irq_line) != 0) {
      return device.get();
    }
  }
  return nullptr;
}

VirtualDevice* DeviceRegistry::by_mmio(uint32_t paddr) const {
  for (const auto& device : devices_) {
    uint32_t base = device->mmio_base();
    if (paddr >= base && paddr < base + kPageBytes) {
      return device.get();
    }
  }
  return nullptr;
}

void DeviceRegistry::CaptureState(SnapshotWriter& w) const {
  w.U32(static_cast<uint32_t>(devices_.size()));
  for (const auto& device : devices_) {
    w.U32(static_cast<uint32_t>(device->device_id()));
    device->CaptureState(w);
  }
}

bool DeviceRegistry::RestoreState(SnapshotReader& r) {
  uint32_t count = 0;
  if (!r.U32(&count) || count != devices_.size()) {
    return false;
  }
  for (const auto& device : devices_) {
    uint32_t id = 0;
    if (!r.U32(&id) || id != static_cast<uint32_t>(device->device_id())) {
      return false;
    }
    if (!device->RestoreState(r)) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<DeviceRegistry> CreateDefaultRegistry() {
  auto registry = std::make_unique<DeviceRegistry>();
  registry->Add(std::make_unique<DiskDevice>());
  registry->Add(std::make_unique<ConsoleDevice>());
  return registry;
}

}  // namespace hbft
