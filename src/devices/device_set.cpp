#include "devices/device_set.hpp"

namespace hbft {

DeviceSet::DeviceSet(const DeviceSetConfig& config, const CostModel& costs, uint64_t seed) {
  disk_ = std::make_unique<Disk>(config.disk_blocks, seed);
  disk_->set_fault_plan(config.disk_faults);
  disk_->set_latencies(costs.disk_read_latency, costs.disk_write_latency);
  backends_.push_back(disk_.get());

  console_ = std::make_unique<Console>(seed);
  console_->set_fault_plan(config.console_faults);
  console_->set_tx_latency(costs.console_tx_latency);
  backends_.push_back(console_.get());

  if (config.with_nic) {
    nic_ = std::make_unique<Nic>(seed);
    nic_->set_fault_plan(config.nic_faults);
    nic_->set_tx_latency(costs.nic_tx_latency);
    backends_.push_back(nic_.get());
  }
}

std::unique_ptr<DeviceRegistry> DeviceSet::BuildRegistry() const {
  auto registry = std::make_unique<DeviceRegistry>();
  registry->Add(std::make_unique<DiskDevice>(disk_.get()));
  registry->Add(std::make_unique<ConsoleDevice>(console_.get()));
  if (nic_ != nullptr) {
    registry->Add(std::make_unique<NicDevice>(nic_.get()));
  }
  return registry;
}

void DeviceSet::ResolveCrash(int issuer, const std::function<bool()>& performed) {
  for (DeviceBackend* backend : backends_) {
    backend->ResolveCrash(issuer, performed);
  }
}

std::vector<EnvTraceEntry> DeviceSet::trace() const {
  std::vector<EnvTraceEntry> out;
  for (const DeviceBackend* backend : backends_) {
    out.insert(out.end(), backend->trace().begin(), backend->trace().end());
  }
  return out;
}

}  // namespace hbft
