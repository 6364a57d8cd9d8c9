// DeviceSet: the world's shared device backends plus the factory for
// per-node device registries.
//
// One DeviceSet per world owns the environment side of every configured
// device (the dual-ported disk, the remote console, the NIC). Each node —
// replicas and the bare reference machine alike — gets its own
// DeviceRegistry of per-node register models built by BuildRegistry(), all
// bound to these shared backends. Each backend owns the operations issued
// to it until they complete or their issuer crashes, so a crash is resolved
// here, in one call. The sim and core layers talk to the set through
// DeviceBackend/DeviceRegistry; the one typed accessor, nic(), lets the
// serve frontend hook the NIC's output-commit latch.
#ifndef HBFT_DEVICES_DEVICE_SET_HPP_
#define HBFT_DEVICES_DEVICE_SET_HPP_

#include <functional>
#include <memory>
#include <vector>

#include "devices/console.hpp"
#include "devices/disk.hpp"
#include "devices/nic.hpp"
#include "hypervisor/cost_model.hpp"

namespace hbft {

// Which devices a scenario attaches, plus their fault plans. The default set
// is the paper's pair (disk + console); the NIC is opt-in.
struct DeviceSetConfig {
  uint32_t disk_blocks = 128;
  FaultPlan disk_faults;
  FaultPlan console_faults;
  bool with_nic = false;
  FaultPlan nic_faults;
};

class DeviceSet {
 public:
  DeviceSet(const DeviceSetConfig& config, const CostModel& costs, uint64_t seed);

  // A fresh per-node registry bound to this set's backends.
  std::unique_ptr<DeviceRegistry> BuildRegistry() const;

  // Node `issuer` crashed: every backend, in set order (disk, console, NIC),
  // retires the operations it still had in flight for it, by op id
  // (DeviceBackend::ResolveCrash). Only the disk asks `performed`.
  void ResolveCrash(int issuer, const std::function<bool()>& performed);

  // Every backend's trace concatenated in backend order (per-device order
  // preserved; the checker splits by device anyway).
  std::vector<EnvTraceEntry> trace() const;

  Nic* nic() { return nic_.get(); }  // Null when not configured.

 private:
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<Console> console_;
  std::unique_ptr<Nic> nic_;
  std::vector<DeviceBackend*> backends_;
};

}  // namespace hbft

#endif  // HBFT_DEVICES_DEVICE_SET_HPP_
