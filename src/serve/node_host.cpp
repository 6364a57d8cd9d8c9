#include "serve/node_host.hpp"

#include "common/check.hpp"
#include "core/failure_detector.hpp"

namespace hbft {
namespace serve {

NodeHost::~NodeHost() = default;

NodeHost::NodeHost(const NodeHostConfig& config) : config_(config) {
  bundle_ = &GetGuestImage(GuestImageVariant::kNet);

  DeviceSetConfig device_config;
  device_config.disk_blocks = config.disk_blocks;
  device_config.with_nic = true;
  devices_ = std::make_unique<DeviceSet>(device_config, config.costs, config.seed);

  MachineConfig machine = config.machine;
  machine.machine_seed = config.seed;

  // Both processes derive their channel endpoints from the shared seed; the
  // ordered-stream state that matters (sequence numbers, cumulative acks)
  // travels inside the frames themselves, which is what lets two separately
  // constructed endpoints interoperate over the wire.
  const uint64_t stream_seed = config.seed ^ (0x11F0D1CEULL * 1);
  const uint64_t ack_seed = config.seed ^ (0x11F0D1CEULL * 2);

  // The primary's links have no upstream, so its replica starts active.
  NodeLinks links;
  if (config.role == HostRole::kPrimary) {
    wire_out_ = std::make_unique<Channel>(config.costs.link, ChannelMode::kOrdered,
                                          config.link_faults, stream_seed);
    wire_in_ = std::make_unique<Channel>(config.costs.link, ChannelMode::kDatagram,
                                         config.link_faults, ack_seed);
    links.down_out = wire_out_.get();
    links.down_in = wire_in_.get();
  } else {
    wire_in_ = std::make_unique<Channel>(config.costs.link, ChannelMode::kOrdered,
                                         config.link_faults, stream_seed);
    wire_out_ = std::make_unique<Channel>(config.costs.link, ChannelMode::kDatagram,
                                          config.link_faults, ack_seed);
    links.up_in = wire_in_.get();
    links.up_out = wire_out_.get();
  }
  const int id = config.role == HostRole::kPrimary ? 1 : 2;
  node_ = std::make_unique<ReplicaNode>(id, bundle_->program, machine, config.replication,
                                        config.costs, devices_->BuildRegistry(), links, this);
  // Identical parameter block on both processes: the backup boots the same
  // guest state the primary does and diverges only through the protocol
  // stream — the multi-process restatement of "every replica boots from
  // identical state".
  PatchWorkloadParams(&node_->hypervisor().machine().memory(), config.workload);
}

void NodeHost::ScheduleAt(SimTime t, std::function<void()> fn) { queue_.Push(t, std::move(fn)); }

SimTime NodeHost::NextEventTime() const {
  return queue_.empty() ? SimTime::Max() : queue_.PeekTime();
}

void NodeHost::BindWireSink(Channel::WireSink sink) { wire_out_->BindWireSink(std::move(sink)); }

bool NodeHost::OnPeerFrame(const std::vector<uint8_t>& bytes, SimTime now) {
  if (peer_lost_) {
    return false;  // Already broken: the detector's verdict stands.
  }
  return wire_in_->InjectWireFrame(bytes, now);
}

void NodeHost::OnPeerDead(SimTime now) {
  if (peer_lost_ || node_->dead()) {
    return;
  }
  peer_lost_ = true;
  // The socket dying at t is the wire-level image of the peer's outbound
  // channel breaking at its crash instant: everything already received still
  // counts, nothing more arrives (paper failure model).
  wire_in_->Break(now);
  SimTime detect =
      FailureDetector::DetectionTime(*wire_in_, now, config_.costs.failure_detect_timeout);
  ReplicaNode* n = node_.get();
  if (config_.role == HostRole::kBackup) {
    ScheduleAt(detect, [n, detect] { n->OnFailureDetected(detect); });
  } else {
    ScheduleAt(detect, [n, detect] { n->OnDownstreamFailureDetected(detect); });
  }
}

void NodeHost::InjectPacket(const std::vector<uint8_t>& payload, SimTime now) {
  if (node_->dead() || node_->halted()) {
    return;
  }
  node_->InjectInput(DeviceId::kNic, payload, now);
}

bool NodeHost::ActiveForEnvironment() const {
  if (node_->dead() || node_->halted()) {
    return false;
  }
  return config_.role == HostRole::kPrimary || peer_lost_;
}

void NodeHost::Advance(SimTime now) {
  if (!node_->dead()) {
    node_->PollIncoming(now);
  }
  while (true) {
    SimTime tq = queue_.empty() ? SimTime::Max() : queue_.PeekTime();
    SimTime tn = node_->runnable() ? node_->clock() : SimTime::Max();
    SimTime actionable = tn < tq ? tn : tq;
    if (actionable >= now) {
      return;  // Caught up: everything before `now` has been handled.
    }
    if (tn < tq) {
      SimTime horizon = tq < now ? tq : now;
      SimTime before = node_->clock();
      node_->RunSlice(horizon);
      if (node_->runnable() && node_->clock() == before) {
        // A runnable node that makes no progress would spin the loop; treat
        // it as blocked until the next injection or event changes something.
        return;
      }
    } else {
      queue_.RunNext();
    }
  }
}

}  // namespace serve
}  // namespace hbft
