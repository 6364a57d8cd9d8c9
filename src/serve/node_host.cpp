#include "serve/node_host.hpp"

#include "core/failure_detector.hpp"
#include "guest/image.hpp"

namespace hbft {
namespace serve {

NodeHost::~NodeHost() = default;

NodeHost::NodeHost(const Scenario& scenario, HostRole role) : role_(role) {
  const WorldConfig config = scenario.world_config();
  failure_detect_timeout_ = config.costs.failure_detect_timeout;
  devices_ = std::make_unique<DeviceSet>(config.devices, config.costs, config.seed);

  // Both processes construct the chain's first link pair from the shared
  // seed and keep their own ends of it; the ordered-stream state that
  // matters (sequence numbers, cumulative acks) travels inside the frames
  // themselves, which is what lets two separately constructed endpoints
  // interoperate over the wire. The primary's links have no upstream, so its
  // replica starts active.
  World::LinkPair pair = World::MakeLinkPair(config, World::kMeshLinkSalt, 0);
  NodeLinks links;
  if (role == HostRole::kPrimary) {
    links.down_out = pair.down.get();
    links.down_in = pair.up.get();
    wire_out_ = std::move(pair.down);
    wire_in_ = std::move(pair.up);
  } else {
    links.up_in = pair.down.get();
    links.up_out = pair.up.get();
    wire_in_ = std::move(pair.down);
    wire_out_ = std::move(pair.up);
  }
  const size_t position = role == HostRole::kPrimary ? 0 : 1;
  node_ = World::MakeReplica(scenario.guest().program, config, *devices_, position, links, this);
  // Identical parameter block on both processes: the backup boots the same
  // guest state the primary does and diverges only through the protocol
  // stream — the multi-process restatement of "every replica boots from
  // identical state".
  PatchWorkloadParams(&node_->hypervisor().machine().memory(), scenario.workload());
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
  if (!wire_in_->InjectWireFrame(bytes, now)) {
    return false;
  }
  // The frame arrived at `now`: wake the replica then, as World's poll
  // wiring wakes a neighbour at a message's arrival.
  ReplicaNode* n = node_.get();
  ScheduleAt(now, [n, now] { n->PollIncoming(now); });
  return true;
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
  SimTime detect = FailureDetector::DetectionTime(*wire_in_, now, failure_detect_timeout_);
  ReplicaNode* n = node_.get();
  if (role_ == HostRole::kBackup) {
    ScheduleAt(detect, [n, detect] { n->OnFailureDetected(detect); });
  } else {
    ScheduleAt(detect, [n, detect] { n->OnDownstreamFailureDetected(detect); });
  }
}

void NodeHost::InjectPacket(const std::vector<uint8_t>& payload, SimTime now) {
  ReplicaNode* n = node_.get();
  ScheduleAt(now, [n, payload, now] { n->InjectInput(DeviceId::kNic, payload, now); });
}

bool NodeHost::ActiveForEnvironment() const {
  if (node_->dead() || node_->halted()) {
    return false;
  }
  return role_ == HostRole::kPrimary || peer_lost_;
}

void NodeHost::Advance(SimTime now) {
  while (true) {
    SimTime tq = queue_.empty() ? SimTime::Max() : queue_.PeekTime();
    SimTime tn = node_->runnable() ? node_->clock() : SimTime::Max();
    SimTime actionable = tn < tq ? tn : tq;
    if (actionable > now) {
      return;  // Caught up: everything stamped at or before `now` is handled.
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
