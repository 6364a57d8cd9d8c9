// NodeHost: one replica of the protocol chain hosted alone in its own OS
// process, with the neighbour reached over a real TCP connection instead of
// an in-memory channel pair.
//
// The simulated World owns both ends of every channel; in multi-process mode
// each process owns only its own replica and its local channel endpoints:
//
//   primary process                      backup process
//   ReplicaNode (no upstream: active)    ReplicaNode (standing)
//     down_out (ordered, wire-bound) --TCP-->  up_in (ordered, injected)
//     down_in (datagram, injected) <--TCP--  up_out (datagram, wire-bound)
//
// Outbound channels ship every frame through a Channel::WireSink (the repl
// socket); inbound channels receive peer bytes via InjectWireFrame, so the
// go-back-N framing, cumulative acks, duplicate discard, and retransmit
// buffer all run exactly the code paths the simulation exercises — the
// transport is swapped underneath them, not reimplemented.
//
// Failure detection maps the socket's death onto the paper's model: the repl
// connection hitting EOF/reset at wall-mapped sim time t is the analogue of
// the dead neighbour's outbound channel breaking at its crash instant. The
// host breaks the inbound channel at t, asks FailureDetector for the
// detection instant (drain + timeout), and schedules the standard callback —
// OnFailureDetected for a backup (P6/P7 promotion), OnDownstreamFailureDetected
// for a primary (continue solo).
//
// NodeHost is built from the same Scenario the in-process chain runs, through
// World's constructors: World::MakeLinkPair gives it the chain's first link
// pair (the same channel seeds both processes derive) and World::MakeReplica
// the replica at its chain position, so each process boots exactly the
// machine a World boots there.
//
// NodeHost is an EventScheduler with its own event queue; Advance(now) is
// the single-node specialisation of World::RunLoop — deterministic catch-up
// to the wall-mapped instant `now` chosen by the RealtimePump. Inputs follow
// the in-process chain's rule: a peer frame or client packet stamped `t` is
// an event at `t`, handled once the replica has executed up to `t`, so the
// guest never skips time it did not run.
#ifndef HBFT_SERVE_NODE_HOST_HPP_
#define HBFT_SERVE_NODE_HOST_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/replica.hpp"
#include "devices/device_set.hpp"
#include "net/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace serve {

enum class HostRole { kPrimary, kBackup };

class NodeHost : public EventScheduler {
 public:
  // Hosts the scenario's chain position 0 (kPrimary) or 1 (kBackup).
  NodeHost(const Scenario& scenario, HostRole role);
  ~NodeHost() override;
  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  // --- EventScheduler -------------------------------------------------------
  void ScheduleAt(SimTime t, std::function<void()> fn) override;
  SimTime NextEventTime() const override;

  // --- Wire side ------------------------------------------------------------

  // Binds the sink that ships this node's outbound channel frames to the
  // peer (protocol stream for a primary, acks for a backup). Until bound,
  // sends queue harmlessly in the local channel.
  void BindWireSink(Channel::WireSink sink);

  // A peer frame arrived from the repl socket at sim time `now`: it joins
  // the inbound channel and the replica polls it at `now`. Returns false
  // when the bytes failed canonical decode (counted on the channel) or the
  // peer is already considered dead.
  bool OnPeerFrame(const std::vector<uint8_t>& bytes, SimTime now);

  // The repl socket died (EOF / reset) at sim time `now`: break the inbound
  // channel and schedule the failure detector's verdict. Idempotent.
  void OnPeerDead(SimTime now);
  bool peer_lost() const { return peer_lost_; }

  // --- Environment input ----------------------------------------------------

  // Client packet bound for the guest NIC, delivered at `now` like
  // World::InjectPacket. The node buffers-and-relays (active) or queues
  // until promotion (standing backup) — identical to the simulation's
  // RouteInput semantics for a two-node chain.
  void InjectPacket(const std::vector<uint8_t>& payload, SimTime now);

  // --- Execution ------------------------------------------------------------

  // Deterministic catch-up to `now`: alternates node slices and queue
  // events in time order — the replica runs up to each event before the
  // event fires, injected frames and packets included — until the next
  // actionable instant is past `now`. Single-node World::RunLoop, except
  // that events stamped exactly `now` are handled too, so inputs stamped
  // with the instant the host advances to are not left for the next call.
  void Advance(SimTime now);

  // --- Introspection --------------------------------------------------------
  ReplicaNode& node() { return *node_; }
  DeviceSet& devices() { return *devices_; }
  Nic* nic() { return devices_->nic(); }
  Channel& wire_out() { return *wire_out_; }
  Channel& wire_in() { return *wire_in_; }
  HostRole role() const { return role_; }

  // Whether this node currently answers for the environment: a live primary
  // always; a backup once its upstream is known dead (inputs queue until the
  // promotion completes, exactly like the simulated successor window).
  bool ActiveForEnvironment() const;

 private:
  HostRole role_;
  SimTime failure_detect_timeout_;
  EventQueue queue_;
  std::unique_ptr<DeviceSet> devices_;
  std::unique_ptr<Channel> wire_out_;
  std::unique_ptr<Channel> wire_in_;
  std::unique_ptr<ReplicaNode> node_;
  bool peer_lost_ = false;
};

}  // namespace serve
}  // namespace hbft

#endif  // HBFT_SERVE_NODE_HOST_HPP_
