// The replica: one class for every position in the chain, rules P1-P7 of
// the paper's protocol.
//
// A replica is either *active* or *standing*. The active replica runs the
// guest against the real environment: it simulates environment instructions
// on its local clock (forwarding every value downstream), drives the real
// devices through the registry, relays completions as [E, Int] messages, and
// at each epoch boundary runs P2:
//
//   - send [Tme_p] (the virtual clock registers);
//   - original protocol: await acknowledgments for all messages sent;
//   - add interrupts based on Tme_p (interval timer);
//   - deliver all interrupts buffered during the epoch;
//   - send [end, E]; start epoch E+1.
//
// Under the revised protocol (section 4.3) the boundary ack wait is dropped;
// instead any device interaction blocks until everything sent is acked
// (output commit), so nothing the environment can observe depends on state
// a backup might not reach.
//
// A standing replica executes the same instruction stream, one epoch behind
// at most in protocol terms (it cannot start epoch E+1 before receiving
// [end, E]). Its hypervisor suppresses every I/O initiation, recording it as
// outstanding; completions arrive only as relayed [E, Int] messages and are
// delivered at the end of epoch E, exactly where the active replica
// delivered them. Environment values (TOD reads) are consumed from the
// forwarded stream in order; if a value has not arrived the replica stalls —
// mirroring the Environment Instruction Assumption. A standing replica with
// a backup of its own relays every protocol message downstream verbatim and
// defers its upstream acknowledgment until the relay is acknowledged below
// (cascaded acks), so the output-commit wait covers the whole chain.
//
// The primary is a replica with no upstream link: it starts active. Every
// other replica starts standing and becomes active only by promotion, so a
// promoted backup runs the primary's P1/P2 code, against its own backup if
// it has one. Failover:
//   * If the failure detector fires while the backup waits at an epoch
//     boundary (P6): deliver what was buffered for the epoch, synthesise
//     uncertain interrupts for every outstanding operation (P7), promote.
//   * If it fires while the backup is stalled mid-epoch on an environment
//     value: the missing value proves the upstream died before executing
//     that instruction, so nothing after it was ever revealed to the
//     environment — the backup promotes mid-epoch and simulates environment
//     instructions locally from that point on.
//   * Forwarded environment values that arrived before the crash are still
//     consumed after promotion: the dead upstream may have performed I/O
//     whose effects depended on them.
// Channel FIFO order guarantees the downstream node's buffered state holds
// nothing beyond the failover epoch, so the promoted node's own [Tme]/
// [end, E] simply continue the stream. An active replica whose backup dies
// continues unreplicated (solo) — the paper's "replacing the backup is
// orthogonal" case — until a live state transfer attaches a new one.
#ifndef HBFT_CORE_REPLICA_HPP_
#define HBFT_CORE_REPLICA_HPP_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "core/protocol.hpp"

namespace hbft {

class ReplicaNode : public NodeActor {
 public:
  // A replica whose links have no upstream (`links.up_in == nullptr`) starts
  // active: it is the chain's primary.
  ReplicaNode(int id, const GuestProgram& guest, const MachineConfig& machine_config,
              const ReplicationConfig& replication, const CostModel& costs,
              std::unique_ptr<DeviceRegistry> devices, const NodeLinks& links,
              EventScheduler* scheduler);

  void RunSlice(SimTime until) override;
  SimTime clock() const override { return hv_.clock(); }
  bool runnable() const override { return runnable_ && !halted_ && !dead_; }
  bool halted() const override { return halted_; }
  bool dead() const override { return dead_; }
  bool joining() const override { return joining_; }

  Hypervisor& hypervisor() { return hv_; }
  const Hypervisor& hypervisor() const { return hv_; }
  DeviceRegistry& devices() { return hv_.devices(); }
  uint64_t epoch() const { return epoch_; }
  int id() const { return id_; }

  // Promoted: a standing replica that took over after its upstream died.
  bool promoted() const { return promoted_; }
  SimTime promotion_time() const { return promotion_time_; }
  // Active with no live downstream: replication off, service continues.
  bool solo() const { return active_ && !replicating_down(); }

  // Environment input bound for the guest (console characters, NIC
  // packets), shaped by the owning device model into the one generic
  // completion path. The active replica buffers and relays it like any
  // device interrupt; a standing replica — the successor between a crash and
  // its promotion — queues it until it takes over (the replication
  // invariant forbids locally-sourced interrupts before then).
  void InjectInput(DeviceId device, const std::vector<uint8_t>& payload, SimTime t);

  // Wired by the world: delivers queued channel messages to this node,
  // merging the upstream protocol stream and downstream acknowledgments in
  // arrival order.
  void PollIncoming(SimTime now);

  // Fail-stop crash: the node stops executing and its outbound channels
  // break; messages already sent still arrive (paper failure model).
  void Kill(SimTime t) {
    dead_ = true;
    runnable_ = false;
    if (up_out_ != nullptr) {
      up_out_->Break(t);
    }
    if (down_out_ != nullptr) {
      down_out_->Break(t);
    }
  }

  // Failure-detector notification: this node's upstream (the active replica)
  // died; its channel drained and the timeout elapsed.
  void OnFailureDetected(SimTime t);

  // This node's own downstream backup died (the failure detector saw its
  // acknowledgments stop): stop replicating downstream, flush deferred
  // upstream acknowledgments, release any wait on the dead node's acks.
  void OnDownstreamFailureDetected(SimTime t);

  // --- Repair: live state transfer (world wiring) ---------------------------

  // Source side: adopt a fresh joining downstream — point the node at the
  // new channel pair, reset downstream ack bookkeeping, and begin the
  // pre-copy stream. The node keeps executing; replication to the joiner
  // starts only at the cut, and until then the joiner is not a protocol
  // downstream (no relays, no deferred acks).
  void AttachJoiningDownstream(Channel* down_out, Channel* down_in, SimTime t);

  // Receiver side: park the node in joining mode (memory zeroed, guest
  // never runs) until the transfer's control chunk restores a complete
  // machine, at which point it becomes a normal standing backup.
  void StartAsJoiner();

  bool transfer_active() const { return transfer_active_; }

  // Whether this node can adopt a joiner right now: no downstream, or the
  // old one's failure already detected. A node whose downstream died but
  // whose failure-detection event has not fired yet is NOT ready — attaching
  // then would race the pending detection callback into the fresh transfer.
  bool CanAdoptJoiner() const { return down_out_ == nullptr || down_lost_; }

  // Joiner-side outcome, for scenario reports.
  bool joined() const { return joined_; }
  SimTime join_time() const { return join_time_; }
  uint64_t join_epoch() const { return join_epoch_; }

  // World callbacks: the source's cut (with its final report, whose cut
  // epoch is where the joiner resumes) and the joiner's restore completion.
  void set_on_resync_cut(std::function<void(const StateTransferSource::Report&)> fn) {
    on_resync_cut_ = std::move(fn);
  }
  void set_on_joined(std::function<void(SimTime)> fn) { on_joined_ = std::move(fn); }

  struct Stats {
    uint64_t messages_sent = 0;
    uint64_t acks_received = 0;
    uint64_t relays_forwarded = 0;
    uint64_t env_values = 0;
    uint64_t io_issued = 0;
    uint64_t io_suppressed = 0;
    uint64_t uncertain_synthesised = 0;
    uint64_t epochs = 0;
    SimTime ack_wait_time = SimTime::Zero();
    SimTime boundary_time = SimTime::Zero();  // Total epoch-boundary processing.
  };
  const Stats& stats() const { return stats_; }

  // Lockstep audit trail: one VM-state fingerprint per completed epoch
  // boundary, recorded at the identical instruction-stream point on all
  // replicas (requires ReplicationConfig::audit_lockstep).
  const std::vector<uint64_t>& boundary_fingerprints() const { return boundary_fingerprints_; }

  // Failure-injection hook, fired at each protocol phase while this node is
  // active, with the current epoch and the guest I/O sequence number (0
  // outside I/O phases).
  void set_phase_hook(std::function<void(FailPhase, uint64_t, uint64_t)> hook) {
    phase_hook_ = std::move(hook);
  }

  // World wiring: wakes the neighbour so it polls at a message's arrival.
  void set_schedule_down_poll(std::function<void(SimTime)> fn) {
    schedule_down_poll_ = std::move(fn);
  }
  void set_schedule_up_poll(std::function<void(SimTime)> fn) {
    schedule_up_poll_ = std::move(fn);
  }

 private:
  enum class State {
    kRun,
    kStallTod,         // Standing, mid-epoch: awaiting a forwarded environment value.
    kAwaitTme,         // Standing, P5: epoch done, awaiting [Tme_p].
    kAwaitEnd,         // Standing, P5: clocks synced, awaiting [end, E].
    kAwaitDownAcks,    // Active, original protocol: P2 ack wait (downstream).
    kIoAwaitDownAcks,  // Active, revised protocol: output commit before I/O.
  };

  // --- Messages ---------------------------------------------------------------

  void OnMessage(const Message& msg, SimTime now);
  // The upstream channel discarded stale/post-gap frames: repeat the
  // cumulative acknowledgment so a lost final ack cannot wedge the sender's
  // retransmit window.
  void OnTransportReackNeeded(SimTime now);

  // Sends a protocol message downstream, charging CPU cost and scheduling
  // the downstream node's poll at the arrival time.
  void SendDown(Message msg);
  // Sends a message upstream (acknowledgments), same accounting.
  void SendUp(Message msg);

  void SendAckUp(uint64_t seq);
  void ReleaseDeferredAcks();

  // Whether this node replicates to a live downstream backup. False while a
  // state transfer is streaming: the joiner cannot consume protocol messages
  // until it holds the complete snapshot.
  bool replicating_down() const {
    return down_out_ != nullptr && !down_lost_ && !transfer_active_;
  }

  // Downstream ack accounting (paper P2/P4): down_out_->messages_enqueued()
  // vs acks seen on down_in_. The comparison is against unique messages
  // accepted by the channel, never wire sends — retransmissions must not
  // inflate the ack requirement. Vacuously true when not replicating down.
  bool AllDownAcked() const {
    return !replicating_down() || down_acked_count_ >= down_out_->messages_enqueued();
  }

  // Records a downstream cumulative ack: advances the ack count, releases
  // the channel's go-back-N window, and lets a paced state transfer send
  // its next chunks.
  void NoteDownAck(uint64_t ack_seq);

  // Resumes a P2 boundary wait or an output-commit gate (issuing the gated
  // operation) once the downstream acknowledgments it waits for are in, or
  // can never come.
  void ReleaseAckWait();
  // Retries a standing wait — a stalled environment read or P5 — after a
  // message or the failure verdict changed what it waits on.
  void RetryStandingWait();

  // --- Go-back-N retransmission driver (lossy links only) -------------------
  // One timer per node covers its downstream channel; the channel itself
  // decides whether a resend is due. The timer re-arms while the unacked
  // window is non-empty and dies with the node (or with its downstream).
  void EnsureRetransmitTimer();
  void OnRetransmitTimer(SimTime t);

  // --- Guest execution ------------------------------------------------------

  void ServeTodRead();
  void ServeTodLocally();
  void TryAdvanceBoundary();
  void ActiveBoundary();
  void FinishActiveBoundary();
  // Closes an epoch boundary on every path (P2, P5, P6): starts epoch E+1
  // and lets a streaming state transfer run its delta round or cut.
  void BeginNextEpoch();
  void HandleIoInitiation(IoDescriptor io);
  uint32_t DeliverForEpoch(uint64_t tme);

  // Issues a guest I/O command against the real device backend, which owns
  // it until its completion event (HandleIoCompletion) or this node's crash,
  // and lets the guest continue past the command. Only the active replica
  // calls this.
  void IssueRealIo(IoDescriptor io);
  // P1 for a completion on the active replica — a real device's, or
  // environment input shaped by its device — uniformly for every device.
  void HandleIoCompletion(IoCompletionPayload payload, SimTime event_time);
  // Buffers `payload` for end-of-epoch delivery and relays it downstream
  // while this node replicates: P1, shared by completions and P7's
  // synthesis path. Takes the payload by value so the relay message can
  // steal it — a disk-read completion carries an 8K block.
  void BufferAndRelay(IoCompletionPayload payload);

  // --- Failover (P6/P7) -----------------------------------------------------

  // The promotion steps both takeover points share.
  void TakeOver();
  void PromoteAtBoundary();
  void PromoteMidEpoch();
  void SynthesiseUncertainInterrupts();
  void FlushPendingInputs();

  // --- Live state transfer --------------------------------------------------
  // Source side: chunks ride SendDown like protocol messages; pacing compares
  // the downstream channel's enqueued count against the cumulative acks.

  // Sends chunks while the unacked window has room.
  void PumpStateTransfer();
  void SendNextStateChunk();
  // Called at the end of every completed epoch boundary: runs the delta
  // round, and performs the quiesce + cut once the dirty rate converges.
  void TransferBoundaryHook();
  // The joiner died mid-transfer: stop streaming and drop the tracking.
  void AbortStateTransfer();
  uint64_t UnackedDownstream() const;

  // The protocol-layer half of the cut's control snapshot (the hypervisor
  // half precedes it): epoch, environment-value numbering, boundary
  // bookkeeping and outstanding operations — what the joiner needs to run
  // as this node's backup.
  void CaptureResyncNodeState(SnapshotWriter& w) const;
  bool RestoreResyncNodeState(SnapshotReader& r);
  // Receiver side: absorbs pages, and the control chunk restores the full
  // machine + protocol state, completing the join.
  void ApplyStateChunk(const Message& msg, SimTime now);

  // --- Helpers --------------------------------------------------------------

  void Phase(FailPhase phase, uint64_t io_seq = 0) {
    if (phase_hook_) {
      phase_hook_(phase, epoch_, io_seq);
    }
  }

  uint64_t TodNow() const { return static_cast<uint64_t>(costs_.TodFromTime(hv_.clock())); }

  // The node handles an event no earlier than its wall-clock instant.
  void CatchUpClock(SimTime t) {
    if (hv_.clock() < t) {
      hv_.SetClock(t);
    }
  }

  void RecordBoundaryFingerprint() {
    if (replication_.audit_lockstep) {
      boundary_fingerprints_.push_back(hv_.machine().Fingerprint());
    }
  }

  // --- State ----------------------------------------------------------------

  int id_ = 0;
  ReplicationConfig replication_;
  CostModel costs_;
  Hypervisor hv_;
  Channel* up_in_ = nullptr;
  Channel* up_out_ = nullptr;
  Channel* down_out_ = nullptr;
  Channel* down_in_ = nullptr;
  EventScheduler* scheduler_ = nullptr;
  std::function<void(SimTime)> schedule_down_poll_;
  std::function<void(SimTime)> schedule_up_poll_;
  std::function<void(FailPhase, uint64_t, uint64_t)> phase_hook_;

  uint64_t epoch_ = 0;
  bool runnable_ = true;
  bool halted_ = false;
  bool dead_ = false;

  State state_ = State::kRun;
  bool active_ = false;     // Drives real devices, serves environment locally.
  bool promoted_ = false;
  bool down_lost_ = false;  // Own backup died: no more relaying.
  bool failure_detected_ = false;
  SimTime promotion_time_ = SimTime::Zero();

  uint64_t down_acked_count_ = 0;  // Downstream acks seen.
  bool retx_timer_armed_ = false;

  // Forwarded environment values, consumed in order.
  std::deque<Message> env_values_;
  uint64_t next_env_seq_ = 0;
  // Environment values sent downstream: relayed ones while standing,
  // generated ones while active (continuing the upstream's numbering).
  uint64_t down_env_seq_ = 0;

  // P5 bookkeeping: Tme and end messages arrive in epoch order.
  std::deque<uint64_t> tme_queue_;
  uint64_t ends_received_ = 0;  // Count of [end, E] messages (E = 0,1,2,...).
  uint64_t boundary_tme_ = 0;
  bool boundary_tme_valid_ = false;

  // Cascaded acknowledgments: upstream sequence numbers whose ack waits for
  // the corresponding relay's downstream ack (FIFO on both channels, so the
  // i-th outstanding relay releases the front entry). After a state
  // transfer, `down_ack_base_` discounts the chunk messages that precede the
  // first relay on the (fresh) downstream channel.
  std::deque<uint64_t> deferred_up_acks_;
  uint64_t deferred_released_ = 0;  // Relays whose upstream ack went out.
  uint64_t down_ack_base_ = 0;      // Downstream enqueue count at the cut.

  // The cumulative high-water mark actually announced upstream (repeated on
  // transport re-ack requests).
  bool up_acked_any_ = false;
  uint64_t last_up_ack_seq_ = 0;

  // Active-role boundary/IO state.
  uint64_t active_tme_ = 0;
  SimTime boundary_started_ = SimTime::Zero();
  SimTime ack_wait_started_ = SimTime::Zero();
  std::optional<IoDescriptor> gated_io_;

  // I/O initiations executed (and suppressed) while standing but whose
  // completion has not been delivered: candidates for P7 uncertain
  // interrupts, across every registered device.
  std::map<uint64_t, IoDescriptor> outstanding_io_;

  // Environment input that arrived between the crash and promotion, already
  // shaped as completions by the owning device models.
  std::deque<IoCompletionPayload> pending_inputs_;

  // Live state transfer: source-side stream, joiner-side outcome.
  bool joining_ = false;
  bool transfer_active_ = false;
  std::unique_ptr<StateTransferSource> transfer_;
  bool joined_ = false;
  SimTime join_time_ = SimTime::Zero();
  uint64_t join_epoch_ = 0;
  std::function<void(const StateTransferSource::Report&)> on_resync_cut_;
  std::function<void(SimTime)> on_joined_;

  Stats stats_;
  std::vector<uint64_t> boundary_fingerprints_;
};

}  // namespace hbft

#endif  // HBFT_CORE_REPLICA_HPP_
