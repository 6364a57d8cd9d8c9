#include "core/replica.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace hbft {

namespace {

MachineConfig WithHostFirst(MachineConfig config, int node_id) {
  config.trap_mode = TrapMode::kHostFirst;
  // Per-machine hardware nondeterminism (TLB victim choice) is seeded by the
  // node id — different on every replica, as on real hardware.
  config.machine_seed = config.machine_seed * 1000003ULL + static_cast<uint64_t>(node_id) + 1;
  return config;
}

HypervisorConfig HvConfigFrom(const ReplicationConfig& replication) {
  HypervisorConfig hv;
  hv.epoch_length = replication.epoch_length;
  hv.tlb_takeover = replication.tlb_takeover;
  return hv;
}

}  // namespace

ReplicaNode::ReplicaNode(int id, const GuestProgram& guest, const MachineConfig& machine_config,
                         const ReplicationConfig& replication, const CostModel& costs,
                         std::unique_ptr<DeviceRegistry> devices, const NodeLinks& links,
                         EventScheduler* scheduler)
    : id_(id),
      replication_(replication),
      costs_(costs),
      hv_(WithHostFirst(machine_config, id), HvConfigFrom(replication), costs,
          std::move(devices)),
      up_in_(links.up_in),
      up_out_(links.up_out),
      down_out_(links.down_out),
      down_in_(links.down_in),
      scheduler_(scheduler),
      active_(links.up_in == nullptr) {
  HBFT_CHECK(guest.image != nullptr);
  hv_.machine().LoadImage(*guest.image);
  hv_.machine().cpu().pc = guest.entry_pc;
  if (guest.wait_loop_end > guest.wait_loop_begin) {
    hv_.machine().ConfigureIdleLoop(guest.wait_loop_begin, guest.wait_loop_end);
  }
  // The guest boots at virtual privilege 0 = real privilege 1, VM off, IE off.
  hv_.machine().cpu().cr[kCrStatus] = 1;
  hv_.BeginEpoch();
}

void ReplicaNode::RunSlice(SimTime until) {
  while (!dead_ && !halted_ && runnable_ && hv_.clock() < until) {
    switch (state_) {
      case State::kRun: {
        // Cap the horizon by events this node scheduled mid-slice.
        SimTime horizon = scheduler_->NextEventTime();
        if (horizon > until) {
          horizon = until;
        }
        if (hv_.clock() >= horizon) {
          return;
        }
        GuestEvent event = hv_.RunGuest(horizon);
        if (dead_) {
          return;
        }
        switch (event.kind) {
          case GuestEvent::Kind::kNone:
            return;  // Horizon reached.

          case GuestEvent::Kind::kTodRead:
            ServeTodRead();
            break;

          case GuestEvent::Kind::kIoCommand: {
            if (active_) {
              HandleIoInitiation(std::move(event.io));
            } else {
              // P3 / section 2.2 case (i): suppress, record as outstanding.
              const uint64_t seq = event.io.guest_op_seq;
              outstanding_io_[seq] = std::move(event.io);
              ++stats_.io_suppressed;
              hv_.CompleteIoCommand();
            }
            break;
          }

          case GuestEvent::Kind::kEpochEnd:
            RecordBoundaryFingerprint();
            if (active_) {
              ActiveBoundary();
            } else {
              state_ = State::kAwaitTme;
              TryAdvanceBoundary();
            }
            break;

          case GuestEvent::Kind::kHalted:
            halted_ = true;
            return;
        }
        break;
      }
      case State::kStallTod:
      case State::kAwaitTme:
      case State::kAwaitEnd:
        RetryStandingWait();
        if (state_ != State::kRun) {
          runnable_ = false;
          return;
        }
        break;
      case State::kAwaitDownAcks:
      case State::kIoAwaitDownAcks:
        // ReleaseAckWait resolves these (an ack, or the downstream's death).
        runnable_ = false;
        return;
    }
  }
}

// --- Environment instructions ------------------------------------------------

void ReplicaNode::ServeTodRead() {
  // Forwarded values are consumed in order even after promotion: the dead
  // upstream may have revealed I/O that depended on them.
  if (!env_values_.empty()) {
    const Message& msg = env_values_.front();
    HBFT_CHECK_EQ(msg.env_seq, next_env_seq_);
    ++next_env_seq_;
    ++stats_.env_values;
    hv_.CompleteTodRead(msg.env_value);
    env_values_.pop_front();
    state_ = State::kRun;
    runnable_ = true;
    return;
  }
  if (active_) {
    ServeTodLocally();
    return;
  }
  if (failure_detected_) {
    // The value never arrived, so the upstream died before executing this
    // instruction; nothing after it reached the environment. Promote here.
    PromoteMidEpoch();
    ServeTodLocally();
    return;
  }
  state_ = State::kStallTod;  // Await the [E, seq, value] message.
}

void ReplicaNode::ServeTodLocally() {
  // Environment instruction: simulate against the local clock and forward
  // the result so the backup's simulation has the same effect (a promoted
  // node continues the dead upstream's numbering: all earlier values were
  // relayed on receipt).
  uint64_t value = TodNow();
  if (replicating_down()) {
    Message msg;
    msg.type = MsgType::kEnvValue;
    msg.epoch = epoch_;
    msg.env_seq = down_env_seq_++;
    msg.env_value = value;
    SendDown(std::move(msg));
    ++stats_.env_values;
  }
  hv_.CompleteTodRead(value);
  state_ = State::kRun;
  runnable_ = true;
}

// --- Epoch boundaries (P2 active, P5 standing) -------------------------------

uint32_t ReplicaNode::DeliverForEpoch(uint64_t tme) {
  return hv_.DeliverEpochInterrupts(epoch_, tme, [this](const VirtualInterrupt& vi) {
    if (vi.io.has_value() && vi.io->guest_op_seq != 0) {
      outstanding_io_.erase(vi.io->guest_op_seq);
    }
  });
}

void ReplicaNode::TryAdvanceBoundary() {
  if (state_ == State::kAwaitTme) {
    if (!tme_queue_.empty()) {
      hv_.AdvanceClock(costs_.backup_boundary_cost);
      boundary_tme_ = tme_queue_.front();
      boundary_tme_valid_ = true;
      tme_queue_.pop_front();
      state_ = State::kAwaitEnd;
    } else if (failure_detected_) {
      PromoteAtBoundary();
      return;
    } else {
      return;  // Blocked.
    }
  }
  if (state_ == State::kAwaitEnd) {
    if (ends_received_ > epoch_) {
      // [end, E] received: deliver exactly what the upstream delivered.
      DeliverForEpoch(boundary_tme_);
      boundary_tme_valid_ = false;
      BeginNextEpoch();
    } else if (failure_detected_) {
      PromoteAtBoundary();
    }
  }
}

void ReplicaNode::ActiveBoundary() {
  boundary_started_ = hv_.clock();
  Phase(FailPhase::kBeforeSendTme);
  if (dead_) {
    return;
  }
  hv_.AdvanceClock(costs_.epoch_boundary_fixed_cost);
  active_tme_ = TodNow();
  if (replicating_down()) {
    Message msg;
    msg.type = MsgType::kTimeSync;
    msg.epoch = epoch_;
    msg.tod_value = active_tme_;
    SendDown(std::move(msg));
  }
  Phase(FailPhase::kAfterSendTme);
  if (dead_) {
    return;
  }
  if (replication_.variant == ProtocolVariant::kOriginal && !AllDownAcked()) {
    state_ = State::kAwaitDownAcks;
    ack_wait_started_ = hv_.clock();
    runnable_ = false;
    return;
  }
  FinishActiveBoundary();
}

void ReplicaNode::FinishActiveBoundary() {
  Phase(FailPhase::kAfterAckWait);
  if (dead_) {
    return;
  }
  SynthesiseUncertainInterrupts();  // No-op except right after promotion.
  DeliverForEpoch(active_tme_);
  Phase(FailPhase::kAfterDeliver);
  if (dead_) {
    return;
  }
  if (replicating_down()) {
    Message end;
    end.type = MsgType::kEpochEnd;
    end.epoch = epoch_;
    SendDown(std::move(end));
  }
  Phase(FailPhase::kAfterSendEnd);
  if (dead_) {
    return;
  }
  stats_.boundary_time += hv_.clock() - boundary_started_;
  BeginNextEpoch();
}

void ReplicaNode::BeginNextEpoch() {
  ++epoch_;
  ++stats_.epochs;
  hv_.BeginEpoch();
  state_ = State::kRun;
  runnable_ = true;
  TransferBoundaryHook();
}

// --- Real devices (active) ---------------------------------------------------

void ReplicaNode::HandleIoInitiation(IoDescriptor io) {
  Phase(FailPhase::kBeforeIoIssue, io.guest_op_seq);
  if (dead_) {
    return;
  }
  if (replication_.variant == ProtocolVariant::kRevised && !AllDownAcked()) {
    // Output commit: the environment must not observe effects that depend on
    // messages the backup has not confirmed (section 4.3).
    state_ = State::kIoAwaitDownAcks;
    gated_io_ = std::move(io);
    ack_wait_started_ = hv_.clock();
    runnable_ = false;
    return;
  }
  IssueRealIo(std::move(io));
}

void ReplicaNode::IssueRealIo(IoDescriptor io) {
  ++stats_.io_issued;
  VirtualDevice* device = hv_.devices().by_id(io.device_id);
  HBFT_CHECK(device != nullptr) << "I/O for unregistered device "
                                << static_cast<uint32_t>(io.device_id);
  DeviceBackend* backend = device->backend();
  HBFT_CHECK(backend != nullptr) << device->name() << " has no backend";
  const uint64_t seq = io.guest_op_seq;
  DeviceBackend::Issued issued = backend->Issue(std::move(io), id_, hv_.clock());
  SimTime completion = hv_.clock() + issued.latency;
  const uint64_t op_id = issued.op_id;
  scheduler_->ScheduleAt(completion, [this, backend, op_id, completion] {
    if (!dead_ && !halted_) {
      HandleIoCompletion(backend->Complete(op_id), completion);
    }
  });
  Phase(FailPhase::kAfterIoIssue, seq);
  if (!dead_) {
    hv_.CompleteIoCommand();
  }
}

void ReplicaNode::HandleIoCompletion(IoCompletionPayload payload, SimTime event_time) {
  HBFT_CHECK(active_);  // Only the active replica drives the real devices.
  CatchUpClock(event_time);
  hv_.AdvanceClock(costs_.hv_interrupt_deliver_cost);  // Host interrupt entry.
  BufferAndRelay(std::move(payload));
}

void ReplicaNode::InjectInput(DeviceId device, const std::vector<uint8_t>& payload, SimTime t) {
  if (dead_ || halted_ || joining_) {
    return;  // A joiner never serves the environment; the world routes around it.
  }
  VirtualDevice* dev = hv_.devices().by_id(device);
  HBFT_CHECK(dev != nullptr);
  IoCompletionPayload completion;
  if (!dev->MakeInputCompletion(payload, &completion)) {
    return;  // The device takes no environment input.
  }
  if (!active_) {
    pending_inputs_.push_back(std::move(completion));
    return;
  }
  HandleIoCompletion(std::move(completion), t);
}

void ReplicaNode::BufferAndRelay(IoCompletionPayload payload) {
  VirtualInterrupt vi;
  vi.irq_line = payload.device_irq;
  vi.epoch = epoch_;
  vi.io = payload;
  hv_.BufferInterrupt(vi);  // P1: buffer for delivery at the end of the epoch.

  if (replicating_down()) {
    Message msg;  // P1: send [E, Int] (with any read data: the paper's
    msg.type = MsgType::kInterrupt;  // "9 messages for an 8K block").
    msg.epoch = epoch_;
    msg.irq_lines = payload.device_irq;
    msg.io = std::move(payload);
    SendDown(std::move(msg));
  }
}

// --- Failover (P6/P7) --------------------------------------------------------

void ReplicaNode::SynthesiseUncertainInterrupts() {
  // P7: every outstanding operation gets an uncertain completion, forcing the
  // guest driver down its retry path — the environment cannot distinguish
  // this from a transient device fault. The owning device model shapes each
  // completion, so every registered device is covered uniformly.
  for (const auto& [seq, io] : outstanding_io_) {
    VirtualDevice* device = hv_.devices().by_id(io.device_id);
    HBFT_CHECK(device != nullptr);
    // P1 when relaying: the downstream backup must see the same uncertain
    // completions so it retires the same outstanding set.
    BufferAndRelay(device->MakeUncertainCompletion(io));
    ++stats_.uncertain_synthesised;
  }
  outstanding_io_.clear();
}

void ReplicaNode::TakeOver() {
  promoted_ = true;
  active_ = true;
  promotion_time_ = hv_.clock();
  // Completions relayed for epochs beyond E will never be delivered through
  // the protocol; drop them and let the uncertain path re-drive the ops.
  // (Channel FIFO order makes this vacuous — nothing sent after the missing
  // [end, E] can have arrived — but it is cheap insurance.)
  hv_.PurgeBufferedAfter(epoch_);
  deferred_up_acks_.clear();  // The upstream that expected them is dead.
}

void ReplicaNode::PromoteAtBoundary() {
  // P6: the expected [end, E] will never come. Deliver what the upstream
  // relayed for this epoch, re-drive everything else via P7, take over.
  TakeOver();
  uint64_t tme = boundary_tme_valid_ ? boundary_tme_ : TodNow();
  if (replicating_down() && !boundary_tme_valid_) {
    // The dead upstream never prescribed this boundary: prescribe it for the
    // downstream backup ourselves. (If [Tme_p] did arrive, its relay already
    // went downstream.)
    Message msg;
    msg.type = MsgType::kTimeSync;
    msg.epoch = epoch_;
    msg.tod_value = tme;
    SendDown(std::move(msg));
  }
  SynthesiseUncertainInterrupts();
  FlushPendingInputs();
  DeliverForEpoch(tme);
  boundary_tme_valid_ = false;
  if (replicating_down()) {
    Message end;
    end.type = MsgType::kEpochEnd;
    end.epoch = epoch_;
    SendDown(std::move(end));
  }
  BeginNextEpoch();
}

void ReplicaNode::PromoteMidEpoch() {
  TakeOver();
  FlushPendingInputs();
  // Outstanding operations get their uncertain interrupts at the end of this
  // (failover) epoch, per P7 — FinishActiveBoundary handles it.
}

void ReplicaNode::FlushPendingInputs() {
  while (!pending_inputs_.empty()) {
    BufferAndRelay(std::move(pending_inputs_.front()));
    pending_inputs_.pop_front();
  }
}

void ReplicaNode::OnFailureDetected(SimTime t) {
  if (dead_ || halted_) {
    return;
  }
  // The survivor detects the failure only after receiving the last message
  // its upstream sent. Frames can have arrived unread: a go-back-N re-send
  // schedules one poll, at its last frame's arrival, and the crash may have
  // pruned that frame. Promoting before reading them would send an [end, E]
  // the dead upstream's own relayed copy then duplicates downstream.
  PollIncoming(t);
  failure_detected_ = true;
  CatchUpClock(t);
  RetryStandingWait();
}

void ReplicaNode::OnDownstreamFailureDetected(SimTime t) {
  if (dead_ || halted_ || down_lost_) {
    return;
  }
  AbortStateTransfer();  // No-op unless the dead downstream was mid-join.
  down_lost_ = true;
  CatchUpClock(t);
  if (down_out_ != nullptr) {
    down_out_->AbandonRetransmits();  // Nothing will ever ack the window.
  }
  // Upstream acknowledgments deferred on the dead node's acks must go out
  // now or the active replica stalls forever; one cumulative ack suffices.
  if (!deferred_up_acks_.empty()) {
    uint64_t last = deferred_up_acks_.back();
    deferred_up_acks_.clear();
    SendAckUp(last);
  }
  ReleaseAckWait();
}

// --- Messages ----------------------------------------------------------------

void ReplicaNode::PollIncoming(SimTime now) {
  if (dead_) {
    return;
  }
  // Merge the two inbound channels by arrival time (upstream first on ties,
  // deterministically).
  while (true) {
    std::optional<SimTime> up = up_in_ != nullptr ? up_in_->NextArrival() : std::nullopt;
    std::optional<SimTime> down = down_in_ != nullptr ? down_in_->NextArrival() : std::nullopt;
    Channel* source = nullptr;
    if (up.has_value() && *up <= now && (!down.has_value() || *up <= *down)) {
      source = up_in_;
    } else if (down.has_value() && *down <= now) {
      source = down_in_;
    } else {
      break;
    }
    auto msg = source->Receive(now);
    if (!msg.has_value()) {
      continue;  // Lossy link: stale/post-gap frames were consumed and discarded.
    }
    OnMessage(*msg, now);
    if (dead_) {
      return;
    }
  }
  if (up_in_ != nullptr && up_in_->TakeReackRequested()) {
    OnTransportReackNeeded(now);
  }
}

void ReplicaNode::OnMessage(const Message& msg, SimTime now) {
  if (dead_) {
    return;
  }
  CatchUpClock(now);

  if (msg.type == MsgType::kStateChunk) {
    // Live state transfer: only a joining replica consumes chunks, and FIFO
    // order means everything before the control chunk is a chunk.
    HBFT_CHECK(joining_) << "state chunk delivered to a non-joining replica";
    hv_.AdvanceClock(costs_.msg_receive_cpu_cost);
    ApplyStateChunk(msg, now);
    // Ack every chunk: the source's pre-copy window is paced by these.
    SendAckUp(msg.seq);
    return;
  }
  HBFT_CHECK(!joining_) << "protocol message reached a replica still joining";

  if (msg.type == MsgType::kAck) {
    // Acknowledgment from this node's own downstream backup: pays the
    // (cheap) ack-processing interrupt.
    hv_.AdvanceClock(costs_.ack_receive_cpu_cost);
    ++stats_.acks_received;
    NoteDownAck(msg.ack_seq);
    ReleaseDeferredAcks();
    ReleaseAckWait();
    return;
  }

  hv_.AdvanceClock(costs_.msg_receive_cpu_cost);

  switch (msg.type) {
    case MsgType::kInterrupt: {
      VirtualInterrupt vi;
      vi.irq_line = msg.irq_lines;
      vi.epoch = msg.epoch;
      vi.io = msg.io;
      hv_.BufferInterrupt(vi);  // P4: buffer for delivery at end of epoch E.
      break;
    }
    case MsgType::kEnvValue:
      env_values_.push_back(msg);
      break;
    case MsgType::kTimeSync:
      tme_queue_.push_back(msg.tod_value);
      break;
    case MsgType::kEpochEnd:
      HBFT_CHECK_EQ(msg.epoch, ends_received_);
      ++ends_received_;
      break;
    case MsgType::kAck:
    case MsgType::kStateChunk:
      break;  // Both handled above.
  }

  if (replicating_down()) {
    // Chain: pass the protocol stream on, and ack upstream only once the
    // downstream backup has acknowledged the relay (cascaded acks), so the
    // active replica's output-commit wait covers every surviving replica.
    SendDown(msg);  // A copy: the channel re-assigns the sequence number.
    ++stats_.relays_forwarded;
    if (msg.type == MsgType::kEnvValue) {
      HBFT_CHECK_EQ(msg.env_seq, down_env_seq_);
      ++down_env_seq_;
    }
    deferred_up_acks_.push_back(msg.seq);
  } else {
    SendAckUp(msg.seq);  // P4.
  }

  RetryStandingWait();  // Unblock waits satisfied by this message.
}

void ReplicaNode::ReleaseAckWait() {
  const bool boundary = state_ == State::kAwaitDownAcks;
  if ((!boundary && state_ != State::kIoAwaitDownAcks) || !AllDownAcked()) {
    return;
  }
  stats_.ack_wait_time += hv_.clock() - ack_wait_started_;
  state_ = State::kRun;
  runnable_ = true;
  if (boundary) {
    FinishActiveBoundary();
    return;
  }
  HBFT_CHECK(gated_io_.has_value());
  IoDescriptor io = std::move(*gated_io_);
  gated_io_.reset();
  IssueRealIo(std::move(io));
}

void ReplicaNode::RetryStandingWait() {
  if (state_ == State::kStallTod) {
    ServeTodRead();
  } else if (state_ == State::kAwaitTme || state_ == State::kAwaitEnd) {
    TryAdvanceBoundary();
  }
}

void ReplicaNode::SendDown(Message msg) {
  HBFT_CHECK(down_out_ != nullptr);
  hv_.AdvanceClock(costs_.msg_send_cpu_cost);
  auto arrival = down_out_->Send(std::move(msg), hv_.clock());
  if (!arrival.has_value()) {
    return;  // Channel broken: the message vanishes with the receiver.
  }
  ++stats_.messages_sent;
  if (schedule_down_poll_) {
    schedule_down_poll_(*arrival);
  }
  EnsureRetransmitTimer();
}

void ReplicaNode::SendUp(Message msg) {
  HBFT_CHECK(up_out_ != nullptr);
  hv_.AdvanceClock(costs_.msg_send_cpu_cost);
  auto arrival = up_out_->Send(std::move(msg), hv_.clock());
  if (!arrival.has_value()) {
    return;
  }
  ++stats_.messages_sent;
  if (schedule_up_poll_) {
    schedule_up_poll_(*arrival);
  }
}

void ReplicaNode::ReleaseDeferredAcks() {
  // The i-th relay sent downstream releases the i-th deferred upstream ack
  // (both channels are FIFO, and once this node relays every downstream send
  // is a relay; `down_ack_base_` discounts the state-transfer chunks that a
  // rejoin put on the channel first).
  while (!deferred_up_acks_.empty() && deferred_released_ + down_ack_base_ < down_acked_count_) {
    uint64_t seq = deferred_up_acks_.front();
    deferred_up_acks_.pop_front();
    ++deferred_released_;
    SendAckUp(seq);
  }
}

void ReplicaNode::SendAckUp(uint64_t seq) {
  Message ack;
  ack.type = MsgType::kAck;
  ack.ack_seq = seq;
  up_acked_any_ = true;
  last_up_ack_seq_ = seq;
  SendUp(std::move(ack));
}

void ReplicaNode::OnTransportReackNeeded(SimTime now) {
  // Repeat the cumulative ack so a lost final acknowledgment cannot leave the
  // sender retransmitting forever. Nothing to repeat before the first ack
  // (the sender's own timer keeps the window moving until one lands).
  if (dead_ || promoted_ || up_out_ == nullptr || !up_acked_any_) {
    return;
  }
  CatchUpClock(now);
  SendAckUp(last_up_ack_seq_);
}

void ReplicaNode::NoteDownAck(uint64_t ack_seq) {
  if (ack_seq + 1 > down_acked_count_) {
    down_acked_count_ = ack_seq + 1;
  }
  if (down_out_ != nullptr) {
    down_out_->OnCumulativeAck(down_acked_count_, hv_.clock());
  }
  PumpStateTransfer();
}

void ReplicaNode::EnsureRetransmitTimer() {
  if (retx_timer_armed_ || down_out_ == nullptr || !down_out_->NeedsRetransmitTimer()) {
    return;
  }
  auto deadline = down_out_->NextRetransmitDeadline();
  if (!deadline.has_value()) {
    return;
  }
  SimTime at = std::max(*deadline, hv_.clock());
  retx_timer_armed_ = true;
  scheduler_->ScheduleAt(at, [this, at] { OnRetransmitTimer(at); });
}

void ReplicaNode::OnRetransmitTimer(SimTime t) {
  retx_timer_armed_ = false;
  if (dead_ || down_out_ == nullptr) {
    return;
  }
  Channel::RetransmitResult result = down_out_->MaybeRetransmit(t);
  if (result.frames > 0 && schedule_down_poll_) {
    schedule_down_poll_(result.last_arrival);
  }
  EnsureRetransmitTimer();  // Re-arm while the unacked window is non-empty.
}

// --- Live state transfer -----------------------------------------------------

void ReplicaNode::StartAsJoiner() {
  joining_ = true;
  runnable_ = false;
  // The constructor booted the guest image; the transferred pages replace
  // everything, and untouched pages must read as the source's zeroes.
  PhysicalMemory& memory = hv_.machine().memory();
  memory.ZeroPages(0, memory.PageCount());
}

void ReplicaNode::AttachJoiningDownstream(Channel* down_out, Channel* down_in, SimTime t) {
  HBFT_CHECK(down_out != nullptr && down_in != nullptr);
  HBFT_CHECK(!transfer_active_) << "a transfer is already streaming from this node";
  down_out_ = down_out;
  down_in_ = down_in;
  // Bookkeeping restarts with the fresh channel pair: counts against a dead
  // downstream's channel are meaningless for the new one, and its deferred
  // acks were flushed when its failure was detected.
  down_acked_count_ = 0;
  down_lost_ = false;
  deferred_up_acks_.clear();
  deferred_released_ = 0;
  down_ack_base_ = 0;
  CatchUpClock(t);
  PhysicalMemory& memory = hv_.machine().memory();
  memory.BeginTransferTracking();
  transfer_ = std::make_unique<StateTransferSource>(memory.PageCount(), replication_.resync,
                                                    hv_.clock());
  transfer_active_ = true;
  PumpStateTransfer();
}

uint64_t ReplicaNode::UnackedDownstream() const {
  uint64_t enqueued = down_out_->messages_enqueued();
  return enqueued > down_acked_count_ ? enqueued - down_acked_count_ : 0;
}

void ReplicaNode::PumpStateTransfer() {
  if (!transfer_active_ || dead_ || halted_) {
    return;
  }
  while (transfer_->HasPending() && UnackedDownstream() < transfer_->window()) {
    SendNextStateChunk();
  }
}

void ReplicaNode::SendNextStateChunk() {
  PhysicalMemory& memory = hv_.machine().memory();
  uint32_t page = transfer_->PopPage();
  Message msg;
  msg.type = MsgType::kStateChunk;
  msg.epoch = epoch_;
  if (memory.PageIsZero(page)) {
    // Coalesce the run of consecutive queued zero pages into one chunk.
    uint32_t count = 1;
    while (transfer_->HasPending() && transfer_->PeekPage() == page + count &&
           memory.PageIsZero(transfer_->PeekPage())) {
      transfer_->PopPage();
      ++count;
    }
    msg.state_kind = StateChunkKind::kZeroRun;
    msg.state_page = page;
    msg.state_page_count = count;
    transfer_->NoteZeroRun(msg.WireSize());
  } else {
    msg.state_kind = StateChunkKind::kPage;
    msg.state_page = page;
    msg.state_data.resize(kPageBytes);
    memory.ReadBlock(page * kPageBytes, msg.state_data.data(), kPageBytes);
    transfer_->NotePageChunk(msg.WireSize());
  }
  SendDown(std::move(msg));
}

void ReplicaNode::AbortStateTransfer() {
  if (!transfer_active_) {
    return;
  }
  hv_.machine().memory().EndTransferTracking();
  transfer_active_ = false;
}

void ReplicaNode::TransferBoundaryHook() {
  if (!transfer_active_ || dead_ || halted_) {
    return;
  }
  PhysicalMemory& memory = hv_.machine().memory();
  std::vector<uint32_t> dirty = memory.TakeTransferDirtyPages();
  if (!transfer_->ReadyToCut(dirty.size())) {
    transfer_->EnqueueDelta(dirty);
    PumpStateTransfer();
    return;
  }

  // Quiesce + cut: the final dirty pages and the control snapshot leave
  // before the guest executes another instruction, so the stream up to here
  // is exactly the machine at the start of epoch `epoch_`. FIFO order makes
  // every post-cut protocol message land on a fully-restored joiner.
  transfer_->EnqueueDelta(dirty);
  while (transfer_->HasPending()) {
    SendNextStateChunk();
  }
  Snapshot control;
  SnapshotWriter w(&control);
  WriteSnapshotHeader(w);
  hv_.CaptureState(w, /*include_memory=*/false);
  CaptureResyncNodeState(w);
  Message done;
  done.type = MsgType::kStateChunk;
  done.state_kind = StateChunkKind::kControl;
  done.epoch = epoch_;
  done.state_data = std::move(control.bytes);
  transfer_->NoteControl(done.WireSize());
  SendDown(std::move(done));

  memory.EndTransferTracking();
  transfer_active_ = false;
  transfer_->MarkCut(hv_.clock(), epoch_);
  // From here every upstream message is relayed to (or, when active, every
  // environment value is generated for) the joiner: its numbering continues
  // exactly after the values the snapshot already carries.
  down_env_seq_ = next_env_seq_ + env_values_.size();
  deferred_released_ = 0;
  down_ack_base_ = down_out_->messages_enqueued();
  if (on_resync_cut_) {
    on_resync_cut_(transfer_->report());
  }
}

void ReplicaNode::CaptureResyncNodeState(SnapshotWriter& w) const {
  w.U64(epoch_);
  w.U64(next_env_seq_);
  w.U32(static_cast<uint32_t>(env_values_.size()));
  for (const Message& msg : env_values_) {
    w.U64(msg.env_seq);
    w.U64(msg.env_value);
  }
  // Standing source: the joiner mirrors this node's P5 bookkeeping — the
  // boundary messages received ahead of the cut travel in the snapshot, and
  // only post-cut messages are relayed. Active source: the joiner's next
  // [end, E] comes from this node's own boundary and carries E = epoch_.
  w.U64(active_ ? epoch_ : ends_received_);
  w.U32(static_cast<uint32_t>(tme_queue_.size()));
  for (uint64_t tme : tme_queue_) {
    w.U64(tme);
  }
  // Outstanding operations, in guest order (the joiner's P7 re-drive set on
  // a later failover): real in-flight operations while active — its guest
  // has issued them, and the backends hold them — and suppressed
  // initiations while standing.
  std::vector<const IoDescriptor*> outstanding;
  if (active_) {
    for (const auto& device : hv_.devices().devices()) {
      if (device->backend() != nullptr) {
        std::vector<const IoDescriptor*> in_flight = device->backend()->InFlight(id_);
        outstanding.insert(outstanding.end(), in_flight.begin(), in_flight.end());
      }
    }
  } else {
    for (const auto& [seq, io] : outstanding_io_) {
      outstanding.push_back(&io);
    }
  }
  std::sort(outstanding.begin(), outstanding.end(),
            [](const IoDescriptor* a, const IoDescriptor* b) {
              return a->guest_op_seq < b->guest_op_seq;
            });
  w.U32(static_cast<uint32_t>(outstanding.size()));
  for (const IoDescriptor* io : outstanding) {
    CaptureIoDescriptor(w, *io);
  }
}

bool ReplicaNode::RestoreResyncNodeState(SnapshotReader& r) {
  uint32_t env_count = 0;
  if (!r.U64(&epoch_) || !r.U64(&next_env_seq_) || !r.U32(&env_count)) {
    return false;
  }
  env_values_.clear();
  for (uint32_t i = 0; i < env_count; ++i) {
    Message msg;
    msg.type = MsgType::kEnvValue;
    if (!r.U64(&msg.env_seq) || !r.U64(&msg.env_value)) {
      return false;
    }
    env_values_.push_back(std::move(msg));
  }
  uint32_t tme_count = 0;
  if (!r.U64(&ends_received_) || !r.U32(&tme_count)) {
    return false;
  }
  tme_queue_.clear();
  for (uint32_t i = 0; i < tme_count; ++i) {
    uint64_t tme = 0;
    if (!r.U64(&tme)) {
      return false;
    }
    tme_queue_.push_back(tme);
  }
  uint32_t outstanding_count = 0;
  if (!r.U32(&outstanding_count)) {
    return false;
  }
  outstanding_io_.clear();
  for (uint32_t i = 0; i < outstanding_count; ++i) {
    IoDescriptor io;
    if (!RestoreIoDescriptor(r, &io)) {
      return false;
    }
    outstanding_io_[io.guest_op_seq] = std::move(io);
  }
  return true;
}

void ReplicaNode::ApplyStateChunk(const Message& msg, SimTime now) {
  PhysicalMemory& memory = hv_.machine().memory();
  switch (msg.state_kind) {
    case StateChunkKind::kPage: {
      HBFT_CHECK_EQ(msg.state_data.size(), static_cast<size_t>(kPageBytes));
      HBFT_CHECK(msg.state_page < memory.PageCount());
      memory.WriteBlock(msg.state_page * kPageBytes, msg.state_data.data(), kPageBytes);
      break;
    }
    case StateChunkKind::kZeroRun: {
      HBFT_CHECK(msg.state_page_count > 0 &&
                 msg.state_page + msg.state_page_count <= memory.PageCount());
      // Later deltas may re-zero a page sent earlier: zero, don't assume.
      memory.ZeroPages(msg.state_page, msg.state_page_count);
      break;
    }
    case StateChunkKind::kControl: {
      // Mirrors the source's cut: header, hypervisor state, node state.
      SnapshotReader reader(msg.state_data);
      HBFT_CHECK(ReadSnapshotHeader(reader)) << "resync control snapshot: bad header";
      HBFT_CHECK(hv_.RestoreState(reader, /*include_memory=*/false) &&
                 RestoreResyncNodeState(reader))
          << "resync control snapshot: malformed";
      HBFT_CHECK(reader.AtEnd()) << "resync control snapshot: trailing bytes";
      joining_ = false;
      joined_ = true;
      state_ = State::kRun;
      runnable_ = true;
      // The restored clock is the source's at the cut; this node handles the
      // arrival no earlier than now.
      CatchUpClock(now);
      join_time_ = hv_.clock();
      join_epoch_ = epoch_;
      if (on_joined_) {
        on_joined_(join_time_);
      }
      break;
    }
  }
}

}  // namespace hbft
