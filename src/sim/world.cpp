#include "sim/world.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "devices/device_set.hpp"
#include "sim/scenario.hpp"

namespace hbft {

namespace {
constexpr int kBareId = 0;
constexpr int kPrimaryId = 1;  // Backups are numbered 2, 3, ... down the chain.
}  // namespace

World::~World() = default;

World::World(const GuestProgram& guest, const WorldConfig& config, bool replicated)
    : config_(config), guest_(guest), crash_rng_(config.seed ^ 0xC4A5BEEFULL) {
  devices_ = std::make_unique<DeviceSet>(config.devices, config.costs, config.seed);

  if (!replicated) {
    bare_ = std::make_unique<BareNode>(kBareId, guest, config.machine, config.costs,
                                       devices_->BuildRegistry(), this);
    return;
  }

  HBFT_CHECK(config.backups >= 1) << "a replicated world needs at least one backup";
  const size_t n = static_cast<size_t>(config.backups) + 1;

  // Channel mesh: one link pair per adjacent chain pair.
  for (size_t i = 0; i + 1 < n; ++i) {
    AddLinkPair(i, i + 1, kMeshLinkSalt, i);
  }
  for (size_t i = 0; i < n; ++i) {
    replicas_.push_back(MakeReplica(i, ChainLinks(i, n)));
  }

  // Poll wiring: a send wakes the receiving neighbour at the arrival time.
  for (size_t i = 0; i + 1 < n; ++i) {
    WireAdjacentPolls(i, i + 1);
  }

  // The initial chain is index-linear; rejoins extend it below the tail.
  chain_next_.assign(n, kNoChain);
  chain_prev_.assign(n, kNoChain);
  for (size_t i = 0; i + 1 < n; ++i) {
    chain_next_[i] = i + 1;
    chain_prev_[i + 1] = i;
  }
}

World::World(const GuestProgram& guest, const WorldConfig& config, WirePosition wire)
    : config_(config),
      guest_(guest),
      crash_rng_(config.seed ^ 0xC4A5BEEFULL),
      wire_position_(wire.position) {
  const size_t chain_length = wire.peer ? 2 : 1;
  HBFT_CHECK(wire.position < chain_length)
      << "a wire position is one end of a two-replica chain, or a chain of one";
  devices_ = std::make_unique<DeviceSet>(config.devices, config.costs, config.seed);
  if (wire.peer) {
    AddLinkPair(0, 1, kMeshLinkSalt, 0);
  }
  replicas_.push_back(MakeReplica(wire.position, ChainLinks(wire.position, chain_length)));
  chain_next_.assign(1, kNoChain);
  chain_prev_.assign(1, kNoChain);
}

NodeLinks World::ChainLinks(size_t position, size_t n) {
  NodeLinks links;
  if (position > 0) {
    links.up_in = channel(position - 1, position);
    links.up_out = channel(position, position - 1);
  }
  if (position + 1 < n) {
    links.down_out = channel(position, position + 1);
    links.down_in = channel(position + 1, position);
  }
  return links;
}

std::unique_ptr<ReplicaNode> World::MakeReplica(size_t position, const NodeLinks& links) {
  const int id = kPrimaryId + static_cast<int>(position);
  return std::make_unique<ReplicaNode>(id, guest_, config_.machine, config_.replication,
                                       config_.costs, devices_->BuildRegistry(), links, this);
}

void World::AddLinkPair(size_t up, size_t down, uint64_t salt, size_t index) {
  const uint64_t seed = config_.seed;
  channels_[{up, down}] = std::make_unique<Channel>(config_.costs.link, ChannelMode::kOrdered,
                                                    config_.link_faults,
                                                    seed ^ (salt * (2 * index + 1)));
  channels_[{down, up}] = std::make_unique<Channel>(config_.costs.link, ChannelMode::kDatagram,
                                                    config_.link_faults,
                                                    seed ^ (salt * (2 * index + 2)));
}

void World::WireAdjacentPolls(size_t up_index, size_t down_index) {
  ReplicaNode* up = replicas_[up_index].get();
  ReplicaNode* down = replicas_[down_index].get();
  up->set_schedule_down_poll([this, down](SimTime arrival) {
    ScheduleAt(arrival, [down, arrival] { down->PollIncoming(arrival); });
  });
  down->set_schedule_up_poll([this, up](SimTime arrival) {
    ScheduleAt(arrival, [up, arrival] { up->PollIncoming(arrival); });
  });
}

Channel* World::channel(size_t from, size_t to) {
  auto it = channels_.find({from, to});
  HBFT_CHECK(it != channels_.end())
      << "no channel " << from << " -> " << to << " in the mesh";
  return it->second.get();
}

void World::ScheduleAt(SimTime t, std::function<void()> fn) { queue_.Push(t, std::move(fn)); }

void World::SetFailureSchedule(const FailureSchedule& schedule) {
  HBFT_CHECK(!replicas_.empty()) << "failure schedules require a replicated world";
  HBFT_CHECK(wire_position_ == kNoChain) << "a wire position fails only by losing its peer";
  bool seen_rejoin = false;
  for (const FailurePlan& plan : schedule) {
    if (plan.kind == FailurePlan::Kind::kRejoin) {
      seen_rejoin = true;
    }
    if (plan.after_resync) {
      HBFT_CHECK(seen_rejoin)
          << "an after-resync kill needs a preceding rejoin event to wait for";
    }
    if (plan.kind == FailurePlan::Kind::kAtPhase) {
      HBFT_CHECK(plan.target == FailurePlan::Target::kActive)
          << "phase-based kills target the active replica (standing backups run no "
             "device phases)";
    }
    if (plan.kind != FailurePlan::Kind::kRejoin && plan.target == FailurePlan::Target::kBackup) {
      HBFT_CHECK(plan.backup_index >= 0 &&
                 static_cast<size_t>(plan.backup_index) + 1 < replicas_.size())
          << "backup index " << plan.backup_index << " out of range";
    }
  }
  schedule_ = schedule;
  next_failure_ = 0;
  ArmNextFailure();
}

void World::ArmNextFailure() {
  if (next_failure_ >= schedule_.size()) {
    return;
  }
  const FailurePlan& plan = schedule_[next_failure_];
  const size_t idx = next_failure_;
  switch (plan.kind) {
    case FailurePlan::Kind::kNone:
      ++next_failure_;
      ArmNextFailure();
      return;
    case FailurePlan::Kind::kAtTime: {
      if (plan.after_resync) {
        if (resync_in_flight_) {
          // Armed by OnJoined once the pending transfer completes.
          pending_after_resync_ = true;
        } else if (!resyncs_.empty() && resyncs_.back().completed) {
          // The transfer already completed (intervening schedule events can
          // delay arming past the join): measure the delay from the join.
          SimTime at = std::max(resyncs_.back().join_time + plan.time, last_event_time_);
          ScheduleAt(at, [this, idx, at] { FireTimedFailure(idx, at); });
        }
        // Otherwise the rejoin was skipped or aborted: redundancy was never
        // restored, so the kill — and everything scheduled after it — stays
        // dormant.
        return;
      }
      SimTime at = plan.relative ? last_event_time_ + plan.time : plan.time;
      ScheduleAt(at, [this, idx, at] { FireTimedFailure(idx, at); });
      return;
    }
    case FailurePlan::Kind::kRejoin: {
      SimTime at = plan.relative ? last_event_time_ + plan.time : plan.time;
      ScheduleAt(at, [this, idx, at] { FireRejoin(idx, at); });
      return;
    }
    case FailurePlan::Kind::kAtPhase:
      // Install on every replica: phases fire only on the node that drives
      // the devices, and the hook checks it is the *current* active node, so
      // an event armed before a failover lands on the promoted successor.
      for (size_t i = 0; i < replicas_.size(); ++i) {
        replicas_[i]->set_phase_hook(
            [this, idx, i](FailPhase phase, uint64_t epoch, uint64_t io_seq) {
              OnPhaseHook(idx, i, phase, epoch, io_seq);
            });
      }
      return;
  }
}

void World::OnPhaseHook(size_t schedule_index, size_t replica_index, FailPhase phase,
                        uint64_t epoch, uint64_t io_seq) {
  if (schedule_index != next_failure_ || replica_index != active_index_) {
    return;  // A stale hook, or a node that is not (yet) the active replica.
  }
  const FailurePlan& plan = schedule_[schedule_index];
  if (phase != plan.phase || epoch < plan.phase_epoch ||
      (plan.io_seq != 0 && io_seq != plan.io_seq)) {
    return;
  }
  ++next_failure_;
  SimTime t = replicas_[replica_index]->clock();
  last_event_time_ = t;
  KillReplica(replica_index, t, plan.crash_io);
  ArmNextFailure();
}

void World::FireTimedFailure(size_t schedule_index, SimTime when) {
  if (schedule_index != next_failure_) {
    return;
  }
  const FailurePlan& plan = schedule_[schedule_index];
  // A backup target is the K-th live standing backup below the current
  // active replica; when the chain has no such backup the kill does not fire.
  size_t victim = active_index_;
  if (plan.target == FailurePlan::Target::kBackup) {
    victim = kNoChain;
    int standing = 0;
    for (size_t j = chain_next_[active_index_]; j != kNoChain; j = chain_next_[j]) {
      if (!replicas_[j]->dead() && !replicas_[j]->joining() &&
          standing++ == plan.backup_index) {
        victim = j;
        break;
      }
    }
  }
  ++next_failure_;
  ReplicaNode* node = victim == kNoChain ? nullptr : replicas_[victim].get();
  if (node != nullptr && !node->dead() && !node->halted()) {
    SimTime t = node->clock() > when ? node->clock() : when;
    last_event_time_ = t;
    KillReplica(victim, t, plan.crash_io);
  } else {
    last_event_time_ = when;
  }
  ArmNextFailure();
}

void World::FireRejoin(size_t schedule_index, SimTime when) {
  if (schedule_index != next_failure_) {
    return;
  }
  ++next_failure_;
  last_event_time_ = when;
  RejoinReplica(when);
  ArmNextFailure();
}

size_t World::RejoinReplica(SimTime t) {
  HBFT_CHECK(!replicas_.empty()) << "rejoin requires a replicated world";
  if (service_lost_) {
    HBFT_INFO("world") << "rejoin skipped: service already lost";
    return npos;
  }
  // The transfer source is the chain's tail: the last live replica walking
  // down from the active one.
  size_t tail = active_index_;
  for (size_t j = chain_next_[tail]; j != kNoChain; j = chain_next_[j]) {
    if (!replicas_[j]->dead()) {
      tail = j;
    }
  }
  ReplicaNode* source = replicas_[tail].get();
  if (source->dead() || source->halted() || source->joining() || source->transfer_active() ||
      !source->CanAdoptJoiner()) {
    // CanAdoptJoiner also covers the window between a downstream's death and
    // its detection: attaching inside it would race the pending
    // OnDownstreamFailureDetected callback into the fresh transfer.
    HBFT_INFO("world") << "rejoin skipped: no eligible transfer source";
    return npos;
  }

  const size_t pos = replicas_.size();
  AddLinkPair(tail, pos, kRejoinLinkSalt, pos);
  NodeLinks links;
  links.up_in = channel(tail, pos);
  links.up_out = channel(pos, tail);
  std::unique_ptr<ReplicaNode> joiner = MakeReplica(pos, links);
  joiner->StartAsJoiner();

  const size_t resync_index = resyncs_.size();
  ResyncReport report;
  report.source = tail;
  report.joined = pos;
  report.start = t;
  resyncs_.push_back(report);
  resync_in_flight_ = true;

  source->set_on_resync_cut([this, resync_index](const StateTransferSource::Report& rep) {
    resyncs_[resync_index].transfer = rep;
  });
  joiner->set_on_joined(
      [this, resync_index](SimTime join_time) { OnJoined(resync_index, join_time); });

  replicas_.push_back(std::move(joiner));
  chain_next_.push_back(kNoChain);
  chain_prev_.push_back(tail);
  chain_next_[tail] = pos;
  WireAdjacentPolls(tail, pos);

  // An armed phase-based kill must also see the new replica (it fires only
  // on the active node, which the joiner can eventually become).
  if (next_failure_ < schedule_.size() &&
      schedule_[next_failure_].kind == FailurePlan::Kind::kAtPhase) {
    const size_t idx = next_failure_;
    replicas_[pos]->set_phase_hook(
        [this, idx, pos](FailPhase phase, uint64_t epoch, uint64_t io_seq) {
          OnPhaseHook(idx, pos, phase, epoch, io_seq);
        });
  }

  source->AttachJoiningDownstream(channel(tail, pos), channel(pos, tail), t);
  return pos;
}

void World::OnJoined(size_t resync_index, SimTime t) {
  ResyncReport& report = resyncs_[resync_index];
  report.completed = true;
  report.join_time = t;
  resync_in_flight_ = false;
  if (on_resync_done_) {
    on_resync_done_(resync_index, t);
  }
  if (pending_after_resync_) {
    pending_after_resync_ = false;
    HBFT_CHECK(next_failure_ < schedule_.size());
    const size_t idx = next_failure_;
    SimTime at = t + schedule_[idx].time;
    ScheduleAt(at, [this, idx, at] { FireTimedFailure(idx, at); });
  }
}

void World::KillReplica(size_t index, SimTime t, FailurePlan::CrashIo crash_io) {
  ReplicaNode* node = replicas_[index].get();
  HBFT_CHECK(!node->dead());
  crash_times_.push_back(t);
  node->Kill(t);
  // The backends retire the node's in-flight operations. Only the disk asks
  // for a performed/not verdict; output latched at issue (console, NIC)
  // already reached the environment, and its completion just vanishes.
  devices_->ResolveCrash(node->id(), [this, crash_io] {
    return crash_io == FailurePlan::CrashIo::kRandom ? crash_rng_.NextBool(0.5)
                                                     : crash_io == FailurePlan::CrashIo::kPerformed;
  });

  if (index == active_index_) {
    // The active replica died: the next surviving backup detects the silence
    // on the protocol stream (drain + timeout) and runs the P6/P7 takeover.
    // A successor still mid-join holds an incomplete snapshot and cannot
    // take over; it dies with its source, and the service is lost.
    const size_t successor = chain_next_[index];
    if (successor != kNoChain && !replicas_[successor]->dead() &&
        !replicas_[successor]->joining()) {
      ScheduleDetection(replicas_[successor].get(), *channel(index, successor), t,
                        /*upstream_died=*/true);
      active_index_ = successor;
    } else {
      for (size_t j = successor; j != kNoChain; j = chain_next_[j]) {
        if (!replicas_[j]->dead()) {
          replicas_[j]->Kill(t);
        }
      }
      service_lost_ = true;
    }
    return;
  }

  // A standing backup died: its upstream neighbour notices the missing
  // acknowledgments and stops replicating to it. Replicas further down the
  // chain are cut off from the protocol stream — they can never catch up on
  // their own, so the chain truncates at the dead node (a later rejoin event
  // restores redundancy below the new tail).
  const size_t upstream = chain_prev_[index];
  HBFT_CHECK(upstream != kNoChain);
  ScheduleDetection(replicas_[upstream].get(), *channel(index, upstream), t,
                    /*upstream_died=*/false);
  for (size_t j = chain_next_[index]; j != kNoChain; j = chain_next_[j]) {
    if (!replicas_[j]->dead()) {
      replicas_[j]->Kill(t);
    }
  }
}

void World::ScheduleDetection(ReplicaNode* survivor, const Channel& from_dead, SimTime t,
                              bool upstream_died) {
  SimTime detect = FailureDetector::DetectionTime(from_dead, t,
                                                  config_.costs.failure_detect_timeout,
                                                  config_.link_faults);
  if (upstream_died) {
    ScheduleAt(detect, [survivor, detect] { survivor->OnFailureDetected(detect); });
  } else {
    ScheduleAt(detect, [survivor, detect] { survivor->OnDownstreamFailureDetected(detect); });
  }
}

void World::BindWireSink(Channel::WireSink sink) {
  HBFT_CHECK(wire_position_ != kNoChain) << "only a wire position has a wire";
  channel(wire_position_, 1 - wire_position_)->BindWireSink(std::move(sink));
}

void World::InjectWireFrame(const std::vector<uint8_t>& bytes, SimTime t) {
  HBFT_CHECK(wire_position_ != kNoChain) << "only a wire position has a wire";
  if (channel(1 - wire_position_, wire_position_)->InjectWireFrame(bytes, t)) {
    ReplicaNode* node = replicas_[0].get();
    ScheduleAt(t, [node, t] { node->PollIncoming(t); });
  }
}

void World::PeerLost(SimTime t) {
  HBFT_CHECK(wire_position_ != kNoChain) << "only a wire position has a wire";
  Channel& from_peer = *channel(1 - wire_position_, wire_position_);
  if (from_peer.broken() || replicas_[0]->dead()) {
    return;
  }
  // Everything already received still counts; nothing more arrives (the
  // paper's failure model, as Kill breaks a dead node's outbound channels).
  from_peer.Break(t);
  crash_times_.push_back(t);
  ScheduleDetection(replicas_[0].get(), from_peer, t, /*upstream_died=*/wire_position_ == 1);
}

void World::RouteInput(DeviceId device, const std::vector<uint8_t>& payload, SimTime t) {
  if (bare_ != nullptr) {
    bare_->InjectInput(device, payload, t);
    return;
  }
  // Route to the replica responsible for the environment: the active node,
  // or — between a crash and the promotion — its successor, which queues the
  // input until it takes over. A joiner never serves: it holds no usable
  // state yet.
  for (size_t j = active_index_; j != kNoChain; j = chain_next_[j]) {
    ReplicaNode* node = replicas_[j].get();
    if (node->dead() || node->halted() || node->joining()) {
      continue;
    }
    node->InjectInput(device, payload, t);
    return;
  }
}

void World::InjectConsoleInput(const std::string& text, SimTime start, SimTime interval) {
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    SimTime t = start + interval * static_cast<int64_t>(i);
    ScheduleAt(t, [this, c, t] {
      RouteInput(DeviceId::kConsole, {static_cast<uint8_t>(c)}, t);
    });
  }
}

void World::InjectPacket(const std::vector<uint8_t>& payload, SimTime t) {
  ScheduleAt(t, [this, payload, t] { RouteInput(DeviceId::kNic, payload, t); });
}

Machine& World::active_machine() {
  if (bare_ != nullptr) {
    return bare_->machine();
  }
  return replicas_[active_index_]->hypervisor().machine();
}

NodeActor& World::active_node() {
  if (bare_ != nullptr) {
    return *bare_;
  }
  return *replicas_[active_index_];
}

void World::Run(ScenarioResult* result) {
  RunLoop(SimTime::Max());
  Finish(result);
}

bool World::RunLoop(SimTime limit) {
  if (run_finished_) {
    return false;
  }

  // Nodes are enumerated live: a rejoin event mid-run appends replicas.
  auto for_each_node = [this](auto&& fn) {
    if (bare_ != nullptr) {
      fn(static_cast<NodeActor*>(bare_.get()));
    }
    for (auto& replica : replicas_) {
      fn(static_cast<NodeActor*>(replica.get()));
    }
  };

  while (true) {
    bool all_done = true;
    for_each_node([&all_done](NodeActor* node) {
      // A replica still joining blocks on its source, not on the world: if
      // everything else is done (say the guest halted mid-transfer), the run
      // is over and the join simply never completed.
      if (!node->halted() && !node->dead() && !node->joining()) {
        all_done = false;
      }
    });
    if (all_done) {
      run_completed_ = true;
      break;
    }

    NodeActor* next = nullptr;
    for_each_node([&next](NodeActor* node) {
      if (node->runnable()) {
        if (next == nullptr || node->clock() < next->clock()) {
          next = node;
        }
      }
    });
    SimTime tq = queue_.empty() ? SimTime::Max() : queue_.PeekTime();

    // Co-simulation pause: the next actionable instant is at or past the
    // caller's limit, so hand control back without finishing the run. With
    // limit == Max this never triggers and the loop is the classic Run.
    if (limit < SimTime::Max()) {
      SimTime tn = next != nullptr ? next->clock() : SimTime::Max();
      SimTime actionable = tn < tq ? tn : tq;
      if (actionable >= limit) {
        return true;
      }
    }

    if (next != nullptr && next->clock() >= config_.max_time) {
      run_timed_out_ = true;
      break;
    }

    if (next != nullptr && next->clock() < tq) {
      SimTime horizon = tq < config_.max_time ? tq : config_.max_time;
      if (horizon > limit) {
        horizon = limit;
      }
      next->RunSlice(horizon);
    } else if (!queue_.empty()) {
      if (tq > config_.max_time) {
        // Only events beyond the deadline remain and no node can run.
        run_timed_out_ = next != nullptr;
        run_deadlocked_ = next == nullptr;
        break;
      }
      queue_.RunNext();
    } else if (next != nullptr) {
      SimTime horizon = config_.max_time < limit ? config_.max_time : limit;
      next->RunSlice(horizon);
    } else {
      run_deadlocked_ = true;  // No events, nobody runnable, not done.
      break;
    }
  }
  run_finished_ = true;
  return false;
}

void World::Finish(ScenarioResult* result) {
  result->completed = run_completed_ && !service_lost_;
  result->timed_out = run_timed_out_;
  result->deadlocked = run_deadlocked_;
  result->service_lost = service_lost_;
  result->completion_time = active_node().clock();
  result->crash_times = crash_times_;
  result->crash_time = crash_times_.empty() ? SimTime::Zero() : crash_times_.front();
  result->promoted = false;
  result->promotion_time = SimTime::Zero();
  for (const auto& replica : replicas_) {
    if (replica->promoted() && !result->promoted) {
      result->promoted = true;
      result->promotion_time = replica->promotion_time();
    }
  }
  result->resyncs = resyncs_;
}

}  // namespace hbft
