#include "sim/scenario.hpp"

#include "common/check.hpp"
#include "devices/device_set.hpp"
#include "guest/image.hpp"

namespace hbft {

namespace {

// Arrival pacing of packets queued without an explicit time.
constexpr SimTime kPacketStart = SimTime::Millis(100);
constexpr SimTime kPacketInterval = SimTime::Millis(20);

void ReadBackGuestState(Machine& machine, ScenarioResult* result) {
  const GuestImageBundle& bundle = GetGuestImage();
  PhysicalMemory& memory = machine.memory();
  result->exited_flag = memory.Read32(bundle.exited_flag_addr);
  result->exit_code = memory.Read32(bundle.exit_code_addr);
  result->guest_checksum = memory.Read32(bundle.exit_checksum_addr);
  result->panic_code = memory.Read32(bundle.panic_code_addr);
  result->ticks = memory.Read32(bundle.ticks_addr);
}

}  // namespace

const ReplicaNode::Stats& ScenarioResult::primary_stats() const {
  static const ReplicaNode::Stats kEmpty;
  return nodes.empty() ? kEmpty : nodes.front().stats;
}

const ReplicaNode::Stats& ScenarioResult::backup_stats(size_t backup_index) const {
  static const ReplicaNode::Stats kEmpty;
  return backup_index + 1 < nodes.size() ? nodes[backup_index + 1].stats : kEmpty;
}

const std::vector<uint64_t>& ScenarioResult::primary_boundary_fingerprints() const {
  static const std::vector<uint64_t> kEmpty;
  return nodes.empty() ? kEmpty : nodes.front().boundary_fingerprints;
}

const std::vector<uint64_t>& ScenarioResult::backup_boundary_fingerprints(
    size_t backup_index) const {
  static const std::vector<uint64_t> kEmpty;
  return backup_index + 1 < nodes.size() ? nodes[backup_index + 1].boundary_fingerprints : kEmpty;
}

uint64_t ScenarioResult::TotalResyncBytes() const {
  uint64_t total = 0;
  for (const ResyncReport& resync : resyncs) {
    total += resync.transfer.bytes_sent;
  }
  return total;
}

uint64_t ScenarioResult::TotalRetransmits() const {
  uint64_t total = 0;
  for (const ChannelReport& ch : channels) {
    total += ch.counters.retransmits;
  }
  return total;
}

uint64_t ScenarioResult::TotalWireBytes() const {
  uint64_t total = 0;
  for (const ChannelReport& ch : channels) {
    total += ch.counters.bytes_on_wire;
  }
  return total;
}

uint64_t ScenarioResult::TotalDeliveredBytes() const {
  uint64_t total = 0;
  // Protocol (ordered) channels only: in-order delivery counts each message
  // exactly once. Datagram ack channels hand every wire copy to the receiver
  // — useful for liveness, not payload — and would inflate a "goodput"
  // figure.
  for (const ChannelReport& ch : channels) {
    if (ch.mode == ChannelMode::kOrdered) {
      total += ch.counters.bytes_delivered;
    }
  }
  return total;
}

double ScenarioResult::GoodputBps() const {
  double seconds = completion_time.seconds();
  if (seconds <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(TotalDeliveredBytes()) * 8.0 / seconds;
}

std::vector<int> ScenarioResult::issuer_chain() const {
  if (nodes.empty()) {
    return {bare_id};
  }
  std::vector<int> chain;
  chain.reserve(nodes.size());
  for (const NodeReport& node : nodes) {
    chain.push_back(node.id);
  }
  return chain;
}

Scenario::Scenario(const WorkloadSpec& workload, bool replicated)
    : workload_(workload), replicated_(replicated) {
  // Scenario-level machine defaults (larger TLB than the raw machine's).
  config_.machine.tlb_entries = 64;
  config_.machine.tlb_policy = TlbPolicy::kHardwareRandom;
  // The net-echo workload is meaningless without its device.
  if (workload.kind == WorkloadKind::kNetEcho) {
    config_.devices.with_nic = true;
  }
}

Scenario Scenario::Bare(const WorkloadSpec& workload) { return Scenario(workload, false); }

Scenario Scenario::Replicated(const WorkloadSpec& workload) { return Scenario(workload, true); }

Scenario& Scenario::Backups(int count) {
  HBFT_CHECK(count >= 1) << "a replicated scenario needs at least one backup";
  config_.backups = count;
  return *this;
}

Scenario& Scenario::Epoch(uint64_t epoch_length) {
  HBFT_CHECK(epoch_length >= 1) << "an epoch is at least one instruction";
  config_.replication.epoch_length = epoch_length;
  return *this;
}

Scenario& Scenario::Variant(ProtocolVariant variant) {
  config_.replication.variant = variant;
  return *this;
}

Scenario& Scenario::TlbTakeover(bool takeover) {
  config_.replication.tlb_takeover = takeover;
  return *this;
}

Scenario& Scenario::AuditLockstep(bool audit) {
  config_.replication.audit_lockstep = audit;
  return *this;
}

Scenario& Scenario::LinkFaults(const ::hbft::LinkFaults& faults) {
  config_.link_faults = faults;
  return *this;
}

Scenario& Scenario::Costs(const CostModel& costs) {
  config_.costs = costs;
  return *this;
}

Scenario& Scenario::RamBytes(uint32_t ram_bytes) {
  config_.machine.ram_bytes = ram_bytes;
  return *this;
}

Scenario& Scenario::Tlb(uint32_t entries, TlbPolicy policy) {
  config_.machine.tlb_entries = entries;
  config_.machine.tlb_policy = policy;
  return *this;
}

Scenario& Scenario::Interp(InterpMode mode) {
  config_.machine.interp = mode;
  return *this;
}

Scenario& Scenario::Seed(uint64_t seed) {
  config_.seed = seed;
  return *this;
}

Scenario& Scenario::Device(DeviceId id) {
  switch (id) {
    case DeviceId::kDisk:
    case DeviceId::kConsole:
      break;  // Always attached.
    case DeviceId::kNic:
      config_.devices.with_nic = true;
      break;
    default:
      HBFT_CHECK(false) << "unknown device id " << static_cast<uint32_t>(id);
  }
  return *this;
}

Scenario& Scenario::DiskFaults(const FaultPlan& faults) {
  config_.devices.disk_faults = faults;
  return *this;
}

Scenario& Scenario::ConsoleFaults(const FaultPlan& faults) {
  config_.devices.console_faults = faults;
  return *this;
}

Scenario& Scenario::NicFaults(const FaultPlan& faults) {
  config_.devices.nic_faults = faults;
  return *this;
}

Scenario& Scenario::MaxTime(SimTime max_time) {
  config_.max_time = max_time;
  return *this;
}

Scenario& Scenario::ConsoleInput(std::string text) {
  console_input_ = std::move(text);
  return *this;
}

Scenario& Scenario::ConsoleInput(std::string text, SimTime start, SimTime interval) {
  console_input_ = std::move(text);
  console_input_start_ = start;
  console_input_interval_ = interval;
  return *this;
}

Scenario& Scenario::InjectPacket(std::vector<uint8_t> payload) {
  config_.devices.with_nic = true;
  packets_.push_back(PacketInjection{std::move(payload), false, SimTime::Zero()});
  return *this;
}

Scenario& Scenario::InjectPacket(std::vector<uint8_t> payload, SimTime t) {
  config_.devices.with_nic = true;
  packets_.push_back(PacketInjection{std::move(payload), true, t});
  return *this;
}

Scenario& Scenario::FailAt(const FailurePlan& plan) {
  HBFT_CHECK(replicated_) << "failure schedules require a replicated scenario";
  failures_.push_back(plan);
  return *this;
}

Scenario& Scenario::FailAtTime(SimTime time, FailurePlan::Target target, int backup_index) {
  FailurePlan plan;
  plan.kind = FailurePlan::Kind::kAtTime;
  plan.time = time;
  plan.target = target;
  plan.backup_index = backup_index;
  return FailAt(plan);
}

Scenario& Scenario::FailAtPhase(FailPhase phase, uint64_t epoch, FailurePlan::CrashIo crash_io) {
  FailurePlan plan;
  plan.kind = FailurePlan::Kind::kAtPhase;
  plan.phase = phase;
  plan.phase_epoch = epoch;
  plan.crash_io = crash_io;
  return FailAt(plan);
}

Scenario& Scenario::RejoinAtTime(SimTime time) {
  FailurePlan plan;
  plan.kind = FailurePlan::Kind::kRejoin;
  plan.time = time;
  return FailAt(plan);
}

Scenario& Scenario::RejoinAfterFail(SimTime delay) {
  FailurePlan plan;
  plan.kind = FailurePlan::Kind::kRejoin;
  plan.time = delay;
  plan.relative = true;
  return FailAt(plan);
}

Scenario& Scenario::FailAfterResync(SimTime delay, FailurePlan::CrashIo crash_io) {
  FailurePlan plan;
  plan.kind = FailurePlan::Kind::kAtTime;
  plan.time = delay;
  plan.after_resync = true;
  plan.crash_io = crash_io;
  return FailAt(plan);
}

Scenario& Scenario::Resync(const StateTransferConfig& config) {
  config_.replication.resync = config;
  return *this;
}

Scenario Scenario::AsBare() const {
  Scenario bare = *this;
  bare.replicated_ = false;
  bare.failures_.clear();
  return bare;
}

ScenarioResult Scenario::Run() const {
  std::unique_ptr<World> world = BuildWorld();
  ScenarioResult result;
  world->Run(&result);
  CollectResult(*world, &result);
  return result;
}

WorldConfig Scenario::world_config() const {
  WorldConfig config = config_;
  config.machine.machine_seed = config_.seed;
  return config;
}

const GuestImageBundle& Scenario::guest() const {
  // The net-enabled guest image differs from the legacy one only in its
  // interrupt-service hook; legacy workloads keep their exact instruction
  // streams by using the legacy image.
  return workload_.kind == WorkloadKind::kNetEcho ? GetGuestImage(GuestImageVariant::kNet)
                                                  : GetGuestImage();
}

std::unique_ptr<World> Scenario::BuildWorld() const {
  auto world = std::make_unique<World>(guest().program, world_config(), replicated_);
  if (replicated_) {
    // Every replica boots from identical state, including the parameter block.
    for (size_t i = 0; i < world->replica_count(); ++i) {
      PatchWorkloadParams(&world->replica(i)->hypervisor().machine().memory(), workload_);
    }
    if (!failures_.empty()) {
      world->SetFailureSchedule(failures_);
    }
  } else {
    PatchWorkloadParams(&world->bare()->machine().memory(), workload_);
  }
  if (!console_input_.empty()) {
    world->InjectConsoleInput(console_input_, console_input_start_, console_input_interval_);
  }
  size_t auto_timed = 0;
  for (const PacketInjection& packet : packets_) {
    SimTime t = packet.has_time
                    ? packet.time
                    : kPacketStart + kPacketInterval * static_cast<int64_t>(auto_timed++);
    world->InjectPacket(packet.payload, t);
  }
  return world;
}

std::unique_ptr<World> Scenario::BuildWirePosition(size_t position, bool peer) const {
  HBFT_CHECK(replicated_) << "a wire position hosts a replica";
  auto world = std::make_unique<World>(guest().program, world_config(),
                                       World::WirePosition{position, peer});
  // The same parameter block every replica of BuildWorld's chain boots with.
  PatchWorkloadParams(&world->replica(0)->hypervisor().machine().memory(), workload_);
  return world;
}

void Scenario::CollectResult(World& world, ScenarioResult* out) const {
  ScenarioResult& result = *out;
  result.env_trace = world.devices().trace();
  result.console_output.clear();
  for (const EnvTraceEntry& e : result.env_trace) {
    if (e.device_id == DeviceId::kConsole && e.performed) {
      result.console_output.push_back(static_cast<char>(e.op_hash));
    }
  }
  ReadBackGuestState(world.active_machine(), &result);

  result.channels = ChannelReports(world);

  for (size_t i = 0; i < world.replica_count(); ++i) {
    ReplicaNode* replica = world.replica(i);
    ScenarioResult::NodeReport report;
    report.id = replica->id();
    report.promoted = replica->promoted();
    report.promotion_time = replica->promotion_time();
    report.joined = replica->joined();
    report.join_time = replica->join_time();
    report.join_epoch = replica->join_epoch();
    report.hv_stats = replica->hypervisor().stats();
    report.stats = replica->stats();
    report.boundary_fingerprints = replica->boundary_fingerprints();
    result.nodes.push_back(std::move(report));
  }
  for (const ResyncReport& resync : result.resyncs) {
    if (resync.joined < result.nodes.size()) {
      result.nodes[resync.joined].rejoined = true;
    }
  }
}

ScenarioResult RunBare(const WorkloadSpec& workload) { return Scenario::Bare(workload).Run(); }

std::vector<ScenarioResult::ChannelReport> ChannelReports(const World& world) {
  std::vector<ScenarioResult::ChannelReport> reports;
  for (const auto& [key, channel] : world.channel_map()) {
    reports.push_back({key.first, key.second, channel->mode(), channel->counters()});
  }
  return reports;
}

double NormalizedPerformance(const ScenarioResult& replicated, const ScenarioResult& bare) {
  HBFT_CHECK(bare.completed && replicated.completed);
  HBFT_CHECK_GT(bare.completion_time.picos(), 0);
  return replicated.completion_time.seconds() / bare.completion_time.seconds();
}

size_t MatchingBoundaryPrefix(const ScenarioResult& result, size_t node_a, size_t node_b) {
  HBFT_CHECK(node_a < result.nodes.size() && node_b < result.nodes.size());
  const auto& p = result.nodes[node_a].boundary_fingerprints;
  const auto& b = result.nodes[node_b].boundary_fingerprints;
  size_t n = p.size() < b.size() ? p.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != b[i]) {
      return i;
    }
  }
  return n;
}

}  // namespace hbft
