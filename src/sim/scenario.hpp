// High-level scenario API: the composable builder most tests, benchmarks,
// and examples use.
//
//   ScenarioResult bare = Scenario::Bare(WorkloadSpec::PaperCpu()).Run();
//   ScenarioResult ft   = Scenario::Replicated(WorkloadSpec::PaperCpu())
//                             .Backups(2)
//                             .Epoch(8192)
//                             .Variant(ProtocolVariant::kRevised)
//                             .FailAtTime(SimTime::Millis(40))
//                             .FailAtPhase(FailPhase::kAfterIoIssue)
//                             .Run();
//   double np = NormalizedPerformance(ft, bare);   // The paper's N'/N.
//
// Devices are pluggable: the disk/console pair is always attached, and
// additional devices join via the builder —
//
//   ScenarioResult net = Scenario::Replicated(WorkloadSpec::NetEcho(3))
//                            .Device(DeviceId::kNic)
//                            .InjectPacket({'h','i'})
//                            .FailAtPhase(FailPhase::kAfterIoIssue)
//                            .Run();
//
// A failure schedule is an ordered list: each FailAt* event arms only after
// the previous one fired, so cascading failovers ("kill the primary, then
// kill the promoted backup") compose naturally.
#ifndef HBFT_SIM_SCENARIO_HPP_
#define HBFT_SIM_SCENARIO_HPP_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "devices/console.hpp"
#include "devices/disk.hpp"
#include "devices/nic.hpp"
#include "guest/workloads.hpp"
#include "sim/environment_observer.hpp"
#include "sim/world.hpp"

namespace hbft {

struct GuestImageBundle;

struct ScenarioResult {
  // Run outcome (filled by World::Run directly).
  bool completed = false;
  bool timed_out = false;
  bool deadlocked = false;
  bool service_lost = false;  // Every replica crashed: nobody serves.
  SimTime completion_time = SimTime::Zero();
  bool promoted = false;                       // Any backup took over.
  SimTime promotion_time = SimTime::Zero();    // First takeover.
  SimTime crash_time = SimTime::Zero();        // First injected crash.
  std::vector<SimTime> crash_times;            // Every injected crash, in order.

  // Guest-reported results (read back from the surviving machine's memory).
  uint32_t exited_flag = 0;  // 1 = clean exit, 2 = kernel panic.
  uint32_t exit_code = 0;
  uint32_t guest_checksum = 0;
  uint32_t panic_code = 0;
  uint32_t ticks = 0;

  // Environment. `env_trace` is everything the environment saw, device by
  // device (DeviceSet::trace()): the generalized consistency checker, the
  // fleet's request matching and device-level assertions all read it.
  // `console_output` is the performed console entries' characters (their
  // op_hash), in order.
  std::string console_output;
  std::vector<EnvTraceEntry> env_trace;

  // Transport: one report per channel of the mesh, in chain order (for each
  // adjacent pair: the downstream protocol stream, then the upstream ack
  // stream); empty for bare runs. Delivered/goodput aggregates count the
  // ordered protocol channels only (each message exactly once); wire-byte
  // aggregates count everything, so under loss goodput trails the wire
  // rate — the gap being retransmissions, duplicates, discards, and acks.
  struct ChannelReport {
    size_t from = 0;  // Chain positions (0 = primary).
    size_t to = 0;
    ChannelMode mode = ChannelMode::kOrdered;  // Protocol stream vs ack datagrams.
    Channel::Counters counters;
  };
  std::vector<ChannelReport> channels;
  uint64_t TotalRetransmits() const;
  uint64_t TotalWireBytes() const;
  uint64_t TotalDeliveredBytes() const;
  double GoodputBps() const;  // Delivered bytes / completion time.

  // Replication: one report per replica in spawn order (primary first, then
  // each backup down the chain, then any rejoined replicas); empty for bare
  // runs. A rejoined node's boundary fingerprints start at `join_epoch`, so
  // lockstep comparison against an original node uses that offset.
  struct NodeReport {
    int id = 0;
    bool promoted = false;
    SimTime promotion_time = SimTime::Zero();
    bool rejoined = false;   // Spawned by a rejoin event (live state transfer).
    bool joined = false;     // Transfer completed; entered the chain.
    uint64_t join_epoch = 0;
    Hypervisor::Stats hv_stats;
    ReplicaNode::Stats stats;
    std::vector<uint64_t> boundary_fingerprints;
  };
  std::vector<NodeReport> nodes;

  // Repair: one report per rejoin event, in schedule order.
  std::vector<ResyncReport> resyncs;
  uint64_t TotalResyncBytes() const;

  // Pair conveniences over `nodes` (safe empty defaults for bare runs).
  const ReplicaNode::Stats& primary_stats() const;
  const ReplicaNode::Stats& backup_stats(size_t backup_index = 0) const;
  const std::vector<uint64_t>& primary_boundary_fingerprints() const;
  const std::vector<uint64_t>& backup_boundary_fingerprints(size_t backup_index = 0) const;

  // Device-issuer ids in takeover order, for the chain consistency checks.
  std::vector<int> issuer_chain() const;

  int primary_id = 1;
  int backup_id = 2;
  int bare_id = 0;
};

// Composable scenario builder. Value-semantic: copies are independent, so a
// base configuration can fan out into variants.
class Scenario {
 public:
  static Scenario Bare(const WorkloadSpec& workload);
  static Scenario Replicated(const WorkloadSpec& workload);

  // --- Replication ----------------------------------------------------------
  Scenario& Backups(int count);  // Chain length: 1 primary + `count` backups.
  Scenario& Epoch(uint64_t epoch_length);
  Scenario& Variant(ProtocolVariant variant);
  Scenario& TlbTakeover(bool takeover);
  Scenario& AuditLockstep(bool audit = true);

  // --- Interconnect ---------------------------------------------------------
  // Fault model for every channel of the replica mesh, for the whole run
  // (drop/duplicate/reorder probabilities, retransmission timeout).
  // Defaults to the ideal wire.
  Scenario& LinkFaults(const ::hbft::LinkFaults& faults);

  // --- Machine & environment ------------------------------------------------
  Scenario& Costs(const CostModel& costs);
  Scenario& RamBytes(uint32_t ram_bytes);
  Scenario& Tlb(uint32_t entries, TlbPolicy policy);
  // Interpreter selection (cached superblocks by default; the slow
  // fetch-decode reference for differential runs). Dispatch mode never
  // changes results — only host speed — so every scenario accepts either.
  Scenario& Interp(InterpMode mode);
  Scenario& Seed(uint64_t seed);
  Scenario& MaxTime(SimTime max_time);

  // --- Devices --------------------------------------------------------------
  // Attaches an optional device to every node's registry (disk and console
  // are always present; currently only the NIC is optional).
  Scenario& Device(DeviceId id);
  Scenario& DiskFaults(const FaultPlan& faults);
  Scenario& ConsoleFaults(const FaultPlan& faults);
  Scenario& NicFaults(const FaultPlan& faults);

  // --- Environment input ----------------------------------------------------
  Scenario& ConsoleInput(std::string text);
  Scenario& ConsoleInput(std::string text, SimTime start, SimTime interval);
  // Queues a packet for injection (implies Device(kNic)). Without an
  // explicit time, packets arrive from 100 ms on, one every 20 ms, like
  // default-paced console input.
  Scenario& InjectPacket(std::vector<uint8_t> payload);
  Scenario& InjectPacket(std::vector<uint8_t> payload, SimTime t);

  // --- Failure/repair schedule (ordered; each event arms after the previous)
  Scenario& FailAt(const FailurePlan& plan);
  Scenario& FailAtTime(SimTime time,
                       FailurePlan::Target target = FailurePlan::Target::kActive,
                       int backup_index = 0);
  Scenario& FailAtPhase(FailPhase phase, uint64_t epoch = 0,
                        FailurePlan::CrashIo crash_io = FailurePlan::CrashIo::kRandom);
  // Repair events: spawn a fresh replica below the chain's tail and stream
  // it the live state transfer — at an absolute time, or a delay after the
  // previous schedule event (typically a kill) fired. FailAfterResync kills
  // the active replica `delay` after the transfer completes, expressing the
  // full fail -> rejoin -> fail drill without guessing transfer durations.
  Scenario& RejoinAtTime(SimTime time);
  Scenario& RejoinAfterFail(SimTime delay);
  Scenario& FailAfterResync(SimTime delay,
                            FailurePlan::CrashIo crash_io = FailurePlan::CrashIo::kRandom);
  // Live-transfer tuning (pacing window, delta threshold, round cap).
  Scenario& Resync(const StateTransferConfig& config);

  // The same machine/devices/seed with replication stripped: the reference
  // run for N'/N and consistency checks.
  Scenario AsBare() const;

  ScenarioResult Run() const;

  // The two halves of Run(), exposed so a caller can drive the world
  // incrementally (World::RunLoop) and interleave many worlds — the fleet's
  // lockstep co-simulation. `BuildWorld` performs everything up to (not
  // including) the run itself: construction, workload parameter patching,
  // failure schedule, console/packet injection. `CollectResult` extracts the
  // post-run report; call it only after World::Finish filled `result`'s run
  // fields. Run() == BuildWorld() + World::Run + CollectResult().
  std::unique_ptr<World> BuildWorld() const;
  void CollectResult(World& world, ScenarioResult* result) const;
  // One chain position (0 = primary, 1 = backup) of this scenario's
  // two-replica chain, in World's wire-position form: it boots the machine
  // BuildWorld's chain boots at that position. Its inputs come through the
  // World's wire and injection calls, so the scenario's failure schedule,
  // console input and packets are not applied. Without a `peer`, position 0
  // is built as a chain of one, with no link pair.
  std::unique_ptr<World> BuildWirePosition(size_t position, bool peer = true) const;

  const WorkloadSpec& workload() const { return workload_; }
  const FailureSchedule& failures() const { return failures_; }
  // What every replica boots: the world config (machine seeded with the
  // scenario seed) and the guest image the workload runs on.
  WorldConfig world_config() const;
  const GuestImageBundle& guest() const;

 private:
  Scenario(const WorkloadSpec& workload, bool replicated);

  struct PacketInjection {
    std::vector<uint8_t> payload;
    bool has_time = false;
    SimTime time = SimTime::Zero();
  };

  WorkloadSpec workload_;
  bool replicated_ = false;
  WorldConfig config_;
  FailureSchedule failures_;
  std::string console_input_;
  SimTime console_input_start_ = SimTime::Millis(100);
  SimTime console_input_interval_ = SimTime::Millis(20);
  std::vector<PacketInjection> packets_;
};

// Thin convenience for the ubiquitous default-configuration reference run.
ScenarioResult RunBare(const WorkloadSpec& workload);

// One report per channel of `world`'s mesh, in (from, to) key order.
std::vector<ScenarioResult::ChannelReport> ChannelReports(const World& world);

// The paper's figure of merit: N'/N.
double NormalizedPerformance(const ScenarioResult& replicated, const ScenarioResult& bare);

// Number of leading epoch boundaries at which the two nodes' fingerprints
// agree (chain indices into ScenarioResult::nodes; default: the primary and
// its first backup).
size_t MatchingBoundaryPrefix(const ScenarioResult& result, size_t node_a = 0, size_t node_b = 1);

}  // namespace hbft

#endif  // HBFT_SIM_SCENARIO_HPP_
