// World: deterministic co-simulation of a replica chain (1 primary + k
// backups, or one bare reference machine), the shared device backends, the
// interconnect mesh, and failure injection.
//
// Scheduling is conservative and deterministic: the runnable node with the
// smallest local clock advances until the next global event time; events tie-
// break by insertion order. Replica nodes interact only through channels and
// devices, all of which go through the event queue.
//
// Devices: one shared DeviceSet (the environment side — disk, console,
// optionally a NIC) feeds a per-node DeviceRegistry of register models. The
// world itself is device-generic: environment input, crash resolution of
// in-flight operations, and trace extraction all go through DeviceId-tagged
// interfaces, never through concrete device types.
//
// Topology: replicas form a chain primary -> backup_1 -> ... -> backup_k,
// joined by a channel mesh keyed (from, to) — one FIFO link per direction per
// adjacent pair. Failures are an ordered schedule of fail-stop events; when
// the active replica dies, the next surviving backup detects it (channel
// drain + timeout) and runs the P6/P7 takeover, then re-protects itself by
// relaying to its own backup. A chain with k backups survives k successive
// active-replica failures.
//
// Wire positions: a World can host one chain position (0 = the primary, 1 =
// its backup) of a two-replica chain whose other position runs in another
// process, as each `serve` wire role does. Only the hosted replica is built,
// with the full chain's first link pair: the same seeds and (0, 1)/(1, 0)
// keys, so both processes derive the same channels and each boots exactly
// the machine a whole-chain World boots at its position. The neighbour's end
// of that pair is the wire: frames leave through the outbound channel's
// WireSink and enter through InjectWireFrame, and a dead connection enters
// through PeerLost as a kill of the neighbour would. The hosted replica is
// `replica(0)`; the channel keys stay chain positions. Everything else —
// RunLoop, environment input, promotion — is the whole-chain code. A primary
// whose backup never came is position 0 of a chain of one: no link pair, so
// it runs unreplicated from the start, as a chain's last replica does.
#ifndef HBFT_SIM_WORLD_HPP_
#define HBFT_SIM_WORLD_HPP_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/failure_detector.hpp"
#include "core/replica.hpp"
#include "devices/device_set.hpp"
#include "sim/event_queue.hpp"
#include "sim/node.hpp"

namespace hbft {

struct ScenarioResult;

struct FailurePlan {
  // kRejoin is a repair event, not a failure: a fresh replica is spawned,
  // receives a live state transfer from the chain's tail, and enters the
  // chain as a standing backup. It shares the schedule so repeated
  // fail -> rejoin -> fail sequences order naturally.
  enum class Kind { kNone, kAtTime, kAtPhase, kRejoin };
  // kActive: whichever replica currently drives the devices — the primary,
  // or after a failover the most recently promoted backup. kBackup: the
  // `backup_index`-th live standing backup below the active replica when the
  // event fires (0 = its immediate backup); none there, no kill.
  enum class Target { kActive, kBackup };
  Kind kind = Kind::kNone;
  Target target = Target::kActive;
  int backup_index = 0;                  // Target::kBackup only.
  SimTime time = SimTime::Zero();        // kAtTime / kRejoin (see `relative`).
  FailPhase phase = FailPhase::kNone;    // kAtPhase: protocol point ...
  uint64_t phase_epoch = 0;              // ... in this epoch ...
  uint64_t io_seq = 0;                   // ... or at this I/O op (0 = any).

  // `relative`: `time` is a delay measured from the previous schedule
  // event's fire time rather than an absolute instant. `after_resync` (kills
  // only): arm this event only once the pending rejoin's state transfer has
  // completed, `time` after the joiner came online — the natural way to
  // express "kill the new primary after redundancy is restored".
  bool relative = false;
  bool after_resync = false;

  // What happens to device operations in flight at the crash (IO2's "may or
  // may not have been performed", made explicit for tests).
  enum class CrashIo { kRandom, kPerformed, kNotPerformed };
  CrashIo crash_io = CrashIo::kRandom;
};

// An ordered list of failure/repair events. Event i+1 is armed only after
// event i has fired, so "kill the primary, rejoin a fresh backup, then kill
// the promoted backup" is expressible directly.
using FailureSchedule = std::vector<FailurePlan>;

// One live state transfer's outcome, for reports and tests.
struct ResyncReport {
  size_t source = 0;   // Chain position that streamed the snapshot.
  size_t joined = 0;   // Chain position of the new replica.
  SimTime start = SimTime::Zero();      // Transfer began (pre-copy).
  SimTime join_time = SimTime::Zero();  // Joiner restored; backup online.
  bool completed = false;  // Joiner restored and entered the chain.
  // The source's report as of its quiesce + cut: `cut_epoch` is the epoch
  // the joiner resumes at, `bytes_sent` the chunk bytes on the protocol
  // stream (control included).
  StateTransferSource::Report transfer;
};

struct WorldConfig {
  CostModel costs;
  ReplicationConfig replication;
  MachineConfig machine;
  DeviceSetConfig devices;
  int backups = 1;  // Chain length: 1 primary + `backups` backups.
  uint64_t seed = 42;
  // Interconnect fault model (drop/duplicate/reorder), applied to every
  // channel of the mesh. Protocol-direction channels run go-back-N recovery
  // on top; ack channels are datagrams. Default: ideal wire, byte-identical
  // to the fault-free model.
  LinkFaults link_faults;
  SimTime max_time = SimTime::Seconds(900);
};

class World : public EventScheduler {
 public:
  // `replicated` builds the chain of 1 + config.backups replicas; otherwise
  // one bare node.
  World(const GuestProgram& guest, const WorldConfig& config, bool replicated);
  ~World() override;

  // Wire-position form (see the header): hosts chain position `position`
  // of a two-replica chain whose other position runs elsewhere, or, without
  // a `peer`, position 0 of a chain of one.
  struct WirePosition {
    size_t position = 0;
    bool peer = true;
  };
  World(const GuestProgram& guest, const WorldConfig& config, WirePosition wire);

  // --- Wire side (wire-position form only) -----------------------------------

  // Ships the hosted replica's outbound channel (the protocol stream from
  // position 0, the acks from position 1) to the neighbour. Until bound,
  // sends queue harmlessly in the local channel.
  void BindWireSink(Channel::WireSink sink);
  // A frame from the neighbour arrived at `t`: it joins the inbound channel
  // and the replica polls at `t`, as a neighbour's send wakes it in a whole
  // chain. Bytes that fail canonical decode are counted on the channel and
  // dropped, as is anything after the peer was lost.
  void InjectWireFrame(const std::vector<uint8_t>& bytes, SimTime t);
  // The neighbour's connection died at `t`: the image of its kill at `t`.
  // The inbound channel breaks, `t` is recorded as a crash time, and the
  // hosted replica detects the failure exactly as KillReplica's survivor
  // does. Idempotent.
  void PeerLost(SimTime t);

  void ScheduleAt(SimTime t, std::function<void()> fn) override;
  SimTime NextEventTime() const override {
    return queue_.empty() ? SimTime::Max() : queue_.PeekTime();
  }

  void SetFailureSchedule(const FailureSchedule& schedule);

  // Environment input, routed to the replica currently responsible for the
  // environment (or queued by its successor between a crash and promotion).
  void InjectConsoleInput(const std::string& text, SimTime start, SimTime interval);
  void InjectPacket(const std::vector<uint8_t>& payload, SimTime t);

  // Runs the simulation to quiescence and fills the run-outcome portion of
  // `result` (completed/timed_out/deadlocked/service_lost, completion and
  // crash/promotion times) directly — there is no intermediate outcome
  // struct to drift from ScenarioResult. Equivalent to RunLoop(SimTime::Max())
  // followed by Finish(result).
  void Run(ScenarioResult* result);

  // Resumable form, for co-simulation (the fleet drives many worlds in
  // lockstep): advances nodes and events until the next actionable instant is
  // at or past `limit`, every node is finished, or nothing can make progress.
  // A run is deterministic for a given sequence of non-decreasing limits, but
  // reproduces a single Run exactly only with one node (a bare world): with
  // several, where the limits fall can move the results. Returns true while
  // the world can still make progress on a later call.
  bool RunLoop(SimTime limit);
  // Fills the run-outcome portion of `result` after the last RunLoop call.
  void Finish(ScenarioResult* result);
  bool finished() const { return run_finished_; }
  bool service_lost() const { return service_lost_; }
  // Every crash so far, kills and lost peers, in order.
  const std::vector<SimTime>& crash_times() const { return crash_times_; }

  // The shared device backends (environment side).
  DeviceSet& devices() { return *devices_; }

  // Node registry.
  BareNode* bare() { return bare_.get(); }
  size_t replica_count() const { return replicas_.size(); }
  ReplicaNode* replica(size_t index) { return replicas_[index].get(); }

  // The channel mesh, keyed (from, to) by chain position. Rejoins add pairs
  // that need not be index-adjacent (the chain may have dead nodes between
  // the tail and the joiner's slot).
  Channel* channel(size_t from, size_t to);
  const std::map<std::pair<size_t, size_t>, std::unique_ptr<Channel>>& channel_map() const {
    return channels_;
  }

  // Repair: spawn a fresh replica, attach it below the chain's tail, and
  // start the live state transfer. No-op (with a log) when nobody can serve
  // as the source. Usually driven by a kRejoin schedule event. Returns the
  // chain position of the new replica, or npos when the rejoin was skipped.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t RejoinReplica(SimTime t);

  // Every state transfer started, in schedule order (an aborted one stays incomplete).
  const std::vector<ResyncReport>& resyncs() const { return resyncs_; }

  // The machine whose state carries the workload's results: the bare node,
  // or the replica currently responsible for the environment.
  Machine& active_machine();
  NodeActor& active_node();
  size_t active_index() const { return active_index_; }

  // Fail-stop kill of a replica by chain position and scheduling of failure
  // detection on the surviving neighbour. The device backends own the
  // replica's in-flight operations, so one DeviceSet::ResolveCrash call
  // retires them all, with `crash_io` as the disk's performed/not verdict.
  void KillReplica(size_t index, SimTime t, FailurePlan::CrashIo crash_io);

 private:
  static constexpr size_t kNoChain = static_cast<size_t>(-1);

  // The channels between adjacent chain positions: `down` carries the
  // protocol stream (ordered, go-back-N), `up` the acks (datagrams:
  // cumulative acks need no retransmission). Each channel's fault-RNG stream
  // derives from the config seed, `salt` and `index`, so lossy runs
  // reproduce exactly. The construction-time mesh indexes its pairs by
  // upstream position; rejoin pairs use the joiner's position under their
  // own salt, so a rejoin wire never reuses a stream.
  static constexpr uint64_t kMeshLinkSalt = 0x11F0D1CEULL;
  static constexpr uint64_t kRejoinLinkSalt = 0x5EED2E70ULL;
  // Adds the channel pair between chain positions `up` and `down` to the mesh.
  void AddLinkPair(size_t up, size_t down, uint64_t salt, size_t index);
  // The links of chain position `position` in an n-replica chain built from
  // the construction-time mesh.
  NodeLinks ChainLinks(size_t position, size_t n);
  // Builds the replica at chain `position` (0 = the primary), appends it to
  // `replicas_` and installs its phase hook, keyed by its index there (the
  // chain position everywhere but in the wire form, which has no failure
  // schedule). It starts active iff `links` has no upstream.
  ReplicaNode* AddReplica(size_t position, const NodeLinks& links);

  // Arms schedule_[next_failure_]: a timed kill or rejoin becomes an event;
  // a phase kill needs nothing more, since every replica's hook reads the
  // armed plan.
  void ArmNextFailure();
  void FireTimedFailure(size_t schedule_index, SimTime when);
  void FireRejoin(size_t schedule_index, SimTime when);
  // Replica `replica_index` reached `phase`: kills it if the armed plan is a
  // phase kill matching the phase, epoch and I/O sequence number, and the
  // replica is the active one.
  void OnPhaseHook(size_t replica_index, FailPhase phase, uint64_t epoch, uint64_t io_seq);
  void OnJoined(size_t resync_index, SimTime t);
  void WireAdjacentPolls(size_t up_index, size_t down_index);
  // The one failure-detection path: `survivor` learns of the crash at `t`
  // of its neighbour, whose channel to it is `from_dead`, once that channel
  // has drained and the detector's timeout elapsed. `upstream_died` picks
  // the takeover (P6/P7) over continuing without the dead downstream.
  void ScheduleDetection(ReplicaNode* survivor, const Channel& from_dead, SimTime t,
                         bool upstream_died);

  // Routes environment input to the node serving (or about to serve) the
  // environment.
  void RouteInput(DeviceId device, const std::vector<uint8_t>& payload, SimTime t);

  WorldConfig config_;
  GuestProgram guest_;
  EventQueue queue_;
  DeterministicRng crash_rng_;
  std::unique_ptr<DeviceSet> devices_;
  std::map<std::pair<size_t, size_t>, std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<ReplicaNode>> replicas_;
  std::unique_ptr<BareNode> bare_;
  FailureSchedule schedule_;
  size_t next_failure_ = 0;
  std::vector<SimTime> crash_times_;
  size_t active_index_ = 0;
  bool service_lost_ = false;
  // Wire-position form: the hosted chain position; kNoChain otherwise.
  size_t wire_position_ = kNoChain;

  // Resumable run-loop outcome state (set by RunLoop, read by Finish).
  bool run_finished_ = false;
  bool run_completed_ = false;
  bool run_timed_out_ = false;
  bool run_deadlocked_ = false;

  // The chain as linked positions (kNoChain = end). Rejoined replicas append
  // to replicas_ but link below the tail, so neighbours are no longer always
  // index-adjacent once a mid-chain node has died.
  std::vector<size_t> chain_next_;
  std::vector<size_t> chain_prev_;

  // Schedule/repair bookkeeping.
  SimTime last_event_time_ = SimTime::Zero();
  bool pending_after_resync_ = false;  // Next event armed at resync completion.
  std::vector<ResyncReport> resyncs_;
};

}  // namespace hbft

#endif  // HBFT_SIM_WORLD_HPP_
