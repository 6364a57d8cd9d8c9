// Fleet: many protected chains co-simulated across simulated hosts.
//
// Each chain is one World (a primary plus `backups` standing backups running
// the NetEcho guest); a Host is a placement bucket that can fail, taking
// every resident replica with it at one instant. The fleet advances all
// worlds in deterministic lockstep (World::RunLoop to a shared horizon) and
// drives cross-chain events — host failure storms, repair placement, and
// bounded per-host repair admission — through its own partitioned EventQueue
// with one partition per host, so equal-time events across hosts pop in the
// documented partition order regardless of which worker thread last touched
// which world.
//
// Lockstep protocol: time is divided into rounds; a round's horizon is the
// earlier of the next fleet event and the end of a fixed 10 ms round
// (fleet.cpp). Every world first advances until its next actionable instant
// is at or past the horizon, then the fleet events at the horizon fire
// (kills, repair admissions). A world's run is deterministic for a given
// sequence of horizons, and that sequence is a function of the fleet
// configuration, so results repeat exactly for a given config at any thread
// count. They are not invariant to the slicing itself: a replicated world's
// results can depend on where the horizons fall (see World::RunLoop).
//
// Parallel rounds (FleetConfig::threads): chains are independent Worlds
// between horizons, so a round's slices fan out across a fixed WorkerPool —
// chains sharded statically by id, never work-stealing — and everything
// cross-chain happens single-threaded at the barrier. The worker-context
// rule is absolute: during a slice a worker touches only its own chain's
// World and per-chain buffers. The one world→fleet callback that fires
// mid-slice (resync completion freeing a repair slot) appends to a per-chain
// buffer; the barrier drains the buffers in chain-id order and only then
// mutates hosts_/placement_ and schedules follow-up events clamped to the
// horizon — which is itself a deterministic function of the configuration.
// The serial fleet advances chains in id order, so the chain-id-ordered
// drain reproduces the serial event sequence exactly: fingerprints are
// bit-identical at any thread count, and threads=1 spawns no threads at all.
//
// Repairs: a replica death schedules a replacement request repair_delay
// later. The placement policy picks the target host (anti-affinity avoids
// hosts the chain still occupies; both policies avoid failed hosts), and the
// host admits at most repair_concurrency inbound state transfers at a time —
// excess requests queue FIFO per host and admit as transfers complete. A
// joiner that dies mid-transfer (its host failed, or its source died) simply
// re-requests: the repair queue is re-entrant.
//
// Measurement: open-loop request traffic per chain (see fleet/traffic.hpp)
// yields per-request latencies; availability is time-based — outage windows
// run from an active replica's kill to the successor's promotion (or to the
// end of the measured run when the chain lost service) and are merged per
// chain over the fleet makespan.
#ifndef HBFT_FLEET_FLEET_HPP_
#define HBFT_FLEET_FLEET_HPP_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "fleet/placement.hpp"
#include "fleet/traffic.hpp"
#include "fleet/worker_pool.hpp"
#include "perf/report.hpp"
#include "sim/event_queue.hpp"
#include "sim/scenario.hpp"

namespace hbft {

// One host failure: every replica resident on `host` fail-stops at `time`.
// A storm is several of these at one time.
struct HostFailure {
  size_t host = 0;
  SimTime time = SimTime::Zero();
};

struct FleetConfig {
  size_t chains = 4;
  size_t hosts = 2;
  int backups = 1;  // Replicas per chain = 1 + backups.
  PlacementPolicy placement = PlacementPolicy::kAntiAffinity;
  uint64_t seed = 42;

  TrafficConfig traffic;
  SimTime slo = SimTime::Millis(50);  // Request latency SLO.

  std::vector<HostFailure> host_failures;
  SimTime repair_delay = SimTime::Millis(20);  // Death -> replacement request.
  size_t repair_concurrency = 1;  // Inbound transfers admitted per host.
  SimTime repair_retry = SimTime::Millis(10);  // Source not ready yet.

  // Per-chain env-consistency verification against a bare reference run of
  // the same packet schedule (chains that kept serving only: a chain that
  // lost service has a legitimately truncated trace). Costs one extra bare
  // run per chain.
  bool verify = false;

  SimTime max_time = SimTime::Seconds(900);
  uint64_t epoch_length = 0;  // 0 = the scenario default.

  // Worker threads for round slices (and world build / result collection),
  // at most WorkerPool::kMaxThreads. 1 = the serial path, with no threads
  // spawned; any K produces the same result fingerprint (see "Parallel
  // rounds" above). The pool runs min(threads, chains) workers.
  size_t threads = 1;
};

struct FleetChainReport {
  size_t chain = 0;
  bool completed = false;     // Guest ran to clean exit and service held.
  bool service_lost = false;  // Every replica died.
  uint32_t guest_checksum = 0;
  size_t failovers = 0;  // Active-replica deaths that had a successor.
  size_t repairs = 0;    // Completed live state transfers.
  size_t replicas_lost = 0;
  uint64_t requests_served = 0;
  double availability = 1.0;  // Time-based, over the fleet makespan.
  bool env_consistent = true;  // Meaningful when FleetConfig::verify.
  SimTime completion_time = SimTime::Zero();
};

struct FleetHostReport {
  size_t host = 0;
  bool failed = false;
  size_t replicas_killed = 0;  // Residents lost to this host's failure.
  size_t repairs_hosted = 0;   // Inbound transfers admitted.
  size_t repair_queue_peak = 0;
};

struct FleetResult {
  std::vector<FleetChainReport> chains;
  std::vector<FleetHostReport> hosts;

  uint64_t requests_total = 0;
  uint64_t requests_served = 0;
  uint64_t requests_within_slo = 0;
  LatencySummary latency_ms;  // Over served requests, milliseconds.
  double slo_attainment = 0.0;   // served-within-SLO / total issued.
  double availability = 1.0;     // Mean of per-chain time-based availability.
  size_t chains_completed = 0;
  size_t chains_lost = 0;
  size_t hosts_failed = 0;
  size_t failovers = 0;
  size_t repairs = 0;
  bool all_env_consistent = true;
  SimTime makespan = SimTime::Zero();  // Latest chain completion instant.

  // FNV-1a over the result's observable fields; two runs of the same config
  // match iff this matches — the determinism handle for tests and CI.
  uint64_t fingerprint = 0;
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config);
  ~Fleet();

  // Runs the whole fleet to quiescence. Single-shot.
  FleetResult Run();

 private:
  struct LiveReplica {
    size_t world_pos = 0;
    size_t host = 0;
    bool joining = false;  // Mid state-transfer; not a standing backup yet.
  };

  // A resync completion observed inside a world's slice, buffered until the
  // round barrier (worker context must not touch fleet state).
  struct PendingResync {
    size_t resync_index = 0;
    SimTime time = SimTime::Zero();
  };

  struct ChainState {
    Scenario scenario;  // Kept for the bare verification twin.
    std::unique_ptr<World> world;
    std::vector<LiveReplica> live;
    std::vector<SimTime> active_kills;  // Outage window starts.
    size_t failovers = 0;
    size_t repairs = 0;
    size_t replicas_lost = 0;
    // Worker-writable buffers, drained at the barrier in chain-id order.
    std::vector<PendingResync> pending_resyncs;
    std::vector<std::string> log_lines;
    explicit ChainState(Scenario s) : scenario(std::move(s)) {}
  };

  struct HostState {
    bool up = true;
    size_t active_repairs = 0;
    std::deque<size_t> repair_queue;  // Chain ids, FIFO.
    FleetHostReport report;
  };

  void BuildChains();
  void ScheduleHostFailures();
  void RunLockstep();
  FleetResult Collect();

  // The barrier drain: flushes every chain's captured log lines and applies
  // its buffered resync completions, in chain-id order — the single place
  // worker-buffered effects re-enter single-threaded fleet state.
  void DrainChainBuffers();

  // Pushes a fleet event into the host's partition, clamped to the current
  // round horizon so callbacks firing mid-slice stay deterministic.
  void PushHostEvent(size_t host, SimTime t, std::function<void()> fn);

  void OnHostFailure(size_t host, SimTime t);
  void KillChainReplica(size_t chain, size_t world_pos, SimTime t);
  // Drops chain.live entries whose replica died as a side effect (chain
  // truncation, service loss), re-requesting repairs for lost joiners.
  void SweepDead(size_t chain, SimTime t);
  void RequestRepair(size_t chain, SimTime t);
  void AdmitRepair(size_t host, size_t chain, SimTime t);
  void OnResyncDone(size_t chain, size_t resync_index, SimTime t);

  FleetConfig config_;
  Placement placement_;
  WorkerPool pool_;         // Round-slice workers; threads=1 spawns none.
  EventQueue fleet_queue_;  // Partition = host id.
  std::vector<ChainState> chains_;
  std::vector<HostState> hosts_;
  SimTime horizon_ = SimTime::Zero();  // Current lockstep round limit.
  bool ran_ = false;
};

}  // namespace hbft

#endif  // HBFT_FLEET_FLEET_HPP_
