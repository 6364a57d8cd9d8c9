#include "fleet/fleet.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/snapshot.hpp"
#include "isa/isa.hpp"
#include "sim/environment_observer.hpp"

namespace hbft {

namespace {

// The longest lockstep round: a round ends at the next fleet event or this
// long after it began, whichever is earlier.
constexpr SimTime kQuantum = SimTime::Millis(10);

}  // namespace

Fleet::Fleet(const FleetConfig& config)
    : config_(config),
      placement_(config.placement, config.hosts),
      // Sharding is by chain index, so a worker past the last chain would
      // only wake at every barrier; WorkerPool bounds threads to [1, kMaxThreads].
      pool_(std::min(config.threads, config.chains)) {
  HBFT_CHECK_GT(config_.chains, 0u);
  HBFT_CHECK_GT(config_.hosts, 0u);
  HBFT_CHECK_GE(config_.backups, 1);
  HBFT_CHECK_GE(config_.repair_concurrency, 1u);
  HBFT_CHECK_GE(config_.threads, 1u);
  // Availability and SLO attainment are measured over a run that serves
  // requests: with none, or no time to run, both would read a perfect 1.
  HBFT_CHECK_GE(config_.traffic.requests_per_chain, 1u);
  HBFT_CHECK_GE(config_.traffic.payload_bytes, kRequestHeaderBytes);
  HBFT_CHECK_LE(config_.traffic.payload_bytes, kNicMaxPacketBytes);
  HBFT_CHECK(config_.max_time > SimTime::Zero()) << "max_time must be positive";
  // A retry at `t + 0` lands inside the round that raised it, and the
  // barrier's drain would run it again before any world advances.
  HBFT_CHECK(config_.repair_retry > SimTime::Zero()) << "repair_retry must be positive";
  hosts_.resize(config_.hosts);
  for (size_t h = 0; h < config_.hosts; ++h) {
    hosts_[h].report.host = h;
  }
}

Fleet::~Fleet() = default;

void Fleet::BuildChains() {
  chains_.reserve(config_.chains);
  std::vector<size_t> load(config_.hosts, 0);
  for (size_t c = 0; c < config_.chains; ++c) {
    Scenario scenario = Scenario::Replicated(
        WorkloadSpec::NetEcho(static_cast<uint32_t>(config_.traffic.requests_per_chain)));
    scenario.Backups(config_.backups)
        .Device(DeviceId::kNic)
        // Distinct per-chain seeds: chains are independent machines, and the
        // stride keeps every chain's derived RNG streams disjoint.
        .Seed(config_.seed + 1000003ULL * c)
        .MaxTime(config_.max_time);
    if (config_.epoch_length != 0) {
      scenario.Epoch(config_.epoch_length);
    }
    for (uint64_t i = 0; i < config_.traffic.requests_per_chain; ++i) {
      scenario.InjectPacket(EncodeRequest(static_cast<uint32_t>(c), static_cast<uint32_t>(i),
                                          config_.traffic.payload_bytes),
                            RequestArrival(config_.traffic, i));
    }
    chains_.emplace_back(scenario);
    chains_.back().hosts =
        placement_.AssignChain(static_cast<size_t>(config_.backups) + 1, &load);
  }
  // World construction is pure per-chain (the scenario carries everything a
  // world needs), so it shards across the pool; placement above stays out
  // of worker context.
  pool_.Run(chains_.size(), [this](size_t c) {
    ChainState& chain = chains_[c];
    ScopedLogCapture capture(&chain.log_lines);
    chain.world = chain.scenario.BuildWorld();
  });
  DrainChainBuffers();
}

void Fleet::ScheduleHostFailures() {
  for (const HostFailure& failure : config_.host_failures) {
    HBFT_CHECK_LT(failure.host, config_.hosts);
    const size_t host = failure.host;
    const SimTime t = failure.time;
    fleet_queue_.Push(static_cast<uint32_t>(host), t, [this, host, t] { OnHostFailure(host, t); });
  }
}

void Fleet::PushHostEvent(size_t host, SimTime t, std::function<void()> fn) {
  if (t < horizon_) {
    // A resync that completed inside a world's slice wants an event before
    // the current round horizon: clamp forward. The horizon is a function of
    // the configuration alone, so the clamp is deterministic.
    t = horizon_;
  }
  fleet_queue_.Push(static_cast<uint32_t>(host), t, std::move(fn));
}

void Fleet::RunLockstep() {
  SimTime cursor = SimTime::Zero();
  while (true) {
    bool any_running = false;
    for (ChainState& chain : chains_) {
      if (!chain.world->finished()) {
        any_running = true;
        break;
      }
    }
    if (!any_running && fleet_queue_.empty()) {
      return;
    }
    if (cursor >= config_.max_time) {
      return;  // Per-world max_time reports the timeout; this is the backstop.
    }

    SimTime limit = cursor + kQuantum;
    if (!fleet_queue_.empty() && fleet_queue_.PeekTime() < limit) {
      limit = fleet_queue_.PeekTime();
    }
    horizon_ = limit;
    // Fan the round's slices out to the pool. Worker context: each shard
    // touches only its own chain's World and log buffer, never fleet state.
    pool_.Run(chains_.size(), [this, limit](size_t c) {
      ChainState& chain = chains_[c];
      ScopedLogCapture capture(&chain.log_lines);
      if (!chain.world->finished()) {
        chain.world->RunLoop(limit);
      }
    });
    // Barrier: the slices' effects re-enter in chain-id order (the order the
    // serial loop produced them in), then the fleet events at the horizon
    // fire single-threaded in the documented partition pop order.
    DrainChainBuffers();
    while (!fleet_queue_.empty() && fleet_queue_.PeekTime() <= limit) {
      fleet_queue_.RunNext();
    }
    cursor = limit;
  }
}

void Fleet::DrainChainBuffers() {
  for (size_t c = 0; c < chains_.size(); ++c) {
    ChainState& chain = chains_[c];
    EmitCapturedLogLines(&chain.log_lines);
    // A chain streams one transfer at a time (RejoinReplica refuses a
    // joining tail), so every record before the last has joined or been
    // aborted; an incomplete last one may still be streaming.
    const std::vector<ResyncReport>& resyncs = chain.world->resyncs();
    for (; chain.resyncs_seen < resyncs.size(); ++chain.resyncs_seen) {
      const ResyncReport& resync = resyncs[chain.resyncs_seen];
      if (resync.completed) {
        OnResyncDone(c, resync.joined, resync.join_time);
      } else if (chain.resyncs_seen + 1 == resyncs.size()) {
        break;
      } else {
        HBFT_CHECK(chain.world->replica(resync.joined)->dead()) << "an aborted joiner is alive";
      }
    }
  }
}

bool Fleet::Live(const ChainState& chain, size_t world_pos) const {
  return !chain.world->replica(world_pos)->dead() && !hosts_[chain.hosts[world_pos]].report.failed;
}

std::vector<size_t> Fleet::HostLoads() const {
  std::vector<size_t> load(hosts_.size());
  for (size_t h = 0; h < hosts_.size(); ++h) {
    load[h] = hosts_[h].reserved;
  }
  for (const ChainState& chain : chains_) {
    for (size_t pos = 0; pos < chain.hosts.size(); ++pos) {
      if (Live(chain, pos)) {
        ++load[chain.hosts[pos]];
      }
    }
  }
  return load;
}

size_t Fleet::BusySlots(size_t host) const {
  size_t busy = 0;
  for (const ChainState& chain : chains_) {
    for (size_t pos = 0; pos < chain.hosts.size(); ++pos) {
      if (chain.hosts[pos] == host && Live(chain, pos) && chain.world->replica(pos)->joining()) {
        ++busy;
      }
    }
  }
  return busy;
}

void Fleet::OnHostFailure(size_t host, SimTime t) {
  HostState& h = hosts_[host];
  if (h.report.failed) {
    return;
  }
  h.report.failed = true;
  // Kill every resident replica, chain-major — the per-chain order is
  // irrelevant to results (chains are independent worlds) but fixed anyway.
  for (size_t c = 0; c < chains_.size(); ++c) {
    // Collect first: a kill can take other residents of this chain with it.
    // A finished chain and a halted replica have nothing left to kill.
    ChainState& chain = chains_[c];
    if (chain.world->finished()) {
      continue;
    }
    std::vector<size_t> victims;
    for (size_t pos = 0; pos < chain.hosts.size(); ++pos) {
      const ReplicaNode* node = chain.world->replica(pos);
      if (chain.hosts[pos] == host && !node->dead() && !node->halted()) {
        victims.push_back(pos);
      }
    }
    for (size_t pos : victims) {
      ++h.report.replicas_killed;
      KillChainReplica(c, pos, t);
    }
  }
  // Repairs queued against this host will never admit here: requeue them
  // through fresh placement picks (a failed host is never picked again, so
  // its reservations need no release).
  std::deque<size_t> orphaned = std::move(h.repair_queue);
  h.repair_queue.clear();
  for (size_t chain : orphaned) {
    RequestRepair(chain, t + config_.repair_retry);
  }
}

void Fleet::KillChainReplica(size_t chain_id, size_t world_pos, SimTime t) {
  ChainState& chain = chains_[chain_id];
  World* world = chain.world.get();
  if (world->finished()) {
    return;  // The guest already ran to completion; nothing left to kill.
  }
  ReplicaNode* node = world->replica(world_pos);
  if (node->dead() || node->halted()) {
    return;  // Dead already (e.g. with its source earlier this storm).
  }
  // A kill can take the chain's joiner with it (its source, or service,
  // died): note the other living joiners to re-request the dead ones.
  std::vector<size_t> joiners;
  for (size_t pos = chain.hosts.size(); pos-- > 0;) {
    ReplicaNode* other = world->replica(pos);
    if (pos != world_pos && !other->dead() && other->joining()) {
      joiners.push_back(pos);
    }
  }
  const bool was_active = world_pos == world->active_index();
  const SimTime kill_time = node->clock() > t ? node->clock() : t;
  world->KillReplica(world_pos, kill_time, FailurePlan::CrashIo::kRandom);
  if (was_active) {
    chain.active_kills.push_back(kill_time);
    if (!world->service_lost()) {
      ++chain.failovers;
    }
  }
  if (world->service_lost()) {
    return;
  }
  for (size_t pos : joiners) {
    if (world->replica(pos)->dead()) {
      RequestRepair(chain_id, t + config_.repair_retry);  // The transfer is gone.
    }
  }
  RequestRepair(chain_id, t + config_.repair_delay);
}

void Fleet::RequestRepair(size_t chain_id, SimTime t) {
  ChainState& chain = chains_[chain_id];
  if (chain.world->finished() || chain.world->service_lost()) {
    return;
  }
  // Pick the target host now — the reservation counts against its load —
  // and route the event through that host's partition.
  std::vector<size_t> occupied;
  for (size_t pos = 0; pos < chain.hosts.size(); ++pos) {
    if (Live(chain, pos)) {
      occupied.push_back(chain.hosts[pos]);
    }
  }
  std::vector<bool> host_up(hosts_.size());
  bool any_up = false;
  for (size_t h = 0; h < hosts_.size(); ++h) {
    host_up[h] = !hosts_[h].report.failed;
    any_up = any_up || host_up[h];
  }
  if (!any_up) {
    return;  // Nowhere to repair to; the chain stays degraded.
  }
  const size_t host = placement_.PickRepairHost(occupied, host_up, HostLoads());
  ++hosts_[host].reserved;
  PushHostEvent(host, t, [this, chain_id, host] {
    // Fleet events always fire at the round horizon (the drain pops only
    // events at exactly the current limit), so horizon_ is "now".
    HostState& h = hosts_[host];
    if (h.report.failed) {
      RequestRepair(chain_id, horizon_ + config_.repair_retry);  // Failed since the pick.
      return;
    }
    if (BusySlots(host) >= config_.repair_concurrency) {
      h.repair_queue.push_back(chain_id);
      h.report.repair_queue_peak = std::max(h.report.repair_queue_peak, h.repair_queue.size());
      return;
    }
    AdmitRepair(host, chain_id, horizon_);
  });
}

void Fleet::AdmitRepair(size_t host, size_t chain_id, SimTime t) {
  HostState& h = hosts_[host];
  HBFT_CHECK_GT(h.reserved, 0u);
  --h.reserved;  // Admitted (a live joiner now) or abandoned.
  ChainState& chain = chains_[chain_id];
  World* world = chain.world.get();
  if (world->finished() || world->service_lost()) {
    return;
  }
  const size_t pos = world->RejoinReplica(t);
  if (pos == World::npos) {
    // The transfer source is not ready yet (a downstream failure detection
    // is still pending, or a transfer is mid-abort): retry.
    RequestRepair(chain_id, t + config_.repair_retry);
    return;
  }
  HBFT_CHECK_EQ(pos, chain.hosts.size());
  chain.hosts.push_back(host);
  ++h.report.repairs_hosted;
}

void Fleet::OnResyncDone(size_t chain_id, size_t world_pos, SimTime t) {
  const size_t host = chains_[chain_id].hosts[world_pos];
  HostState& h = hosts_[host];
  if (!h.repair_queue.empty()) {
    const size_t next_chain = h.repair_queue.front();
    h.repair_queue.pop_front();
    // Admission happens through the host's partition at the clamped instant:
    // the completion happened mid-slice, so t may precede the horizon the
    // barrier drain is running at.
    PushHostEvent(host, t, [this, host, next_chain] {
      if (hosts_[host].report.failed) {
        RequestRepair(next_chain, horizon_ + config_.repair_retry);
        return;
      }
      AdmitRepair(host, next_chain, horizon_);
    });
  }
}

FleetResult Fleet::Run() {
  HBFT_CHECK(!ran_) << "Fleet::Run is single-shot";
  ran_ = true;
  BuildChains();
  ScheduleHostFailures();
  RunLockstep();
  return Collect();
}

FleetResult Fleet::Collect() {
  FleetResult result;
  result.availability = 0.0;  // Accumulated below, then averaged.
  std::vector<double> latencies_ms;
  std::vector<ScenarioResult> chain_results(chains_.size());
  std::vector<std::vector<RequestOutcome>> chain_outcomes(chains_.size());
  // Per-chain verify verdicts as bytes: vector<bool> packs bits, which is
  // not safe for concurrent per-element writes.
  std::vector<uint8_t> env_ok(chains_.size(), 1);

  // Phase 1, on the pool: everything per-chain — finishing the world,
  // collecting its result, matching its request trace, and (under --verify)
  // running the bare reference twin, the dominant cost. Worker context: a
  // shard writes only its own chain's slots.
  pool_.Run(chains_.size(), [&](size_t c) {
    ChainState& chain = chains_[c];
    ScopedLogCapture capture(&chain.log_lines);
    ScenarioResult& r = chain_results[c];
    chain.world->Finish(&r);
    chain.scenario.CollectResult(*chain.world, &r);
    chain_outcomes[c] =
        MatchRequests(static_cast<uint32_t>(c), config_.traffic, r.env_trace);
    if (config_.verify && r.completed && r.exited_flag == 1) {
      ScenarioResult bare = chain.scenario.AsBare().Run();
      ConsistencyResult consistency =
          CheckEnvConsistency(bare.env_trace, r.env_trace, r.issuer_chain());
      env_ok[c] = consistency.ok ? 1 : 0;
      if (!consistency.ok) {
        HBFT_INFO("fleet") << "chain " << c << " env inconsistency: " << consistency.detail;
      }
    }
  });
  // Barrier: flush worker logs.
  DrainChainBuffers();

  // Phase 2, single-threaded in chain-id order: every cross-chain fold.
  // Makespan first: lost chains count their outage until the fleet's end.
  SimTime makespan = SimTime::Zero();
  for (const ScenarioResult& r : chain_results) {
    makespan = std::max(makespan, r.completion_time);
  }
  result.makespan = makespan;

  for (size_t c = 0; c < chains_.size(); ++c) {
    const ChainState& chain = chains_[c];
    const ScenarioResult& r = chain_results[c];
    FleetChainReport report;
    report.chain = c;
    report.completed = r.completed && r.exited_flag == 1;
    report.service_lost = r.service_lost;
    report.guest_checksum = r.guest_checksum;
    report.failovers = chain.failovers;
    for (const ResyncReport& resync : r.resyncs) {
      report.repairs += resync.completed ? 1 : 0;
    }
    for (size_t pos = 0; pos < chain.world->replica_count(); ++pos) {
      report.replicas_lost += chain.world->replica(pos)->dead() ? 1 : 0;
    }
    report.completion_time = r.completion_time;

    // Outage windows: each active-replica kill opens one; the matching
    // promotion (in order) closes it, or the makespan does if nobody took
    // over.
    std::vector<SimTime> promotions;
    for (const ScenarioResult::NodeReport& node : r.nodes) {
      if (node.promoted) {
        promotions.push_back(node.promotion_time);
      }
    }
    std::sort(promotions.begin(), promotions.end());
    std::vector<OutageWindow> windows;
    size_t next_promotion = 0;
    for (SimTime kill : chain.active_kills) {
      while (next_promotion < promotions.size() && promotions[next_promotion] <= kill) {
        ++next_promotion;
      }
      OutageWindow w;
      w.start = kill;
      w.end = next_promotion < promotions.size() ? promotions[next_promotion++] : makespan;
      windows.push_back(w);
    }
    report.availability = AvailabilityFromOutages(windows, makespan);

    // Request outcomes matched from the chain's NIC entries in phase 1.
    for (const RequestOutcome& outcome : chain_outcomes[c]) {
      ++result.requests_total;
      if (!outcome.served) {
        continue;
      }
      ++result.requests_served;
      ++report.requests_served;
      if (outcome.latency <= config_.slo) {
        ++result.requests_within_slo;
      }
      latencies_ms.push_back(outcome.latency.seconds() * 1e3);
    }

    if (config_.verify && report.completed) {
      report.env_consistent = env_ok[c] != 0;
    }

    result.availability += report.availability;
    result.failovers += report.failovers;
    result.repairs += report.repairs;
    if (report.completed) {
      ++result.chains_completed;
    }
    if (report.service_lost) {
      ++result.chains_lost;
    }
    result.all_env_consistent = result.all_env_consistent && report.env_consistent;
    result.chains.push_back(report);
  }
  result.availability /= static_cast<double>(chains_.size());

  for (const HostState& host : hosts_) {
    if (host.report.failed) {
      ++result.hosts_failed;
    }
    result.hosts.push_back(host.report);
  }

  result.latency_ms = SummarizeLatencies(latencies_ms);
  result.slo_attainment = static_cast<double>(result.requests_within_slo) /
                          static_cast<double>(result.requests_total);

  // Fingerprint every observable field a regression could move.
  Snapshot observed;
  SnapshotWriter w(&observed);
  w.U64(result.requests_total);
  w.U64(result.requests_served);
  w.U64(result.requests_within_slo);
  w.U64(std::bit_cast<uint64_t>(result.availability));
  w.U64(std::bit_cast<uint64_t>(result.latency_ms.p50));
  w.U64(std::bit_cast<uint64_t>(result.latency_ms.p99));
  w.U64(std::bit_cast<uint64_t>(result.latency_ms.p999));
  w.I64(result.makespan.picos());
  for (const FleetChainReport& chain : result.chains) {
    w.U64(chain.guest_checksum);
    w.U64(chain.requests_served);
    w.U64(chain.failovers);
    w.U64(chain.repairs);
    w.I64(chain.completion_time.picos());
    w.U64(std::bit_cast<uint64_t>(chain.availability));
  }
  result.fingerprint = Fnv1a(observed.bytes.data(), observed.size());
  return result;
}

}  // namespace hbft
