// Fleet subsystem tests: placement policy properties (the anti-affinity
// invariant the paper's single-failure assumption rests on), open-loop
// traffic encoding/matching, and whole-fleet runs — failover under host
// failure storms, bounded repair admission, determinism, and the 256-chain
// acceptance storm.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/placement.hpp"
#include "fleet/traffic.hpp"
#include "fleet/worker_pool.hpp"

namespace hbft {
namespace {

TEST(Placement, RoundRobinDealsReplicasChainMajor) {
  Placement rr(PlacementPolicy::kRoundRobin, 3);
  std::vector<size_t> load(3, 0);
  EXPECT_EQ(rr.AssignChain(2, &load), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(rr.AssignChain(2, &load), (std::vector<size_t>{2, 0}));
  EXPECT_EQ(load, (std::vector<size_t>{2, 1, 1}));
}

TEST(Placement, AntiAffinityNeverColocatesAChainInitially) {
  Placement aa(PlacementPolicy::kAntiAffinity, 3);
  std::vector<size_t> load(3, 0);
  EXPECT_EQ(aa.AssignChain(2, &load), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(aa.AssignChain(2, &load), (std::vector<size_t>{2, 0}));
  EXPECT_EQ(aa.AssignChain(2, &load), (std::vector<size_t>{1, 2}));
  // Three chains, two replicas each, three hosts: perfectly balanced and no
  // chain twice on one host.
  EXPECT_EQ(load, (std::vector<size_t>{2, 2, 2}));
}

TEST(Placement, AntiAffinityFallsBackWhenHostsAreScarcerThanReplicas) {
  // A 3-replica chain on 2 hosts cannot satisfy anti-affinity; the third
  // replica goes least-loaded instead of failing.
  Placement aa(PlacementPolicy::kAntiAffinity, 2);
  std::vector<size_t> load(2, 0);
  EXPECT_EQ(aa.AssignChain(3, &load), (std::vector<size_t>{0, 1, 0}));
}

// The hazard the anti-affinity policy exists to close: at repair time the
// round-robin cursor is blind to chain membership, so a replacement replica
// can land on the host the chain's surviving replica already occupies —
// converting the next single host failure into an unrecoverable double
// failure. Anti-affinity picks a disjoint host from the same state.
TEST(Placement, RoundRobinCanColocateAtRepairTimeAntiAffinityCannot) {
  for (PlacementPolicy policy : {PlacementPolicy::kRoundRobin, PlacementPolicy::kAntiAffinity}) {
    Placement p(policy, 3);
    std::vector<size_t> load(3, 0);
    // Chain 0 -> {0,1}, chain 1 -> {2,0} under both policies (see above).
    p.AssignChain(2, &load);
    p.AssignChain(2, &load);
    // Host 0 fails: chain 0 loses its replica there (so does chain 1).
    load[0] = 0;
    const std::vector<bool> host_up = {false, true, true};
    // Chain 0's surviving replica is on host 1.
    size_t repair = p.PickRepairHost({1}, host_up, load);
    if (policy == PlacementPolicy::kRoundRobin) {
      EXPECT_EQ(repair, 1u);  // Cursor at 4 -> host 1: co-located.
    } else {
      EXPECT_EQ(repair, 2u);  // Only disjoint live host.
    }
  }
}

TEST(Placement, RepairNeverPicksADownHost) {
  Placement rr(PlacementPolicy::kRoundRobin, 4);
  std::vector<size_t> rr_load(4, 0);
  rr.AssignChain(2, &rr_load);  // Cursor at 2.
  const std::vector<bool> host_up = {true, false, false, true};
  // Cursor would deal hosts 2 then 3; both downs are skipped.
  EXPECT_EQ(rr.PickRepairHost({0}, host_up, rr_load), 3u);
  EXPECT_EQ(rr.PickRepairHost({0}, host_up, rr_load), 0u);

  Placement aa(PlacementPolicy::kAntiAffinity, 4);
  std::vector<size_t> aa_load(4, 0);
  aa.AssignChain(2, &aa_load);
  EXPECT_EQ(aa.PickRepairHost({0}, host_up, aa_load), 3u);
}

TEST(Placement, StormHostsSpreadEvenly) {
  EXPECT_EQ(StormHosts(32, 4), (std::vector<size_t>{0, 8, 16, 24}));
  EXPECT_EQ(StormHosts(8, 1), (std::vector<size_t>{0}));
  EXPECT_EQ(StormHosts(8, 3), (std::vector<size_t>{0, 2, 5}));
  // Width caps at the host count.
  EXPECT_EQ(StormHosts(4, 8), (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(Traffic, RequestPayloadsAreUniqueFleetWide) {
  std::set<std::vector<uint8_t>> seen;
  for (uint32_t chain = 0; chain < 8; ++chain) {
    for (uint32_t seq = 0; seq < 8; ++seq) {
      std::vector<uint8_t> payload = EncodeRequest(chain, seq, 32);
      EXPECT_EQ(payload.size(), 32u);
      EXPECT_TRUE(seen.insert(std::move(payload)).second);
    }
  }
}

TEST(Traffic, MatchSkipsDuplicatesAndForeignTraffic) {
  TrafficConfig traffic;
  traffic.requests_per_chain = 2;
  traffic.start = SimTime::Millis(10);
  traffic.interval = SimTime::Millis(5);
  traffic.payload_bytes = 16;

  std::vector<EnvTraceEntry> trace;
  auto latch = [&trace](DeviceId device, std::vector<uint8_t> bytes, SimTime time) {
    EnvTraceEntry entry;
    entry.device_id = device;
    entry.performed = true;
    entry.time = time;
    entry.bytes = std::move(bytes);
    trace.push_back(std::move(entry));
  };
  latch(DeviceId::kNic, EncodeRequest(3, 0, 16), SimTime::Millis(12));
  // P7 redrive: the same echo again later must not overwrite the latency.
  latch(DeviceId::kNic, EncodeRequest(3, 0, 16), SimTime::Millis(13));
  // Another chain's echo, a non-request frame and another device's output
  // carrying request bytes are all ignored.
  latch(DeviceId::kNic, EncodeRequest(4, 1, 16), SimTime::Millis(14));
  latch(DeviceId::kNic, {0xDE, 0xAD}, SimTime::Millis(14));
  latch(DeviceId::kConsole, EncodeRequest(3, 1, 16), SimTime::Millis(15));
  latch(DeviceId::kNic, EncodeRequest(3, 1, 16), SimTime::Millis(20));

  std::vector<RequestOutcome> outcomes = MatchRequests(3, traffic, trace);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].served);
  EXPECT_EQ(outcomes[0].latency, SimTime::Millis(2));
  EXPECT_TRUE(outcomes[1].served);
  EXPECT_EQ(outcomes[1].latency, SimTime::Millis(5));
}

FleetConfig SmallFleet() {
  FleetConfig config;
  config.chains = 2;
  config.hosts = 2;
  config.traffic.requests_per_chain = 3;
  config.verify = true;
  return config;
}

TEST(Fleet, HealthyFleetServesEveryRequest) {
  FleetConfig config = SmallFleet();
  FleetResult result = Fleet(config).Run();
  EXPECT_EQ(result.chains_completed, 2u);
  EXPECT_EQ(result.chains_lost, 0u);
  EXPECT_EQ(result.failovers, 0u);
  EXPECT_EQ(result.requests_served, result.requests_total);
  EXPECT_EQ(result.requests_total, 6u);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
  EXPECT_TRUE(result.all_env_consistent);
  EXPECT_GT(result.latency_ms.count, 0u);
  EXPECT_LE(result.latency_ms.p50, result.latency_ms.p99);
  EXPECT_LE(result.latency_ms.p99, result.latency_ms.p999);
}

TEST(Fleet, HostFailureFailsOverEveryResidentChainAndRepairs) {
  FleetConfig config = SmallFleet();
  // Anti-affinity on 2 hosts puts both primaries on host 0 (least-loaded,
  // lowest id); failing it forces both chains to fail over at once.
  config.host_failures.push_back(HostFailure{0, SimTime::Millis(120)});
  FleetResult result = Fleet(config).Run();
  EXPECT_EQ(result.chains_completed, 2u);
  EXPECT_EQ(result.chains_lost, 0u);
  EXPECT_EQ(result.hosts_failed, 1u);
  EXPECT_EQ(result.failovers, 2u);
  EXPECT_EQ(result.repairs, 2u);
  EXPECT_TRUE(result.all_env_consistent);
  EXPECT_LT(result.availability, 1.0);
  EXPECT_GT(result.availability, 0.5);
  // Both replacements land on the one surviving host.
  EXPECT_TRUE(result.hosts[0].failed);
  EXPECT_EQ(result.hosts[0].replicas_killed, 2u);
  EXPECT_EQ(result.hosts[1].repairs_hosted, 2u);
}

// A host that fails after every chain ran to completion has nothing left to
// kill, so its report agrees with the chains'. The configuration is
// `fleet --chains=2 --hosts=2 --requests=2 --no-verify
// --fail=host-0,time-ms=5000`, whose chains are done by 160 ms.
TEST(Fleet, HostFailureAfterEveryChainFinishedKillsNobody) {
  FleetConfig config;
  config.chains = 2;
  config.hosts = 2;
  config.traffic.requests_per_chain = 2;
  config.host_failures.push_back(HostFailure{0, SimTime::Millis(5000)});
  FleetResult result = Fleet(config).Run();
  EXPECT_EQ(result.chains_completed, 2u);
  EXPECT_LT(result.makespan, SimTime::Millis(5000));
  EXPECT_EQ(result.hosts_failed, 1u);
  EXPECT_TRUE(result.hosts[0].failed);
  EXPECT_EQ(result.hosts[0].replicas_killed, 0u);
  for (const FleetChainReport& chain : result.chains) {
    EXPECT_EQ(chain.replicas_lost, 0u);
    EXPECT_EQ(chain.failovers, 0u);
  }
}

TEST(Fleet, RepairAdmissionIsBoundedPerHost) {
  FleetConfig config;
  config.chains = 4;
  config.hosts = 2;
  // Long enough traffic that every chain is still serving when its queued
  // repair finally admits — a finished chain abandons its pending repair.
  config.traffic.requests_per_chain = 12;
  config.host_failures.push_back(HostFailure{0, SimTime::Millis(110)});
  config.repair_concurrency = 1;
  FleetResult result = Fleet(config).Run();
  // Four chains each lose a replica; every replacement must target the one
  // surviving host, one admitted transfer at a time.
  EXPECT_EQ(result.chains_lost, 0u);
  EXPECT_EQ(result.repairs, 4u);
  EXPECT_EQ(result.hosts[1].repairs_hosted, 4u);
  EXPECT_EQ(result.hosts[1].repair_queue_peak, 3u);

  // With enough concurrency nothing queues.
  FleetConfig wide = config;
  wide.repair_concurrency = 4;
  FleetResult parallel_result = Fleet(wide).Run();
  EXPECT_EQ(parallel_result.repairs, 4u);
  EXPECT_EQ(parallel_result.hosts[1].repair_queue_peak, 0u);
}

TEST(Fleet, SameSeedSameFingerprint) {
  FleetConfig config = SmallFleet();
  config.verify = false;
  config.host_failures.push_back(HostFailure{0, SimTime::Millis(120)});
  FleetResult a = Fleet(config).Run();
  FleetResult b = Fleet(config).Run();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.requests_served, b.requests_served);
  EXPECT_EQ(a.makespan, b.makespan);
}

// One kill takes a standing backup, the standing backup below it and the
// chain's joiner. The joiner's repair is re-requested at once, and its pick
// must not see the other replica that just died: that replica's host is
// free again and carries one replica less. At 150 ms host 1's backup dies
// with backup 2 (on host 2) and the joiner (on host 4), so the retry goes to
// host 2, not host 4.
TEST(Fleet, RepairRetryAfterAKillSeesEveryReplicaTheKillTook) {
  FleetConfig config;
  config.chains = 1;
  config.hosts = 5;
  config.backups = 3;
  config.traffic.requests_per_chain = 40;
  config.verify = true;
  config.host_failures = {HostFailure{3, SimTime::Millis(120)},
                          HostFailure{1, SimTime::Millis(150)},
                          HostFailure{4, SimTime::Millis(400)}};
  FleetResult result = Fleet(config).Run();
  EXPECT_EQ(result.chains_completed, 1u);
  EXPECT_EQ(result.chains_lost, 0u);
  EXPECT_TRUE(result.all_env_consistent);
  ASSERT_EQ(result.hosts.size(), 5u);
  EXPECT_EQ(result.hosts[0].repairs_hosted, 1u);
  EXPECT_EQ(result.hosts[2].repairs_hosted, 1u);
  EXPECT_EQ(result.hosts[4].repairs_hosted, 2u);
}

// The acceptance storm: 256 chains, 2 replicas each, across 32 hosts; a
// 4-host storm kills 64 replicas at one instant. Anti-affinity guarantees
// each affected chain loses exactly one replica, so every one of them fails
// over, repairs, and finishes with an environment trace indistinguishable
// from an unreplicated run.
TEST(Fleet, StormAcceptance256Chains32Hosts) {
  FleetConfig config;
  config.chains = 256;
  config.hosts = 32;
  config.traffic.requests_per_chain = 4;
  config.verify = true;
  for (size_t h : StormHosts(32, 4)) {
    config.host_failures.push_back(HostFailure{h, SimTime::Millis(120)});
  }
  FleetResult result = Fleet(config).Run();
  EXPECT_EQ(result.chains_completed, 256u);
  EXPECT_EQ(result.chains_lost, 0u);
  EXPECT_EQ(result.hosts_failed, 4u);
  // Anti-affinity layers primaries onto even hosts and backups onto odd
  // ones; the storm hosts are all even, so all 64 killed replicas were
  // active -> 64 concurrent failovers, then 64 repairs.
  EXPECT_EQ(result.failovers, 64u);
  EXPECT_EQ(result.repairs, 64u);
  EXPECT_TRUE(result.all_env_consistent);
  EXPECT_GT(result.availability, 0.99);
  EXPECT_EQ(result.requests_served, result.requests_total);
  size_t killed = 0;
  for (const FleetHostReport& host : result.hosts) {
    killed += host.replicas_killed;
  }
  EXPECT_EQ(killed, 64u);
}

// --- WorkerPool: the deterministic sharding contract -----------------------

TEST(WorkerPool, SingleThreadRunsEveryIndexInOrder) {
  WorkerPool pool(1);
  std::vector<size_t> order;
  pool.Run(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, ShardingCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  const size_t kCount = 37;  // Deliberately not a multiple of the pool size.
  // One slot per index: each is written by exactly one worker (the static
  // shard i % threads), so plain stores are race-free by construction.
  std::vector<int> hits(kCount, 0);
  for (int round = 0; round < 3; ++round) {  // The pool is reusable.
    std::fill(hits.begin(), hits.end(), 0);
    pool.Run(kCount, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " round " << round;
    }
  }
}

TEST(WorkerPool, RunWithZeroOrFewerItemsThanThreadsIsFine) {
  WorkerPool pool(8);
  pool.Run(0, [](size_t) { FAIL() << "no index to run"; });
  std::vector<int> hits(3, 0);
  pool.Run(3, [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

// --- Parallel rounds: serial/parallel equivalence --------------------------

// The nastiest barrier-interaction schedule: a mid-traffic two-host storm
// forces concurrent failovers and queued repairs, then a second host failure
// lands while those repairs' state transfers are still in flight — killing a
// rejoining-during-round joiner and forcing re-requests. Env verification
// stays on so every completed chain is also checked against its bare twin.
FleetConfig ParallelStormFleet() {
  FleetConfig config;
  config.chains = 16;
  config.hosts = 8;
  config.traffic.requests_per_chain = 6;
  config.verify = true;
  for (size_t h : StormHosts(8, 2)) {
    config.host_failures.push_back(HostFailure{h, SimTime::Millis(120)});
  }
  config.host_failures.push_back(HostFailure{1, SimTime::Millis(145)});
  return config;
}

// Three hosts fail one after another while repairs stream and queue (5-8
// deep per host), and a joiner dies mid-transfer and re-requests its repair:
// between rounds the barrier reads every chain's world for host loads, busy
// transfer slots and completed transfers.
FleetConfig StaggeredFailureFleet() {
  FleetConfig config;
  config.chains = 16;
  config.hosts = 4;
  config.backups = 2;
  config.traffic.requests_per_chain = 10;
  config.verify = true;
  config.host_failures = {HostFailure{0, SimTime::Millis(120)},
                          HostFailure{1, SimTime::Millis(400)},
                          HostFailure{2, SimTime::Millis(700)}};
  return config;
}

TEST(Fleet, ParallelThreadsProduceIdenticalResults) {
  for (const FleetConfig& schedule : {ParallelStormFleet(), StaggeredFailureFleet()}) {
    SCOPED_TRACE("schedule on " + std::to_string(schedule.hosts) + " hosts");
    FleetConfig config = schedule;
    config.threads = 1;
    const FleetResult serial = Fleet(config).Run();
    // The schedule actually exercises the hard paths at the baseline.
    ASSERT_GT(serial.failovers, 0u);
    ASSERT_GT(serial.repairs, 0u);
    ASSERT_EQ(serial.hosts_failed, 3u);

    for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      FleetConfig parallel_config = schedule;
      parallel_config.threads = threads;
      const FleetResult parallel = Fleet(parallel_config).Run();
      SCOPED_TRACE("threads=" + std::to_string(threads));

      EXPECT_EQ(parallel.fingerprint, serial.fingerprint);
      EXPECT_EQ(parallel.requests_total, serial.requests_total);
      EXPECT_EQ(parallel.requests_served, serial.requests_served);
      EXPECT_EQ(parallel.requests_within_slo, serial.requests_within_slo);
      EXPECT_DOUBLE_EQ(parallel.availability, serial.availability);
      EXPECT_DOUBLE_EQ(parallel.latency_ms.p50, serial.latency_ms.p50);
      EXPECT_DOUBLE_EQ(parallel.latency_ms.p99, serial.latency_ms.p99);
      EXPECT_DOUBLE_EQ(parallel.latency_ms.p999, serial.latency_ms.p999);
      EXPECT_DOUBLE_EQ(parallel.latency_ms.max, serial.latency_ms.max);
      EXPECT_EQ(parallel.makespan, serial.makespan);
      EXPECT_EQ(parallel.failovers, serial.failovers);
      EXPECT_EQ(parallel.repairs, serial.repairs);
      EXPECT_EQ(parallel.chains_completed, serial.chains_completed);
      EXPECT_EQ(parallel.chains_lost, serial.chains_lost);
      EXPECT_EQ(parallel.all_env_consistent, serial.all_env_consistent);

      ASSERT_EQ(parallel.chains.size(), serial.chains.size());
      for (size_t c = 0; c < serial.chains.size(); ++c) {
        const FleetChainReport& s = serial.chains[c];
        const FleetChainReport& p = parallel.chains[c];
        EXPECT_EQ(p.completed, s.completed) << "chain " << c;
        EXPECT_EQ(p.service_lost, s.service_lost) << "chain " << c;
        EXPECT_EQ(p.guest_checksum, s.guest_checksum) << "chain " << c;
        EXPECT_EQ(p.failovers, s.failovers) << "chain " << c;
        EXPECT_EQ(p.repairs, s.repairs) << "chain " << c;
        EXPECT_EQ(p.replicas_lost, s.replicas_lost) << "chain " << c;
        EXPECT_EQ(p.requests_served, s.requests_served) << "chain " << c;
        EXPECT_DOUBLE_EQ(p.availability, s.availability) << "chain " << c;
        EXPECT_EQ(p.env_consistent, s.env_consistent) << "chain " << c;
        EXPECT_EQ(p.completion_time, s.completion_time) << "chain " << c;
      }
      ASSERT_EQ(parallel.hosts.size(), serial.hosts.size());
      for (size_t h = 0; h < serial.hosts.size(); ++h) {
        EXPECT_EQ(parallel.hosts[h].failed, serial.hosts[h].failed) << "host " << h;
        EXPECT_EQ(parallel.hosts[h].replicas_killed, serial.hosts[h].replicas_killed)
            << "host " << h;
        EXPECT_EQ(parallel.hosts[h].repairs_hosted, serial.hosts[h].repairs_hosted)
            << "host " << h;
        EXPECT_EQ(parallel.hosts[h].repair_queue_peak, serial.hosts[h].repair_queue_peak)
            << "host " << h;
      }
    }
  }
}

TEST(Fleet, ThreadCountBeyondChainCountStillMatches) {
  FleetConfig config = SmallFleet();  // 2 chains.
  config.verify = false;
  config.host_failures.push_back(HostFailure{0, SimTime::Millis(120)});
  config.threads = 1;
  const FleetResult serial = Fleet(config).Run();
  config.threads = 8;  // More workers than chains: most shards are empty.
  const FleetResult parallel = Fleet(config).Run();
  EXPECT_EQ(parallel.fingerprint, serial.fingerprint);
  EXPECT_EQ(parallel.makespan, serial.makespan);
}

}  // namespace
}  // namespace hbft
