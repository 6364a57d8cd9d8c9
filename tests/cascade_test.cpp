// Cascading-failover tests for the backup chain: a world of 1 primary + k
// backups must survive k successive fail-stop faults of the serving replica.
// The promoted backup re-protects itself by relaying to its own backup
// (cascaded acks), so after "kill the primary, then kill the promoted
// backup" the second backup serves with the environment still consistent
// against the bare reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/failure_detector.hpp"
#include "guest/workloads.hpp"
#include "net/channel.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

WorkloadSpec TxnSpec(uint32_t records) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = records;
  spec.num_blocks = 16;
  return spec;
}

void VerifyAgainstBare(const WorkloadSpec& spec, const ScenarioResult& bare,
                       const ScenarioResult& ft) {
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked
                            << " service_lost=" << ft.service_lost;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  EXPECT_EQ(ft.exit_code, bare.exit_code);
  if (ChecksumMatchesBare(spec.kind)) {
    EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  }
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// ---------------------------------------------------------------------------
// No failures: a three-replica chain stays in lockstep end to end.
// ---------------------------------------------------------------------------

TEST(Cascade, ThreeReplicaChainRunsInLockstep) {
  WorkloadSpec spec = TxnSpec(8);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = Scenario::Replicated(spec).Backups(2).Epoch(4096).AuditLockstep().Run();
  VerifyAgainstBare(spec, bare, ft);
  EXPECT_FALSE(ft.promoted);
  ASSERT_EQ(ft.nodes.size(), 3u);

  // The second backup followed via relays only; it never acked upstream
  // before its own downstream... there is no downstream: it acks directly.
  EXPECT_GT(ft.backup_stats(0).relays_forwarded, 0u);
  EXPECT_EQ(ft.backup_stats(1).relays_forwarded, 0u);
  EXPECT_EQ(ft.backup_stats(0).io_issued, 0u);
  EXPECT_EQ(ft.backup_stats(1).io_issued, 0u);

  // Lockstep holds across every adjacent pair of the chain.
  for (size_t a = 0; a + 1 < ft.nodes.size(); ++a) {
    size_t prefix = MatchingBoundaryPrefix(ft, a, a + 1);
    size_t compared = std::min(ft.nodes[a].boundary_fingerprints.size(),
                               ft.nodes[a + 1].boundary_fingerprints.size());
    EXPECT_EQ(prefix, compared) << "chain pair " << a << "/" << a + 1 << " diverged at " << prefix;
    EXPECT_GT(compared, 0u);
  }
}

// ---------------------------------------------------------------------------
// The acceptance scenario: kill the primary mid-epoch, then kill the first
// promoted backup at an I/O phase. The second backup must finish the
// workload with the environment checks green per surviving pair.
// ---------------------------------------------------------------------------

TEST(Cascade, SurvivesPrimaryThenPromotedBackupFailure) {
  WorkloadSpec spec = TxnSpec(12);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft =
      Scenario::Replicated(spec)
          .Backups(2)
          .Epoch(4096)
          .AuditLockstep()
          .FailAtTime(SimTime::Millis(4))  // Mid-epoch primary kill.
          .FailAtPhase(FailPhase::kAfterIoIssue, 0,
                       FailurePlan::CrashIo::kNotPerformed)  // Promoted backup, mid-I/O.
          .Run();
  VerifyAgainstBare(spec, bare, ft);
  ASSERT_EQ(ft.nodes.size(), 3u);
  ASSERT_EQ(ft.crash_times.size(), 2u);
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_TRUE(ft.nodes[2].promoted);
  EXPECT_GE(ft.nodes[1].promotion_time.picos(), ft.crash_times[0].picos());
  EXPECT_GE(ft.nodes[2].promotion_time.picos(), ft.crash_times[1].picos());
  EXPECT_GT(ft.crash_times[1].picos(), ft.crash_times[0].picos());
  // The final survivor drove real I/O.
  EXPECT_GE(ft.backup_stats(1).io_issued, 1u);

  // Lockstep per surviving pair: fingerprints match for every epoch both
  // members of the (then-active) pair recorded.
  size_t p01 = MatchingBoundaryPrefix(ft, 0, 1);
  size_t c01 = std::min(ft.nodes[0].boundary_fingerprints.size(),
                        ft.nodes[1].boundary_fingerprints.size());
  EXPECT_EQ(p01, c01) << "primary/backup1 diverged at boundary " << p01;
  size_t p12 = MatchingBoundaryPrefix(ft, 1, 2);
  size_t c12 = std::min(ft.nodes[1].boundary_fingerprints.size(),
                        ft.nodes[2].boundary_fingerprints.size());
  EXPECT_EQ(p12, c12) << "backup1/backup2 diverged at boundary " << p12;
  EXPECT_GT(c12, 0u);
}

// Same cascade under the revised (output-commit) protocol variant.
TEST(Cascade, SurvivesTwoFaultsUnderRevisedProtocol) {
  WorkloadSpec spec = TxnSpec(10);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Backups(2)
                          .Epoch(4096)
                          .Variant(ProtocolVariant::kRevised)
                          .FailAtPhase(FailPhase::kAfterSendTme, 2)
                          .FailAtPhase(FailPhase::kAfterIoIssue)
                          .Run();
  VerifyAgainstBare(spec, bare, ft);
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_TRUE(ft.nodes[2].promoted);
}

// Two timed kills spread across the run: the chain promotes twice.
TEST(Cascade, TwoTimedKills) {
  WorkloadSpec spec = TxnSpec(10);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult probe = Scenario::Replicated(spec).Backups(2).Epoch(4096).Run();
  ASSERT_TRUE(probe.completed);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Backups(2)
                          .Epoch(4096)
                          .FailAtTime(SimTime::Picos(probe.completion_time.picos() / 5))
                          .FailAtTime(SimTime::Picos(probe.completion_time.picos() * 3 / 5))
                          .Run();
  VerifyAgainstBare(spec, bare, ft);
  EXPECT_TRUE(ft.nodes[1].promoted);
}

// A three-backup chain rides out three successive active-replica faults.
TEST(Cascade, ThreeBackupsSurviveThreeFaults) {
  WorkloadSpec spec = TxnSpec(8);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Backups(3)
                          .Epoch(4096)
                          .FailAtPhase(FailPhase::kAfterSendTme, 1)
                          .FailAtPhase(FailPhase::kAfterIoIssue)
                          .FailAtPhase(FailPhase::kBeforeSendTme)
                          .Run();
  VerifyAgainstBare(spec, bare, ft);
  ASSERT_EQ(ft.nodes.size(), 4u);
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_TRUE(ft.nodes[2].promoted);
  EXPECT_TRUE(ft.nodes[3].promoted);
}

// Killing every replica loses the service and must be reported as such, not
// as a completed run.
TEST(Cascade, KillingWholeChainReportsServiceLost) {
  WorkloadSpec spec = TxnSpec(10);
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .FailAtTime(SimTime::Millis(4))
                          .FailAtTime(SimTime::Millis(30))
                          .Run();
  EXPECT_FALSE(ft.completed);
  EXPECT_TRUE(ft.service_lost);
  EXPECT_EQ(ft.crash_times.size(), 2u);
}

// A standing (passive) backup dying mid-chain truncates the chain there: the
// primary keeps serving, replicas below the dead one are cut off.
TEST(Cascade, MiddleBackupDeathTruncatesChain) {
  WorkloadSpec spec = TxnSpec(8);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Backups(2)
                          .Epoch(4096)
                          .FailAtTime(SimTime::Millis(10), FailurePlan::Target::kBackup, 0)
                          .Run();
  VerifyAgainstBare(spec, bare, ft);
  EXPECT_FALSE(ft.promoted);  // The primary never lost service.
  // Only the primary touched the devices.
  for (const EnvTraceEntry& entry : ft.env_trace) {
    EXPECT_EQ(entry.issuer, ft.primary_id) << DeviceIdName(entry.device_id);
  }
}

// After a failover a backup target names a live standing backup below the
// promoted replica, never the promoted replica itself: "backup 0" of the
// chain node 2 -> node 3 is node 3, and node 2 keeps serving.
TEST(Cascade, BackupTargetResolvesBelowThePromotedReplica) {
  WorkloadSpec spec = TxnSpec(20);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Backups(2)
                          .Epoch(4096)
                          .FailAtTime(SimTime::Millis(6))
                          .FailAtTime(SimTime::Millis(20), FailurePlan::Target::kBackup, 0)
                          .Run();
  VerifyAgainstBare(spec, bare, ft);
  EXPECT_EQ(ft.crash_times, (std::vector<SimTime>{SimTime::Millis(6), SimTime::Millis(20)}));
  ASSERT_EQ(ft.nodes.size(), 3u);
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_FALSE(ft.nodes[2].promoted);
}

// The middle replica of a lossy three-replica chain reads everything its dead
// upstream sent before it promotes. A go-back-N re-send schedules one
// receiver poll, at its last frame's arrival; when the crash prunes that
// frame, the frames before it sit unread. A middle replica that promoted
// without reading them sent its own [end, E], then read and relayed the dead
// primary's, and the last backup aborted on the duplicate epoch end.
TEST(Cascade, MiddleReplicaReadsItsDeadUpstreamBeforePromoting) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskRead;
  spec.iterations = 16;
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  const struct {
    bool loss;  // Otherwise reordering.
    int64_t kill_ms;
  } cases[] = {{false, 1500}, {false, 2000}, {false, 2500}, {true, 1000}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.loss ? "loss" : "reorder") + " 5%, kill at " +
                 std::to_string(c.kill_ms) + " ms");
    LinkFaults faults;
    (c.loss ? faults.drop_probability : faults.reorder_probability) = 0.05;
    ScenarioResult ft = Scenario::Replicated(spec)
                            .Backups(2)
                            .Variant(ProtocolVariant::kRevised)
                            .LinkFaults(faults)
                            .FailAtTime(SimTime::Millis(c.kill_ms))
                            .Run();
    VerifyAgainstBare(spec, bare, ft);
    EXPECT_TRUE(ft.promoted);
  }
}

// Deterministic reproducibility extends to cascades.
TEST(Cascade, CascadeRunsAreReproducible) {
  WorkloadSpec spec = TxnSpec(8);
  Scenario scenario = Scenario::Replicated(spec)
                          .Backups(2)
                          .Epoch(4096)
                          .FailAtTime(SimTime::Millis(4))
                          .FailAtPhase(FailPhase::kAfterIoIssue);
  ScenarioResult a = scenario.Run();
  ScenarioResult b = scenario.Run();
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.completion_time.picos(), b.completion_time.picos());
  EXPECT_EQ(a.guest_checksum, b.guest_checksum);
  EXPECT_EQ(a.console_output, b.console_output);
  ASSERT_EQ(a.crash_times.size(), b.crash_times.size());
  for (size_t i = 0; i < a.crash_times.size(); ++i) {
    EXPECT_EQ(a.crash_times[i].picos(), b.crash_times[i].picos());
  }
}

// ---------------------------------------------------------------------------
// FailureDetector edge cases (satellite fix): detection counts from the
// crash when nothing is in flight — a message that was already delivered
// must not postpone it.
// ---------------------------------------------------------------------------

TEST(FailureDetectorEdge, EmptyInFlightQueueCountsFromCrash) {
  Channel chan{LinkModel::Ethernet10()};
  Message msg;
  msg.type = MsgType::kEpochEnd;
  auto arrival = chan.Send(msg, SimTime::Millis(1));
  ASSERT_TRUE(arrival.has_value());
  // Deliver it: the in-flight queue is now empty even though the historical
  // drain time (last arrival ever) lies in the future of early crash times.
  ASSERT_TRUE(chan.Receive(*arrival + SimTime::Millis(1)).has_value());
  EXPECT_FALSE(chan.LastPendingArrival().has_value());

  SimTime timeout = SimTime::Millis(5);
  SimTime crash = SimTime::Micros(1050);  // Before the historical last arrival.
  ASSERT_LT(crash.picos(), arrival->picos());
  EXPECT_EQ(FailureDetector::DetectionTime(chan, crash, timeout, LinkFaults{}).picos(),
            (crash + timeout).picos());
}

TEST(FailureDetectorEdge, PendingMessageDelaysDetection) {
  Channel chan{LinkModel::Ethernet10()};
  Message msg;
  msg.type = MsgType::kEpochEnd;
  auto arrival = chan.Send(msg, SimTime::Millis(1));
  ASSERT_TRUE(arrival.has_value());

  SimTime timeout = SimTime::Millis(5);
  SimTime crash = SimTime::Millis(1);  // Crash with the message still in flight.
  EXPECT_EQ(FailureDetector::DetectionTime(chan, crash, timeout, LinkFaults{}).picos(),
            (*arrival + timeout).picos());
}

TEST(FailureDetectorEdge, NothingEverSentCountsFromCrash) {
  Channel chan{LinkModel::Ethernet10()};
  SimTime timeout = SimTime::Millis(5);
  SimTime crash = SimTime::Millis(7);
  EXPECT_EQ(FailureDetector::DetectionTime(chan, crash, timeout, LinkFaults{}).picos(),
            (crash + timeout).picos());
}

// ---------------------------------------------------------------------------
// FailureDetector under a lossy-but-alive link: loss must not look like a
// crash, and detection of a real crash stays within the paper's bound plus
// one retransmission round.
// ---------------------------------------------------------------------------

TEST(FailureDetectorLossy, LossAwareBoundAddsOneRetransmissionRound) {
  Channel chan{LinkModel::Ethernet10()};
  SimTime timeout = SimTime::Millis(5);
  SimTime crash = SimTime::Millis(7);
  // Disabled faults: the bound is unchanged.
  EXPECT_EQ(FailureDetector::DetectionTime(chan, crash, timeout, LinkFaults{}).picos(),
            (crash + timeout).picos());
  LinkFaults lossy;
  lossy.drop_probability = 0.05;
  lossy.retransmit_timeout = SimTime::Millis(2);
  EXPECT_EQ(FailureDetector::DetectionTime(chan, crash, timeout, lossy).picos(),
            (crash + timeout + lossy.retransmit_timeout).picos());
}

// Heavy loss runs from the start, through the real primary kill: dropped
// relays and acks must not fire a spurious promotion (there is exactly one
// takeover per injected crash), and the cascade still finishes with the
// environment consistent.
TEST(FailureDetectorLossy, SustainedLossBeforeRealKillStaysTransparent) {
  WorkloadSpec spec = TxnSpec(10);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  LinkFaults lossy;
  lossy.drop_probability = 0.3;
  lossy.reorder_probability = 0.2;
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Backups(2)
                          .Epoch(4096)
                          .LinkFaults(lossy)
                          .FailAtTime(SimTime::Millis(6))
                          .Run();
  VerifyAgainstBare(spec, bare, ft);
  ASSERT_EQ(ft.crash_times.size(), 1u);
  // Exactly the one injected failure promoted anybody: the loss alone did
  // not register as a crash on any surviving pair.
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_FALSE(ft.nodes[2].promoted);
  EXPECT_GE(ft.nodes[1].promotion_time.picos(), ft.crash_times[0].picos());
}

// Detection of a real crash during sustained loss stays within drain +
// timeout + one retransmission round.
TEST(FailureDetectorLossy, DetectionBoundHoldsUnderSustainedLoss) {
  WorkloadSpec spec = TxnSpec(8);
  LinkFaults lossy;
  lossy.drop_probability = 0.1;
  lossy.reorder_probability = 0.05;
  SimTime kill = SimTime::Millis(5);
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .LinkFaults(lossy)
                          .FailAtTime(kill)
                          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out;
  ASSERT_TRUE(ft.promoted);
  CostModel costs;  // Scenario default: the paper-calibrated model.
  // The channel drained within max_time of the crash; promotion cannot lag
  // the crash by more than the drain window + timeout + one retransmission
  // round + the backup's own boundary work. Bound it loosely but finitely:
  SimTime bound = ft.crash_times[0] + SimTime::Millis(50) + costs.failure_detect_timeout +
                  lossy.retransmit_timeout;
  EXPECT_LE(ft.promotion_time.picos(), bound.picos());
}

}  // namespace
}  // namespace hbft
