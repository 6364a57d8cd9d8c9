// Repair-path tests: live state transfer, chain rejoin, and the
// fail -> rejoin -> fail schedules the paper leaves as "bringing a new
// backup online".
#include <gtest/gtest.h>

#include "common/snapshot.hpp"
#include "guest/image.hpp"
#include "guest/workloads.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

// The joiner's boundary fingerprints must continue the source's exactly:
// node `joiner` resumed at join_epoch, so its i-th fingerprint is the
// source's (join_epoch + i)-th. Returns the number of epochs compared.
size_t ExpectLockstepFromJoin(const ScenarioResult& r, size_t source, size_t joiner) {
  const auto& src = r.nodes[source].boundary_fingerprints;
  const auto& join = r.nodes[joiner].boundary_fingerprints;
  const uint64_t offset = r.nodes[joiner].join_epoch;
  size_t compared = 0;
  for (size_t i = 0; i < join.size() && offset + i < src.size(); ++i) {
    EXPECT_EQ(join[i], src[offset + i])
        << "lockstep divergence at joiner epoch " << offset + i;
    ++compared;
  }
  return compared;
}

TEST(Rejoin, BackupRejoinsAfterPrimaryKillAndMirrorsTheSource) {
  WorkloadSpec spec = WorkloadSpec::PaperDiskWrite(24);
  ScenarioResult ft = Scenario::Replicated(spec)
                          .AuditLockstep()
                          .FailAtPhase(FailPhase::kAfterSendTme, 2)
                          .RejoinAfterFail(SimTime::Millis(10))
                          .Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_TRUE(ft.promoted);
  ASSERT_EQ(ft.resyncs.size(), 1u);
  const ResyncReport& resync = ft.resyncs[0];
  EXPECT_TRUE(resync.transfer.cut);
  ASSERT_TRUE(resync.completed);
  EXPECT_EQ(resync.source, 1u);  // The promoted backup streamed the snapshot.
  EXPECT_EQ(resync.joined, 2u);
  EXPECT_GT(resync.transfer.bytes_sent, 0u);
  EXPECT_GT(resync.transfer.page_chunks, 0u);
  EXPECT_GT(resync.transfer.zero_run_chunks, 0u);  // Mostly-idle RAM compresses.
  EXPECT_GE(resync.join_time, resync.transfer.cut_time);

  ASSERT_EQ(ft.nodes.size(), 3u);
  EXPECT_TRUE(ft.nodes[2].rejoined);
  EXPECT_TRUE(ft.nodes[2].joined);
  EXPECT_EQ(ft.nodes[2].join_epoch, resync.transfer.cut_epoch);
  // The rejoined backup runs in exact lockstep with its source from the
  // join epoch to the end of the run.
  size_t compared = ExpectLockstepFromJoin(ft, 1, 2);
  EXPECT_GT(compared, 0u);

  // Fault transparency still holds for the run as a whole.
  ScenarioResult bare = Scenario::Replicated(spec).AsBare().Run();
  ASSERT_TRUE(bare.completed);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// The acceptance scenario: a 3-replica chain survives primary-kill ->
// rejoin -> new-primary-kill, over a 5% lossy/reordering wire, with the
// environment seeing a sequence consistent with a single machine.
TEST(Rejoin, ThreeReplicaKillRejoinKillSurvivesLossyLink) {
  WorkloadSpec spec = WorkloadSpec::PaperDiskWrite(28);
  Scenario scenario = Scenario::Replicated(spec)
                          .Backups(2)
                          .LinkFaults(LinkFaults::SymmetricLoss(0.05))
                          .FailAtPhase(FailPhase::kAfterSendTme, 2)
                          .RejoinAfterFail(SimTime::Millis(10))
                          .FailAfterResync(SimTime::Millis(5));
  ScenarioResult ft = scenario.Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_FALSE(ft.service_lost);
  ASSERT_EQ(ft.resyncs.size(), 1u);
  EXPECT_TRUE(ft.resyncs[0].completed);
  // Both kills landed: the primary's, then (after the resync) the promoted
  // backup's; the second promoted backup finishes with the rejoined node as
  // its standing backup.
  EXPECT_EQ(ft.crash_times.size(), 2u);
  ASSERT_EQ(ft.nodes.size(), 4u);
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_TRUE(ft.nodes[2].promoted);
  EXPECT_TRUE(ft.nodes[3].joined);

  ScenarioResult bare = scenario.AsBare().Run();
  ASSERT_TRUE(bare.completed);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// Repeated failure cycles: kill -> rejoin -> kill -> rejoin -> kill. Each
// promoted replica adopts a fresh joiner, so a 1-backup chain outlives three
// active-replica failures.
TEST(Rejoin, RepeatedFailRejoinCyclesKeepTheServiceAlive) {
  WorkloadSpec spec = WorkloadSpec::PaperDiskWrite(40);
  Scenario scenario = Scenario::Replicated(spec)
                          .FailAtPhase(FailPhase::kAfterSendTme, 2)
                          .RejoinAfterFail(SimTime::Millis(10))
                          .FailAfterResync(SimTime::Millis(5))
                          .RejoinAfterFail(SimTime::Millis(10))
                          .FailAfterResync(SimTime::Millis(5));
  ScenarioResult ft = scenario.Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_FALSE(ft.service_lost);
  EXPECT_EQ(ft.crash_times.size(), 3u);
  ASSERT_EQ(ft.resyncs.size(), 2u);
  EXPECT_TRUE(ft.resyncs[0].completed);
  EXPECT_TRUE(ft.resyncs[1].completed);
  // Spawn order: primary, backup, joiner 1, joiner 2 — the final survivor
  // is the second joiner, promoted after the third kill.
  ASSERT_EQ(ft.nodes.size(), 4u);
  EXPECT_TRUE(ft.nodes[3].joined);
  EXPECT_TRUE(ft.nodes[3].promoted);

  ScenarioResult bare = scenario.AsBare().Run();
  ASSERT_TRUE(bare.completed);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// A rejoin into a fully healthy chain grows it: the standing backup (not
// the active primary) serves as the transfer source, and the joiner tracks
// the protocol stream relayed through it in exact lockstep.
TEST(Rejoin, HealthyChainGrowsByOneBackup) {
  WorkloadSpec spec = WorkloadSpec::PaperDiskWrite(24);
  ScenarioResult ft = Scenario::Replicated(spec)
                          .AuditLockstep()
                          .RejoinAtTime(SimTime::Millis(8))
                          .Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_FALSE(ft.promoted);
  ASSERT_EQ(ft.resyncs.size(), 1u);
  const ResyncReport& resync = ft.resyncs[0];
  ASSERT_TRUE(resync.completed);
  EXPECT_EQ(resync.source, 1u);  // The chain tail, not the primary.
  EXPECT_EQ(resync.joined, 2u);
  ASSERT_EQ(ft.nodes.size(), 3u);
  EXPECT_TRUE(ft.nodes[2].joined);
  size_t compared = ExpectLockstepFromJoin(ft, 1, 2);
  EXPECT_GT(compared, 0u);
  // And against the primary too: the whole chain runs one instruction
  // stream.
  compared = ExpectLockstepFromJoin(ft, 0, 2);
  EXPECT_GT(compared, 0u);
}

// Delta rounds converge under a write-heavy guest: the transfer's report
// shows the initial sweep plus at least one dirty-page round, and the cut
// still lands.
TEST(Rejoin, DeltaRoundsConvergeUnderDiskWrites) {
  WorkloadSpec spec = WorkloadSpec::PaperDiskWrite(32);
  StateTransferConfig resync_config;
  resync_config.cut_threshold_pages = 4;  // Make convergence earn its cut.
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Resync(resync_config)
                          .RejoinAtTime(SimTime::Millis(8))
                          .Run();
  ASSERT_TRUE(ft.completed);
  ASSERT_EQ(ft.resyncs.size(), 1u);
  const ResyncReport& resync = ft.resyncs[0];
  ASSERT_TRUE(resync.completed);
  EXPECT_GE(resync.transfer.rounds, 1u);
  EXPECT_EQ(resync.transfer.full_pages, 4u * 1024u * 1024u / kPageBytes);
  EXPECT_EQ(ft.TotalResyncBytes(), resync.transfer.bytes_sent);
}

// A rejoin landing inside the window between a standing backup's death and
// its failure detection must not attach: the source still believes its old
// downstream alive, and the pending detection callback would land on the
// fresh transfer. The rejoin is skipped; one scheduled after detection
// attaches normally.
TEST(Rejoin, RejoinBeforeDownstreamDetectionIsSkipped) {
  WorkloadSpec spec = WorkloadSpec::PaperDiskWrite(16);
  // Kill the standing backup, then rejoin 1 ms later — well inside the 5 ms
  // detection timeout, so the primary is not yet solo.
  ScenarioResult early = Scenario::Replicated(spec)
                             .FailAtTime(SimTime::Millis(10), FailurePlan::Target::kBackup)
                             .RejoinAfterFail(SimTime::Millis(1))
                             .Run();
  ASSERT_TRUE(early.completed);
  EXPECT_TRUE(early.resyncs.empty());  // Skipped, safely.

  // Same schedule with the rejoin after the detection window: it attaches,
  // and the solo primary streams as the source.
  ScenarioResult late = Scenario::Replicated(spec)
                            .FailAtTime(SimTime::Millis(10), FailurePlan::Target::kBackup)
                            .RejoinAfterFail(SimTime::Millis(10))
                            .Run();
  ASSERT_TRUE(late.completed);
  ASSERT_EQ(late.resyncs.size(), 1u);
  EXPECT_TRUE(late.resyncs[0].completed);
  EXPECT_EQ(late.resyncs[0].source, 0u);  // The primary itself.
  ASSERT_EQ(late.nodes.size(), 3u);
  EXPECT_TRUE(late.nodes[2].joined);
}

// The one path where the original primary's own environment-value numbering
// seeds a joiner: the backup dies, the solo primary streams to a fresh
// joiner, and the joiner later takes over from it. The time workload keeps
// forwarding TOD values across the cut, so a numbering mismatch between the
// snapshot and the post-cut stream would trip the joiner's in-order check.
TEST(Rejoin, SoloPrimaryStreamsToAJoinerThatLaterTakesOver) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTime;
  spec.iterations = 400;
  Scenario scenario = Scenario::Replicated(spec)
                          .AuditLockstep()
                          .FailAtTime(SimTime::Millis(8), FailurePlan::Target::kBackup)
                          .RejoinAfterFail(SimTime::Millis(10))
                          .FailAfterResync(SimTime::Millis(5));
  ScenarioResult ft = scenario.Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.resyncs.size(), 1u);
  EXPECT_EQ(ft.resyncs[0].source, 0u);  // The solo primary streamed the snapshot.
  EXPECT_TRUE(ft.resyncs[0].completed);
  ASSERT_EQ(ft.nodes.size(), 3u);
  EXPECT_TRUE(ft.nodes[2].joined);
  EXPECT_TRUE(ft.nodes[2].promoted);
  EXPECT_EQ(ft.crash_times.size(), 2u);  // The backup's, then the primary's.
  // The joiner ran in lockstep with the primary from the join epoch until
  // the primary died.
  size_t compared = ExpectLockstepFromJoin(ft, 0, 2);
  EXPECT_GT(compared, 0u);

  // TOD values differ from the bare run by design, so only the exit code and
  // the environment's view are compared, not the checksum.
  ScenarioResult bare = scenario.AsBare().Run();
  ASSERT_TRUE(bare.completed);
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  EXPECT_EQ(ft.exit_code, bare.exit_code);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// A solo transfer source ships the real operations it has in flight at the
// cut — the device backends hold them — so the joiner can re-drive them (P7)
// if it takes over. Here the primary's disk write is in flight at the cut
// (13.75 ms), and the primary dies the moment the joiner joins: the joiner
// never suppressed an initiation of its own, so its one uncertain completion
// re-drives the shipped write. Without it the guest would wait forever on
// that write's interrupt.
TEST(Rejoin, SoloSourceShipsItsInFlightWriteAtTheCut) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskWrite;
  spec.iterations = 30;
  Scenario scenario = Scenario::Replicated(spec)
                          .FailAtTime(SimTime::Millis(3), FailurePlan::Target::kBackup)
                          .RejoinAfterFail(SimTime::Millis(10))
                          .FailAfterResync(SimTime::Zero());
  ScenarioResult ft = scenario.Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.resyncs.size(), 1u);
  EXPECT_EQ(ft.resyncs[0].source, 0u);  // The solo primary streamed the snapshot.
  ASSERT_TRUE(ft.resyncs[0].completed);
  ASSERT_EQ(ft.nodes.size(), 3u);
  EXPECT_TRUE(ft.nodes[2].promoted);
  EXPECT_EQ(ft.nodes[2].stats.io_suppressed, 0u);
  EXPECT_EQ(ft.nodes[2].stats.uncertain_synthesised, 1u);

  ScenarioResult bare = scenario.AsBare().Run();
  ASSERT_TRUE(bare.completed);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// Killing the transfer source before the cut: the joiner holds an
// incomplete snapshot and cannot take over — the service is (correctly)
// lost, and the run ends without wedging or deadlocking.
TEST(Rejoin, SourceDeathMidTransferLosesServiceWithoutWedging) {
  WorkloadSpec spec = WorkloadSpec::PaperDiskWrite(24);
  StateTransferConfig resync_config;
  resync_config.window = 1;  // Throttle so the kill lands mid-stream.
  FailurePlan kill_mid_transfer;
  kill_mid_transfer.kind = FailurePlan::Kind::kAtTime;
  kill_mid_transfer.time = SimTime::Millis(2);  // 2ms after the rejoin fired.
  kill_mid_transfer.relative = true;
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Resync(resync_config)
                          .FailAtPhase(FailPhase::kAfterSendTme, 2)
                          .RejoinAfterFail(SimTime::Millis(10))
                          .FailAt(kill_mid_transfer)
                          .Run();
  EXPECT_FALSE(ft.completed);
  EXPECT_TRUE(ft.service_lost);
  EXPECT_FALSE(ft.deadlocked);
  ASSERT_EQ(ft.resyncs.size(), 1u);
  EXPECT_FALSE(ft.resyncs[0].completed);
  ASSERT_EQ(ft.nodes.size(), 3u);
  EXPECT_FALSE(ft.nodes[2].joined);
}

}  // namespace
}  // namespace hbft
