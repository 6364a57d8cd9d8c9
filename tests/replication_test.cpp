// Replica-coordination tests (no failures): the primary and backup execute
// identical instruction streams, state fingerprints match at every epoch
// boundary, the backup never touches the environment, results equal the
// unreplicated run, and both protocol variants behave.
#include <gtest/gtest.h>

#include <algorithm>

#include "guest/workloads.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

Scenario AuditScenario(const WorkloadSpec& spec, uint64_t epoch_len,
                       ProtocolVariant variant) {
  return Scenario::Replicated(spec).Epoch(epoch_len).Variant(variant).AuditLockstep();
}

struct ReplicationCase {
  WorkloadKind kind;
  uint32_t iterations;
  uint64_t epoch_len;
  ProtocolVariant variant;
};

std::string CaseName(const testing::TestParamInfo<ReplicationCase>& info) {
  const ReplicationCase& c = info.param;
  std::string kind;
  switch (c.kind) {
    case WorkloadKind::kCpu:
      kind = "Cpu";
      break;
    case WorkloadKind::kDiskRead:
      kind = "DiskRead";
      break;
    case WorkloadKind::kDiskWrite:
      kind = "DiskWrite";
      break;
    case WorkloadKind::kHello:
      kind = "Hello";
      break;
    case WorkloadKind::kTxnLog:
      kind = "TxnLog";
      break;
    case WorkloadKind::kHeap:
      kind = "Heap";
      break;
    case WorkloadKind::kTime:
      kind = "Time";
      break;
    default:
      kind = "Other";
      break;
  }
  return kind + "_E" + std::to_string(c.epoch_len) +
         (c.variant == ProtocolVariant::kOriginal ? "_Old" : "_New");
}

WorkloadSpec SpecFor(const ReplicationCase& c) {
  WorkloadSpec spec;
  spec.kind = c.kind;
  spec.iterations = c.iterations;
  if (c.kind == WorkloadKind::kDiskRead || c.kind == WorkloadKind::kDiskWrite) {
    spec.compute_burst = 200;
    spec.driver_loops = 20;
    spec.num_blocks = 16;
  }
  if (c.kind == WorkloadKind::kTxnLog) {
    spec.num_blocks = 8;
  }
  return spec;
}

class ReplicationLockstep : public testing::TestWithParam<ReplicationCase> {};

TEST_P(ReplicationLockstep, MatchesBareAndStaysInLockstep) {
  const ReplicationCase& c = GetParam();
  WorkloadSpec spec = SpecFor(c);

  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);
  ASSERT_EQ(bare.exited_flag, 1u) << "bare panic " << bare.panic_code;

  ScenarioResult ft = AuditScenario(spec, c.epoch_len, c.variant).Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "panic " << ft.panic_code;
  EXPECT_FALSE(ft.promoted);

  // Same application results as the unreplicated machine (kTime checksums
  // depend on wall time and are exempt).
  EXPECT_EQ(ft.exit_code, bare.exit_code);
  if (c.kind != WorkloadKind::kTime) {
    EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  }

  // Lockstep: every compared epoch-boundary fingerprint matches.
  size_t prefix = MatchingBoundaryPrefix(ft);
  size_t compared = std::min(ft.primary_boundary_fingerprints().size(),
                             ft.backup_boundary_fingerprints().size());
  EXPECT_EQ(prefix, compared) << "state diverged at epoch boundary " << prefix;
  EXPECT_GT(compared, 0u);

  // The environment saw only the primary, with the reference sequence.
  ConsistencyResult env =
      CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.primary_id, ft.backup_id);
  EXPECT_TRUE(env.ok) << env.detail;
  EXPECT_EQ(ft.console_output, bare.console_output);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ReplicationLockstep,
    testing::Values(
        ReplicationCase{WorkloadKind::kCpu, 3000, 1024, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kCpu, 3000, 4096, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kCpu, 3000, 4096, ProtocolVariant::kRevised},
        ReplicationCase{WorkloadKind::kCpu, 3000, 16384, ProtocolVariant::kRevised},
        ReplicationCase{WorkloadKind::kHello, 1, 4096, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kHello, 1, 4096, ProtocolVariant::kRevised},
        ReplicationCase{WorkloadKind::kDiskRead, 5, 4096, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kDiskRead, 5, 4096, ProtocolVariant::kRevised},
        ReplicationCase{WorkloadKind::kDiskWrite, 5, 2048, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kDiskWrite, 5, 4096, ProtocolVariant::kRevised},
        ReplicationCase{WorkloadKind::kTxnLog, 6, 4096, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kTxnLog, 6, 4096, ProtocolVariant::kRevised},
        ReplicationCase{WorkloadKind::kHeap, 8, 4096, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kTime, 40, 4096, ProtocolVariant::kOriginal},
        ReplicationCase{WorkloadKind::kTime, 40, 2048, ProtocolVariant::kRevised}),
    CaseName);

TEST(Replication, BackupConsumesForwardedTimeValues) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTime;
  spec.iterations = 25;
  ScenarioResult ft = AuditScenario(spec, 4096, ProtocolVariant::kOriginal).Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_EQ(ft.exit_code, 0u) << "backup saw non-monotone time";
  // Boot TOD read + 25 gettime reads, forwarded once each.
  EXPECT_GE(ft.primary_stats().env_values, 26u);
  EXPECT_EQ(ft.primary_stats().env_values, ft.backup_stats().env_values);
}

TEST(Replication, BackupSuppressesAllIo) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 5;
  spec.num_blocks = 4;
  ScenarioResult ft = AuditScenario(spec, 4096, ProtocolVariant::kOriginal).Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_GT(ft.backup_stats().io_suppressed, 0u);
  EXPECT_EQ(ft.backup_stats().io_issued, 0u);
  for (const auto& entry : ft.disk_trace) {
    EXPECT_EQ(entry.issuer, ft.primary_id);
  }
  for (const auto& entry : ft.console_trace) {
    EXPECT_EQ(entry.issuer, ft.primary_id);
  }
}

TEST(Replication, EpochCountsMatchAcrossReplicas) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 2000;
  ScenarioResult ft = AuditScenario(spec, 2048, ProtocolVariant::kOriginal).Run();
  ASSERT_TRUE(ft.completed);
  // The backup completes exactly the epochs the primary ended ([end,E] per
  // epoch), possibly minus the trailing partial one.
  EXPECT_LE(ft.backup_stats().epochs, ft.primary_stats().epochs);
  EXPECT_GE(ft.backup_stats().epochs + 1, ft.primary_stats().epochs);
  EXPECT_GT(ft.primary_stats().epochs, 10u);
}

TEST(Replication, OriginalProtocolWaitsForAcksAtBoundaries) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 2000;
  ScenarioResult old_run = AuditScenario(spec, 4096, ProtocolVariant::kOriginal).Run();
  ScenarioResult new_run = AuditScenario(spec, 4096, ProtocolVariant::kRevised).Run();
  ASSERT_TRUE(old_run.completed);
  ASSERT_TRUE(new_run.completed);
  EXPECT_GT(old_run.primary_stats().ack_wait_time.picos(), 0);
  // Dropping the boundary ack wait must make the run strictly faster.
  EXPECT_LT(new_run.completion_time.picos(), old_run.completion_time.picos());
}

TEST(Replication, RevisedProtocolCommitsOutputBeforeIo) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskWrite;
  spec.iterations = 4;
  spec.num_blocks = 4;
  spec.compute_burst = 10;  // Little compute: acks often outstanding at I/O.
  ScenarioResult ft = AuditScenario(spec, 8192, ProtocolVariant::kRevised).Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_EQ(ft.exited_flag, 1u);
  // All messages the primary sent were eventually acknowledged.
  EXPECT_EQ(ft.primary_stats().messages_sent, ft.primary_stats().acks_received);
}

// Paper section 3.2: with nondeterministic ("hardware random") TLB
// replacement, guest-handled misses land at different instruction-stream
// points on the two replicas and lockstep breaks. The hypervisor's TLB
// takeover fixes it, and a deterministic policy never needed it.
TEST(Replication, TlbTakeoverKeepsRandomReplacementInLockstep) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kHeap;  // Touches many pages: maximal TLB traffic.
  spec.iterations = 48;
  for (TlbPolicy policy : {TlbPolicy::kHardwareRandom, TlbPolicy::kRoundRobin}) {
    for (bool takeover : {false, true}) {
      SCOPED_TRACE(testing::Message() << "random=" << (policy == TlbPolicy::kHardwareRandom)
                                      << " takeover=" << takeover);
      ScenarioResult ft = Scenario::Replicated(spec)
                              .Epoch(1024)
                              .TlbTakeover(takeover)
                              .AuditLockstep()
                              .Tlb(16, policy)  // Small TLB: pressure + evictions.
                              .MaxTime(SimTime::Seconds(30))
                              .Run();
      EXPECT_TRUE(ft.completed) << "timed_out=" << ft.timed_out;
      EXPECT_EQ(ft.exited_flag, 1u) << "panic " << ft.panic_code;
      size_t compared = std::min(ft.primary_boundary_fingerprints().size(),
                                 ft.backup_boundary_fingerprints().size());
      size_t prefix = MatchingBoundaryPrefix(ft);
      ASSERT_GT(compared, 0u);
      if (policy == TlbPolicy::kHardwareRandom && !takeover) {
        EXPECT_LT(prefix, compared) << "lockstep held without the takeover";
      } else {
        EXPECT_EQ(prefix, compared) << "state diverged at epoch boundary " << prefix;
      }
    }
  }
}

TEST(Replication, ConsoleEchoThroughReplicatedPair) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kEcho;
  ScenarioResult ft =
      AuditScenario(spec, 4096, ProtocolVariant::kOriginal).ConsoleInput("abcq").Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out;
  EXPECT_EQ(ft.console_output, "abc");
  EXPECT_EQ(ft.guest_checksum, 3u);
}

}  // namespace
}  // namespace hbft
