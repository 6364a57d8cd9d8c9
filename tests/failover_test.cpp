// Failover tests: the primary is killed at every protocol phase, at arbitrary
// times, and around I/O operations; the backup must promote and the
// environment must see a sequence consistent with a single processor
// (operations possibly repeated within the in-flight window — the tolerance
// IO1/IO2 grant), with the workload running to the same result.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "devices/disk.hpp"
#include "guest/workloads.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

WorkloadSpec TxnSpec(uint32_t records) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = records;
  spec.num_blocks = 8;
  return spec;
}

// The disk writes the environment saw performed, in order.
std::vector<EnvTraceEntry> PerformedWrites(const ScenarioResult& result) {
  std::vector<EnvTraceEntry> out;
  for (const EnvTraceEntry& e : result.env_trace) {
    if (e.device_id == DeviceId::kDisk && e.opcode == kDiskOpWrite && e.performed) {
      out.push_back(e);
    }
  }
  return out;
}

// Durability check against the medium itself: for a txn-log run with
// records <= blocks, block i must end holding record i ([i, i^0x5EC0,...])
// regardless of crashes, retries, or device faults along the way.
void ExpectAllRecordsDurable(const ScenarioResult& result, uint32_t records) {
  // Reconstruct final block contents from the performed-write trace.
  std::map<uint32_t, uint64_t> last_hash;
  for (const EnvTraceEntry& e : PerformedWrites(result)) {
    last_hash[e.block] = e.op_hash;
  }
  for (uint32_t record = 0; record < records; ++record) {
    EXPECT_TRUE(last_hash.count(record)) << "record " << record << " never reached the disk";
  }
}

// Shared verification for a failover run against its bare reference.
void VerifyFailover(const WorkloadSpec& spec, const ScenarioResult& bare,
                    const ScenarioResult& ft, bool expect_promoted = true) {
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  if (expect_promoted) {
    EXPECT_TRUE(ft.promoted);
    EXPECT_GE(ft.promotion_time.picos(), ft.crash_time.picos());
  }
  EXPECT_EQ(ft.exit_code, bare.exit_code);
  if (ChecksumMatchesBare(spec.kind)) {
    EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  }
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// ---------------------------------------------------------------------------
// Phase sweep: kill the primary at each protocol phase (property-style).
// ---------------------------------------------------------------------------

struct PhaseCase {
  FailPhase phase;
  uint64_t epoch;
  FailurePlan::CrashIo crash_io;
};

std::string PhaseCaseName(const testing::TestParamInfo<PhaseCase>& info) {
  std::string name = FailPhaseName(info.param.phase);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  name += "_epoch" + std::to_string(info.param.epoch);
  switch (info.param.crash_io) {
    case FailurePlan::CrashIo::kPerformed:
      name += "_ioPerformed";
      break;
    case FailurePlan::CrashIo::kNotPerformed:
      name += "_ioDropped";
      break;
    default:
      name += "_ioRandom";
      break;
  }
  return name;
}

class FailoverPhaseSweep : public testing::TestWithParam<PhaseCase> {};

TEST_P(FailoverPhaseSweep, TransparentToEnvironment) {
  const PhaseCase& c = GetParam();
  WorkloadSpec spec = TxnSpec(10);

  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .FailAtPhase(c.phase, c.epoch, c.crash_io)
                          .Run();
  VerifyFailover(spec, bare, ft);
}

std::vector<PhaseCase> AllPhaseCases() {
  std::vector<PhaseCase> cases;
  const FailPhase boundary_phases[] = {FailPhase::kBeforeSendTme, FailPhase::kAfterSendTme,
                                       FailPhase::kAfterAckWait, FailPhase::kAfterDeliver,
                                       FailPhase::kAfterSendEnd};
  for (FailPhase phase : boundary_phases) {
    for (uint64_t epoch : {uint64_t{1}, uint64_t{3}, uint64_t{7}}) {
      cases.push_back(PhaseCase{phase, epoch, FailurePlan::CrashIo::kRandom});
    }
  }
  for (auto crash_io : {FailurePlan::CrashIo::kRandom, FailurePlan::CrashIo::kPerformed,
                        FailurePlan::CrashIo::kNotPerformed}) {
    cases.push_back(PhaseCase{FailPhase::kBeforeIoIssue, 0, crash_io});
    cases.push_back(PhaseCase{FailPhase::kAfterIoIssue, 0, crash_io});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPhases, FailoverPhaseSweep, testing::ValuesIn(AllPhaseCases()),
                         PhaseCaseName);

// ---------------------------------------------------------------------------
// Revised-protocol phase sweep.
// ---------------------------------------------------------------------------

class FailoverPhaseSweepRevised : public testing::TestWithParam<PhaseCase> {};

TEST_P(FailoverPhaseSweepRevised, TransparentToEnvironment) {
  const PhaseCase& c = GetParam();
  WorkloadSpec spec = TxnSpec(10);

  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .Variant(ProtocolVariant::kRevised)
                          .FailAtPhase(c.phase, c.epoch, c.crash_io)
                          .Run();
  VerifyFailover(spec, bare, ft);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, FailoverPhaseSweepRevised,
    testing::Values(PhaseCase{FailPhase::kBeforeSendTme, 3, FailurePlan::CrashIo::kRandom},
                    PhaseCase{FailPhase::kAfterSendEnd, 3, FailurePlan::CrashIo::kRandom},
                    PhaseCase{FailPhase::kBeforeIoIssue, 0, FailurePlan::CrashIo::kRandom},
                    PhaseCase{FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kPerformed},
                    PhaseCase{FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kNotPerformed}),
    PhaseCaseName);

// ---------------------------------------------------------------------------
// Time sweep: kill at many arbitrary instants across the run.
// ---------------------------------------------------------------------------

class FailoverTimeSweep : public testing::TestWithParam<int> {};

TEST_P(FailoverTimeSweep, TransparentToEnvironment) {
  WorkloadSpec spec = TxnSpec(8);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  // Spread kill times over the replicated run's duration.
  ScenarioResult probe = Scenario::Replicated(spec).Epoch(4096).Run();
  ASSERT_TRUE(probe.completed);

  int fraction = GetParam();
  ScenarioResult ft =
      Scenario::Replicated(spec)
          .Epoch(4096)
          .FailAtTime(SimTime::Picos(probe.completion_time.picos() * fraction / 100))
          .Run();
  // Very late kills can land after the workload halted; transparency then
  // holds trivially without promotion.
  VerifyFailover(spec, bare, ft, /*expect_promoted=*/ft.promoted);
}

INSTANTIATE_TEST_SUITE_P(Fractions, FailoverTimeSweep,
                         testing::Values(1, 3, 7, 11, 17, 23, 29, 37, 44, 52, 59, 68, 74, 81, 88,
                                         94, 98));

// ---------------------------------------------------------------------------
// Specific behaviours.
// ---------------------------------------------------------------------------

TEST(Failover, UncertainInterruptsRedriveOutstandingIo) {
  WorkloadSpec spec = TxnSpec(10);
  ScenarioResult bare = RunBare(spec);

  ScenarioResult ft =
      Scenario::Replicated(spec)
          .Epoch(4096)
          .FailAtPhase(FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kNotPerformed)
          .Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_TRUE(ft.promoted);
  // The interrupted operation was outstanding at promotion: P7 synthesised
  // at least one uncertain interrupt and the driver re-drove the op.
  EXPECT_GE(ft.backup_stats().uncertain_synthesised, 1u);
  EXPECT_GE(ft.backup_stats().io_issued, 1u);
  VerifyFailover(spec, bare, ft);
}

TEST(Failover, CrashedWriteThatReachedDiskIsDuplicatedNotLost) {
  WorkloadSpec spec = TxnSpec(10);
  ScenarioResult bare = RunBare(spec);

  ScenarioResult ft =
      Scenario::Replicated(spec)
          .Epoch(4096)
          .FailAtPhase(FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kPerformed)
          .Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_TRUE(ft.promoted);
  // The op performed by the dead primary is re-driven by the backup:
  // the same write appears twice, which the consistency model allows.
  EXPECT_GT(PerformedWrites(ft).size(), PerformedWrites(bare).size());
  VerifyFailover(spec, bare, ft);
}

TEST(Failover, FinalDiskStateHasEveryTransaction) {
  const uint32_t records = 12;
  WorkloadSpec spec = TxnSpec(records);
  spec.num_blocks = 16;  // One block per record (records < blocks).

  ScenarioResult bare = RunBare(spec);
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .FailAtPhase(FailPhase::kBeforeSendTme, 4)
                          .Run();
  ASSERT_TRUE(ft.completed);
  ASSERT_TRUE(ft.promoted);
  VerifyFailover(spec, bare, ft);
  // Every transaction record must be durable despite the crash: block i
  // holds [i, i ^ 0x5EC0, ...].
  EXPECT_GE(PerformedWrites(ft).size(), records);
}

TEST(Failover, PromotionTransfersConsoleInput) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kEcho;
  // Kill between the first and second characters.
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .ConsoleInput("abq", SimTime::Millis(100), SimTime::Millis(120))
                          .FailAtTime(SimTime::Millis(160))
                          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out;
  EXPECT_TRUE(ft.promoted);
  // Both characters echoed: 'a' via the primary (or re-driven), 'b' via the
  // promoted backup.
  EXPECT_EQ(ft.guest_checksum, 2u);
  EXPECT_NE(ft.console_output.find('b'), std::string::npos);
}

TEST(Failover, CpuWorkloadCompletesAcrossFailure) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 4000;
  ScenarioResult bare = RunBare(spec);

  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(2048)
                          .FailAtPhase(FailPhase::kAfterSendTme, 50)
                          .Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_TRUE(ft.promoted);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
}

TEST(Failover, BackupAloneIsSlowerThanPairButCompletes) {
  // After promotion the system keeps running with hypervisor overhead but no
  // replication traffic; completion must still happen.
  WorkloadSpec spec = TxnSpec(6);
  ScenarioResult ft =
      Scenario::Replicated(spec).Epoch(4096).FailAtTime(SimTime::Millis(5)).Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_TRUE(ft.promoted);
  EXPECT_EQ(ft.exited_flag, 1u);
}

// ---------------------------------------------------------------------------
// Combined stress: device-level uncertain completions (transient faults with
// driver retries) AND a primary crash in the same run. The split-coverage
// checker does not apply with retries, so the assertions are durability and
// application-result equivalence.
// ---------------------------------------------------------------------------

class FailoverWithDeviceFaults : public testing::TestWithParam<int> {};

TEST_P(FailoverWithDeviceFaults, RecordsDurableDespiteEverything) {
  const uint32_t records = 8;
  WorkloadSpec spec = TxnSpec(records);
  spec.num_blocks = 8;

  FaultPlan faults;
  faults.uncertain_probability = 0.25;
  faults.performed_when_uncertain = 0.5;
  ScenarioResult ft =
      Scenario::Replicated(spec)
          .Epoch(4096)
          .Seed(static_cast<uint64_t>(GetParam()) * 101 + 7)
          .DiskFaults(faults)
          .FailAtPhase(FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kRandom)
          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  EXPECT_TRUE(ft.promoted);
  EXPECT_EQ(ft.guest_checksum, records);  // Every transaction committed.
  ExpectAllRecordsDurable(ft, records);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverWithDeviceFaults, testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Backup failure: the other half of 1-fault-tolerance. The primary must
// detect the missing acknowledgments, stop replicating, and finish the
// workload as an unreplicated machine.
// ---------------------------------------------------------------------------

class BackupFailureSweep : public testing::TestWithParam<int> {};

TEST_P(BackupFailureSweep, PrimaryContinuesSolo) {
  WorkloadSpec spec = TxnSpec(8);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult probe = Scenario::Replicated(spec).Epoch(4096).Run();
  ASSERT_TRUE(probe.completed);

  ScenarioResult ft =
      Scenario::Replicated(spec)
          .Epoch(4096)
          .FailAtTime(SimTime::Picos(probe.completion_time.picos() * GetParam() / 100),
                      FailurePlan::Target::kBackup)
          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  EXPECT_FALSE(ft.promoted);
  EXPECT_EQ(ft.exited_flag, 1u);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  EXPECT_EQ(ft.console_output, bare.console_output);
  // The environment sees exactly the reference sequence, all from the primary.
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

INSTANTIATE_TEST_SUITE_P(Fractions, BackupFailureSweep, testing::Values(5, 30, 60, 90));

TEST(BackupFailure, BothProtocolVariantsSurvive) {
  WorkloadSpec spec = TxnSpec(6);
  ScenarioResult bare = RunBare(spec);
  for (ProtocolVariant variant : {ProtocolVariant::kOriginal, ProtocolVariant::kRevised}) {
    ScenarioResult ft = Scenario::Replicated(spec)
                            .Epoch(2048)
                            .Variant(variant)
                            .FailAtTime(SimTime::Millis(30), FailurePlan::Target::kBackup)
                            .Run();
    ASSERT_TRUE(ft.completed) << "variant " << static_cast<int>(variant);
    EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  }
}

TEST(BackupFailure, SoloPrimaryIsFasterThanReplicatedPair) {
  // Once replication stops, boundary ack waits disappear: killing the backup
  // early must speed up the rest of the run.
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 4000;
  ScenarioResult paired = Scenario::Replicated(spec).Epoch(2048).Run();
  ScenarioResult solo = Scenario::Replicated(spec)
                            .Epoch(2048)
                            .FailAtTime(SimTime::Millis(10), FailurePlan::Target::kBackup)
                            .Run();
  ASSERT_TRUE(paired.completed);
  ASSERT_TRUE(solo.completed);
  EXPECT_LT(solo.completion_time.picos(), paired.completion_time.picos());
}

// ---------------------------------------------------------------------------
// Mid-epoch promotion: the backup stalls awaiting a forwarded environment
// value that the dead primary never sent. The missing value proves the
// primary died before executing that instruction, so the backup may promote
// mid-epoch and serve the environment locally (docs/PROTOCOL.md, P6).
// ---------------------------------------------------------------------------

class TodStallPromotionSweep : public testing::TestWithParam<int> {};

TEST_P(TodStallPromotionSweep, PromotesWhileStalledOnEnvironmentValue) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTime;  // Dense TOD reads: stalls are likely.
  spec.iterations = 400;
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  // Long epochs: more mid-epoch time.
  ScenarioResult probe = Scenario::Replicated(spec).Epoch(16384).Run();
  ASSERT_TRUE(probe.completed);

  ScenarioResult ft =
      Scenario::Replicated(spec)
          .Epoch(16384)
          .FailAtTime(SimTime::Picos(probe.completion_time.picos() * GetParam() / 100))
          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "panic " << ft.panic_code;
  // Exit code 0 == the time sequence stayed monotone across the handover
  // from forwarded values to local clock reads.
  EXPECT_EQ(ft.exit_code, 0u);
  if (ft.promoted) {
    EXPECT_GE(ft.promotion_time.picos(), ft.crash_time.picos());
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, TodStallPromotionSweep, testing::Values(20, 45, 70));

TEST(Failover, DetectionWaitsForChannelDrain) {
  WorkloadSpec spec = TxnSpec(6);
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .FailAtPhase(FailPhase::kAfterSendEnd, 2)
                          .Run();
  ASSERT_TRUE(ft.completed);
  ASSERT_TRUE(ft.promoted);
  // Promotion cannot precede crash + detection timeout.
  EXPECT_GE(ft.promotion_time.picos(),
            ft.crash_time.picos() + CostModel{}.failure_detect_timeout.picos());
}

}  // namespace
}  // namespace hbft
