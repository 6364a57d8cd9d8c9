// Regression tests for the dispatch of real-device completions.
//
// A completion event that lands on a replica unable to handle it aborts the
// run. Every replica that can receive a real completion — the primary, a
// solo primary whose backup died, and a promoted backup — is the active
// ReplicaNode at that moment; these tests pin down that each one handles
// its completions and finishes the workload.
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

WorkloadSpec DiskAndConsoleSpec() {
  // TxnLog issues disk writes and per-record console progress: both real
  // completion paths (disk, console TX) fire on whichever node drives the
  // devices.
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 6;
  spec.num_blocks = 8;
  return spec;
}

TEST(ProtocolDispatch, PrimaryHandlesDiskAndConsoleCompletions) {
  ScenarioResult ft = Scenario::Replicated(DiskAndConsoleSpec()).Epoch(4096).Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  // The primary drove real I/O (disk writes + console chars) to completion.
  EXPECT_GE(ft.primary_stats().io_issued, 6u);
  EXPECT_FALSE(ft.console_output.empty());
}

TEST(ProtocolDispatch, PromotedBackupHandlesRedrivenCompletions) {
  // Kill the primary with an operation in flight: the promoted backup
  // synthesises the uncertain interrupt (P7), re-drives the op against the
  // real disk, and must then handle the real completion itself.
  ScenarioResult ft =
      Scenario::Replicated(DiskAndConsoleSpec())
          .Epoch(4096)
          .FailAtPhase(FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kNotPerformed)
          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_TRUE(ft.promoted);
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  EXPECT_GE(ft.backup_stats().uncertain_synthesised, 1u);
  EXPECT_GE(ft.backup_stats().io_issued, 1u);
}

TEST(ProtocolDispatch, SoloPrimaryHandlesCompletionsAfterBackupDies) {
  // The other completion route: the backup dies, the primary drops to solo
  // mode and keeps driving (and completing) real device operations.
  ScenarioResult ft = Scenario::Replicated(DiskAndConsoleSpec())
                          .Epoch(4096)
                          .FailAtTime(SimTime::Millis(5), FailurePlan::Target::kBackup)
                          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  EXPECT_FALSE(ft.promoted);
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  EXPECT_GE(ft.primary_stats().io_issued, 6u);
}

TEST(ProtocolDispatch, EveryPhaseKillLeavesCompletionsHandled) {
  // Sweep the in-flight-I/O crash phases with both crash-IO resolutions: in
  // every case the surviving role owns the outstanding completions.
  for (FailPhase phase : {FailPhase::kBeforeIoIssue, FailPhase::kAfterIoIssue}) {
    for (auto crash_io : {FailurePlan::CrashIo::kPerformed, FailurePlan::CrashIo::kNotPerformed}) {
      ScenarioResult ft = Scenario::Replicated(DiskAndConsoleSpec())
                              .Epoch(4096)
                              .FailAtPhase(phase, 0, crash_io)
                              .Run();
      ASSERT_TRUE(ft.completed)
          << FailPhaseName(phase) << " crash_io=" << static_cast<int>(crash_io);
      ASSERT_EQ(ft.exited_flag, 1u) << FailPhaseName(phase);
    }
  }
}

}  // namespace
}  // namespace hbft
