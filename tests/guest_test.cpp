// Guest (MiniOS + workloads) tests: the image assembles, boots on the bare
// machine, syscalls work, drivers retry on uncertain completions, the clock
// ticks, and every workload runs to a clean exit with a stable checksum.
#include <gtest/gtest.h>

#include "guest/image.hpp"
#include "guest/minios.hpp"
#include "guest/workloads.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

TEST(GuestImage, AssemblesWithInterfaceSymbols) {
  const GuestImageBundle& bundle = GetGuestImage();
  EXPECT_TRUE(bundle.image.HasSymbol("boot"));
  EXPECT_TRUE(bundle.image.HasSymbol("trap_entry"));
  EXPECT_TRUE(bundle.image.HasSymbol("__wait_loop"));
  EXPECT_TRUE(bundle.image.HasSymbol("__wait_loop_end"));
  EXPECT_TRUE(bundle.image.HasSymbol("user_entry"));
  EXPECT_EQ(bundle.program.entry_pc, 0u);
  EXPECT_GT(bundle.program.wait_loop_end, bundle.program.wait_loop_begin);
  // The wait loop is the canonical 3-instruction spin.
  EXPECT_EQ(bundle.program.wait_loop_end - bundle.program.wait_loop_begin, 12u);
}

TEST(GuestBare, HelloRunsToCleanExit) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kHello;
  ScenarioResult result = RunBare(spec);
  ASSERT_TRUE(result.completed) << "timed_out=" << result.timed_out
                                << " deadlocked=" << result.deadlocked;
  EXPECT_EQ(result.exited_flag, 1u) << "panic code " << result.panic_code;
  EXPECT_EQ(result.exit_code, 0u);
  EXPECT_EQ(result.console_output, "hello from ft-vm\ndisk ok\n");
}

TEST(GuestBare, ClockTicksDuringRun) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 20000;  // ~3M instructions = 60 ms at 50 MIPS.
  ScenarioResult result = RunBare(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.exited_flag, 1u);
  // 10 ms tick period: a 60+ ms run must observe several ticks.
  EXPECT_GE(result.ticks, 4u);
}

TEST(GuestBare, CpuChecksumIsDeterministic) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 5000;
  ScenarioResult a = RunBare(spec);
  ScenarioResult b = RunBare(spec);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.exit_code, 0u);
  EXPECT_EQ(a.guest_checksum, b.guest_checksum);
  EXPECT_EQ(a.completion_time.picos(), b.completion_time.picos());
}

TEST(GuestBare, DiskWriteThenReadSeesData) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskWrite;
  spec.iterations = 8;
  spec.compute_burst = 100;
  spec.num_blocks = 8;
  ScenarioResult write_run = RunBare(spec);
  ASSERT_TRUE(write_run.completed);
  EXPECT_EQ(write_run.exited_flag, 1u);
  EXPECT_EQ(write_run.exit_code, 0u);
  // Every op reached the disk.
  size_t writes = 0;
  for (const EnvTraceEntry& entry : write_run.env_trace) {
    if (entry.device_id == DeviceId::kDisk && entry.opcode == kDiskOpWrite && entry.performed) {
      ++writes;
    }
  }
  EXPECT_EQ(writes, 8u);
}

TEST(GuestBare, DiskReadChecksumDeterministic) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskRead;
  spec.iterations = 6;
  spec.compute_burst = 50;
  spec.num_blocks = 16;
  ScenarioResult a = RunBare(spec);
  ScenarioResult b = RunBare(spec);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.exited_flag, 1u);
  EXPECT_EQ(a.guest_checksum, b.guest_checksum);
}

TEST(GuestBare, DriverRetriesUncertainCompletions) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskWrite;
  spec.iterations = 10;
  spec.num_blocks = 4;
  FaultPlan faults;
  faults.uncertain_probability = 0.3;
  faults.performed_when_uncertain = 0.5;
  ScenarioResult result = Scenario::Bare(spec).DiskFaults(faults).Run();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.exited_flag, 1u) << "panic " << result.panic_code;
  // With retries, the performed operation count can exceed the workload's.
  // The driver re-issues a write only after an uncertain completion, so more
  // writes than the workload's ten means uncertain completions occurred.
  size_t writes = 0;
  size_t performed = 0;
  for (const EnvTraceEntry& entry : result.env_trace) {
    if (entry.device_id == DeviceId::kDisk && entry.opcode == kDiskOpWrite) {
      ++writes;
      performed += entry.performed ? 1 : 0;
    }
  }
  EXPECT_GE(performed, 10u);
  EXPECT_GT(writes, 10u);
}

TEST(GuestBare, HeapDemandZeroFaultPath) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kHeap;
  spec.iterations = 16;
  ScenarioResult result = RunBare(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.exited_flag, 1u) << "panic " << result.panic_code;
  EXPECT_EQ(result.exit_code, 0u);
  // Stored counter values 16..1 read back: sum = 136.
  EXPECT_EQ(result.guest_checksum, 136u);
}

TEST(GuestBare, TimeMonotonic) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTime;
  spec.iterations = 50;
  ScenarioResult result = RunBare(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.exit_code, 0u) << "monotonicity violated";
}

TEST(GuestBare, EchoConsoleInput) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kEcho;
  ScenarioResult result = Scenario::Bare(spec).ConsoleInput("hi!q").Run();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.exited_flag, 1u);
  EXPECT_EQ(result.console_output, "hi!");
  EXPECT_EQ(result.guest_checksum, 3u);
}

TEST(GuestBare, TxnLogWritesAllRecords) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 12;
  spec.num_blocks = 4;
  ScenarioResult result = RunBare(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.exited_flag, 1u);
  EXPECT_EQ(result.console_output, "012345678901\n");
}

}  // namespace
}  // namespace hbft
