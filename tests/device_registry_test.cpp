// Device-registry tests: registry dispatch (by id / IRQ / MMIO window), the
// NIC as a first-class protocol citizen (TX suppressed on backups, bounded
// duplicated-packet window at handover), and P7's uncertain-interrupt
// synthesis covering every registered device across failover.
#include <gtest/gtest.h>

#include "devices/console.hpp"
#include "devices/device_set.hpp"
#include "devices/disk.hpp"
#include "devices/nic.hpp"
#include "guest/workloads.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

// ---------------------------------------------------------------------------
// Registry dispatch.
// ---------------------------------------------------------------------------

TEST(DeviceRegistry, DispatchesByIdIrqAndMmioWindow) {
  DeviceSetConfig config;
  config.with_nic = true;
  DeviceSet set(config, CostModel{}, /*seed=*/1);
  std::unique_ptr<DeviceRegistry> registry = set.BuildRegistry();

  ASSERT_EQ(registry->devices().size(), 3u);
  for (DeviceId id : {DeviceId::kDisk, DeviceId::kConsole, DeviceId::kNic}) {
    VirtualDevice* device = registry->by_id(id);
    ASSERT_NE(device, nullptr) << DeviceIdName(id);
    EXPECT_EQ(device->device_id(), id);
    // Every IRQ line the device owns routes back to it.
    for (uint32_t bit = 0; bit < 32; ++bit) {
      uint32_t line = 1u << bit;
      if ((device->irq_mask() & line) != 0) {
        EXPECT_EQ(registry->by_irq(line), device) << DeviceIdName(id) << " line " << line;
      }
    }
    // Every address of the MMIO page routes back to it.
    EXPECT_EQ(registry->by_mmio(device->mmio_base()), device);
    EXPECT_EQ(registry->by_mmio(device->mmio_base() + kPageBytes - 4), device);
  }

  EXPECT_EQ(registry->by_mmio(kNicMmioBase + kPageBytes), nullptr);
  EXPECT_EQ(registry->by_irq(kIrqTimer), nullptr);  // The timer is not a device.
  EXPECT_EQ(registry->by_id(DeviceId::kNone), nullptr);

  // Backends are shared, not per-registry.
  std::unique_ptr<DeviceRegistry> second = set.BuildRegistry();
  EXPECT_EQ(second->by_id(DeviceId::kDisk)->backend(), registry->by_id(DeviceId::kDisk)->backend());
}

TEST(DeviceRegistry, DefaultRegistryIsTheLegacyPair) {
  std::unique_ptr<DeviceRegistry> registry = CreateDefaultRegistry();
  EXPECT_NE(registry->by_id(DeviceId::kDisk), nullptr);
  EXPECT_NE(registry->by_id(DeviceId::kConsole), nullptr);
  EXPECT_EQ(registry->by_id(DeviceId::kNic), nullptr);
}

TEST(DeviceRegistry, UncertainCompletionsAreDeviceShaped) {
  DeviceSetConfig config;
  config.with_nic = true;
  DeviceSet set(config, CostModel{}, 1);
  std::unique_ptr<DeviceRegistry> registry = set.BuildRegistry();

  IoDescriptor io;
  io.guest_op_seq = 42;
  struct Case {
    DeviceId device;
    uint32_t opcode;
    uint32_t expected_irq;
  };
  for (const Case& c : {Case{DeviceId::kDisk, kDiskOpWrite, kIrqDisk},
                        Case{DeviceId::kConsole, kConsoleOpTx, kIrqConsoleTx},
                        Case{DeviceId::kNic, kNicOpTx, kIrqNicTx}}) {
    io.device_id = c.device;
    io.opcode = c.opcode;
    IoCompletionPayload payload = registry->by_id(c.device)->MakeUncertainCompletion(io);
    EXPECT_EQ(payload.device_irq, c.expected_irq) << DeviceIdName(c.device);
    EXPECT_EQ(payload.guest_op_seq, 42u);
    EXPECT_EQ(payload.result_code, 1u) << "uncertain result code";
  }
}

// ---------------------------------------------------------------------------
// Console/NIC backends: fault plan symmetry with the disk (IO2).
// ---------------------------------------------------------------------------

TEST(ConsoleBackend, FaultPlanMakesTxUncertain) {
  Console console(7);
  FaultPlan plan;
  plan.uncertain_probability = 1.0;
  plan.performed_when_uncertain = 1.0;
  console.set_fault_plan(plan);

  IoDescriptor io;
  io.device_id = DeviceId::kConsole;
  io.opcode = kConsoleOpTx;
  io.guest_op_seq = 5;
  io.payload = {'x'};
  auto issued = console.Issue(io, /*issuer=*/1, SimTime::Zero());
  IoCompletionPayload payload = console.Complete(issued.op_id);
  EXPECT_EQ(payload.result_code, kConsoleResultUncertain);
  ASSERT_EQ(console.trace().size(), 1u);  // Performed: latched despite uncertainty.
  EXPECT_EQ(console.trace()[0].op_hash, static_cast<uint64_t>('x'));

  // performed_when_uncertain = 0: the character never reaches the terminal.
  plan.performed_when_uncertain = 0.0;
  console.set_fault_plan(plan);
  auto issued2 = console.Issue(io, 1, SimTime::Zero());
  IoCompletionPayload payload2 = console.Complete(issued2.op_id);
  EXPECT_EQ(payload2.result_code, kConsoleResultUncertain);
  EXPECT_EQ(console.trace().size(), 1u);  // Unchanged.
}

TEST(NicBackend, TracesTransmittedPackets) {
  Nic nic(3);
  IoDescriptor io;
  io.device_id = DeviceId::kNic;
  io.opcode = kNicOpTx;
  io.guest_op_seq = 9;
  io.payload = {1, 2, 3, 4};
  auto issued = nic.Issue(io, /*issuer=*/2, SimTime::Zero());
  IoCompletionPayload payload = nic.Complete(issued.op_id);
  EXPECT_EQ(payload.device_irq, static_cast<uint32_t>(kIrqNicTx));
  EXPECT_EQ(payload.result_code, kNicResultOk);
  ASSERT_EQ(nic.trace().size(), 1u);
  EXPECT_EQ(nic.trace()[0].device_id, DeviceId::kNic);
  EXPECT_EQ(nic.trace()[0].bytes, io.payload);
  EXPECT_EQ(nic.trace()[0].issuer, 2);
}

// ---------------------------------------------------------------------------
// Replicated NIC scenarios.
// ---------------------------------------------------------------------------

// The NIC entries of a run's environment trace, in latch order.
std::vector<EnvTraceEntry> NicTrace(const ScenarioResult& result) {
  std::vector<EnvTraceEntry> out;
  for (const EnvTraceEntry& e : result.env_trace) {
    if (e.device_id == DeviceId::kNic) {
      out.push_back(e);
    }
  }
  return out;
}

// Builds the three-device workload: per packet, the guest logs to disk,
// prints a progress digit, and echoes the packet over the NIC.
Scenario NetScenario(uint32_t packets) {
  Scenario scenario = Scenario::Replicated(WorkloadSpec::NetEcho(packets));
  for (uint32_t i = 0; i < packets; ++i) {
    std::vector<uint8_t> payload = {static_cast<uint8_t>('A' + i), 0x10, 0x20,
                                    static_cast<uint8_t>(i)};
    scenario.InjectPacket(std::move(payload));
  }
  return scenario;
}

TEST(NicReplication, TxSuppressedOnBackups) {
  ScenarioResult ft = NetScenario(3).Epoch(4096).Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  EXPECT_FALSE(ft.promoted);
  // The backup initiated (and suppressed) NIC/disk/console I/O but never
  // touched a backend.
  EXPECT_GT(ft.backup_stats().io_suppressed, 0u);
  EXPECT_EQ(ft.backup_stats().io_issued, 0u);
  ASSERT_EQ(NicTrace(ft).size(), 3u);
  for (const EnvTraceEntry& e : ft.env_trace) {
    EXPECT_EQ(e.issuer, ft.primary_id) << DeviceIdName(e.device_id);
  }
}

TEST(NicReplication, EchoMatchesBareReference) {
  Scenario scenario = NetScenario(3).Epoch(4096);
  ScenarioResult bare = scenario.AsBare().Run();
  ScenarioResult ft = scenario.Run();
  ASSERT_TRUE(bare.completed);
  ASSERT_TRUE(ft.completed);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  std::vector<EnvTraceEntry> ft_packets = NicTrace(ft);
  std::vector<EnvTraceEntry> bare_packets = NicTrace(bare);
  ASSERT_EQ(ft_packets.size(), bare_packets.size());
  for (size_t i = 0; i < ft_packets.size(); ++i) {
    EXPECT_EQ(ft_packets[i].bytes, bare_packets[i].bytes) << "packet " << i;
  }
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// P7 must cover every registered device: kill the active replica while an
// operation of each device class is in flight; the promoted backup
// synthesises the uncertain interrupt, the driver re-drives, and the
// generalized environment checks stay green.
struct P7Case {
  const char* name;
  FailurePlan::CrashIo crash_io;
};

class P7AllDevices : public testing::TestWithParam<int> {};

TEST_P(P7AllDevices, UncertainInterruptsCoverEveryDevice) {
  // The three-device workload interleaves NIC RX/TX, disk writes, and
  // console output; killing at successive I/O initiations lands the crash on
  // different devices' outstanding operations across the sweep.
  const uint64_t io_seq = static_cast<uint64_t>(GetParam());
  Scenario scenario = NetScenario(4).Epoch(4096);
  ScenarioResult bare = scenario.AsBare().Run();
  ASSERT_TRUE(bare.completed);

  FailurePlan plan;
  plan.kind = FailurePlan::Kind::kAtPhase;
  plan.phase = FailPhase::kAfterIoIssue;
  plan.io_seq = io_seq;
  plan.crash_io = FailurePlan::CrashIo::kNotPerformed;
  ScenarioResult ft = scenario.FailAt(plan).Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  ASSERT_TRUE(ft.promoted);
  EXPECT_GE(ft.backup_stats().uncertain_synthesised, 1u);
  EXPECT_GE(ft.backup_stats().io_issued, 1u);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

// io_seq values sweep the first packets' NIC TX, disk write, and console TX
// initiations (the exact device at each seq is an implementation detail; the
// sweep guarantees all three classes get hit).
INSTANTIATE_TEST_SUITE_P(IoSeqSweep, P7AllDevices, testing::Values(1, 2, 3, 4, 5, 6, 7));

TEST(NicReplication, DuplicatedPacketWindowBoundedAtHandover) {
  // Kill with a NIC TX in flight that DID reach the wire: the promoted
  // backup re-drives it, so the packet appears exactly once more (the
  // console-style duplicated-output window), and the overlap chain stays
  // consistent with the bare reference.
  Scenario scenario = NetScenario(3).Epoch(4096);
  ScenarioResult bare = scenario.AsBare().Run();
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft =
      scenario.FailAtPhase(FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kPerformed).Run();
  ASSERT_TRUE(ft.completed);
  ASSERT_TRUE(ft.promoted);
  ASSERT_EQ(ft.exited_flag, 1u);

  // At most one extra copy per re-driven operation: the window is bounded by
  // what was in flight (one synchronous op at a time in MiniOS).
  EXPECT_GE(NicTrace(ft).size(), NicTrace(bare).size());
  EXPECT_LE(NicTrace(ft).size(),
            NicTrace(bare).size() + ft.backup_stats().uncertain_synthesised);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
}

TEST(NicReplication, CascadingFailoverAcrossThreeDevices) {
  // The acceptance scenario: disk+console+NIC, two successive active-replica
  // kills, generalized environment checks green against the bare reference.
  Scenario scenario = NetScenario(4).Backups(2).Epoch(4096);
  ScenarioResult bare = scenario.AsBare().Run();
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft = scenario.FailAtTime(SimTime::Millis(6))
                          .FailAtPhase(FailPhase::kAfterIoIssue, 0,
                                       FailurePlan::CrashIo::kNotPerformed)
                          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  ASSERT_EQ(ft.nodes.size(), 3u);
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_TRUE(ft.nodes[2].promoted);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
  // The final survivor drove NIC output too.
  bool backup2_sent_packet = false;
  for (const EnvTraceEntry& e : NicTrace(ft)) {
    if (e.issuer == ft.nodes[2].id) {
      backup2_sent_packet = true;
    }
  }
  EXPECT_TRUE(backup2_sent_packet);
}

TEST(NicReplication, RetryAfterUncertainOnLegacyDevices) {
  // The satellite symmetry check: console TX completions can now come back
  // uncertain like the disk's, and the guest driver retransmits — visible as
  // duplicated console output that the environment tolerates.
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 8;
  spec.num_blocks = 8;
  FaultPlan console_faults;
  console_faults.uncertain_probability = 0.4;
  console_faults.performed_when_uncertain = 0.5;
  ScenarioResult ft = Scenario::Replicated(spec)
                          .Epoch(4096)
                          .ConsoleFaults(console_faults)
                          .Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out;
  ASSERT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  // 8 digits + newline, minus never-performed attempts, plus retries: with
  // retry-until-ok semantics every logical char eventually appears.
  EXPECT_GE(ft.console_output.size(), 9u);
  // The console text is exactly the performed console entries' characters,
  // in order.
  std::string latched;
  for (const EnvTraceEntry& e : ft.env_trace) {
    if (e.device_id == DeviceId::kConsole && e.performed) {
      latched.push_back(static_cast<char>(e.op_hash));
    }
  }
  EXPECT_EQ(ft.console_output, latched);
}

}  // namespace
}  // namespace hbft
