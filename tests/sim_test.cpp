// Simulation-layer tests: event queue determinism, cost-model arithmetic,
// world scheduling, and reproducibility of full runs.
#include <gtest/gtest.h>

#include <memory>

#include "guest/workloads.hpp"
#include "hypervisor/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(SimTime::Micros(10), [&] { order.push_back(1); });
  queue.Push(SimTime::Micros(5), [&] { order.push_back(2); });
  queue.Push(SimTime::Micros(10), [&] { order.push_back(3); });  // Ties FIFO.
  queue.Push(SimTime::Micros(1), [&] { order.push_back(4); });
  while (!queue.empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3}));
}

TEST(EventQueue, HandlersMayPushEvents) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(SimTime::Micros(1), [&] {
    order.push_back(1);
    queue.Push(SimTime::Micros(2), [&] { order.push_back(2); });
  });
  queue.RunNext();
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue.PeekTime(), SimTime::Micros(2));
  queue.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EqualTimesAcrossPartitionsPopInPartitionOrder) {
  // Rule 2 of the documented pop order: time ties across partitions break
  // toward the lowest partition id, regardless of insertion order.
  EventQueue queue;
  std::vector<int> order;
  queue.Push(3, SimTime::Micros(10), [&] { order.push_back(3); });
  queue.Push(1, SimTime::Micros(10), [&] { order.push_back(1); });
  queue.Push(0, SimTime::Micros(10), [&] { order.push_back(0); });
  queue.Push(2, SimTime::Micros(10), [&] { order.push_back(2); });
  EXPECT_EQ(queue.PeekTime(), SimTime::Micros(10));
  EXPECT_EQ(queue.PeekPartition(), 0u);
  while (!queue.empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EarlierTimeBeatsLowerPartitionId) {
  // Rule 1 dominates rule 2: a later event in partition 0 must not jump
  // ahead of an earlier event in a high-numbered partition.
  EventQueue queue;
  std::vector<int> order;
  queue.Push(0, SimTime::Micros(20), [&] { order.push_back(0); });
  queue.Push(7, SimTime::Micros(5), [&] { order.push_back(7); });
  EXPECT_EQ(queue.PeekPartition(), 7u);
  queue.RunNext();
  queue.RunNext();
  EXPECT_EQ(order, (std::vector<int>{7, 0}));
}

TEST(EventQueue, InsertionOrderWithinPartitionUnderCrossPartitionTies) {
  // Rules 2 and 3 together: at one timestamp, all of partition 0's events
  // pop (in insertion order) before any of partition 1's.
  EventQueue queue;
  std::vector<std::string> order;
  queue.Push(1, SimTime::Micros(10), [&] { order.push_back("p1-a"); });
  queue.Push(0, SimTime::Micros(10), [&] { order.push_back("p0-a"); });
  queue.Push(1, SimTime::Micros(10), [&] { order.push_back("p1-b"); });
  queue.Push(0, SimTime::Micros(10), [&] { order.push_back("p0-b"); });
  while (!queue.empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"p0-a", "p0-b", "p1-a", "p1-b"}));
}

TEST(EventQueue, HandlersMayPushIntoOtherPartitions) {
  // A partition-0 handler scheduling work on partition 2 at the same time:
  // the cross-partition event still runs this instant, after partition 0
  // drains (rule 2), not at some later pop.
  EventQueue queue;
  std::vector<int> order;
  queue.Push(0, SimTime::Micros(1), [&] {
    order.push_back(1);
    queue.Push(2, SimTime::Micros(1), [&] { order.push_back(2); });
  });
  queue.Push(0, SimTime::Micros(1), [&] { order.push_back(3); });
  while (!queue.empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimTimeArithmetic, UnitsAndConversions) {
  EXPECT_EQ(SimTime::Micros(1).nanos(), 1000);
  EXPECT_EQ(SimTime::Millis(26).micros(), 26000);
  EXPECT_EQ(SimTime::Seconds(2).millis(), 2000);
  EXPECT_NEAR(SimTime::MicrosF(15.12).micros_f(), 15.12, 1e-9);
  EXPECT_EQ((SimTime::Micros(3) + SimTime::Micros(4)).micros(), 7);
  EXPECT_EQ((SimTime::Micros(10) - SimTime::Micros(4)).micros(), 6);
  EXPECT_EQ((SimTime::Micros(3) * 4).micros(), 12);
  EXPECT_LT(SimTime::Micros(3), SimTime::Micros(4));
}

TEST(CostModel, PaperConstants) {
  CostModel costs;
  EXPECT_EQ(costs.instruction_cost.nanos(), 20);  // 50 MIPS.
  EXPECT_NEAR(costs.hv_priv_sim_cost.micros_f(), 15.12, 1e-6);
  EXPECT_EQ(costs.disk_write_latency.millis(), 26);
  EXPECT_NEAR(costs.disk_read_latency.micros_f(), 24200.0, 1.0);
  // TOD conversion: 100 ns units.
  EXPECT_EQ(costs.TodFromTime(SimTime::Micros(1)), 10);
  EXPECT_EQ(costs.TimeFromTod(10), SimTime::Micros(1));
}

TEST(CostModel, AtmVariantOnlyChangesLink) {
  CostModel eth = CostModel::PaperCalibrated();
  CostModel atm = CostModel::WithAtmLink();
  EXPECT_EQ(atm.link.bandwidth_bps, 155e6);
  EXPECT_EQ(eth.link.bandwidth_bps, 10e6);
  EXPECT_EQ(atm.hv_priv_sim_cost.picos(), eth.hv_priv_sim_cost.picos());
}

TEST(Determinism, IdenticalRunsAreBitIdentical) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 4;
  spec.num_blocks = 4;
  Scenario scenario = Scenario::Replicated(spec).Epoch(2048);
  ScenarioResult a = scenario.Run();
  ScenarioResult b = scenario.Run();
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.completion_time.picos(), b.completion_time.picos());
  EXPECT_EQ(a.guest_checksum, b.guest_checksum);
  EXPECT_EQ(a.console_output, b.console_output);
  EXPECT_EQ(a.env_trace.size(), b.env_trace.size());
  EXPECT_EQ(a.primary_stats().messages_sent, b.primary_stats().messages_sent);
}

TEST(Determinism, FailoverRunsAreReproducible) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 6;
  spec.num_blocks = 8;
  Scenario scenario =
      Scenario::Replicated(spec).Epoch(4096).FailAtTime(SimTime::Millis(40));
  ScenarioResult a = scenario.Run();
  ScenarioResult b = scenario.Run();
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.promoted, b.promoted);
  EXPECT_EQ(a.promotion_time.picos(), b.promotion_time.picos());
  EXPECT_EQ(a.completion_time.picos(), b.completion_time.picos());
  EXPECT_EQ(a.console_output, b.console_output);
}

TEST(Determinism, SeedChangesCrashIoResolution) {
  // With kRandom crash-I/O resolution the seed decides performed-vs-dropped;
  // different seeds may diverge, same seeds must not.
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = 6;
  spec.num_blocks = 8;
  Scenario scenario =
      Scenario::Replicated(spec)
          .Seed(1)
          .FailAtPhase(FailPhase::kAfterIoIssue, 0, FailurePlan::CrashIo::kRandom);
  ScenarioResult a1 = scenario.Run();
  ScenarioResult a2 = scenario.Run();
  EXPECT_EQ(a1.env_trace.size(), a2.env_trace.size());
}

TEST(World, TimeLimitDetectsRunaway) {
  // An epoch length so large the first boundary never arrives within the
  // budget, combined with a kill that never fires: the echo workload waits
  // for console input that never comes -> the run must time out, not hang.
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kEcho;
  ScenarioResult result =
      Scenario::Replicated(spec).MaxTime(SimTime::Millis(200)).Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.timed_out || result.deadlocked);
}

TEST(World, BareAndReplicatedShareWorkloadResults) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  spec.iterations = 1500;
  ScenarioResult bare = RunBare(spec);
  ScenarioResult ft = Scenario::Replicated(spec).Epoch(8192).Run();
  ASSERT_TRUE(bare.completed);
  ASSERT_TRUE(ft.completed);
  EXPECT_EQ(bare.guest_checksum, ft.guest_checksum);
  // Replication costs time: N' > N strictly.
  EXPECT_GT(ft.completion_time.picos(), bare.completion_time.picos());
}

// Runs `scenario` through repeated World::RunLoop calls whose limits advance
// by `slice`, the way the fleet drives its worlds.
ScenarioResult RunInSlices(const Scenario& scenario, SimTime slice) {
  std::unique_ptr<World> world = scenario.BuildWorld();
  SimTime limit = slice;
  while (world->RunLoop(limit)) {
    limit += slice;
  }
  ScenarioResult result;
  world->Finish(&result);
  scenario.CollectResult(*world, &result);
  return result;
}

// With one node the horizons cannot reorder anything: a bare world sliced
// at any granularity reproduces the whole run exactly. (Replicated worlds
// are only deterministic per horizon sequence; see World::RunLoop.)
TEST(World, SingleNodeRunLoopIsSliceInvariant) {
  WorkloadSpec cpu;
  cpu.iterations = 1500;
  WorkloadSpec txnlog;
  txnlog.kind = WorkloadKind::kTxnLog;
  txnlog.iterations = 4;
  txnlog.num_blocks = 4;
  const Scenario scenarios[] = {
      Scenario::Bare(cpu),
      Scenario::Bare(WorkloadSpec::PaperDiskRead(4)),
      Scenario::Bare(txnlog),
      Scenario::Bare(WorkloadSpec::NetEcho(3))
          .InjectPacket({'a'})
          .InjectPacket({'b', 'c'})
          .InjectPacket({'d', 'e', 'f'}),
  };
  const SimTime slices[] = {SimTime::Millis(10), SimTime::Millis(1), SimTime::Micros(370),
                            SimTime::Micros(13)};
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(static_cast<int>(scenario.workload().kind));
    const ScenarioResult whole = scenario.Run();
    ASSERT_TRUE(whole.completed);
    for (SimTime slice : slices) {
      SCOPED_TRACE(slice.picos());
      const ScenarioResult sliced = RunInSlices(scenario, slice);
      EXPECT_TRUE(sliced.completed);
      EXPECT_EQ(sliced.completion_time, whole.completion_time);
      EXPECT_EQ(sliced.guest_checksum, whole.guest_checksum);
      ASSERT_EQ(sliced.env_trace.size(), whole.env_trace.size());
      for (size_t i = 0; i < whole.env_trace.size(); ++i) {
        EXPECT_EQ(sliced.env_trace[i].device_id, whole.env_trace[i].device_id);
        EXPECT_EQ(sliced.env_trace[i].issuer, whole.env_trace[i].issuer);
        EXPECT_EQ(sliced.env_trace[i].performed, whole.env_trace[i].performed);
        EXPECT_EQ(sliced.env_trace[i].op_hash, whole.env_trace[i].op_hash);
      }
    }
  }
}

}  // namespace
}  // namespace hbft
