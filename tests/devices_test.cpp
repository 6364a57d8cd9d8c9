// Device tests: the dual-ported disk's IO1/IO2 semantics, crash resolution
// (one disk, and a whole device set), fault injection and environment trace;
// console TX — all driven through the DeviceBackend surface the replicas use
// (Issue, Complete, ResolveCrash, InFlight).
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "devices/console.hpp"
#include "devices/device_set.hpp"
#include "devices/disk.hpp"
#include "isa/isa.hpp"

namespace hbft {
namespace {

constexpr uint32_t kDmaPaddr = 0x4000;

std::vector<uint8_t> Pattern(uint8_t seed) {
  std::vector<uint8_t> data(kDiskBlockBytes);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(seed + i);
  }
  return data;
}

IoDescriptor DiskIo(uint32_t opcode, uint32_t block, std::vector<uint8_t> data = {}) {
  IoDescriptor io;
  io.device_id = DeviceId::kDisk;
  io.opcode = opcode;
  io.arg0 = block;
  io.arg1 = kDmaPaddr;
  io.payload = std::move(data);
  return io;
}

// Issues `io` on behalf of node `issuer` at `now` and completes it at once.
IoCompletionPayload Drive(DeviceBackend& backend, IoDescriptor io, int issuer,
                          SimTime now = SimTime::Zero()) {
  return backend.Complete(backend.Issue(std::move(io), issuer, now).op_id);
}

TEST(Disk, WriteThenReadRoundTrip) {
  Disk disk(32, 1);
  auto data = Pattern(7);
  IoCompletionPayload wc = Drive(disk, DiskIo(kDiskOpWrite, 3, data), 1);
  EXPECT_EQ(wc.device_irq, static_cast<uint32_t>(kIrqDisk));
  EXPECT_EQ(wc.result_code, kDiskResultOk);
  EXPECT_FALSE(wc.has_dma_data);

  IoCompletionPayload rc = Drive(disk, DiskIo(kDiskOpRead, 3), 1);
  EXPECT_EQ(rc.result_code, kDiskResultOk);
  ASSERT_TRUE(rc.has_dma_data);
  EXPECT_EQ(rc.dma_guest_paddr, kDmaPaddr);
  EXPECT_EQ(rc.dma_data, data);
  ASSERT_EQ(disk.trace().size(), 2u);
  EXPECT_TRUE(disk.trace()[0].performed);
  EXPECT_TRUE(disk.trace()[1].performed);
}

TEST(Disk, UnwrittenBlocksHaveDeterministicContent) {
  Disk a(32, 1);
  Disk b(32, 2);  // Different seed: content pattern must not depend on it.
  EXPECT_EQ(a.PeekBlock(5), b.PeekBlock(5));
  EXPECT_NE(a.PeekBlock(5), a.PeekBlock(6));
}

TEST(Disk, WritesAreIdempotent) {
  // IO2 tolerance: repeating a write leaves the same state.
  Disk disk(32, 1);
  auto data = Pattern(9);
  Drive(disk, DiskIo(kDiskOpWrite, 4, data), 1);
  Drive(disk, DiskIo(kDiskOpWrite, 4, data), 2);  // Re-driven after failover.
  EXPECT_EQ(disk.PeekBlock(4), data);
}

TEST(Disk, FaultPlanInjectsUncertainCompletions) {
  Disk disk(32, 1);
  FaultPlan plan;
  plan.uncertain_probability = 1.0;
  plan.performed_when_uncertain = 1.0;
  disk.set_fault_plan(plan);
  auto data = Pattern(3);
  IoCompletionPayload completion = Drive(disk, DiskIo(kDiskOpWrite, 1, data), 1);
  EXPECT_EQ(completion.result_code, kDiskResultCheckCondition);
  ASSERT_EQ(disk.trace().size(), 1u);
  EXPECT_TRUE(disk.trace()[0].performed);  // Performed, but the host can't know.
  EXPECT_EQ(disk.PeekBlock(1), data);

  plan.performed_when_uncertain = 0.0;
  disk.set_fault_plan(plan);
  auto data2 = Pattern(4);
  IoCompletionPayload completion2 = Drive(disk, DiskIo(kDiskOpWrite, 2, data2), 1);
  EXPECT_EQ(completion2.result_code, kDiskResultCheckCondition);
  ASSERT_EQ(disk.trace().size(), 2u);
  EXPECT_FALSE(disk.trace()[1].performed);
  EXPECT_NE(disk.PeekBlock(2), data2);

  // An uncertain read carries no data, performed or not.
  IoCompletionPayload read = Drive(disk, DiskIo(kDiskOpRead, 1), 1);
  EXPECT_EQ(read.result_code, kDiskResultCheckCondition);
  EXPECT_FALSE(read.has_dma_data);
}

TEST(Disk, CrashResolutionPerformedOrNot) {
  Disk disk(32, 1);
  auto data = Pattern(5);
  uint64_t op1 = disk.Issue(DiskIo(kDiskOpWrite, 7, data), 1, SimTime::Zero()).op_id;
  disk.Issue(DiskIo(kDiskOpWrite, 8, data), 1, SimTime::Zero());
  EXPECT_TRUE(disk.trace().empty());  // Nothing reaches the medium at issue.
  bool verdict = true;  // Performed, then not: asked once per op, in issue order.
  disk.ResolveCrash(1, [&verdict] { return std::exchange(verdict, false); });
  EXPECT_EQ(disk.PeekBlock(7), data);
  EXPECT_NE(disk.PeekBlock(8), data);
  // The trace records only the performed one.
  ASSERT_EQ(disk.trace().size(), 1u);
  EXPECT_EQ(disk.trace()[0].block, 7u);
  EXPECT_TRUE(disk.trace()[0].performed);
  // Resolution retires the operation: no completion can follow.
  EXPECT_DEATH(disk.Complete(op1), "unknown disk op");
}

IoDescriptor TxIo(DeviceId device, uint32_t opcode, std::vector<uint8_t> payload) {
  IoDescriptor io;
  io.device_id = device;
  io.opcode = opcode;
  io.arg0 = static_cast<uint32_t>(payload.size());
  io.payload = std::move(payload);
  return io;
}

TEST(DeviceSet, ResolveCrashRetiresOnlyTheCrashedIssuersOps) {
  DeviceSetConfig config;
  config.with_nic = true;
  DeviceSet set(config, CostModel{}, /*seed=*/1);
  std::unique_ptr<DeviceRegistry> registry = set.BuildRegistry();
  auto* disk = static_cast<Disk*>(registry->by_id(DeviceId::kDisk)->backend());
  DeviceBackend* console = registry->by_id(DeviceId::kConsole)->backend();
  DeviceBackend* nic = registry->by_id(DeviceId::kNic)->backend();
  const SimTime t0 = SimTime::Zero();

  // Node 1 crashes with ops in flight on every device; node 2 survives.
  uint64_t write1 = disk->Issue(DiskIo(kDiskOpWrite, 1, Pattern(1)), 1, t0).op_id;
  uint64_t survivor = disk->Issue(DiskIo(kDiskOpRead, 2), 2, t0).op_id;
  uint64_t tx = console->Issue(TxIo(DeviceId::kConsole, kConsoleOpTx, {'x'}), 1, t0).op_id;
  nic->Issue(TxIo(DeviceId::kNic, kNicOpTx, {1, 2, 3}), 1, t0);
  disk->Issue(DiskIo(kDiskOpRead, 3), 1, t0);
  disk->Issue(DiskIo(kDiskOpWrite, 4, Pattern(4)), 1, t0);
  ASSERT_EQ(disk->InFlight(1).size(), 3u);
  EXPECT_EQ(disk->InFlight(1)[0]->arg0, 1u);  // In op-id order.
  EXPECT_EQ(disk->InFlight(1)[2]->arg0, 4u);

  // Only the disk asks for a verdict: once per op, in issue order.
  std::deque<bool> verdicts = {false, true, true};
  set.ResolveCrash(1, [&verdicts] {
    const bool performed = verdicts.front();
    verdicts.pop_front();
    return performed;
  });
  EXPECT_TRUE(verdicts.empty());
  EXPECT_TRUE(disk->InFlight(1).empty());
  EXPECT_TRUE(console->InFlight(1).empty());
  EXPECT_TRUE(nic->InFlight(1).empty());
  ASSERT_EQ(disk->InFlight(2).size(), 1u);  // The survivor's op is untouched.
  EXPECT_EQ(disk->InFlight(2)[0]->arg0, 2u);

  // The verdicts landed on the ops in issue order: the block-1 write was not
  // performed; the block-3 read and the block-4 write were.
  ASSERT_EQ(disk->trace().size(), 2u);
  EXPECT_EQ(disk->trace()[0].block, 3u);
  EXPECT_EQ(disk->trace()[1].block, 4u);
  EXPECT_NE(disk->PeekBlock(1), Pattern(1));
  EXPECT_EQ(disk->PeekBlock(4), Pattern(4));
  // Output latched at issue stays in the environment.
  EXPECT_EQ(console->trace().size(), 1u);
  EXPECT_EQ(nic->trace().size(), 1u);

  // A resolved op cannot complete; the survivor's still can.
  EXPECT_DEATH(disk->Complete(write1), "unknown disk op");
  EXPECT_DEATH(console->Complete(tx), "unknown console op");
  EXPECT_TRUE(disk->Complete(survivor).has_dma_data);
  EXPECT_TRUE(disk->InFlight(2).empty());
}

TEST(Disk, TraceRecordsIssuerAndContentHash) {
  Disk disk(32, 1);
  Drive(disk, DiskIo(kDiskOpWrite, 1, Pattern(1)), /*issuer=*/1);
  Drive(disk, DiskIo(kDiskOpRead, 1), /*issuer=*/2);
  const std::deque<EnvTraceEntry>& trace = disk.trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].device_id, DeviceId::kDisk);
  EXPECT_EQ(trace[0].opcode, kDiskOpWrite);
  EXPECT_EQ(trace[0].block, 1u);
  EXPECT_EQ(trace[0].issuer, 1);
  EXPECT_EQ(trace[1].opcode, kDiskOpRead);
  EXPECT_EQ(trace[1].issuer, 2);
  EXPECT_NE(trace[0].op_hash, trace[1].op_hash);
  // Identity by content (what the consistency checker compares): the same
  // write repeated by another issuer is the same operation; other content or
  // another block is not.
  Drive(disk, DiskIo(kDiskOpWrite, 1, Pattern(1)), 2);
  Drive(disk, DiskIo(kDiskOpWrite, 1, Pattern(2)), 1);
  Drive(disk, DiskIo(kDiskOpWrite, 2, Pattern(1)), 1);
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[0].op_hash, trace[2].op_hash);
  EXPECT_NE(trace[0].op_hash, trace[3].op_hash);
  EXPECT_NE(trace[0].op_hash, trace[4].op_hash);
}

// A write's identity covers every byte of its block: a one-byte change at the
// start, middle or end moves it, and so does flipping the top bit of two
// consecutive words, which a word-wise FNV-1a would cancel.
TEST(Disk, WriteHashSeesEveryByteAndPairedTopBits) {
  const std::vector<uint8_t> base = Pattern(3);
  std::vector<std::vector<uint8_t>> payloads = {base};
  for (size_t at : {size_t{0}, size_t{kDiskBlockBytes / 2}, size_t{kDiskBlockBytes - 1}}) {
    payloads.push_back(base);
    payloads.back()[at] ^= 1;
  }
  auto flip_top_bits = [&base](size_t word) {
    std::vector<uint8_t> data = base;
    for (size_t i = word; i < word + 2; ++i) {
      uint64_t w = 0;
      std::memcpy(&w, data.data() + i * sizeof(w), sizeof(w));
      w ^= uint64_t{1} << 63;
      std::memcpy(data.data() + i * sizeof(w), &w, sizeof(w));
    }
    return data;
  };
  payloads.push_back(flip_top_bits(0));
  payloads.push_back(flip_top_bits(kDiskBlockBytes / sizeof(uint64_t) - 2));

  Disk disk(32, 1);
  std::set<uint64_t> hashes;
  for (const std::vector<uint8_t>& data : payloads) {
    Drive(disk, DiskIo(kDiskOpWrite, 1, data), /*issuer=*/1);
    hashes.insert(disk.trace().back().op_hash);
  }
  EXPECT_EQ(hashes.size(), payloads.size());
}

TEST(Console, OutputAndTrace) {
  Console console;
  const struct {
    char ch;
    int issuer;
  } sent[] = {{'h', 1}, {'i', 1}, {'!', 2}};
  for (size_t i = 0; i < 3; ++i) {
    IoDescriptor io;
    io.device_id = DeviceId::kConsole;
    io.opcode = kConsoleOpTx;
    io.payload = {static_cast<uint8_t>(sent[i].ch)};
    IoCompletionPayload completion =
        Drive(console, io, sent[i].issuer, SimTime::Micros(static_cast<int64_t>(10 * i)));
    EXPECT_EQ(completion.device_irq, static_cast<uint32_t>(kIrqConsoleTx));
    EXPECT_EQ(completion.result_code, kConsoleResultOk);
  }
  const std::deque<EnvTraceEntry>& trace = console.trace();
  ASSERT_EQ(trace.size(), 3u);
  std::string text;
  for (const EnvTraceEntry& e : trace) {
    EXPECT_EQ(e.device_id, DeviceId::kConsole);
    EXPECT_TRUE(e.performed);
    text.push_back(static_cast<char>(e.op_hash));  // A character is its own identity.
  }
  EXPECT_EQ(text, "hi!");
  EXPECT_EQ(trace[2].issuer, 2);
  for (size_t i = 0; i < 3; ++i) {  // Stamped at the latch with Issue's `now`.
    EXPECT_EQ(trace[i].time, SimTime::Micros(static_cast<int64_t>(10 * i)));
  }
}

}  // namespace
}  // namespace hbft
