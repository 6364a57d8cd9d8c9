// Snapshot tests: the canonical codec, byte-identical round trips at every
// layer (CPU, memory, TLB, machine, devices, hypervisor), equivalence of a
// restored machine under further execution, and the strictness guarantees
// the state-transfer decoder inherits (reject truncation at every prefix,
// trailing bytes, and non-canonical flag bytes).
#include <gtest/gtest.h>

#include "common/snapshot.hpp"
#include "devices/nic.hpp"
#include "hypervisor/hypervisor.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"

namespace hbft {
namespace {

MachineConfig TinyConfig() {
  MachineConfig config;
  config.ram_bytes = 4 * kPageBytes;  // Small RAM keeps prefix sweeps fast.
  config.tlb_entries = 4;
  config.machine_seed = 7;
  return config;
}

// A machine with non-trivial state: registers written, pages dirtied, TLB
// populated, recovery counter armed.
std::unique_ptr<Machine> BusyMachine() {
  auto machine = std::make_unique<Machine>(TinyConfig());
  auto assembled = Assemble(R"(
    li r1, 0xABCD
    li r2, 0x3000
    sw r1, 0(r2)
    sw r1, 4(r2)
    halt
  )");
  EXPECT_TRUE(assembled.ok());
  machine->LoadImage(assembled.value());
  machine->SetRecoveryCounter(1000);
  machine->SetRctrEnabled(true);
  machine->tlb().Insert(3, 0x3013, /*wired=*/true);
  machine->Run(4);  // Stop before HALT: mid-stream state.
  return machine;
}

TEST(Snapshot, MachineRoundTripIsByteIdentical) {
  auto original = BusyMachine();
  Snapshot first;
  SnapshotWriter w1(&first);
  original->CaptureState(w1, /*include_memory=*/true);

  Machine restored(TinyConfig());
  SnapshotReader r(first);
  ASSERT_TRUE(restored.RestoreState(r, /*include_memory=*/true));
  EXPECT_TRUE(r.AtEnd());

  Snapshot second;
  SnapshotWriter w2(&second);
  restored.CaptureState(w2, /*include_memory=*/true);
  EXPECT_EQ(first.bytes, second.bytes);
  EXPECT_EQ(original->Fingerprint(), restored.Fingerprint());
}

// A restored machine is not just byte-identical at rest: running both
// machines onward produces identical state — capture really is the complete
// execution context.
TEST(Snapshot, RestoredMachineExecutesIdentically) {
  auto original = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  original->CaptureState(w, /*include_memory=*/true);

  Machine restored(TinyConfig());
  SnapshotReader r(snap);
  ASSERT_TRUE(restored.RestoreState(r, /*include_memory=*/true));

  MachineExit a = original->Run(100);
  MachineExit b = restored.Run(100);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(original->cpu().pc, restored.cpu().pc);
  EXPECT_EQ(original->Fingerprint(), restored.Fingerprint());

  Snapshot sa;
  SnapshotWriter wa(&sa);
  original->CaptureState(wa, true);
  Snapshot sb;
  SnapshotWriter wb(&sb);
  restored.CaptureState(wb, true);
  EXPECT_EQ(sa.bytes, sb.bytes);
}

// A full-memory restore discards the image's all-zero pages instead of
// copying them: over a target whose every page was written, those pages must
// read zero again, and the restored machine must capture byte-identically.
TEST(Snapshot, MemoryRestoreZeroesTheImagesZeroPages) {
  auto original = BusyMachine();
  ASSERT_TRUE(original->memory().PageIsZero(1));
  ASSERT_TRUE(original->memory().PageIsZero(2));
  Snapshot first;
  SnapshotWriter w1(&first);
  original->CaptureState(w1, /*include_memory=*/true);

  Machine restored(TinyConfig());
  PhysicalMemory& memory = restored.memory();
  for (uint32_t addr = 0; addr < memory.size(); addr += 4) {
    memory.Write32(addr, 0xDEADBEEF);
  }
  SnapshotReader r(first);
  ASSERT_TRUE(restored.RestoreState(r, /*include_memory=*/true));
  EXPECT_TRUE(memory.PageIsZero(1));
  EXPECT_TRUE(memory.PageIsZero(2));

  Snapshot second;
  SnapshotWriter w2(&second);
  restored.CaptureState(w2, /*include_memory=*/true);
  EXPECT_EQ(first.bytes, second.bytes);
  EXPECT_EQ(original->Fingerprint(), restored.Fingerprint());
}

TEST(Snapshot, MachineRestoreRejectsMismatchedRamSize) {
  auto original = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  original->CaptureState(w, /*include_memory=*/true);

  MachineConfig bigger = TinyConfig();
  bigger.ram_bytes = 8 * kPageBytes;
  Machine restored(bigger);
  SnapshotReader r(snap);
  EXPECT_FALSE(restored.RestoreState(r, /*include_memory=*/true));
}

// Every strict prefix of a headered snapshot must be rejected — the same
// property the wire codec guarantees, extended to the snapshot decoder the
// state transfer relies on.
TEST(Snapshot, RestoreRejectsEveryTruncationAndTrailingBytes) {
  auto machine = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  WriteSnapshotHeader(w);
  machine->CaptureState(w, /*include_memory=*/true);

  for (size_t len = 0; len < snap.bytes.size(); ++len) {
    Snapshot prefix;
    prefix.bytes.assign(snap.bytes.begin(), snap.bytes.begin() + static_cast<ptrdiff_t>(len));
    SnapshotReader r(prefix);
    Machine target(TinyConfig());
    bool ok = ReadSnapshotHeader(r) && target.RestoreState(r, /*include_memory=*/true) &&
              r.AtEnd();
    EXPECT_FALSE(ok) << "accepted a " << len << "-byte prefix of " << snap.bytes.size();
  }

  Snapshot padded = snap;
  padded.bytes.push_back(0);
  SnapshotReader r(padded);
  Machine target(TinyConfig());
  EXPECT_TRUE(ReadSnapshotHeader(r) && target.RestoreState(r, /*include_memory=*/true));
  EXPECT_FALSE(r.AtEnd());  // Trailing garbage is visible and must be rejected.
}

TEST(Snapshot, RestoreRejectsNonCanonicalFlagBytes) {
  auto machine = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  machine->CaptureState(w, /*include_memory=*/true);

  // Layout: CPU (32 GPRs + 16 CRs + pc + instret = 204 bytes), then the TLB
  // slot count (4 bytes), then slot 0's `valid` flag byte.
  const size_t valid_flag_pos = 204 + 4;
  ASSERT_LE(snap.bytes[valid_flag_pos], 1u);
  snap.bytes[valid_flag_pos] = 2;
  SnapshotReader r(snap);
  Machine target(TinyConfig());
  EXPECT_FALSE(target.RestoreState(r, /*include_memory=*/true));
}

TEST(Snapshot, HeaderVersioningIsEnforced) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  WriteSnapshotHeader(w);
  {
    SnapshotReader r(snap);
    EXPECT_TRUE(ReadSnapshotHeader(r));
  }
  Snapshot wrong_magic = snap;
  wrong_magic.bytes[0] ^= 0xFF;
  {
    SnapshotReader r(wrong_magic);
    EXPECT_FALSE(ReadSnapshotHeader(r));
  }
  Snapshot wrong_version = snap;
  wrong_version.bytes[4] ^= 0xFF;
  {
    SnapshotReader r(wrong_version);
    EXPECT_FALSE(ReadSnapshotHeader(r));
  }
}

// Hypervisor-level round trip: virtual clock, timer, buffered interrupts
// (with DMA payloads), device register models, and the machine beneath.
TEST(Snapshot, HypervisorRoundTripIncludesBufferedInterruptsAndDevices) {
  MachineConfig machine_config = TinyConfig();
  HypervisorConfig hv_config;
  hv_config.epoch_length = 4096;
  Hypervisor original(machine_config, hv_config, CostModel{});
  original.BeginEpoch();
  original.SetClock(SimTime::Millis(7));
  VirtualInterrupt vi;
  vi.irq_line = kIrqDisk;
  vi.epoch = 3;
  IoCompletionPayload io;
  io.device_irq = kIrqDisk;
  io.guest_op_seq = 11;
  io.has_dma_data = true;
  io.dma_guest_paddr = 0x2000;
  io.dma_data.assign(64, 0x77);
  vi.io = io;
  original.BufferInterrupt(vi);

  Snapshot first;
  SnapshotWriter w1(&first);
  original.CaptureState(w1, /*include_memory=*/true);

  Hypervisor restored(machine_config, hv_config, CostModel{});
  SnapshotReader r(first);
  ASSERT_TRUE(restored.RestoreState(r, /*include_memory=*/true));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.clock(), original.clock());

  Snapshot second;
  SnapshotWriter w2(&second);
  restored.CaptureState(w2, /*include_memory=*/true);
  EXPECT_EQ(first.bytes, second.bytes);
}

// A registry snapshot only restores into an identically-shaped registry:
// device sets are hardware configuration, not transferable state.
TEST(Snapshot, RegistryRestoreRejectsShapeMismatch) {
  auto disk_console = CreateDefaultRegistry();
  Snapshot snap;
  SnapshotWriter w(&snap);
  disk_console->CaptureState(w);

  auto with_nic = CreateDefaultRegistry();
  with_nic->Add(std::make_unique<NicDevice>());
  SnapshotReader r(snap);
  EXPECT_FALSE(with_nic->RestoreState(r));
}

TEST(Snapshot, IoDescriptorCodecRoundTripsAndRejectsTruncation) {
  IoDescriptor io;
  io.device_id = DeviceId::kDisk;
  io.guest_op_seq = 42;
  io.opcode = 2;
  io.arg0 = 17;
  io.arg1 = 0x3000;
  io.payload = {1, 2, 3, 4, 5};

  Snapshot snap;
  SnapshotWriter w(&snap);
  CaptureIoDescriptor(w, io);
  {
    SnapshotReader r(snap);
    IoDescriptor decoded;
    ASSERT_TRUE(RestoreIoDescriptor(r, &decoded));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded.device_id, io.device_id);
    EXPECT_EQ(decoded.guest_op_seq, io.guest_op_seq);
    EXPECT_EQ(decoded.payload, io.payload);
  }
  for (size_t len = 0; len < snap.bytes.size(); ++len) {
    Snapshot prefix;
    prefix.bytes.assign(snap.bytes.begin(), snap.bytes.begin() + static_cast<ptrdiff_t>(len));
    SnapshotReader r(prefix);
    IoDescriptor decoded;
    EXPECT_FALSE(RestoreIoDescriptor(r, &decoded)) << "accepted prefix " << len;
  }
}

TEST(Snapshot, ReaderBoolRejectsNonCanonicalValues) {
  Snapshot snap;
  snap.bytes = {0, 1, 2};
  SnapshotReader r(snap);
  bool v = false;
  EXPECT_TRUE(r.Bool(&v));
  EXPECT_FALSE(v);
  EXPECT_TRUE(r.Bool(&v));
  EXPECT_TRUE(v);
  EXPECT_FALSE(r.Bool(&v));  // 2 is corruption, not "true".
}

}  // namespace
}  // namespace hbft
