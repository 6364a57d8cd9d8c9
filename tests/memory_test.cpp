// Physical memory tests: endianness, bounds, bulk copies, the incremental
// fingerprint, the page versions a state-transfer source reads, ZeroPages,
// and the host footprint of demand-zero RAM.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <vector>

#include "core/state_transfer.hpp"
#include "machine/memory.hpp"

namespace hbft {
namespace {

// Sanitizer shadow memory swamps RSS, so the footprint assertions (only
// those) are skipped in sanitized builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCheckRss = false;
#else
constexpr bool kCheckRss = true;
#endif

constexpr uint32_t kRamBytes = 4 * 1024 * 1024;
constexpr int64_t kMiB = 1024 * 1024;

// Resident set size in bytes: the second field of /proc/self/statm, in pages.
int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t total_pages = 0;
  int64_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  EXPECT_TRUE(statm.good()) << "cannot read /proc/self/statm";
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(Memory, LittleEndianAccessors) {
  PhysicalMemory memory(64 * 1024);
  memory.Write32(0x100, 0x11223344);
  EXPECT_EQ(memory.Read8(0x100), 0x44);
  EXPECT_EQ(memory.Read8(0x103), 0x11);
  EXPECT_EQ(memory.Read16(0x100), 0x3344);
  EXPECT_EQ(memory.Read16(0x102), 0x1122);
  EXPECT_EQ(memory.Read32(0x100), 0x11223344u);
  memory.Write16(0x200, 0xBEEF);
  EXPECT_EQ(memory.Read8(0x200), 0xEF);
  EXPECT_EQ(memory.Read8(0x201), 0xBE);
}

TEST(Memory, ContainsBoundsChecks) {
  PhysicalMemory memory(8192);
  EXPECT_TRUE(memory.Contains(0, 1));
  EXPECT_TRUE(memory.Contains(8188, 4));
  EXPECT_FALSE(memory.Contains(8189, 4));
  EXPECT_FALSE(memory.Contains(8192, 1));
  EXPECT_FALSE(memory.Contains(0xFFFFFFFF, 4));  // Overflow-safe.
}

TEST(Memory, BlockCopies) {
  PhysicalMemory memory(64 * 1024);
  std::vector<uint8_t> data(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  memory.WriteBlock(0xF00, data.data(), static_cast<uint32_t>(data.size()));
  std::vector<uint8_t> out(300);
  memory.ReadBlock(0xF00, out.data(), static_cast<uint32_t>(out.size()));
  EXPECT_EQ(data, out);
}

TEST(MemoryFingerprint, StableAndIncremental) {
  PhysicalMemory a(64 * 1024);
  PhysicalMemory b(64 * 1024);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  a.Write32(0x1234, 99);
  uint64_t after_write = a.Fingerprint();
  EXPECT_NE(after_write, b.Fingerprint());

  b.Write32(0x1234, 99);
  EXPECT_EQ(after_write, b.Fingerprint());

  // Reverting the write restores the original fingerprint (XOR page scheme).
  a.Write32(0x1234, 0);
  EXPECT_EQ(a.Fingerprint(), PhysicalMemory(64 * 1024).Fingerprint());
}

TEST(MemoryFingerprint, DistinguishesPagePositions) {
  // Identical page contents at different addresses must fingerprint
  // differently (page index is hashed in).
  PhysicalMemory a(64 * 1024);
  PhysicalMemory b(64 * 1024);
  a.Write32(0x0000, 7);
  b.Write32(0x1000, 7);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(MemoryFingerprint, CheapWhenClean) {
  PhysicalMemory memory(4 * 1024 * 1024);
  memory.Fingerprint();
  // A second call with no writes touches no pages; just verify stability.
  EXPECT_EQ(memory.Fingerprint(), memory.Fingerprint());
}

// The fingerprint re-hashes only pages whose version moved, so one taken
// once after many writes must equal one kept up to date after every write.
TEST(MemoryFingerprint, LazyFirstCallMatchesATwinFingerprintedAfterEveryWrite) {
  PhysicalMemory lazy(16 * kPageBytes);
  PhysicalMemory eager(16 * kPageBytes);
  eager.Fingerprint();
  const std::vector<uint8_t> block(kPageBytes + 64, 0x5A);
  auto write_both = [&](auto&& write) {
    write(lazy);
    write(eager);
    eager.Fingerprint();
  };
  write_both([](PhysicalMemory& m) { m.Write32(3 * kPageBytes + 8, 0xDEADBEEF); });
  write_both([](PhysicalMemory& m) { m.Write8(3 * kPageBytes + 9, 0x11); });
  write_both([](PhysicalMemory& m) { m.Write16(9 * kPageBytes, 0xCAFE); });
  write_both([&](PhysicalMemory& m) {
    m.WriteBlock(5 * kPageBytes - 32, block.data(), static_cast<uint32_t>(block.size()));
  });
  write_both([](PhysicalMemory& m) { m.ZeroPages(9, 2); });
  write_both([](PhysicalMemory& m) { m.Write32(15 * kPageBytes + 4, 7); });
  EXPECT_EQ(lazy.Fingerprint(), eager.Fingerprint());
  EXPECT_NE(lazy.Fingerprint(), PhysicalMemory(16 * kPageBytes).Fingerprint());
}

// A state-transfer source reads "written since my last look" from the page
// versions: each written page once, ascending, however often it was written.
TEST(MemoryPageVersions, TransferSourceTakesEachWrittenPageOnceAscending) {
  PhysicalMemory memory(16 * kPageBytes);
  StateTransferSource source(memory, StateTransferConfig{});
  const std::vector<uint8_t> block(kPageBytes, 0x42);
  memory.Write32(12 * kPageBytes, 1);
  memory.Write32(12 * kPageBytes + 4, 2);  // The same page twice.
  memory.WriteBlock(2 * kPageBytes + 100, block.data(),
                    static_cast<uint32_t>(block.size()));  // Spans pages 2 and 3.
  memory.ZeroPages(7, 3);
  memory.Fingerprint();  // Another reader looking in between changes nothing.
  EXPECT_EQ(source.TakeWrittenPages(memory), (std::vector<uint32_t>{2, 3, 7, 8, 9, 12}));
  EXPECT_TRUE(source.TakeWrittenPages(memory).empty());
  memory.Write8(0, 1);
  EXPECT_EQ(source.TakeWrittenPages(memory), (std::vector<uint32_t>{0}));
}

TEST(MemoryDeathTest, OverrunFaultsOnTheGuardPage) {
  PhysicalMemory memory(2 * kPageBytes);
  memory.Write8(memory.size() - 1, 1);
  EXPECT_DEATH(memory.Write8(memory.size(), 1), "");
}

TEST(MemoryZeroPages, ZeroesTheRangeWithWriteBookkeeping) {
  PhysicalMemory memory(16 * kPageBytes);
  for (uint32_t page = 0; page < memory.PageCount(); ++page) {
    memory.Write32(page * kPageBytes + 12, page + 1);
  }
  uint64_t written = memory.Fingerprint();
  StateTransferSource source(memory, StateTransferConfig{});
  uint32_t version = memory.PageVersion(5);

  memory.ZeroPages(5, 2);
  EXPECT_EQ(memory.Read32(4 * kPageBytes + 12), 5u);
  EXPECT_TRUE(memory.PageIsZero(5));
  EXPECT_TRUE(memory.PageIsZero(6));
  EXPECT_EQ(memory.Read32(7 * kPageBytes + 12), 8u);
  EXPECT_EQ(memory.PageVersion(5), version + 1);
  EXPECT_EQ(source.TakeWrittenPages(memory), (std::vector<uint32_t>{5, 6}));
  EXPECT_NE(memory.Fingerprint(), written);  // Version moved, so rehashed.
}

TEST(MemoryFootprint, UntouchedPagesCostNoHostMemory) {
  int64_t before = ResidentBytes();
  std::vector<std::unique_ptr<PhysicalMemory>> memories;
  for (uint32_t i = 0; i < 64; ++i) {
    memories.push_back(std::make_unique<PhysicalMemory>(kRamBytes));
    memories.back()->Write32(0x1000, i + 1);
  }
  if (kCheckRss) {
    // 256 MB of configured RAM; each memory commits one page.
    EXPECT_LT(ResidentBytes() - before, 16 * kMiB);
  }
  for (uint32_t i = 0; i < memories.size(); ++i) {
    EXPECT_EQ(memories[i]->Read32(0x1000), i + 1);
    EXPECT_EQ(memories[i]->Read32(kRamBytes - 4), 0u);
  }
}

TEST(MemoryFootprint, ZeroPagesGivesWrittenPagesBack) {
  PhysicalMemory memory(kRamBytes);
  int64_t before = ResidentBytes();
  for (uint32_t page = 0; page < memory.PageCount(); ++page) {
    memory.Write32(page * kPageBytes, page + 1);
  }
  if (kCheckRss) {
    // The writes commit all of RAM, so the probe can see it handed back.
    EXPECT_GT(ResidentBytes() - before, int64_t{kRamBytes} - kMiB);
  }
  std::vector<uint32_t> versions;
  for (uint32_t page = 0; page < memory.PageCount(); ++page) {
    versions.push_back(memory.PageVersion(page));
  }

  memory.ZeroPages(0, memory.PageCount());
  if (kCheckRss) {
    EXPECT_LT(ResidentBytes() - before, kMiB);
  }
  uint32_t not_zeroed = 0;
  uint32_t not_bumped = 0;
  for (uint32_t page = 0; page < memory.PageCount(); ++page) {
    not_zeroed += memory.PageIsZero(page) ? 0 : 1;
    not_bumped += memory.PageVersion(page) > versions[page] ? 0 : 1;
  }
  EXPECT_EQ(not_zeroed, 0u);
  EXPECT_EQ(not_bumped, 0u);
  EXPECT_EQ(memory.Fingerprint(), PhysicalMemory(kRamBytes).Fingerprint());
}

}  // namespace
}  // namespace hbft
