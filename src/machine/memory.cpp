#include "machine/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace hbft {

namespace {

size_t HostPageBytes() {
  static const size_t bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

// Word-wide zero test: a byte loop here doubles the cost of a full restore.
bool IsAllZero(const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; i += sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, sizeof(word));
    if (word != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

PhysicalMemory::PhysicalMemory(uint32_t bytes) : size_(bytes) {
  HBFT_CHECK_GT(bytes, 0u);
  HBFT_CHECK_EQ(bytes % kPageBytes, 0u);
  // MADV_DONTNEED and the guard page work on whole host pages.
  HBFT_CHECK_EQ(kPageBytes % HostPageBytes(), 0u)
      << "host pages of " << HostPageBytes() << " bytes are larger than a guest page";
  void* base = mmap(nullptr, size_t{bytes} + HostPageBytes(), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  HBFT_CHECK(base != MAP_FAILED) << "cannot map " << bytes << " bytes of guest RAM";
  bytes_ = static_cast<uint8_t*>(base);
  HBFT_CHECK_EQ(mprotect(bytes_ + bytes, HostPageBytes(), PROT_NONE), 0);
  // A kernel without transparent huge pages rejects the advice, and then
  // there is nothing to opt out of.
  madvise(bytes_, bytes, MADV_NOHUGEPAGE);
  versions_.assign(bytes / kPageBytes, 0);
}

PhysicalMemory::~PhysicalMemory() { munmap(bytes_, size_t{size_} + HostPageBytes()); }

void PhysicalMemory::WriteBlock(uint32_t paddr, const uint8_t* data, uint32_t len) {
  HBFT_CHECK(Contains(paddr, len)) << "WriteBlock out of range paddr=" << paddr << " len=" << len;
  std::memcpy(bytes_ + paddr, data, len);
  for (uint32_t page = paddr >> kPageShift; page <= ((paddr + len - 1) >> kPageShift); ++page) {
    MarkPageWritten(page);
  }
}

void PhysicalMemory::ReadBlock(uint32_t paddr, uint8_t* out, uint32_t len) const {
  HBFT_CHECK(Contains(paddr, len)) << "ReadBlock out of range paddr=" << paddr << " len=" << len;
  std::memcpy(out, bytes_ + paddr, len);
}

uint64_t PhysicalMemory::Fingerprint() {
  const bool first = page_hashes_.empty();
  if (first) {
    page_hashes_.assign(PageCount(), 0);
    hashed_versions_.assign(PageCount(), 0);
  }
  for (uint32_t page = 0; page < PageCount(); ++page) {
    if (!first && hashed_versions_[page] == versions_[page]) {
      continue;
    }
    hashed_versions_[page] = versions_[page];
    Fnv1aHasher hasher;
    hasher.UpdateU32(page);
    hasher.Update(bytes_ + static_cast<size_t>(page) * kPageBytes, kPageBytes);
    uint64_t fresh = hasher.digest();
    combined_ ^= page_hashes_[page];
    combined_ ^= fresh;
    page_hashes_[page] = fresh;
  }
  return combined_;
}

bool PhysicalMemory::PageIsZero(uint32_t page) const {
  return IsAllZero(bytes_ + static_cast<size_t>(page) * kPageBytes, kPageBytes);
}

void PhysicalMemory::ZeroPages(uint32_t first, uint32_t count) {
  HBFT_CHECK(first <= PageCount() && count <= PageCount() - first)
      << "ZeroPages out of range first=" << first << " count=" << count;
  // A private anonymous page reads as zero again once discarded.
  HBFT_CHECK_EQ(madvise(bytes_ + static_cast<size_t>(first) * kPageBytes,
                        static_cast<size_t>(count) * kPageBytes, MADV_DONTNEED),
                0);
  for (uint32_t page = first; page < first + count; ++page) {
    MarkPageWritten(page);
  }
}

void PhysicalMemory::CaptureState(SnapshotWriter& w) const {
  w.Blob(bytes_, size_);
}

bool PhysicalMemory::RestoreState(SnapshotReader& r) {
  std::vector<uint8_t> incoming;
  if (!r.Blob(&incoming) || incoming.size() != size_) {
    return false;
  }
  // Copy the image's non-zero pages and discard each run of zero pages with
  // one call, so a restore commits only the image's working set. Every page
  // counts as rewritten either way, so stale superblocks rebuild.
  uint32_t page = 0;
  while (page < PageCount()) {
    const uint8_t* image = incoming.data() + static_cast<size_t>(page) * kPageBytes;
    uint32_t run = 0;
    while (page + run < PageCount() &&
           IsAllZero(image + static_cast<size_t>(run) * kPageBytes, kPageBytes)) {
      ++run;
    }
    if (run > 0) {
      ZeroPages(page, run);
      page += run;
    } else {
      WriteBlock(page * kPageBytes, image, kPageBytes);
      ++page;
    }
  }
  return true;
}

}  // namespace hbft
