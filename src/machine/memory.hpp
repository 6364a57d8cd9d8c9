// Physical memory with per-page dirty tracking and incremental fingerprinting.
//
// RAM is one private, anonymous, demand-zero host mapping. The host commits a
// page only when something first writes it (a guest store, a loader, DMA, a
// state-transfer chunk), so a replica's resident memory tracks the pages its
// guest touches, not the configured RAM size. Bulk zeroing never writes
// zeroes: ZeroPages hands the pages back to the host, and they read as zero
// again. The mapping opts out of transparent huge pages (a first write must
// not commit 2 MB), and a PROT_NONE guard page past the last byte makes an
// overrun fault. Guest pages must be whole host pages; the constructor checks.
//
// Replica-coordination tests need a state fingerprint at every epoch boundary;
// rehashing all of RAM each epoch would dominate runtime, so memory keeps one
// FNV hash per page, re-hashes only pages dirtied since the last fingerprint,
// and combines page hashes with XOR (order-independent, incrementally
// updatable).
#ifndef HBFT_MACHINE_MEMORY_HPP_
#define HBFT_MACHINE_MEMORY_HPP_

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "isa/isa.hpp"

namespace hbft {

class PhysicalMemory : public Snapshotable {
 public:
  explicit PhysicalMemory(uint32_t bytes);
  ~PhysicalMemory() override;
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint32_t size() const { return size_; }
  bool Contains(uint32_t paddr, uint32_t access_bytes) const {
    return paddr + access_bytes <= size() && paddr + access_bytes >= paddr;
  }

  // Raw accessors; callers must bounds-check via Contains. Little-endian.
  uint8_t Read8(uint32_t paddr) const { return bytes_[paddr]; }
  uint16_t Read16(uint32_t paddr) const {
    return static_cast<uint16_t>(bytes_[paddr] | (bytes_[paddr + 1] << 8));
  }
  uint32_t Read32(uint32_t paddr) const {
    return static_cast<uint32_t>(bytes_[paddr]) | (static_cast<uint32_t>(bytes_[paddr + 1]) << 8) |
           (static_cast<uint32_t>(bytes_[paddr + 2]) << 16) |
           (static_cast<uint32_t>(bytes_[paddr + 3]) << 24);
  }
  void Write8(uint32_t paddr, uint8_t value) {
    bytes_[paddr] = value;
    MarkPageWritten(paddr >> kPageShift);
  }
  void Write16(uint32_t paddr, uint16_t value) {
    bytes_[paddr] = static_cast<uint8_t>(value);
    bytes_[paddr + 1] = static_cast<uint8_t>(value >> 8);
    MarkPageWritten(paddr >> kPageShift);
  }
  void Write32(uint32_t paddr, uint32_t value) {
    bytes_[paddr] = static_cast<uint8_t>(value);
    bytes_[paddr + 1] = static_cast<uint8_t>(value >> 8);
    bytes_[paddr + 2] = static_cast<uint8_t>(value >> 16);
    bytes_[paddr + 3] = static_cast<uint8_t>(value >> 24);
    MarkPageWritten(paddr >> kPageShift);
  }

  // Bulk copy used by loaders and (virtualised) DMA. Marks pages dirty.
  void WriteBlock(uint32_t paddr, const uint8_t* data, uint32_t len);
  void ReadBlock(uint32_t paddr, uint8_t* out, uint32_t len) const;

  // XOR-combined per-page FNV fingerprint of all of RAM. Amortised cost is
  // proportional to pages dirtied since the previous call.
  uint64_t Fingerprint();

  // --- Page view (state transfer) -------------------------------------------

  uint32_t PageCount() const { return static_cast<uint32_t>(dirty_.size()); }
  bool PageIsZero(uint32_t page) const;

  // Monotonic per-page write counter, bumped by every mutation of the page
  // (stores, WriteBlock/DMA, ZeroPages, snapshot restore). The translation
  // cache keys predecoded superblocks on it so guest writes to code pages
  // invalidate stale blocks. Derived bookkeeping: never serialised.
  uint32_t PageVersion(uint32_t page) const { return versions_[page]; }

  // Zeroes pages [first, first + count) by returning them to the host, with
  // the same dirty, version and transfer-dirty bookkeeping as a write. Every
  // bulk zero goes through here: a joiner's wipe, an applied zero-run chunk,
  // and the all-zero runs of a restored image.
  void ZeroPages(uint32_t first, uint32_t count);

  // --- Transfer dirty tracking ----------------------------------------------
  // A second dirty channel, independent of the fingerprint's (which clears
  // its flags on every Fingerprint call): the state-transfer source needs
  // "pages dirtied since my last delta round" regardless of who fingerprints
  // in between. Only one tracker exists per memory; Begin resets it.

  void BeginTransferTracking();
  void EndTransferTracking();
  bool transfer_tracking() const { return transfer_tracking_; }
  // All pages dirtied since the previous call (or since Begin), ascending.
  std::vector<uint32_t> TakeTransferDirtyPages();

  // --- Snapshotable ----------------------------------------------------------
  // Canonical image: u32 byte size + raw contents. Restore requires the
  // identical size (RAM is hardware; a snapshot never resizes it).
  void CaptureState(SnapshotWriter& w) const override;
  bool RestoreState(SnapshotReader& r) override;

 private:
  void MarkPageWritten(uint32_t page) {
    dirty_[page] = 1;
    ++versions_[page];
    if (transfer_tracking_) {
      transfer_dirty_[page] = 1;
    }
  }

  uint8_t* bytes_ = nullptr;  // The mapping; a guard page follows its last byte.
  uint32_t size_ = 0;
  // Per-page bookkeeping below is never serialised: a restore rewrites every
  // page through WriteBlock or ZeroPages, and those mark it.
  // hbft-lint: derived-state — per-page dirty flags for Fingerprint.
  std::vector<uint8_t> dirty_;
  // hbft-lint: derived-state — per-page write counters (see PageVersion).
  std::vector<uint32_t> versions_;
  // hbft-lint: derived-state — hash cache, rebuilt lazily from bytes_/versions_.
  std::vector<uint64_t> page_hashes_; // Cached per-page hashes.
  uint64_t combined_ = 0;  // hbft-lint: derived-state — see page_hashes_ above.
  bool transfer_tracking_ = false;
  // hbft-lint: derived-state — the transfer source's delta-round flags.
  std::vector<uint8_t> transfer_dirty_;
};

}  // namespace hbft

#endif  // HBFT_MACHINE_MEMORY_HPP_
