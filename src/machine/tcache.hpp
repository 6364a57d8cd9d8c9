// Predecoded-superblock translation cache for the cached interpreter.
//
// A superblock is a straight-line run of predecoded instructions starting at
// a dispatch PC and ending at the first control transfer / system instruction
// (OpTraits::ends_superblock), page boundary, idle-loop boundary, or
// undecodable word. Blocks are keyed by (entry vaddr, entry paddr) and carry
// the code page's version counter at build time: a guest write to the page
// bumps the version (PhysicalMemory::PageVersion) and the next dispatch
// rebuilds the block from current bytes, so self-modifying code executes
// exactly as the fetch-every-instruction slow path would.
//
// The cache is pure derived state — rebuildable from memory at any time — so
// it is never serialised; Machine invalidates it after a snapshot restore.
#ifndef HBFT_MACHINE_TCACHE_HPP_
#define HBFT_MACHINE_TCACHE_HPP_

#include <cstdint>
#include <vector>

#include "isa/isa.hpp"
#include "machine/memory.hpp"

namespace hbft {

// One predecoded instruction: the decoded fields plus everything the dispatch
// loop would otherwise recompute per execution (the immediate as the execute
// stage consumes it, static branch targets, and the memory-access class).
struct PredecodedInstr {
  DecodedInstr instr;
  uint32_t imm_u = 0;      // static_cast<uint32_t>(instr.imm).
  uint32_t target = 0;     // pc + 4 + imm*4 for B/J formats.
  uint8_t mem_bytes = 0;   // Access width; 0 = not a memory instruction.
  bool mem_store = false;
  bool mem_physical = false;  // LWP/SWP: privileged physical window.
  bool privileged = false;
};

struct Superblock {
  bool valid = false;
  uint32_t entry_vaddr = 0;
  uint32_t entry_paddr = 0;
  uint32_t page = 0;     // entry_paddr >> kPageShift.
  uint32_t version = 0;  // Code page version at build time.
  std::vector<PredecodedInstr> code;
};

// Direct-mapped block cache: a (vaddr, paddr) key always hashes to the same
// slot, so a stale block is found — and its slot reclaimed — by the very
// dispatch that would have executed it.
class TranslationCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;       // No block for the key (cold or evicted).
    uint64_t stale = 0;        // Key present but the code page was written.
    uint64_t evictions = 0;    // A different key displaced a live block.
    uint64_t builds = 0;
    uint64_t flushes = 0;      // InvalidateAll calls.
  };

  // `slots` is rounded up to a power of two (minimum 1).
  explicit TranslationCache(uint32_t slots);

  // The valid block for the key at `page_version`, or nullptr (miss or
  // stale; a stale block is invalidated so the caller rebuilds in place).
  // Runs once per dispatched block, so it is forced inline into the loop.
  [[gnu::always_inline]] Superblock* Find(uint32_t vaddr, uint32_t paddr, uint32_t page_version) {
    Superblock& slot = slots_[SlotIndex(vaddr, paddr)];
    if (!slot.valid || slot.entry_vaddr != vaddr || slot.entry_paddr != paddr) {
      ++stats_.misses;
      return nullptr;
    }
    if (slot.version != page_version) {
      ++stats_.stale;
      slot.valid = false;
      return nullptr;
    }
    ++stats_.hits;
    return &slot;
  }

  // The slot a rebuilt block for the key goes into, cleared and re-keyed
  // (counts the eviction if it displaces a live different-key block). The
  // caller fills it via BuildSuperblock.
  Superblock* Claim(uint32_t vaddr, uint32_t paddr);

  void InvalidateAll();

  const Stats& stats() const { return stats_; }
  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }

 private:
  size_t SlotIndex(uint32_t vaddr, uint32_t paddr) const {
    // Entry addresses are word-aligned; drop the zero bits. Identity-mapped
    // PCs (vaddr == paddr: all kernel code) must still spread over every
    // slot, so both halves go through one multiply and the product's middle
    // bits index.
    uint64_t key = (static_cast<uint64_t>(vaddr >> 2) << 32) | (paddr >> 2);
    uint64_t h = (key * 0x9E3779B97F4A7C15ULL) >> 32;
    return static_cast<size_t>(h & (slots_.size() - 1));
  }

  std::vector<Superblock> slots_;
  Stats stats_;
};

// Predecodes the superblock starting at (vaddr, paddr) from physical memory.
// When `clip` is set, `clip_lo`/`clip_hi` (the configured idle-loop bounds)
// never appear as interior PCs — blocks stop just before them — so every
// sequential arrival at an idle boundary is a dispatch point and the cached
// idle-loop dynamics match the slow path's per-instruction checks exactly.
// Leaves `out->valid == false` when the entry word itself is undecodable.
void BuildSuperblock(const PhysicalMemory& memory, uint32_t vaddr, uint32_t paddr, bool clip,
                     uint32_t clip_lo, uint32_t clip_hi, Superblock* out);

}  // namespace hbft

#endif  // HBFT_MACHINE_TCACHE_HPP_
