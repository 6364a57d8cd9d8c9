#include "machine/tcache.hpp"

namespace hbft {

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

TranslationCache::TranslationCache(uint32_t slots) {
  slots_.resize(RoundUpPow2(slots == 0 ? 1 : slots));
}

Superblock* TranslationCache::Claim(uint32_t vaddr, uint32_t paddr) {
  Superblock& slot = slots_[SlotIndex(vaddr, paddr)];
  if (slot.valid && (slot.entry_vaddr != vaddr || slot.entry_paddr != paddr)) {
    ++stats_.evictions;
  }
  slot.valid = false;
  slot.entry_vaddr = vaddr;
  slot.entry_paddr = paddr;
  slot.code.clear();
  ++stats_.builds;
  return &slot;
}

void TranslationCache::InvalidateAll() {
  for (Superblock& slot : slots_) {
    slot.valid = false;
    slot.code.clear();
    slot.code.shrink_to_fit();
  }
  ++stats_.flushes;
}

void BuildSuperblock(const PhysicalMemory& memory, uint32_t vaddr, uint32_t paddr, bool clip,
                     uint32_t clip_lo, uint32_t clip_hi, Superblock* out) {
  out->page = paddr >> kPageShift;
  out->version = memory.PageVersion(out->page);
  out->code.clear();
  const uint32_t page_end = (paddr & ~(kPageBytes - 1)) + kPageBytes;
  uint32_t v = vaddr;
  uint32_t p = paddr;
  while (p < page_end) {
    if (clip && v != vaddr && (v == clip_lo || v == clip_hi)) {
      break;
    }
    const uint32_t word = memory.Read32(p);
    const OpTraits& traits = TraitsFor(static_cast<uint8_t>(word >> 26));
    if (!traits.valid) {
      break;  // The undecodable word traps at its own dispatch.
    }
    PredecodedInstr pi;
    pi.instr = *Decode(word);
    pi.imm_u = static_cast<uint32_t>(pi.instr.imm);
    pi.privileged = traits.privileged;
    switch (pi.instr.op) {
      case Opcode::kLw:
      case Opcode::kLwp:
      case Opcode::kSw:
      case Opcode::kSwp:
        pi.mem_bytes = 4;
        break;
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kSh:
        pi.mem_bytes = 2;
        break;
      case Opcode::kLb:
      case Opcode::kLbu:
      case Opcode::kSb:
        pi.mem_bytes = 1;
        break;
      default:
        break;
    }
    pi.mem_store = pi.instr.op == Opcode::kSw || pi.instr.op == Opcode::kSh ||
                   pi.instr.op == Opcode::kSb || pi.instr.op == Opcode::kSwp;
    pi.mem_physical = pi.instr.op == Opcode::kLwp || pi.instr.op == Opcode::kSwp;
    if (traits.format == InstrFormat::kB || traits.format == InstrFormat::kJ) {
      pi.target = v + 4 + pi.imm_u * 4;
    }
    out->code.push_back(pi);
    if (traits.ends_superblock) {
      break;
    }
    v += 4;
    p += 4;
  }
  out->valid = !out->code.empty();
}

}  // namespace hbft
