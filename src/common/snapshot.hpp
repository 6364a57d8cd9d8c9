// The repo's one canonical byte codec: the serialisation substrate behind
// the Snapshotable interface and the live state-transfer subsystem, and the
// codec every wire format is written in (protocol messages in
// net/message.cpp, client frames, the stream length prefix and the NIC
// request header in serve/wire.cpp, the fleet's request header and result
// fingerprint in fleet/).
//
// Every layer that owns mutable virtual-machine state (machine/, devices/,
// hypervisor/, core/) implements Snapshotable: CaptureState writes the
// layer's state as canonical little-endian bytes, RestoreState reads them
// back. The encoding is *canonical*: there is exactly one byte sequence for
// a given value — flag bytes are 0/1 only, lengths are explicit, and a
// top-level snapshot or wire message is rejected unless every byte is
// consumed. Canonicality is what makes "round-trip = byte-identical machine"
// a testable property: capture, restore into a fresh instance, capture
// again, and the two byte sequences must be equal.
//
// Snapshots are versioned through a fixed header (magic + version) written
// by WriteSnapshotHeader and checked by ReadSnapshotHeader, so a persisted
// or transferred snapshot from an incompatible build fails loudly instead of
// misparsing.
#ifndef HBFT_COMMON_SNAPSHOT_HPP_
#define HBFT_COMMON_SNAPSHOT_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hbft {

// The canonical byte image of some captured state.
struct Snapshot {
  std::vector<uint8_t> bytes;

  size_t size() const { return bytes.size(); }
};

inline constexpr uint32_t kSnapshotMagic = 0x4E534248;  // "HBSN", little-endian.
inline constexpr uint32_t kSnapshotVersion = 1;

// Appends fixed-width little-endian fields to a Snapshot.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(Snapshot* snapshot) : out_(&snapshot->bytes) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }

  // Length-prefixed byte string (u32 length + raw bytes).
  void Blob(const uint8_t* data, size_t len) {
    U32(static_cast<uint32_t>(len));
    out_->insert(out_->end(), data, data + len);
  }
  void Blob(const std::vector<uint8_t>& data) { Blob(data.data(), data.size()); }

 private:
  std::vector<uint8_t>* out_;
};

// Strict reader over a Snapshot: every getter bounds-checks, Bool rejects
// non-canonical flag bytes, and callers of a top-level decode must finish
// with AtEnd() — so truncation at any prefix and trailing garbage both fail.
class SnapshotReader {
 public:
  explicit SnapshotReader(const Snapshot& snapshot) : bytes_(snapshot.bytes) {}
  explicit SnapshotReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) {
      return false;
    }
    *v = bytes_[pos_++];
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t raw = 0;
    if (!U64(&raw)) {
      return false;
    }
    *v = static_cast<int64_t>(raw);
    return true;
  }
  // The encoder only ever emits 0 or 1; anything else is corruption, and
  // accepting it would re-serialise differently (a silent misparse).
  bool Bool(bool* v) {
    uint8_t raw = 0;
    if (!U8(&raw) || raw > 1) {
      return false;
    }
    *v = raw != 0;
    return true;
  }
  bool Blob(std::vector<uint8_t>* out) {
    uint32_t len = 0;
    if (!U32(&len) || pos_ + len > bytes_.size()) {
      return false;
    }
    out->assign(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                bytes_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t position() const { return pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

// The uniform capture/restore interface every stateful layer implements.
// RestoreState returns false on malformed or incompatible input (truncation,
// non-canonical flags, size/shape mismatch against the live instance); the
// instance may be partially overwritten in that case and must be discarded.
class Snapshotable {
 public:
  virtual ~Snapshotable() = default;

  virtual void CaptureState(SnapshotWriter& w) const = 0;
  virtual bool RestoreState(SnapshotReader& r) = 0;
};

inline void WriteSnapshotHeader(SnapshotWriter& w) {
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);
}

inline bool ReadSnapshotHeader(SnapshotReader& r) {
  uint32_t magic = 0;
  uint32_t version = 0;
  return r.U32(&magic) && r.U32(&version) && magic == kSnapshotMagic &&
         version == kSnapshotVersion;
}

}  // namespace hbft

#endif  // HBFT_COMMON_SNAPSHOT_HPP_
