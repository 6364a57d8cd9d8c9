// Fixture: codec-symmetry rule. A symmetric Serialize/Deserialize pair whose
// writer is a local declared over a buffer named `out`. Declaring a local
// writer or reader is not a codec step, so this pair lints clean.
#include <cstdint>
#include <optional>
#include <vector>

namespace fixture {

struct Snapshot {
  std::vector<uint8_t> bytes;
};
class SnapshotWriter;
class SnapshotReader;

struct Header {
  uint32_t kind = 0;
  uint64_t id = 0;
  std::vector<uint8_t> body;

  std::vector<uint8_t> Serialize() const {
    Snapshot out;
    SnapshotWriter w(&out);
    w.U32(kind);
    w.U64(id);
    w.Blob(body);
    return out.bytes;
  }

  static std::optional<Header> Deserialize(const std::vector<uint8_t>& bytes) {
    SnapshotReader r(bytes);
    Header header;
    if (!r.U32(&header.kind) || !r.U64(&header.id) || !r.Blob(&header.body) || !r.AtEnd()) {
      return std::nullopt;
    }
    return header;
  }
};

}  // namespace fixture
