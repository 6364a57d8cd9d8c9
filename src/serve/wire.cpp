#include "serve/wire.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/snapshot.hpp"

namespace hbft {
namespace serve {

std::vector<uint8_t> ClientFrame::Serialize() const {
  HBFT_CHECK_LE(payload.size(), kMaxRequestPayload);
  Snapshot body;
  SnapshotWriter w(&body);
  w.U8(type);
  w.U8(flags);
  w.U64(client_id);
  w.U64(seq);
  w.Blob(payload);
  return std::move(body.bytes);
}

std::optional<ClientFrame> ClientFrame::Deserialize(const std::vector<uint8_t>& bytes) {
  SnapshotReader r(bytes);
  ClientFrame frame;
  // The announced payload must account for every remaining byte: trailing
  // garbage and truncated payloads are both rejected.
  if (!r.U8(&frame.type) || !r.U8(&frame.flags) || !r.U64(&frame.client_id) ||
      !r.U64(&frame.seq) || !r.Blob(&frame.payload) || !r.AtEnd()) {
    return std::nullopt;
  }
  if (frame.type != kFrameRequest && frame.type != kFrameResponse) {
    return std::nullopt;
  }
  if ((frame.flags & ~kFlagResend) != 0) {
    return std::nullopt;  // Undefined flag bits: non-canonical.
  }
  if (frame.payload.size() > kMaxRequestPayload) {
    return std::nullopt;
  }
  return frame;
}

std::vector<uint8_t> FrameBytes(const std::vector<uint8_t>& body) {
  Snapshot framed;
  SnapshotWriter w(&framed);
  w.Blob(body);
  return std::move(framed.bytes);
}

std::vector<uint8_t> EncodeFrame(const ClientFrame& frame) { return FrameBytes(frame.Serialize()); }

void FrameReader::Feed(const uint8_t* data, size_t n) {
  if (corrupt_) {
    return;  // The stream lost framing; nothing after that is trustworthy.
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

std::optional<std::vector<uint8_t>> FrameReader::Next() {
  const std::vector<uint8_t> prefix(buffer_.begin(),
                                    buffer_.begin() + std::min<size_t>(buffer_.size(), 4));
  SnapshotReader r(prefix);
  uint32_t body_len = 0;
  if (corrupt_ || !r.U32(&body_len)) {
    return std::nullopt;
  }
  if (body_len > max_frame_bytes_) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (buffer_.size() < 4u + body_len) {
    return std::nullopt;  // Incomplete frame: held, never delivered.
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + 4);
  std::vector<uint8_t> body(buffer_.begin(), buffer_.begin() + body_len);
  buffer_.erase(buffer_.begin(), buffer_.begin() + body_len);
  return body;
}

std::vector<uint8_t> EncodeNicRequest(const NicRequest& request) {
  HBFT_CHECK_LE(request.payload.size(), kMaxRequestPayload);
  Snapshot packet;
  SnapshotWriter w(&packet);
  w.U8('S');
  w.U8('V');
  w.U64(request.client_id);
  w.U64(request.seq);
  packet.bytes.insert(packet.bytes.end(), request.payload.begin(), request.payload.end());
  return std::move(packet.bytes);
}

std::optional<NicRequest> DecodeNicPacket(const std::vector<uint8_t>& bytes) {
  if (bytes.size() > kNicRequestHeaderBytes + kMaxRequestPayload) {
    return std::nullopt;
  }
  SnapshotReader r(bytes);
  uint8_t magic[2] = {};
  NicRequest request;
  if (!r.U8(&magic[0]) || !r.U8(&magic[1]) || magic[0] != 'S' || magic[1] != 'V' ||
      !r.U64(&request.client_id) || !r.U64(&request.seq)) {
    return std::nullopt;
  }
  request.payload.assign(bytes.begin() + static_cast<ptrdiff_t>(r.position()), bytes.end());
  return request;
}

}  // namespace serve
}  // namespace hbft
