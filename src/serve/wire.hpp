// Client-facing wire protocol for `hbft_cli serve`, plus the shared
// length-prefix framing used on both real TCP byte streams (client
// connections and the inter-replica replication link).
//
// Every format here is written with the canonical snapshot codec
// (common/snapshot.hpp's SnapshotWriter/SnapshotReader, as net/message is):
// little-endian fixed-width fields, explicit lengths, exactly one encoding
// per value. Deserialize rejects every non-canonical byte string — unknown
// frame types, undefined flag bits, a payload length that disagrees with the
// frame size — so a fuzzer can assert "parses or is rejected, never
// misreads".
//
// Frame layout on the stream (everything little-endian):
//   u32  body_len                  (framing prefix, not part of the body:
//                                  the body written as one Blob)
//   u8   type                      kFrameRequest | kFrameResponse
//   u8   flags                     bit 0 = resend (client retry after
//                                  reconnect); all other bits must be zero
//   u64  client_id
//   u64  seq                       per-client request sequence number
//   u32  payload_len               (payload_len + payload: one Blob)
//   u8[] payload
//
// Truncation semantics: a byte stream that ends mid-frame (peer death between
// partial TCP writes) leaves a prefix the FrameReader simply holds and never
// delivers — the mirror of Channel::Break pruning frames whose serialisation
// had not finished at the crash. A partial frame is NOT an error; it is a
// frame that was never sent.
#ifndef HBFT_SERVE_WIRE_HPP_
#define HBFT_SERVE_WIRE_HPP_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace hbft {
namespace serve {

inline constexpr uint8_t kFrameRequest = 1;
inline constexpr uint8_t kFrameResponse = 2;
inline constexpr uint8_t kFlagResend = 0x01;

// type + flags + client_id + seq + payload_len.
inline constexpr size_t kClientFrameHeaderBytes = 1 + 1 + 8 + 8 + 4;

// NIC packets carry a 18-byte header ("SV" + client_id + seq) ahead of the
// payload, and the device caps packets at kNicMaxPacketBytes (256).
inline constexpr size_t kNicRequestHeaderBytes = 2 + 8 + 8;
inline constexpr size_t kMaxRequestPayload = 256 - kNicRequestHeaderBytes;

// Upper bound for a client frame body; anything larger is a protocol error
// and poisons the stream (FrameReader refuses to resynchronise on garbage).
inline constexpr uint32_t kMaxClientFrameBytes =
    static_cast<uint32_t>(kClientFrameHeaderBytes + kMaxRequestPayload);

// Replication frames carry serialized net/Message values; state chunks can
// hold a control snapshot, so the cap is generous.
inline constexpr uint32_t kMaxReplFrameBytes = 16u * 1024 * 1024;

struct ClientFrame {
  uint8_t type = kFrameRequest;
  uint8_t flags = 0;
  uint64_t client_id = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;

  bool operator==(const ClientFrame&) const = default;

  // Canonical body bytes (no length prefix).
  std::vector<uint8_t> Serialize() const;

  // Strict inverse: nullopt for every byte string Serialize cannot produce.
  static std::optional<ClientFrame> Deserialize(const std::vector<uint8_t>& bytes);
};

// Prepends the u32 length prefix: the bytes to write to the stream.
std::vector<uint8_t> EncodeFrame(const ClientFrame& frame);
std::vector<uint8_t> FrameBytes(const std::vector<uint8_t>& body);

// Incremental length-prefix dissector for a TCP byte stream. Feed whatever
// read() returned; Next() pops complete frame bodies in order. An announced
// length above the cap marks the stream corrupt (framing desync is
// unrecoverable — the connection must be dropped). Bytes of a frame whose
// prefix or body never completed are held, reported by BufferedBytes(), and
// never delivered: the socket-transport analogue of a mid-serialisation
// Channel::Break truncation.
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_frame_bytes) : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const uint8_t* data, size_t n);
  std::optional<std::vector<uint8_t>> Next();

  bool corrupt() const { return corrupt_; }
  // Bytes of an incomplete trailing frame (diagnostic: at EOF these are the
  // truncated-write residue that must not become a phantom frame).
  size_t BufferedBytes() const { return buffer_.size(); }

 private:
  uint32_t max_frame_bytes_ = 0;
  std::deque<uint8_t> buffer_;
  bool corrupt_ = false;
};

// The request as it rides the NIC device: "SV" magic + client_id + seq +
// payload, echoed verbatim by the guest so responses route back by content.
struct NicRequest {
  uint64_t client_id = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;

  bool operator==(const NicRequest&) const = default;
};

// CHECK-fails on an oversized payload (callers validate via the client
// frame codec first).
std::vector<uint8_t> EncodeNicRequest(const NicRequest& request);

// nullopt for packets that are not serve requests (wrong magic, short,
// oversized) — the NIC may transmit non-serve traffic.
std::optional<NicRequest> DecodeNicPacket(const std::vector<uint8_t>& bytes);

}  // namespace serve
}  // namespace hbft

#endif  // HBFT_SERVE_WIRE_HPP_
