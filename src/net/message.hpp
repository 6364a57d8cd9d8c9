// Replica-coordination protocol messages.
//
// Message kinds map one-to-one onto the paper's protocol:
//   kInterrupt  — rule P1's [E, Int]: an interrupt received at the primary
//                 during epoch E, relayed (with any device payload such as the
//                 data of a completed disk read) for delivery at the backup's
//                 end of epoch E.
//   kEnvValue   — the result of an environment instruction the primary's
//                 hypervisor simulated mid-epoch (TOD read, device register
//                 read); the backup's hypervisor consumes these in order.
//   kTimeSync   — rule P2's [Tme_p]: the primary's clock registers at the end
//                 of an epoch, used to resynchronise the backup's virtual
//                 clocks (Tme_b := Tme_p).
//   kEpochEnd   — rule P2's [end, E].
//   kAck        — rule P4's acknowledgment, cumulative up to `ack_seq`.
//   kStateChunk — live state transfer (repair): one piece of the snapshot a
//                 transfer source streams to a joining replica — a memory
//                 page, a run of all-zero pages, or the final control
//                 snapshot whose arrival completes the resync. Rides the
//                 ordered protocol channel, so FIFO guarantees the whole
//                 snapshot precedes the first post-cut protocol message.
//
// Simulated channels pass Message values directly and charge WireSize()
// bytes, so an 8K disk block fragments into the paper's "9 messages for the
// data". Serialize/Deserialize are the real wire format, used where a
// Channel rides a TCP stream (serve's replication link). They are written in
// the canonical snapshot codec (common/snapshot.hpp), and an interrupt's
// completion payload goes through CaptureIoCompletion/RestoreIoCompletion,
// so the [E, Int] a backup buffers has one byte layout whether it arrived
// over the wire or in a resync snapshot. WireSize() is kept by hand because
// it runs for every simulated send; a test holds it to Serialize().size().
#ifndef HBFT_NET_MESSAGE_HPP_
#define HBFT_NET_MESSAGE_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "devices/io.hpp"

namespace hbft {

enum class MsgType : uint8_t {
  kInterrupt = 1,
  kEnvValue = 2,
  kTimeSync = 3,
  kEpochEnd = 4,
  kAck = 5,
  kStateChunk = 6,
};

// Message::state_kind values for kStateChunk.
enum class StateChunkKind : uint8_t {
  kPage = 0,     // One memory page: `state_page`, payload in `state_data`.
  kZeroRun = 1,  // `state_page_count` all-zero pages starting at `state_page`.
  kControl = 2,  // The control snapshot (CPU/TLB/hypervisor/devices/protocol).
};

struct Message {
  MsgType type = MsgType::kAck;
  uint64_t seq = 0;       // Channel sequence number (assigned by the sender).
  uint64_t epoch = 0;     // E for kInterrupt/kEpochEnd/kTimeSync.
  uint64_t ack_seq = 0;   // kAck: cumulative acknowledgment.

  // kInterrupt payload.
  uint32_t irq_lines = 0;
  std::optional<IoCompletionPayload> io;

  // kEnvValue payload.
  uint64_t env_seq = 0;
  uint64_t env_value = 0;

  // kTimeSync payload (the paper's Tme_p: all clock registers).
  uint64_t tod_value = 0;

  // kStateChunk payload.
  StateChunkKind state_kind = StateChunkKind::kPage;
  uint32_t state_page = 0;        // First page index (kPage / kZeroRun).
  uint32_t state_page_count = 0;  // Run length (kZeroRun).
  std::vector<uint8_t> state_data;  // Page bytes / serialized control snapshot.

  // Serialised wire size in bytes (drives the bandwidth model).
  size_t WireSize() const;

  std::vector<uint8_t> Serialize() const;
  static std::optional<Message> Deserialize(const std::vector<uint8_t>& bytes);
};

}  // namespace hbft

#endif  // HBFT_NET_MESSAGE_HPP_
