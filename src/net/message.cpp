#include "net/message.hpp"

#include "common/snapshot.hpp"

namespace hbft {

std::vector<uint8_t> Message::Serialize() const {
  Snapshot wire;
  SnapshotWriter w(&wire);
  w.U8(static_cast<uint8_t>(type));
  w.U64(seq);
  w.U64(epoch);
  switch (type) {
    case MsgType::kAck:
      w.U64(ack_seq);
      break;
    case MsgType::kEnvValue:
      w.U64(env_seq);
      w.U64(env_value);
      break;
    case MsgType::kTimeSync:
      w.U64(tod_value);
      break;
    case MsgType::kEpochEnd:
      break;
    case MsgType::kInterrupt:
      w.U32(irq_lines);
      w.Bool(io.has_value());
      if (io.has_value()) {
        CaptureIoCompletion(w, *io);
      }
      break;
    case MsgType::kStateChunk:
      w.U8(static_cast<uint8_t>(state_kind));
      w.U32(state_page);
      w.U32(state_page_count);
      w.Blob(state_data);
      break;
  }
  return std::move(wire.bytes);
}

std::optional<Message> Message::Deserialize(const std::vector<uint8_t>& bytes) {
  SnapshotReader r(bytes);
  Message msg;
  uint8_t type_raw = 0;
  if (!r.U8(&type_raw) || !r.U64(&msg.seq) || !r.U64(&msg.epoch)) {
    return std::nullopt;
  }
  if (type_raw < 1 || type_raw > 6) {
    return std::nullopt;
  }
  msg.type = static_cast<MsgType>(type_raw);
  switch (msg.type) {
    case MsgType::kAck:
      if (!r.U64(&msg.ack_seq)) {
        return std::nullopt;
      }
      break;
    case MsgType::kEnvValue:
      if (!r.U64(&msg.env_seq) || !r.U64(&msg.env_value)) {
        return std::nullopt;
      }
      break;
    case MsgType::kTimeSync:
      if (!r.U64(&msg.tod_value)) {
        return std::nullopt;
      }
      break;
    case MsgType::kEpochEnd:
      break;
    case MsgType::kInterrupt: {
      bool has_io = false;
      if (!r.U32(&msg.irq_lines) || !r.Bool(&has_io)) {
        return std::nullopt;
      }
      if (has_io && !RestoreIoCompletion(r, &msg.io.emplace())) {
        return std::nullopt;
      }
      break;
    }
    case MsgType::kStateChunk: {
      uint8_t kind = 0;
      if (!r.U8(&kind) || !r.U32(&msg.state_page) || !r.U32(&msg.state_page_count) ||
          !r.Blob(&msg.state_data)) {
        return std::nullopt;
      }
      // The encoder only emits the three chunk kinds; anything else is
      // corruption, not a chunk.
      if (kind > static_cast<uint8_t>(StateChunkKind::kControl)) {
        return std::nullopt;
      }
      msg.state_kind = static_cast<StateChunkKind>(kind);
      break;
    }
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return msg;
}

size_t Message::WireSize() const {
  // Header (type + seq + epoch) plus payload, mirroring Serialize().
  size_t size = 1 + 8 + 8;
  switch (type) {
    case MsgType::kAck:
      size += 8;
      break;
    case MsgType::kEnvValue:
      size += 16;
      break;
    case MsgType::kTimeSync:
      size += 8;
      break;
    case MsgType::kEpochEnd:
      break;
    case MsgType::kInterrupt:
      size += 5;
      if (io.has_value()) {
        size += 4 + 8 + 4 + 1 + 4 + 4 + io->dma_data.size();
      }
      break;
    case MsgType::kStateChunk:
      size += 1 + 4 + 4 + 4 + state_data.size();
      break;
  }
  return size;
}

}  // namespace hbft
