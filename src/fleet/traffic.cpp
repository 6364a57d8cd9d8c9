#include "fleet/traffic.hpp"

#include "common/check.hpp"
#include "common/snapshot.hpp"
#include "isa/isa.hpp"

namespace hbft {

std::vector<uint8_t> EncodeRequest(uint32_t chain, uint32_t seq, uint32_t payload_bytes) {
  HBFT_CHECK_GE(payload_bytes, kRequestHeaderBytes);
  HBFT_CHECK_LE(payload_bytes, kNicMaxPacketBytes);
  Snapshot packet;
  SnapshotWriter w(&packet);
  w.U8('F');
  w.U8('Q');
  w.U32(chain);
  w.U32(seq);
  // Deterministic filler keyed off the header, so equal-length requests
  // never collide byte-wise.
  for (uint32_t i = kRequestHeaderBytes; i < payload_bytes; ++i) {
    w.U8(static_cast<uint8_t>((chain * 131u + seq * 31u + i) & 0xFF));
  }
  return std::move(packet.bytes);
}

SimTime RequestArrival(const TrafficConfig& traffic, uint64_t seq) {
  return traffic.start + traffic.interval * static_cast<int64_t>(seq);
}

std::vector<RequestOutcome> MatchRequests(uint32_t chain, const TrafficConfig& traffic,
                                          const std::vector<EnvTraceEntry>& trace) {
  std::vector<RequestOutcome> out;
  out.reserve(traffic.requests_per_chain);
  for (uint64_t seq = 0; seq < traffic.requests_per_chain; ++seq) {
    RequestOutcome r;
    r.seq = seq;
    r.arrival = RequestArrival(traffic, seq);
    out.push_back(r);
  }
  for (const EnvTraceEntry& entry : trace) {
    if (entry.device_id != DeviceId::kNic) {
      continue;
    }
    // Decode the header back rather than re-encoding every candidate: the
    // trace can hold duplicates (P7 redrive) and, in principle, non-request
    // traffic.
    SnapshotReader header(entry.bytes);
    uint8_t magic[2] = {};
    uint32_t got_chain = 0;
    uint32_t got_seq = 0;
    if (!header.U8(&magic[0]) || !header.U8(&magic[1]) || magic[0] != 'F' || magic[1] != 'Q' ||
        !header.U32(&got_chain) || !header.U32(&got_seq)) {
      continue;
    }
    if (got_chain != chain || got_seq >= out.size() || out[got_seq].served) {
      continue;
    }
    RequestOutcome& r = out[got_seq];
    if (entry.bytes != EncodeRequest(chain, got_seq, static_cast<uint32_t>(entry.bytes.size()))) {
      continue;  // Header matched but the body did not: not this request.
    }
    r.served = true;
    r.latency = entry.time > r.arrival ? entry.time - r.arrival : SimTime::Zero();
  }
  return out;
}

}  // namespace hbft
