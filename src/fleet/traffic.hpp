// Open-loop request generation and matching for the fleet bench.
//
// Open-loop means arrival times are fixed up front — request i of every
// chain arrives at start + i*interval regardless of how the chain is doing —
// so a failover shows up as queueing delay and latency tail, not as a
// politely backed-off client. Each request is one NIC packet whose payload
// is unique fleet-wide (a tagged chain/sequence header plus filler), and the
// NetEcho guest echoes payloads byte-for-byte, so a request's completion is
// the first transmitted packet whose bytes equal the request — robust
// against P7's bounded duplicate-transmit window at failover, which can only
// repeat an already-matched payload.
#ifndef HBFT_FLEET_TRAFFIC_HPP_
#define HBFT_FLEET_TRAFFIC_HPP_

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "devices/io.hpp"

namespace hbft {

// A request's header: 'F' 'Q', then chain[4] and seq[4].
constexpr uint32_t kRequestHeaderBytes = 10;

struct TrafficConfig {
  uint64_t requests_per_chain = 8;
  SimTime start = SimTime::Millis(100);     // First arrival.
  SimTime interval = SimTime::Millis(20);   // Open-loop inter-arrival gap.
  // Total packet size, in [kRequestHeaderBytes, kNicMaxPacketBytes].
  uint32_t payload_bytes = 32;
};

// Unique request payload: "FQ" magic, chain and sequence little-endian,
// then deterministic filler up to `payload_bytes`.
std::vector<uint8_t> EncodeRequest(uint32_t chain, uint32_t seq, uint32_t payload_bytes);

// Arrival time of request `seq` under `traffic` (open-loop schedule).
SimTime RequestArrival(const TrafficConfig& traffic, uint64_t seq);

// One request's outcome after the run.
struct RequestOutcome {
  uint64_t seq = 0;
  SimTime arrival = SimTime::Zero();
  bool served = false;
  SimTime latency = SimTime::Zero();  // Echo latch time - arrival.
};

// Matches a chain's requests against the NIC entries of its environment
// trace (echo latch times). Entries are matched in order; duplicates of an
// already-served request are ignored.
std::vector<RequestOutcome> MatchRequests(uint32_t chain, const TrafficConfig& traffic,
                                          const std::vector<EnvTraceEntry>& trace);

}  // namespace hbft

#endif  // HBFT_FLEET_TRAFFIC_HPP_
