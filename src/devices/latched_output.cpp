#include "devices/latched_output.hpp"

#include <utility>

#include "common/check.hpp"

namespace hbft {

// Uncertain-completion result code, shared by every latched-output device
// (0 ok, 1 uncertain — same convention as the disk's result register).
namespace {
constexpr uint32_t kResultOk = 0;
constexpr uint32_t kResultUncertain = 1;
}  // namespace

DeviceBackend::Issued LatchedOutputBackend::Issue(const IoDescriptor& io, int issuer) {
  HBFT_CHECK_EQ(io.opcode, accepted_opcode());
  HBFT_CHECK(!io.payload.empty());
  // IO2 at the latch: both the uncertainty of the upcoming completion and
  // whether the output actually reached the environment are decided here;
  // the result surfaces at Complete().
  uint32_t result = kResultOk;
  bool performed = true;
  if (rng_.NextBool(fault_plan_.uncertain_probability)) {
    result = kResultUncertain;
    performed = rng_.NextBool(fault_plan_.performed_when_uncertain);
  }
  if (performed) {
    EnvTraceEntry entry;
    entry.issuer = issuer;
    entry.performed = true;
    entry.opcode = io.opcode;
    entry.time = issue_clock();
    Latch(io.payload, std::move(entry));
  }
  Issued issued;
  issued.op_id = next_op_id_++;
  issued.latency = tx_latency_;
  in_flight_result_[issued.op_id] = result;
  return issued;
}

IoCompletionPayload LatchedOutputBackend::Complete(uint64_t op_id, const IoDescriptor& io) {
  auto it = in_flight_result_.find(op_id);
  HBFT_CHECK(it != in_flight_result_.end()) << "completing unknown latched op " << op_id;
  uint32_t result = it->second;
  in_flight_result_.erase(it);
  IoCompletionPayload payload;
  payload.device_irq = completion_irq();
  payload.guest_op_seq = io.guest_op_seq;
  payload.result_code = result;
  return payload;
}

}  // namespace hbft
