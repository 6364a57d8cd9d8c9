#include "devices/latched_output.hpp"

#include <utility>

#include "common/check.hpp"

namespace hbft {

// Uncertain-completion result code, shared by every latched-output device
// (0 ok, 1 uncertain — same convention as the disk's result register).
namespace {
constexpr uint32_t kResultUncertain = 1;
}  // namespace

SimTime LatchedOutputBackend::Start(Op& op, SimTime now) {
  HBFT_CHECK_EQ(op.io.opcode, opcode_);
  HBFT_CHECK(!op.io.payload.empty());
  // IO2 at the latch: both the uncertainty of the upcoming completion and
  // whether the output actually reached the environment are decided here;
  // the result surfaces at Finish().
  bool performed = true;
  if (rng_.NextBool(fault_plan_.uncertain_probability)) {
    op.result = kResultUncertain;
    performed = rng_.NextBool(fault_plan_.performed_when_uncertain);
  }
  if (performed) {
    EnvTraceEntry entry;
    entry.issuer = op.issuer;
    entry.performed = true;
    entry.opcode = op.io.opcode;
    entry.time = now;
    Latch(op.io.payload, std::move(entry));
  }
  return tx_latency_;
}

IoCompletionPayload LatchedOutputBackend::Finish(const Op& op) {
  IoCompletionPayload payload;
  payload.device_irq = completion_irq_;
  payload.guest_op_seq = op.io.guest_op_seq;
  payload.result_code = op.result;
  return payload;
}

}  // namespace hbft
