#include "core/protocol.hpp"

namespace hbft {

const char* FailPhaseName(FailPhase phase) {
  switch (phase) {
    case FailPhase::kNone:
      return "none";
    case FailPhase::kBeforeSendTme:
      return "before-send-tme";
    case FailPhase::kAfterSendTme:
      return "after-send-tme";
    case FailPhase::kAfterAckWait:
      return "after-ack-wait";
    case FailPhase::kAfterDeliver:
      return "after-deliver";
    case FailPhase::kAfterSendEnd:
      return "after-send-end";
    case FailPhase::kBeforeIoIssue:
      return "before-io-issue";
    case FailPhase::kAfterIoIssue:
      return "after-io-issue";
  }
  return "unknown";
}

}  // namespace hbft
