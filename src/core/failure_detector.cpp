#include "core/failure_detector.hpp"

namespace hbft {

SimTime FailureDetector::DetectionTime(const Channel& dead_to_survivor, SimTime crash_time,
                                       SimTime timeout, const LinkFaults& faults) {
  SimTime base = crash_time;
  if (auto drain = dead_to_survivor.LastPendingArrival(); drain.has_value() && *drain > base) {
    base = *drain;
  }
  SimTime detect = base + timeout;
  if (faults.Enabled()) {
    detect += faults.retransmit_timeout;  // One repair round first.
  }
  return detect;
}

}  // namespace hbft
