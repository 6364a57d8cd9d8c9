// Failure detection model.
//
// The paper assumes fail-stop processors (footnote 1) and that "the processor
// executing the backup detects the primary's processor failure only after
// receiving the last message sent by the primary's hypervisor (as would be
// the case were timeouts used for failure detection)". This helper computes
// the detection instant under that assumption: messages still in flight
// drain, then a timeout elapses.
#ifndef HBFT_CORE_FAILURE_DETECTOR_HPP_
#define HBFT_CORE_FAILURE_DETECTOR_HPP_

#include "common/time.hpp"
#include "net/channel.hpp"
#include "net/link_faults.hpp"

namespace hbft {

class FailureDetector {
 public:
  // When the survivor becomes certain its peer is gone: after the last
  // message still in flight on the dead node's outbound channel arrives
  // (never before the crash itself), plus the detection timeout.
  //
  // `dead_to_survivor` is the channel of the *current* active pair — from
  // the crashed node to whichever replica watches it (the next surviving
  // backup in a chain, or the primary when a backup dies). If nothing is in
  // flight at the crash, detection counts from the crash instant: a message
  // that was already delivered must not postpone detection.
  //
  // Over a faulty link, silence for one detection timeout is not proof of
  // death — a dropped frame looks identical until the sender's
  // retransmission would have repaired it. So with `faults` enabled the
  // detector waits one extra retransmission round before declaring the peer
  // crashed, which keeps "lossy but alive" (delayed or dropped acks/relays)
  // from triggering a spurious promotion. With `LinkFaults{}` (the ideal
  // link) it is the plain bound.
  static SimTime DetectionTime(const Channel& dead_to_survivor, SimTime crash_time,
                               SimTime timeout, const LinkFaults& faults);
};

}  // namespace hbft

#endif  // HBFT_CORE_FAILURE_DETECTOR_HPP_
