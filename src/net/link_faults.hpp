// Link-fault model for the replica interconnect.
//
// The ideal channel of the paper's prototype is a reliable FIFO wire; real
// links (the 10 Mbps Ethernet the prototype used, and the ATM alternative of
// Figure 4) lose, duplicate, and reorder frames. LinkFaults parameterises
// those behaviours so the protocol can be exercised against an unreliable
// wire. A channel is ideal or lossy for the whole run: with every
// probability at zero (the default) it is exactly the ideal link and every
// code path is byte-identical to the fault-free model.
//
// All randomness flows through the channel's own DeterministicRng, seeded
// from the scenario seed, so a lossy run is exactly reproducible.
#ifndef HBFT_NET_LINK_FAULTS_HPP_
#define HBFT_NET_LINK_FAULTS_HPP_

#include "common/time.hpp"

namespace hbft {

struct LinkFaults {
  // Per-frame loss probability. A message of k MTU frames survives with
  // probability (1-p)^k, so big relays (an 8K disk block is 9 frames) are
  // proportionally more exposed — exactly the regime go-back-N is for.
  double drop_probability = 0.0;

  // Per-message duplication probability: the link delivers a second copy one
  // frame-time behind the first.
  double duplicate_probability = 0.0;

  // Per-message reorder probability: the message is delayed by roughly one
  // full-MTU serialisation time, letting later sends overtake it.
  double reorder_probability = 0.0;

  // Go-back-N retransmission timeout: an ordered channel re-sends every
  // unacknowledged message once the oldest has waited this long.
  SimTime retransmit_timeout = SimTime::Millis(2);

  // Whether this configuration can perturb the wire at all. When false the
  // channel takes the ideal fast path (no retransmit buffer, no timers).
  bool Enabled() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 || reorder_probability > 0.0;
  }

  // The canonical symmetric lossy profile used by the bench artifacts and
  // tests: drop and reorder at `p`, duplicates at half that.
  static LinkFaults SymmetricLoss(double p) {
    LinkFaults faults;
    faults.drop_probability = p;
    faults.reorder_probability = p;
    faults.duplicate_probability = p / 2;
    return faults;
  }
};

}  // namespace hbft

#endif  // HBFT_NET_LINK_FAULTS_HPP_
