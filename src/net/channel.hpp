// Communication channel with a calibrated link model and a faultable wire.
//
// The paper's prototype joins primary and backup with a 10 Mbps Ethernet and
// studies a 155 Mbps ATM alternative (Figure 4). The link model charges each
// message: per-frame fixed overhead (controller set-up + interrupt handling)
// plus serialisation time at the link bandwidth, with large messages
// fragmented at the MTU — an 8 KiB disk block becomes the paper's "9 messages
// for the data".
//
// Two delivery modes share one wire model:
//   * kOrdered  — the protocol stream (primary -> backup). Reliable FIFO is a
//     *derived* property: the sender keeps a go-back-N window of unacked
//     messages (driven by the protocol's own cumulative P4 acks) and the
//     receiver delivers strictly in sequence, discarding duplicates and
//     post-gap frames. Over an ideal link this degenerates to the original
//     reliable-FIFO queue, byte for byte. The channel is the one home of its
//     stream's ack count: the sender's P2 wait, output commit, cascaded
//     acks and state-transfer pacing all read acked()/unacked().
//   * kDatagram — the acknowledgment stream (backup -> primary). Acks are
//     cumulative and idempotent, so the receiver takes whatever arrives in
//     arrival order; lost acks are repaired by later acks or by the sender's
//     retransmission of the data they covered.
//
// LinkFaults (net/link_faults.hpp) injects per-message drop / duplicate /
// reorder faults for the whole run; with the default all-zero configuration
// every fault path is dead and the channel behaves exactly as the ideal
// reliable-FIFO link.
//
// Channels are FIFO and reliable until broken. Break(t) models the sender's
// processor crash: frames whose serialisation finished by `t` still arrive
// (the paper assumes the backup detects the failure only after receiving the
// last message sent); a frame still mid-serialisation at the crash is
// truncated on the wire and vanishes, and nothing sent after `t` exists.
//
// Frames in flight live in one contiguous array sorted by arrival time, with
// the index of the first undelivered frame. A send over the ideal wire
// appends; over a faulty wire, which can delay or copy a frame, it
// binary-searches its slot (near the end, since the wire is serialised). A
// delivery advances the index. The delivered prefix is erased, or the array
// cleared, once it is at least half the array, so a delivery costs amortised
// O(1). A lossy channel's drop probability is fixed, so it keeps a table of
// the k-frame survival probability (1-p)^k, filled up to k by the first send
// of a k-frame message.
#ifndef HBFT_NET_CHANNEL_HPP_
#define HBFT_NET_CHANNEL_HPP_

#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/link_faults.hpp"
#include "net/message.hpp"
#include "net/retransmit.hpp"

namespace hbft {

struct LinkModel {
  double bandwidth_bps = 10e6;
  SimTime per_frame_overhead = SimTime::Micros(90);
  SimTime propagation = SimTime::Micros(5);
  uint32_t mtu_bytes = 1024;

  // The paper's 10 Mbps Ethernet. The 90 us per-frame overhead is calibrated
  // so that the small-message ack round trip costs ~282 us, the gap between
  // the paper's measured epoch-boundary cost with ack wait (443.59 us) and
  // the revised protocol's boundary cost without it (~161 us).
  static LinkModel Ethernet10();

  // The 155 Mbps ATM link of Figure 4 (same controller set-up time, per the
  // paper's stated assumption).
  static LinkModel Atm155();

  // Sender-side occupancy to push `bytes` onto the wire.
  SimTime TransferTime(size_t bytes) const;

  // Number of frames a message of `bytes` fragments into.
  uint32_t FrameCount(size_t bytes) const;
};

enum class ChannelMode {
  kOrdered,   // Go-back-N reliable stream (the protocol direction).
  kDatagram,  // Best effort, delivered in arrival order (the ack direction).
};

class Channel {
 public:
  explicit Channel(const LinkModel& link) : Channel(link, ChannelMode::kOrdered) {}
  Channel(const LinkModel& link, ChannelMode mode, const LinkFaults& faults = LinkFaults{},
          uint64_t fault_seed = 0)
      : link_(link), mode_(mode), faults_(faults), fault_rng_(fault_seed) {}

  // Wire + delivery counters. messages_enqueued numbers the stream: the
  // next accepted message takes it as its sequence number. messages_sent
  // counts wire transmissions and therefore runs ahead of it once the link
  // loses frames and the sender retransmits.
  struct Counters {
    uint64_t messages_enqueued = 0;  // Unique messages accepted (next seq).
    uint64_t wire_sends = 0;         // Transmissions incl. retransmits + link dups.
    uint64_t retransmits = 0;        // Go-back-N re-sends.
    uint64_t link_drops = 0;         // Frames the wire lost.
    uint64_t link_duplicates = 0;    // Copies the wire injected.
    uint64_t link_reorders = 0;      // Frames the wire delayed out of order.
    uint64_t queue_high_water = 0;   // Max frames in flight at once.
    uint64_t rx_duplicates = 0;      // Receiver-discarded stale frames.
    uint64_t rx_gaps = 0;            // Receiver-discarded post-gap frames.
    uint64_t messages_delivered = 0; // In-order deliveries to the receiver.
    uint64_t bytes_on_wire = 0;      // Incl. retransmits and duplicates.
    uint64_t bytes_delivered = 0;    // Goodput bytes.
    uint64_t wire_decode_errors = 0; // Socket transport: undecodable frames.
  };

  // Enqueues a message at time `now`; returns its arrival time at the
  // receiver (of the surviving copy that the wire kept, or the time it
  // *would* have arrived when the wire dropped it — the sender cannot tell).
  // Returns nullopt only when the channel is broken at `now`.
  std::optional<SimTime> Send(Message msg, SimTime now);

  // Pops the next deliverable message whose arrival time is <= now. In
  // ordered mode stale and post-gap frames are consumed and discarded on the
  // way (flagging a re-ack), so nullopt can be returned even when frames had
  // arrived.
  std::optional<Message> Receive(SimTime now);

  // Arrival time of the oldest undelivered frame, if any (it may turn out to
  // be discardable; Receive resolves that).
  std::optional<SimTime> NextArrival() const;

  // Breaks the channel at time `t`: future sends vanish, frames fully
  // serialised by `t` still arrive, frames mid-serialisation are truncated
  // and pruned so the dead sender leaves no phantom occupancy behind.
  void Break(SimTime t);
  bool broken() const { return broken_; }

  // Arrival time of the newest message still in flight (undelivered), if any;
  // an empty queue means nothing is pending. The failure detector waits for
  // it before declaring the sender dead.
  std::optional<SimTime> LastPendingArrival() const;

  // --- Go-back-N (ordered mode over a faulty link) --------------------------

  // Cumulative acknowledgment from the peer, processed at `now`: the first
  // `acked_count` messages (seqs [0, acked_count)) are confirmed; the
  // retransmit window drops them and the survivors' age restarts. Acks
  // arrive as datagrams, so a stale (lower) one changes nothing.
  void OnCumulativeAck(uint64_t acked_count, SimTime now);

  // Re-sends the whole unacked window if its head has waited a full
  // retransmission timeout. Returns the number of frames re-sent and, when
  // there were any, the arrival time of the last (for receiver-poll
  // scheduling).
  struct RetransmitResult {
    uint64_t frames = 0;
    SimTime last_arrival = SimTime::Zero();
  };
  RetransmitResult MaybeRetransmit(SimTime now);

  // Whether the sender should keep a retransmission timer armed.
  bool NeedsRetransmitTimer() const {
    return mode_ == ChannelMode::kOrdered && faults_.Enabled() && !retransmit_.empty();
  }
  SimTime retransmit_timeout() const { return faults_.retransmit_timeout; }
  std::optional<SimTime> NextRetransmitDeadline() const {
    return retransmit_.NextDeadline(faults_.retransmit_timeout);
  }

  // The peer is dead: nothing will ever ack the window, stop re-sending.
  void AbandonRetransmits() { retransmit_.Clear(); }

  // --- Socket (wire) transport ----------------------------------------------
  // Multi-process serve mode: the channel endpoints live in different OS
  // processes joined by a real TCP connection. While the connection lives,
  // TCP delivers every frame in order, so a socket-bound channel keeps no
  // go-back-N window, timer or retransmission; a dead connection is the
  // peer's death (World::PeerLost), not a loss to repair. Sequence numbers
  // and cumulative acks still run, since the protocol's ack rules count them.
  //
  // Sender side: BindWireSink reroutes every frame the link model would put
  // on the simulated wire out through `sink` as the message's canonical
  // serialized bytes (the caller length-prefixes them onto the stream). The
  // local delivery queue is bypassed; occupancy is still charged so pacing
  // matches the modelled link. A sink returning false (peer connection down)
  // counts as a link drop. A socket models no wire faults, so the channel
  // must have none.
  //
  // Receiver side: InjectWireFrame enters a frame read off the socket into
  // the delivery queue at `now`, so Receive() runs the identical ordered
  // dedup/gap/re-ack machinery against it. Undecodable bytes are counted and
  // refused. Truncation semantics carry over from Break(): a frame whose
  // bytes never completely arrived (partial TCP write at peer death) is held
  // by the stream dissector and never injected — no phantom delivery.
  using WireSink = std::function<bool(const std::vector<uint8_t>&)>;
  void BindWireSink(WireSink sink);
  bool InjectWireFrame(const std::vector<uint8_t>& bytes, SimTime now);

  // True once per stale/post-gap discard batch: the receiver should repeat
  // its cumulative acknowledgment so a lost final ack cannot wedge the
  // sender's window.
  bool TakeReackRequested() {
    bool v = reack_requested_;
    reack_requested_ = false;
    return v;
  }

  const LinkModel& link() const { return link_; }
  ChannelMode mode() const { return mode_; }
  const LinkFaults& faults() const { return faults_; }
  const Counters& counters() const { return counters_; }

  // Unique messages accepted from the sender — the protocol's ack universe
  // (P2/P4 compare cumulative acks against this, never against wire sends).
  uint64_t messages_enqueued() const { return counters_.messages_enqueued; }
  // The stream's one ack count: the highest cumulative ack the peer has
  // sent, and the accepted messages it does not cover yet (0 once it covers
  // them all, even if it claims more).
  uint64_t acked() const { return acked_; }
  uint64_t unacked() const {
    return counters_.messages_enqueued > acked_ ? counters_.messages_enqueued - acked_ : 0;
  }
  // Wire transmissions, including go-back-N re-sends and link duplicates.
  uint64_t messages_sent() const { return counters_.wire_sends; }
  uint64_t bytes_sent() const { return counters_.bytes_on_wire; }

 private:
  struct InFlight {
    SimTime arrival;
    SimTime send_end;  // Serialisation finished (arrival minus propagation/jitter).
    Message msg;
  };

  // Pushes one frame onto the wire (occupancy, faults, sorted enqueue).
  // Returns the arrival time the sender observes.
  SimTime PutOnWire(const Message& msg, SimTime now, bool retransmit);
  bool QueueEmpty() const { return head_ == frames_.size(); }

  LinkModel link_;
  ChannelMode mode_;
  LinkFaults faults_;
  WireSink wire_sink_;
  DeterministicRng fault_rng_;
  std::vector<InFlight> frames_;  // Arrival-sorted; [head_, end) is undelivered.
  size_t head_ = 0;
  std::vector<double> survival_;  // survival_[k] = (1 - drop_probability)^k.
  RetransmitBuffer retransmit_;
  SimTime busy_until_ = SimTime::Zero();
  SimTime last_arrival_ = SimTime::Zero();
  uint64_t acked_ = 0;        // Highest cumulative ack (OnCumulativeAck).
  uint64_t rx_next_seq_ = 0;  // Ordered mode: next in-sequence delivery.
  bool reack_requested_ = false;
  bool broken_ = false;
  SimTime break_time_ = SimTime::Zero();
  Counters counters_;
};

}  // namespace hbft

#endif  // HBFT_NET_CHANNEL_HPP_
