#include "net/channel.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace hbft {

LinkModel LinkModel::Ethernet10() {
  LinkModel link;
  link.bandwidth_bps = 10e6;
  link.per_frame_overhead = SimTime::Micros(90);
  link.propagation = SimTime::Micros(5);
  link.mtu_bytes = 1024;
  return link;
}

LinkModel LinkModel::Atm155() {
  LinkModel link;
  link.bandwidth_bps = 155e6;
  link.per_frame_overhead = SimTime::Micros(90);  // Same controller set-up time.
  link.propagation = SimTime::Micros(5);
  link.mtu_bytes = 1024;
  return link;
}

uint32_t LinkModel::FrameCount(size_t bytes) const {
  if (bytes == 0) {
    return 1;
  }
  return static_cast<uint32_t>((bytes + mtu_bytes - 1) / mtu_bytes);
}

SimTime LinkModel::TransferTime(size_t bytes) const {
  uint32_t frames = FrameCount(bytes);
  double wire_seconds = static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  return per_frame_overhead * frames + SimTime::Picos(static_cast<int64_t>(wire_seconds * 1e12));
}

SimTime Channel::PutOnWire(const Message& msg, SimTime now, bool retransmit) {
  size_t wire_bytes = msg.WireSize();
  ++counters_.wire_sends;
  if (retransmit) {
    ++counters_.retransmits;
  }
  counters_.bytes_on_wire += wire_bytes;
  SimTime start = busy_until_ > now ? busy_until_ : now;
  busy_until_ = start + link_.TransferTime(wire_bytes);
  SimTime send_end = busy_until_;
  SimTime arrival = send_end + link_.propagation;

  if (wire_sink_) {
    // Socket transport: the frame leaves the process as canonical bytes.
    // Sender-side occupancy is still charged so protocol pacing matches the
    // modelled link; delivery happens when the peer process reads the frame
    // off its socket and injects it via InjectWireFrame.
    if (!wire_sink_(msg.Serialize())) {
      ++counters_.link_drops;  // Peer connection down: the wire ate it.
    }
    return arrival;
  }

  // The queue high-water mark counts frames still on the wire at `now`
  // (arrival in the future); frames that already landed but have not been
  // polled belong to the receiver. It cannot rise while no more frames are
  // queued than the mark.
  auto note_high_water = [this, now] {
    if (frames_.size() - head_ <= counters_.queue_high_water) {
      return;
    }
    auto first = std::upper_bound(frames_.begin() + static_cast<ptrdiff_t>(head_), frames_.end(),
                                  now, [](SimTime v, const InFlight& f) { return v < f.arrival; });
    counters_.queue_high_water =
        std::max(counters_.queue_high_water, static_cast<uint64_t>(frames_.end() - first));
  };

  if (!faults_.Enabled()) {
    // Ideal wire: arrivals are monotone because busy_until_ is.
    HBFT_CHECK(arrival >= last_arrival_);
    frames_.push_back(InFlight{arrival, send_end, msg});
    last_arrival_ = arrival;
    note_high_water();
    return arrival;
  }

  // Loss applies per frame: a k-frame message survives with (1-p)^k.
  uint32_t frames = link_.FrameCount(wire_bytes);
  while (survival_.size() <= frames) {
    survival_.push_back(
        std::pow(1.0 - faults_.drop_probability, static_cast<double>(survival_.size())));
  }
  if (fault_rng_.NextBool(1.0 - survival_[frames])) {
    ++counters_.link_drops;
    return arrival;  // The sender saw a normal send; the wire ate it.
  }

  if (fault_rng_.NextBool(faults_.reorder_probability)) {
    // Delay by one full-MTU serialisation: later sends overtake this frame.
    ++counters_.link_reorders;
    arrival = arrival + link_.TransferTime(link_.mtu_bytes);
  }

  auto insert_sorted = [this](InFlight frame) {
    auto it = std::upper_bound(
        frames_.begin() + static_cast<ptrdiff_t>(head_), frames_.end(), frame.arrival,
        [](SimTime t, const InFlight& f) { return t < f.arrival; });
    last_arrival_ = std::max(last_arrival_, frame.arrival);
    frames_.insert(it, std::move(frame));
  };
  insert_sorted(InFlight{arrival, send_end, msg});

  if (fault_rng_.NextBool(faults_.duplicate_probability)) {
    ++counters_.link_duplicates;
    ++counters_.wire_sends;
    counters_.bytes_on_wire += wire_bytes;
    insert_sorted(InFlight{arrival + link_.per_frame_overhead, send_end, msg});
  }

  note_high_water();
  return arrival;
}

std::optional<SimTime> Channel::Send(Message msg, SimTime now) {
  if (broken_ && now >= break_time_) {
    return std::nullopt;
  }
  msg.seq = counters_.messages_enqueued++;
  SimTime arrival = PutOnWire(msg, now, /*retransmit=*/false);
  // Ordered channels over a faulty link keep the message until the peer's
  // cumulative ack covers it; the wire may eat the first copy. The
  // retransmission clock starts at the frame's serialisation end
  // (busy_until_): a 9-frame block cannot be acked before it is even on the
  // wire, and ageing it from the accept instant would guarantee spurious
  // full-window re-sends for any message larger than timeout x bandwidth.
  if (mode_ == ChannelMode::kOrdered && faults_.Enabled()) {
    retransmit_.Track(msg, busy_until_);
  }
  return arrival;
}

std::optional<Message> Channel::Receive(SimTime now) {
  while (!QueueEmpty() && frames_[head_].arrival <= now) {
    InFlight frame = std::move(frames_[head_++]);
    if (2 * head_ >= frames_.size()) {
      // The delivered prefix is half the array: drop it (amortised O(1)).
      frames_.erase(frames_.begin(), frames_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
    if (mode_ == ChannelMode::kDatagram) {
      ++counters_.messages_delivered;
      counters_.bytes_delivered += frame.msg.WireSize();
      return std::move(frame.msg);
    }
    // Ordered mode: strict in-sequence delivery (go-back-N receiver).
    if (frame.msg.seq == rx_next_seq_) {
      ++rx_next_seq_;
      ++counters_.messages_delivered;
      counters_.bytes_delivered += frame.msg.WireSize();
      return std::move(frame.msg);
    }
    if (frame.msg.seq < rx_next_seq_) {
      ++counters_.rx_duplicates;  // Stale copy (retransmit or link duplicate).
    } else {
      ++counters_.rx_gaps;  // A frame in between was lost: discard the suffix.
    }
    reack_requested_ = true;
  }
  return std::nullopt;
}

std::optional<SimTime> Channel::NextArrival() const {
  if (QueueEmpty()) {
    return std::nullopt;
  }
  return frames_[head_].arrival;
}

void Channel::Break(SimTime t) {
  broken_ = true;
  break_time_ = t;
  // A crashed sender stops mid-byte: frames whose serialisation had not
  // finished by `t` are truncated on the wire and never arrive. Prune them
  // so the survivor's drain/occupancy view reflects only what was genuinely
  // sent — a promoted backup must not inherit phantom in-flight frames.
  frames_.erase(std::remove_if(frames_.begin() + static_cast<ptrdiff_t>(head_), frames_.end(),
                               [t](const InFlight& f) { return f.send_end > t; }),
                frames_.end());
  if (busy_until_ > t) {
    busy_until_ = t;
  }
}

std::optional<SimTime> Channel::LastPendingArrival() const {
  if (QueueEmpty()) {
    return std::nullopt;
  }
  return frames_.back().arrival;  // frames_ is arrival-sorted on every insertion path.
}

void Channel::BindWireSink(WireSink sink) {
  HBFT_CHECK(!faults_.Enabled()) << "a socket-bound channel models no wire faults";
  wire_sink_ = std::move(sink);
}

bool Channel::InjectWireFrame(const std::vector<uint8_t>& bytes, SimTime now) {
  if (broken_ && now >= break_time_) {
    return false;
  }
  std::optional<Message> msg = Message::Deserialize(bytes);
  if (!msg.has_value()) {
    ++counters_.wire_decode_errors;
    return false;
  }
  // A frame whose bytes reached us finished serialising at the sender, so
  // send_end == arrival: Break(t) keeps every frame received before the
  // crash was detected, exactly the paper's failure model. Arrivals off one
  // TCP stream are monotone; clamp anyway so a coarse wall clock can never
  // violate the queue's sorted invariant.
  SimTime arrival = now > last_arrival_ ? now : last_arrival_;
  frames_.push_back(InFlight{arrival, arrival, std::move(*msg)});
  last_arrival_ = arrival;
  return true;
}

void Channel::OnCumulativeAck(uint64_t acked_count, SimTime now) {
  acked_ = std::max(acked_, acked_count);
  retransmit_.Ack(acked_, now);
}

Channel::RetransmitResult Channel::MaybeRetransmit(SimTime now) {
  RetransmitResult result;
  if (broken_ && now >= break_time_) {
    return result;
  }
  if (mode_ != ChannelMode::kOrdered || !faults_.Enabled() || retransmit_.empty()) {
    return result;
  }
  if (!retransmit_.TimedOut(now, faults_.retransmit_timeout)) {
    return result;
  }
  for (const Message& msg : retransmit_.pending()) {
    result.last_arrival = PutOnWire(msg, now, /*retransmit=*/true);
    ++result.frames;
  }
  // Age the window from the end of the re-sent burst's serialisation, which
  // every resend pushed past `now`.
  retransmit_.MarkResent(busy_until_);
  return result;
}

}  // namespace hbft
