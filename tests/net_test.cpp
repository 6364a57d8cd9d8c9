// Network tests: message serialisation round trips and golden wire bytes,
// wire sizes, link timing (including the paper's 9-messages-per-8K-block
// framing), FIFO delivery, and break semantics.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "isa/isa.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"

namespace hbft {
namespace {

Message SampleMessage(MsgType type) {
  Message msg;
  msg.type = type;
  msg.epoch = 42;
  switch (type) {
    case MsgType::kAck:
      msg.ack_seq = 17;
      break;
    case MsgType::kEnvValue:
      msg.env_seq = 5;
      msg.env_value = 0xDEADBEEFCAFEULL;
      break;
    case MsgType::kTimeSync:
      msg.tod_value = 123456789;
      break;
    case MsgType::kEpochEnd:
      break;
    case MsgType::kInterrupt: {
      msg.irq_lines = kIrqDisk;
      IoCompletionPayload io;
      io.device_irq = kIrqDisk;
      io.guest_op_seq = 9;
      io.result_code = 0;
      io.has_dma_data = true;
      io.dma_guest_paddr = 0x310000;
      io.dma_data.assign(8192, 0x5A);
      msg.io = io;
      break;
    }
    case MsgType::kStateChunk:
      msg.state_kind = StateChunkKind::kPage;
      msg.state_page = 33;
      msg.state_page_count = 0;
      msg.state_data.assign(kPageBytes, 0xA5);
      break;
  }
  return msg;
}

constexpr int kNumMsgTypes = 6;

class MessageRoundTrip : public testing::TestWithParam<int> {};

TEST_P(MessageRoundTrip, SerializeDeserialize) {
  Message msg = SampleMessage(static_cast<MsgType>(GetParam()));
  msg.seq = 1234;
  auto bytes = msg.Serialize();
  EXPECT_EQ(bytes.size(), msg.WireSize());
  auto decoded = Message::Deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->seq, msg.seq);
  EXPECT_EQ(decoded->epoch, msg.epoch);
  EXPECT_EQ(decoded->ack_seq, msg.ack_seq);
  EXPECT_EQ(decoded->env_seq, msg.env_seq);
  EXPECT_EQ(decoded->env_value, msg.env_value);
  EXPECT_EQ(decoded->tod_value, msg.tod_value);
  EXPECT_EQ(decoded->irq_lines, msg.irq_lines);
  EXPECT_EQ(decoded->io.has_value(), msg.io.has_value());
  if (msg.io.has_value()) {
    EXPECT_EQ(decoded->io->device_irq, msg.io->device_irq);
    EXPECT_EQ(decoded->io->guest_op_seq, msg.io->guest_op_seq);
    EXPECT_EQ(decoded->io->result_code, msg.io->result_code);
    EXPECT_EQ(decoded->io->has_dma_data, msg.io->has_dma_data);
    EXPECT_EQ(decoded->io->dma_guest_paddr, msg.io->dma_guest_paddr);
    EXPECT_EQ(decoded->io->dma_data, msg.io->dma_data);
  }
  EXPECT_EQ(decoded->state_kind, msg.state_kind);
  EXPECT_EQ(decoded->state_page, msg.state_page);
  EXPECT_EQ(decoded->state_page_count, msg.state_page_count);
  EXPECT_EQ(decoded->state_data, msg.state_data);
  EXPECT_EQ(decoded->Serialize(), bytes);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MessageRoundTrip, testing::Range(1, kNumMsgTypes + 1));

// Every message kind — including the interrupt variants with and without an
// I/O payload, and with and without DMA data — must report exactly the size
// it serialises to: the bandwidth model charges WireSize() for frames the
// codec would put on a real wire.
TEST(Message, WireSizeMatchesSerializedSizeForEveryKind) {
  std::vector<Message> samples;
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    samples.push_back(SampleMessage(static_cast<MsgType>(t)));
  }
  Message no_io = SampleMessage(MsgType::kInterrupt);
  no_io.io.reset();
  samples.push_back(no_io);
  Message empty_dma = SampleMessage(MsgType::kInterrupt);
  empty_dma.io->has_dma_data = false;
  empty_dma.io->dma_data.clear();
  samples.push_back(empty_dma);
  Message zero_run = SampleMessage(MsgType::kStateChunk);
  zero_run.state_kind = StateChunkKind::kZeroRun;
  zero_run.state_page_count = 17;
  zero_run.state_data.clear();
  samples.push_back(zero_run);
  for (const Message& msg : samples) {
    EXPECT_EQ(msg.Serialize().size(), msg.WireSize())
        << "kind " << static_cast<int>(msg.type);
  }
}

// Every strict prefix of every kind's encoding must be rejected — no
// out-of-bounds read, no silent short parse.
TEST(Message, DeserializeRejectsEveryTruncation) {
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    Message msg = SampleMessage(static_cast<MsgType>(t));
    if (msg.io.has_value()) {
      msg.io->dma_data.resize(48);  // Small payload keeps the sweep fast.
    }
    if (msg.type == MsgType::kStateChunk) {
      msg.state_data.resize(48);
    }
    auto bytes = msg.Serialize();
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(len));
      EXPECT_FALSE(Message::Deserialize(prefix).has_value())
          << "kind " << t << " accepted a " << len << "-byte prefix of "
          << bytes.size() << " bytes";
    }
    ASSERT_TRUE(Message::Deserialize(bytes).has_value());
    // Trailing garbage is rejected explicitly, for every kind.
    bytes.push_back(0);
    EXPECT_FALSE(Message::Deserialize(bytes).has_value()) << "kind " << t;
  }
}

// Non-canonical flag bytes (the encoder only emits 0 or 1) are corruption,
// not a message: accepting them would re-serialise to different bytes — a
// silent misparse.
TEST(Message, DeserializeRejectsNonCanonicalFlagBytes) {
  auto bytes = SampleMessage(MsgType::kInterrupt).Serialize();
  const size_t has_io_pos = 1 + 8 + 8 + 4;  // type + seq + epoch + irq_lines.
  ASSERT_EQ(bytes[has_io_pos], 1u);
  auto mutated = bytes;
  mutated[has_io_pos] = 2;
  EXPECT_FALSE(Message::Deserialize(mutated).has_value());
  const size_t has_dma_pos = has_io_pos + 1 + 4 + 8 + 4;  // + io header fields.
  ASSERT_EQ(bytes[has_dma_pos], 1u);
  mutated = bytes;
  mutated[has_dma_pos] = 0xFF;
  EXPECT_FALSE(Message::Deserialize(mutated).has_value());
  // The state-chunk kind byte only takes the three encoder-emitted values.
  auto chunk = SampleMessage(MsgType::kStateChunk).Serialize();
  const size_t kind_pos = 1 + 8 + 8;  // type + seq + epoch.
  ASSERT_EQ(chunk[kind_pos], static_cast<uint8_t>(StateChunkKind::kPage));
  chunk[kind_pos] = 3;
  EXPECT_FALSE(Message::Deserialize(chunk).has_value());
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// The exact bytes of every message kind and variant, split field by field as
// they sit on the wire (all little-endian). A codec change that reorders,
// widens or drops a field fails here even if it still round-trips with
// itself; each golden string must also decode and re-encode unchanged.
TEST(Message, GoldenWireBytes) {
  auto header = [](MsgType type) {
    Message msg;
    msg.type = type;
    msg.seq = 0x0102030405060708ULL;
    msg.epoch = 0x1112131415161718ULL;
    return msg;
  };
  // seq, epoch after the type byte.
  const std::string kSeqEpoch = "0807060504030201" "1817161514131211";
  std::vector<std::pair<Message, std::string>> cases;

  Message ack = header(MsgType::kAck);
  ack.ack_seq = 0x2122232425262728ULL;
  cases.emplace_back(ack, "05" + kSeqEpoch + "2827262524232221");

  Message env = header(MsgType::kEnvValue);
  env.env_seq = 5;
  env.env_value = 0xDEADBEEFCAFEULL;
  cases.emplace_back(env, "02" + kSeqEpoch + "0500000000000000" "fecaefbeadde0000");

  Message tod = header(MsgType::kTimeSync);
  tod.tod_value = 123456789;
  cases.emplace_back(tod, "03" + kSeqEpoch + "15cd5b0700000000");

  cases.emplace_back(header(MsgType::kEpochEnd), "04" + kSeqEpoch);

  // Interrupt: irq_lines, has-completion flag, then the completion: device
  // irq, guest op seq, result code, has-DMA flag, DMA paddr, DMA length+data.
  Message irq = header(MsgType::kInterrupt);
  irq.irq_lines = 0x6;
  cases.emplace_back(irq, "01" + kSeqEpoch + "06000000" "00");
  IoCompletionPayload io;
  io.device_irq = 0x2;
  io.guest_op_seq = 9;
  io.result_code = 0xFFFFFFFE;
  irq.io = io;
  cases.emplace_back(irq, "01" + kSeqEpoch + "06000000" "01" "02000000" "0900000000000000"
                          "feffffff" "00" "00000000" "00000000");
  io.result_code = 0;
  io.has_dma_data = true;
  io.dma_guest_paddr = 0x310000;
  io.dma_data = {0xAA, 0xBB, 0xCC};
  irq.io = io;
  cases.emplace_back(irq, "01" + kSeqEpoch + "06000000" "01" "02000000" "0900000000000000"
                          "00000000" "01" "00003100" "03000000" "aabbcc");

  // State chunk: kind, first page, page count, data length+data.
  Message page = header(MsgType::kStateChunk);
  page.state_kind = StateChunkKind::kPage;
  page.state_page = 33;
  page.state_data = {1, 2, 3, 4};
  cases.emplace_back(page, "06" + kSeqEpoch + "00" "21000000" "00000000" "04000000" "01020304");
  Message zero_run = header(MsgType::kStateChunk);
  zero_run.state_kind = StateChunkKind::kZeroRun;
  zero_run.state_page = 40;
  zero_run.state_page_count = 17;
  cases.emplace_back(zero_run, "06" + kSeqEpoch + "01" "28000000" "11000000" "00000000");
  Message control = header(MsgType::kStateChunk);
  control.state_kind = StateChunkKind::kControl;
  control.state_data = {0x48, 0x42};
  cases.emplace_back(control, "06" + kSeqEpoch + "02" "00000000" "00000000" "02000000" "4842");

  for (const auto& [msg, golden] : cases) {
    EXPECT_EQ(Hex(msg.Serialize()), golden) << "kind " << static_cast<int>(msg.type);
    const std::vector<uint8_t> bytes = Unhex(golden);
    auto decoded = Message::Deserialize(bytes);
    ASSERT_TRUE(decoded.has_value()) << golden;
    EXPECT_EQ(Hex(decoded->Serialize()), golden);
  }
}

TEST(Message, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Message::Deserialize({}).has_value());
  EXPECT_FALSE(Message::Deserialize({0xFF, 1, 2, 3}).has_value());
  auto bytes = SampleMessage(MsgType::kAck).Serialize();
  bytes.pop_back();  // Truncated.
  EXPECT_FALSE(Message::Deserialize(bytes).has_value());
  bytes = SampleMessage(MsgType::kAck).Serialize();
  bytes.push_back(0);  // Trailing junk.
  EXPECT_FALSE(Message::Deserialize(bytes).has_value());
}

TEST(LinkModel, PaperFraming8KBlockIsNineFrames) {
  Message msg = SampleMessage(MsgType::kInterrupt);  // 8K DMA payload.
  LinkModel eth = LinkModel::Ethernet10();
  EXPECT_EQ(eth.FrameCount(msg.WireSize()), 9u);  // The paper's "9 messages".
  // Small control messages are single frames.
  EXPECT_EQ(eth.FrameCount(SampleMessage(MsgType::kAck).WireSize()), 1u);
}

TEST(LinkModel, TransferTimeScalesWithBandwidth) {
  LinkModel eth = LinkModel::Ethernet10();
  LinkModel atm = LinkModel::Atm155();
  size_t bytes = 8300;
  SimTime t_eth = eth.TransferTime(bytes);
  SimTime t_atm = atm.TransferTime(bytes);
  EXPECT_LT(t_atm, t_eth);
  // Ethernet: 9 frames * 90us + 8300*8/10Mbps = 810us + 6640us.
  EXPECT_NEAR(t_eth.micros_f(), 810.0 + 6640.0, 1.0);
}

TEST(Channel, FifoDeliveryWithLatency) {
  Channel channel(LinkModel::Ethernet10());
  Message m1 = SampleMessage(MsgType::kTimeSync);
  Message m2 = SampleMessage(MsgType::kEpochEnd);
  SimTime t0 = SimTime::Micros(1000);
  auto a1 = channel.Send(m1, t0);
  auto a2 = channel.Send(m2, t0);
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  EXPECT_LT(*a1, *a2);  // Serialised on the wire.
  EXPECT_FALSE(channel.Receive(t0).has_value());  // Nothing arrived yet.
  auto r1 = channel.Receive(*a1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->type, MsgType::kTimeSync);
  EXPECT_FALSE(channel.Receive(*a1).has_value());  // m2 still in flight.
  auto r2 = channel.Receive(*a2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->type, MsgType::kEpochEnd);
}

TEST(Channel, SequenceNumbersAssignedInOrder) {
  Channel channel(LinkModel::Ethernet10());
  channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  auto arrival = channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  EXPECT_EQ(channel.messages_enqueued(), 3u);
  EXPECT_EQ(channel.messages_sent(), 3u);  // Ideal wire: one send per message.
  channel.Receive(*arrival);
  channel.Receive(*arrival);
  auto third = channel.Receive(*arrival);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->seq, 2u);
}

// Regression (messages_sent/next_seq conflation): retransmissions add wire
// sends but must not mint new sequence numbers, and the protocol's ack
// universe (messages_enqueued) must stay put.
TEST(Channel, RetransmitCountsWireSendsNotSequenceNumbers) {
  LinkFaults faults;
  faults.drop_probability = 1e-9;  // Enable the fault machinery, lose nothing.
  Channel channel(LinkModel::Ethernet10(), ChannelMode::kOrdered, faults, /*fault_seed=*/7);
  channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  EXPECT_EQ(channel.messages_enqueued(), 2u);
  EXPECT_EQ(channel.messages_sent(), 2u);

  // Nothing acked: the whole window re-sends once the head has aged a full
  // timeout past its serialisation end.
  auto result = channel.MaybeRetransmit(SimTime::Millis(5));
  EXPECT_EQ(result.frames, 2u);
  EXPECT_EQ(channel.messages_enqueued(), 2u);  // Seq source untouched.
  EXPECT_EQ(channel.messages_sent(), 4u);      // Wire sends ran ahead.
  EXPECT_EQ(channel.counters().retransmits, 2u);

  // Retransmitted copies carry the original sequence numbers; the receiver
  // delivers each message exactly once.
  SimTime late = SimTime::Seconds(1);
  auto m0 = channel.Receive(late);
  auto m1 = channel.Receive(late);
  ASSERT_TRUE(m0.has_value() && m1.has_value());
  EXPECT_EQ(m0->seq, 0u);
  EXPECT_EQ(m1->seq, 1u);
  EXPECT_FALSE(channel.Receive(late).has_value());  // Duplicates discarded.
  EXPECT_EQ(channel.counters().rx_duplicates, 2u);
  EXPECT_TRUE(channel.TakeReackRequested());

  // A cumulative ack empties the window: no further retransmissions.
  channel.OnCumulativeAck(2, late);
  EXPECT_FALSE(channel.NeedsRetransmitTimer());
  EXPECT_EQ(channel.MaybeRetransmit(SimTime::Seconds(2)).frames, 0u);
}

TEST(Channel, BreakDropsFutureSendsButDeliversInFlight) {
  Channel channel(LinkModel::Ethernet10());
  auto arrival = channel.Send(SampleMessage(MsgType::kTimeSync), SimTime::Zero());
  ASSERT_TRUE(arrival.has_value());
  // Break after the frame finished serialising (arrival minus propagation)
  // but before it arrives: a genuinely-sent frame still lands.
  channel.Break(*arrival - LinkModel::Ethernet10().propagation);
  EXPECT_EQ(channel.LastPendingArrival(), *arrival);
  EXPECT_TRUE(channel.Receive(*arrival).has_value());
  // Sent after the break: vanishes.
  EXPECT_FALSE(channel.Send(SampleMessage(MsgType::kEpochEnd), *arrival).has_value());
  EXPECT_FALSE(channel.LastPendingArrival().has_value());
}

// Regression (Break/occupancy carryover): a crash mid-serialisation
// truncates the frame on the wire — it must not arrive, and it must not
// leave phantom occupancy (busy_until_/LastPendingArrival) behind for whoever
// consults the channel afterwards (the failure detector, a promoted
// backup's re-protection path).
TEST(Channel, BreakMidSerializationTruncatesAndClearsOccupancy) {
  Channel channel(LinkModel::Ethernet10());
  SimTime prop = LinkModel::Ethernet10().propagation;
  // First frame fully serialised; second one queued behind it.
  auto a1 = channel.Send(SampleMessage(MsgType::kTimeSync), SimTime::Zero());
  auto a2 = channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  ASSERT_TRUE(a1.has_value() && a2.has_value());
  ASSERT_LT(*a1, *a2);
  // Crash while frame 2 is still being pushed onto the wire.
  SimTime crash = *a1 - prop + SimTime::Micros(1);
  ASSERT_LT(crash, *a2 - prop);
  channel.Break(crash);
  // The drain view reflects only what was genuinely sent: no stale
  // occupancy from the truncated frame.
  EXPECT_EQ(channel.LastPendingArrival(), *a1);
  // Frame 1 arrives; frame 2 was truncated and never does.
  EXPECT_TRUE(channel.Receive(*a1).has_value());
  EXPECT_FALSE(channel.Receive(*a2 + SimTime::Seconds(1)).has_value());
  EXPECT_FALSE(channel.LastPendingArrival().has_value());
}

// A crash with a non-empty queue keeps exactly the fully-serialised prefix.
TEST(Channel, BreakWithQueuedFramesKeepsSerialisedPrefix) {
  Channel channel(LinkModel::Ethernet10());
  SimTime prop = LinkModel::Ethernet10().propagation;
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 4; ++i) {
    auto a = channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
    ASSERT_TRUE(a.has_value());
    arrivals.push_back(*a);
  }
  // Crash after the second frame's serialisation completes.
  channel.Break(arrivals[1] - prop);
  EXPECT_EQ(channel.LastPendingArrival(), arrivals[1]);
  SimTime late = arrivals[3] + SimTime::Seconds(1);
  EXPECT_TRUE(channel.Receive(late).has_value());
  EXPECT_TRUE(channel.Receive(late).has_value());
  EXPECT_FALSE(channel.Receive(late).has_value());  // Frames 3 and 4 truncated.
}

// Property fuzz: deserialisation of arbitrarily mutated bytes must never
// misbehave — either reject or produce a message that re-serialises
// canonically. (The channel is trusted in the simulation, but a codec that
// chokes on corruption is a latent bug.)
class MessageFuzz : public testing::TestWithParam<int> {};

TEST_P(MessageFuzz, MutatedBytesNeverCrashCodec) {
  DeterministicRng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 500; ++round) {
    MsgType type = static_cast<MsgType>(1 + rng.NextBelow(kNumMsgTypes));
    Message msg = SampleMessage(type);
    if (msg.io.has_value()) {
      msg.io->dma_data.resize(rng.NextBelow(64));  // Small payloads for speed.
    }
    if (msg.type == MsgType::kStateChunk) {
      msg.state_data.resize(rng.NextBelow(64));
    }
    auto bytes = msg.Serialize();
    // Mutate 1-4 positions and/or truncate.
    size_t mutations = 1 + rng.NextBelow(4);
    for (size_t m = 0; m < mutations && !bytes.empty(); ++m) {
      bytes[rng.NextBelow(bytes.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    if (rng.NextBool(0.3) && !bytes.empty()) {
      bytes.resize(rng.NextBelow(bytes.size()));
    }
    auto decoded = Message::Deserialize(bytes);
    if (decoded.has_value()) {
      // Whatever was accepted must be canonical: re-serialising reproduces
      // the accepted bytes exactly (anything else is a silent misparse).
      auto re = decoded->Serialize();
      EXPECT_EQ(re, bytes);
      EXPECT_EQ(re.size(), decoded->WireSize());
      auto again = Message::Deserialize(re);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->Serialize(), re);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzz, testing::Range(0, 4));

TEST(Channel, NextArrivalExposesEarliestInFlight) {
  Channel channel(LinkModel::Ethernet10());
  EXPECT_FALSE(channel.NextArrival().has_value());
  auto a1 = channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  channel.Send(SampleMessage(MsgType::kEpochEnd), SimTime::Zero());
  ASSERT_TRUE(channel.NextArrival().has_value());
  EXPECT_EQ(*channel.NextArrival(), *a1);
}

}  // namespace
}  // namespace hbft
