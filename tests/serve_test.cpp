// Serve subsystem tests: the client wire codec (canonical-bytes fuzzing:
// every truncation and every non-canonical byte must be rejected, never
// misread), golden bytes for every client-side wire format (client frame,
// length prefix, NIC request header, fleet request header), the length-prefix
// stream dissector (a partial trailing frame is held and never delivered —
// the socket analogue of Channel::Break pruning a mid-serialisation frame),
// the Channel socket transport (ordered framing over a WireSink, with no
// retransmit window), and the two wire roles' Worlds joined by in-memory byte queues
// standing in for the TCP connection: each boots its World twin's machine
// byte for byte, the pair runs the guest time its twin runs, and a lost peer
// promotes the backup as a killed primary promotes the twin's. Then the serve
// loop's wait rule, and the request budget's count of released responses
// across a failover that releases one twice.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "devices/nic.hpp"
#include "fleet/traffic.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/realtime_pump.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace serve {
namespace {

ClientFrame SampleFrame() {
  ClientFrame frame;
  frame.type = kFrameRequest;
  frame.flags = kFlagResend;
  frame.client_id = 0x1122334455667788ULL;
  frame.seq = 42;
  frame.payload = {'h', 'e', 'l', 'l', 'o'};
  return frame;
}

// --- ClientFrame codec -------------------------------------------------------

TEST(ClientFrameCodec, RoundTrip) {
  for (uint8_t type : {kFrameRequest, kFrameResponse}) {
    for (uint8_t flags : {uint8_t{0}, kFlagResend}) {
      ClientFrame frame = SampleFrame();
      frame.type = type;
      frame.flags = flags;
      auto decoded = ClientFrame::Deserialize(frame.Serialize());
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, frame);
    }
  }
}

TEST(ClientFrameCodec, RoundTripEmptyAndMaxPayload) {
  ClientFrame frame = SampleFrame();
  frame.payload.clear();
  EXPECT_EQ(ClientFrame::Deserialize(frame.Serialize()), frame);
  frame.payload.assign(kMaxRequestPayload, 0xA5);
  EXPECT_EQ(ClientFrame::Deserialize(frame.Serialize()), frame);
}

TEST(ClientFrameCodec, EveryPrefixTruncationRejected) {
  std::vector<uint8_t> bytes = SampleFrame().Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(ClientFrame::Deserialize(prefix).has_value()) << "prefix length " << len;
  }
  EXPECT_TRUE(ClientFrame::Deserialize(bytes).has_value());
}

TEST(ClientFrameCodec, TrailingGarbageRejected) {
  std::vector<uint8_t> bytes = SampleFrame().Serialize();
  bytes.push_back(0x00);
  EXPECT_FALSE(ClientFrame::Deserialize(bytes).has_value());
}

TEST(ClientFrameCodec, NonCanonicalTypeRejected) {
  std::vector<uint8_t> bytes = SampleFrame().Serialize();
  for (int type : {0, 3, 4, 0x7F, 0xFF}) {
    bytes[0] = static_cast<uint8_t>(type);
    EXPECT_FALSE(ClientFrame::Deserialize(bytes).has_value()) << "type " << type;
  }
}

TEST(ClientFrameCodec, UndefinedFlagBitsRejected) {
  std::vector<uint8_t> bytes = SampleFrame().Serialize();
  for (int flags : {0x02, 0x80, 0xFE, 0xFF}) {
    bytes[1] = static_cast<uint8_t>(flags);
    EXPECT_FALSE(ClientFrame::Deserialize(bytes).has_value()) << "flags " << flags;
  }
  bytes[1] = kFlagResend;  // The one defined bit still parses.
  EXPECT_TRUE(ClientFrame::Deserialize(bytes).has_value());
}

TEST(ClientFrameCodec, PayloadLengthMismatchRejected) {
  ClientFrame frame = SampleFrame();
  std::vector<uint8_t> bytes = frame.Serialize();
  // Announce one byte more / fewer than is actually present (offset 18 is
  // the little-endian payload_len field).
  bytes[18] = static_cast<uint8_t>(frame.payload.size() + 1);
  EXPECT_FALSE(ClientFrame::Deserialize(bytes).has_value());
  bytes[18] = static_cast<uint8_t>(frame.payload.size() - 1);
  EXPECT_FALSE(ClientFrame::Deserialize(bytes).has_value());
}

TEST(ClientFrameCodec, OversizedPayloadLengthRejected) {
  // A frame announcing more payload than a NIC packet can carry is refused
  // even when the bytes are all present.
  std::vector<uint8_t> bytes = SampleFrame().Serialize();
  bytes.resize(kClientFrameHeaderBytes);
  uint32_t len = static_cast<uint32_t>(kMaxRequestPayload) + 1;
  bytes[18] = static_cast<uint8_t>(len);
  bytes[19] = static_cast<uint8_t>(len >> 8);
  bytes[20] = static_cast<uint8_t>(len >> 16);
  bytes[21] = static_cast<uint8_t>(len >> 24);
  bytes.insert(bytes.end(), len, 0x00);
  EXPECT_FALSE(ClientFrame::Deserialize(bytes).has_value());
}

// Exhaustive two-byte-header sweep: whatever the first two bytes say, the
// decoder either produces a frame that re-serialises to the identical bytes
// or rejects — no third outcome.
TEST(ClientFrameCodec, FuzzHeaderBytesParseOrReject) {
  std::vector<uint8_t> bytes = SampleFrame().Serialize();
  for (int type = 0; type < 256; ++type) {
    for (int flags : {0, 1, 2, 3, 0x80, 0xFF}) {
      bytes[0] = static_cast<uint8_t>(type);
      bytes[1] = static_cast<uint8_t>(flags);
      auto decoded = ClientFrame::Deserialize(bytes);
      if (decoded.has_value()) {
        EXPECT_EQ(decoded->Serialize(), bytes);
      }
    }
  }
}

// --- FrameReader (length-prefix stream dissector) ----------------------------

TEST(FrameReader, ByteAtATimeDeliveryInOrder) {
  ClientFrame a = SampleFrame();
  ClientFrame b = SampleFrame();
  b.seq = 43;
  b.payload = {'x'};
  std::vector<uint8_t> stream = EncodeFrame(a);
  std::vector<uint8_t> second = EncodeFrame(b);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader(kMaxClientFrameBytes);
  std::vector<std::vector<uint8_t>> frames;
  for (uint8_t byte : stream) {
    reader.Feed(&byte, 1);
    while (auto frame = reader.Next()) {
      frames.push_back(*frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(ClientFrame::Deserialize(frames[0]), a);
  EXPECT_EQ(ClientFrame::Deserialize(frames[1]), b);
  EXPECT_EQ(reader.BufferedBytes(), 0u);
  EXPECT_FALSE(reader.corrupt());
}

// Satellite contract: a partial TCP write at peer death must not become a
// phantom delivered frame. Every strict prefix of the stream yields only the
// frames whose bytes fully arrived; the truncated residue is held forever.
TEST(FrameReader, TruncatedTrailingFrameIsHeldNeverDelivered) {
  std::vector<uint8_t> whole = EncodeFrame(SampleFrame());
  for (size_t cut = 1; cut < whole.size(); ++cut) {
    FrameReader reader(kMaxClientFrameBytes);
    reader.Feed(whole.data(), cut);
    EXPECT_FALSE(reader.Next().has_value()) << "cut at " << cut;
    EXPECT_EQ(reader.BufferedBytes(), cut);
    EXPECT_FALSE(reader.corrupt());
    // EOF happens here in real life; nothing more is ever delivered.
  }
}

TEST(FrameReader, CompleteFramePlusPartialNext) {
  ClientFrame frame = SampleFrame();
  std::vector<uint8_t> stream = EncodeFrame(frame);
  std::vector<uint8_t> partial = EncodeFrame(frame);
  stream.insert(stream.end(), partial.begin(), partial.begin() + 7);

  FrameReader reader(kMaxClientFrameBytes);
  reader.Feed(stream.data(), stream.size());
  EXPECT_TRUE(reader.Next().has_value());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.BufferedBytes(), 7u);
}

TEST(FrameReader, OversizedAnnouncedLengthPoisonsStream) {
  FrameReader reader(kMaxClientFrameBytes);
  uint32_t huge = kMaxClientFrameBytes + 1;
  uint8_t prefix[4] = {static_cast<uint8_t>(huge), static_cast<uint8_t>(huge >> 8),
                       static_cast<uint8_t>(huge >> 16), static_cast<uint8_t>(huge >> 24)};
  reader.Feed(prefix, sizeof(prefix));
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.corrupt());
  // A poisoned stream stays poisoned: framing desync is unrecoverable.
  std::vector<uint8_t> good = EncodeFrame(SampleFrame());
  reader.Feed(good.data(), good.size());
  EXPECT_FALSE(reader.Next().has_value());
}

// --- NIC request codec -------------------------------------------------------

TEST(NicCodec, RoundTrip) {
  NicRequest request{0xAABBCCDD00112233ULL, 7, {1, 2, 3}};
  EXPECT_EQ(DecodeNicPacket(EncodeNicRequest(request)), request);
}

TEST(NicCodec, RejectsForeignAndMalformedPackets) {
  EXPECT_FALSE(DecodeNicPacket({}).has_value());
  EXPECT_FALSE(DecodeNicPacket({'S', 'V'}).has_value());  // Short of a header.
  std::vector<uint8_t> packet = EncodeNicRequest(NicRequest{1, 1, {9}});
  packet[0] = 'X';  // Wrong magic: not serve traffic.
  EXPECT_FALSE(DecodeNicPacket(packet).has_value());
  std::vector<uint8_t> oversized(kNicRequestHeaderBytes + kMaxRequestPayload + 1, 0);
  oversized[0] = 'S';
  oversized[1] = 'V';
  EXPECT_FALSE(DecodeNicPacket(oversized).has_value());
}

// --- Golden wire bytes -------------------------------------------------------

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

// The exact bytes of the client frame, its length prefix and the NIC request
// header (and the fleet's request header, the other NIC request format),
// split field by field, all little-endian. Each golden string must also
// decode back to the value that produced it.
TEST(WireGolden, ClientFrameWithResendFlag) {
  ClientFrame frame;
  frame.type = kFrameRequest;
  frame.flags = kFlagResend;
  frame.client_id = 0x1122334455667788ULL;
  frame.seq = 42;
  frame.payload = {'h', 'i'};
  // type, flags, client_id, seq, payload length+bytes.
  const std::string body = "01" "01" "8877665544332211" "2a00000000000000" "02000000" "6869";
  EXPECT_EQ(Hex(frame.Serialize()), body);
  EXPECT_EQ(ClientFrame::Deserialize(Unhex(body)), frame);
  EXPECT_EQ(Hex(EncodeFrame(frame)), "18000000" + body);
}

TEST(WireGolden, FrameBytesLengthPrefix) {
  const std::string stream = "03000000" "abcdef";
  EXPECT_EQ(Hex(FrameBytes({0xAB, 0xCD, 0xEF})), stream);
  FrameReader reader(kMaxClientFrameBytes);
  std::vector<uint8_t> bytes = Unhex(stream);
  reader.Feed(bytes.data(), bytes.size());
  EXPECT_EQ(reader.Next(), (std::vector<uint8_t>{0xAB, 0xCD, 0xEF}));
  EXPECT_EQ(reader.BufferedBytes(), 0u);
}

TEST(WireGolden, NicRequest) {
  NicRequest request{0xAABBCCDD00112233ULL, 7, {1, 2, 3}};
  // 'S' 'V', client_id, seq, then the raw payload (no length).
  const std::string packet = "5356" "33221100ddccbbaa" "0700000000000000" "010203";
  EXPECT_EQ(Hex(EncodeNicRequest(request)), packet);
  EXPECT_EQ(DecodeNicPacket(Unhex(packet)), request);
}

TEST(WireGolden, FleetRequestHeader) {
  // 'F' 'Q', chain, seq, then filler bytes (chain*131 + seq*31 + i) & 0xFF.
  EXPECT_EQ(Hex(EncodeRequest(0x01020304, 0x0A0B0C0D, 10)), "4651" "04030201" "0d0c0b0a");
  const std::string packet = "4651" "03000000" "05000000" "2e2f30313233";
  EXPECT_EQ(Hex(EncodeRequest(3, 5, 16)), packet);
  TrafficConfig traffic;
  traffic.requests_per_chain = 6;
  EnvTraceEntry echo;
  echo.device_id = DeviceId::kNic;
  echo.time = SimTime::Seconds(1);
  echo.bytes = Unhex(packet);
  std::vector<RequestOutcome> outcomes = MatchRequests(3, traffic, {echo});
  ASSERT_EQ(outcomes.size(), 6u);
  for (const RequestOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.served, outcome.seq == 5) << "seq " << outcome.seq;
  }
}

// --- Channel socket transport ------------------------------------------------

Message EpochEndMessage(uint64_t epoch) {
  Message msg;
  msg.type = MsgType::kEpochEnd;
  msg.epoch = epoch;
  return msg;
}

TEST(ChannelWire, SinkCarriesFramesAndBypassesLocalDelivery) {
  Channel tx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  std::vector<std::vector<uint8_t>> shipped;
  tx.BindWireSink([&shipped](const std::vector<uint8_t>& bytes) {
    shipped.push_back(bytes);
    return true;
  });

  ASSERT_TRUE(tx.Send(EpochEndMessage(1), SimTime::Zero()).has_value());
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(tx.counters().wire_sends, 1u);
  // The frame left the process: nothing is ever locally deliverable.
  EXPECT_FALSE(tx.Receive(SimTime::Seconds(10)).has_value());

  auto msg = Message::Deserialize(shipped[0]);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::kEpochEnd);
  EXPECT_EQ(msg->epoch, 1u);
}

TEST(ChannelWire, InjectedFramesRunOrderedDedup) {
  Channel tx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  std::vector<std::vector<uint8_t>> shipped;
  tx.BindWireSink([&shipped](const std::vector<uint8_t>& bytes) {
    shipped.push_back(bytes);
    return true;
  });
  tx.Send(EpochEndMessage(1), SimTime::Zero());
  tx.Send(EpochEndMessage(2), SimTime::Zero());
  ASSERT_EQ(shipped.size(), 2u);

  Channel rx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  SimTime t = SimTime::Millis(1);
  EXPECT_TRUE(rx.InjectWireFrame(shipped[0], t));
  EXPECT_TRUE(rx.InjectWireFrame(shipped[0], t));  // The ordered receiver's
  EXPECT_TRUE(rx.InjectWireFrame(shipped[1], t));  // dedup runs on the socket.

  auto first = rx.Receive(t);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->epoch, 1u);
  auto second = rx.Receive(t);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_FALSE(rx.Receive(t).has_value());
  EXPECT_EQ(rx.counters().rx_duplicates, 1u);
  EXPECT_TRUE(rx.TakeReackRequested());
}

TEST(ChannelWire, UndecodableBytesCountedAndRefused) {
  Channel rx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_FALSE(rx.InjectWireFrame(garbage, SimTime::Millis(1)));
  EXPECT_EQ(rx.counters().wire_decode_errors, 1u);
  EXPECT_FALSE(rx.Receive(SimTime::Seconds(1)).has_value());
}

TEST(ChannelWire, BrokenChannelRefusesInjection) {
  Channel tx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  std::vector<std::vector<uint8_t>> shipped;
  tx.BindWireSink([&shipped](const std::vector<uint8_t>& b) {
    shipped.push_back(b);
    return true;
  });
  tx.Send(EpochEndMessage(1), SimTime::Zero());

  Channel rx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  rx.Break(SimTime::Millis(5));
  EXPECT_FALSE(rx.InjectWireFrame(shipped[0], SimTime::Millis(6)));
  EXPECT_FALSE(rx.Receive(SimTime::Seconds(1)).has_value());
}

TEST(ChannelWire, SocketBoundChannelKeepsNoRetransmitWindow) {
  Channel tx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  uint64_t sink_calls = 0;
  tx.BindWireSink([&sink_calls](const std::vector<uint8_t>&) {
    ++sink_calls;
    return true;
  });

  // TCP delivers every frame while the connection lives, and a dead
  // connection is the peer's death: an unacked frame is never re-sent.
  tx.Send(EpochEndMessage(1), SimTime::Zero());
  EXPECT_FALSE(tx.NeedsRetransmitTimer());
  EXPECT_FALSE(tx.NextRetransmitDeadline().has_value());
  EXPECT_EQ(tx.MaybeRetransmit(SimTime::Seconds(10)).frames, 0u);
  EXPECT_EQ(sink_calls, 1u);
  EXPECT_EQ(tx.counters().retransmits, 0u);
}

TEST(ChannelWire, SinkFailureCountsAsLinkDrop) {
  Channel tx(LinkModel::Ethernet10(), ChannelMode::kOrdered);
  tx.BindWireSink([](const std::vector<uint8_t>&) { return false; });
  ASSERT_TRUE(tx.Send(EpochEndMessage(1), SimTime::Zero()).has_value());
  EXPECT_EQ(tx.counters().link_drops, 1u);
}

// --- Wire positions over an in-memory "socket" ------------------------------

Scenario LockstepConfig() {
  return Scenario::Replicated(WorkloadSpec::NetEcho(1000000))
      .Variant(ProtocolVariant::kRevised)
      .Epoch(4096)
      .Seed(42);
}

std::vector<uint8_t> CaptureBytes(const Machine& machine) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  machine.CaptureState(w, /*include_memory=*/true);
  return snap.bytes;
}

// Runs `world` just past `now`: RunLoop(limit) leaves the events stamped
// `limit` for its next call, and a step must handle what it delivered at
// `now`.
void RunPast(World& world, SimTime now) { world.RunLoop(now + SimTime::Picos(1)); }

// A wire position boots, byte for byte, the machine World boots at the same
// chain position, with the same channels to its neighbour, so the
// two-process serve pair cannot drift from the in-process chain.
TEST(WirePositionLockstep, BootsWhatWorldBootsAtTheSamePosition) {
  const Scenario scenario = LockstepConfig();
  std::unique_ptr<World> world = scenario.BuildWorld();
  for (size_t position : {0, 1}) {
    SCOPED_TRACE(position);
    std::unique_ptr<World> wire = scenario.BuildWirePosition(position);
    ASSERT_EQ(wire->replica_count(), 1u);
    ReplicaNode& node = *wire->replica(0);
    ReplicaNode& twin = *world->replica(position);
    Machine& machine = node.hypervisor().machine();
    Machine& twin_machine = twin.hypervisor().machine();
    const std::vector<uint8_t> state = CaptureBytes(machine);
    EXPECT_GE(state.size(), machine.config().ram_bytes);
    EXPECT_TRUE(state == CaptureBytes(twin_machine)) << state.size() << " state bytes differ";
    EXPECT_EQ(machine.Fingerprint(), twin_machine.Fingerprint());
    EXPECT_EQ(node.id(), twin.id());
    EXPECT_EQ(machine.tlb().capacity(), twin_machine.tlb().capacity());
    EXPECT_EQ(machine.config().tlb_policy, twin_machine.config().tlb_policy);
    EXPECT_EQ(machine.config().machine_seed, twin_machine.config().machine_seed);
    EXPECT_EQ(node.hypervisor().config().epoch_length, twin.hypervisor().config().epoch_length);
    // The chain's first link pair, under the whole chain's keys.
    ASSERT_EQ(wire->channel_map().size(), 2u);
    for (const auto& [key, channel] : wire->channel_map()) {
      const Channel& twin_channel = *world->channel(key.first, key.second);
      EXPECT_EQ(channel->mode(), twin_channel.mode());
      EXPECT_EQ(channel->retransmit_timeout(), twin_channel.retransmit_timeout());
    }
  }
}

// Two separately built wire positions joined by byte queues: the in-memory
// stand-in for the TCP repl connection, driven at deterministic synthetic
// times. Step(now) delivers what either side sent during the previous step,
// stamped `now`, then runs both worlds past `now`.
struct QueuedPair {
  explicit QueuedPair(const Scenario& scenario)
      : primary(scenario.BuildWirePosition(0)), backup(scenario.BuildWirePosition(1)) {
    primary->BindWireSink([this](const std::vector<uint8_t>& bytes) {
      to_backup.push_back(bytes);
      return true;
    });
    backup->BindWireSink([this](const std::vector<uint8_t>& bytes) {
      to_primary.push_back(bytes);
      return true;
    });
  }
  QueuedPair(const QueuedPair&) = delete;
  QueuedPair& operator=(const QueuedPair&) = delete;

  void Step(SimTime now) {
    while (!to_backup.empty()) {
      backup->InjectWireFrame(to_backup.front(), now);
      to_backup.pop_front();
    }
    while (!to_primary.empty()) {
      primary->InjectWireFrame(to_primary.front(), now);
      to_primary.pop_front();
    }
    RunPast(*primary, now);
    RunPast(*backup, now);
  }

  std::unique_ptr<World> primary;
  std::unique_ptr<World> backup;
  std::deque<std::vector<uint8_t>> to_backup;
  std::deque<std::vector<uint8_t>> to_primary;
};

// Covers the full serve datapath minus the actual sockets: request
// injection, lockstep execution, output commit at the TX latch, peer death,
// promotion, and the promoted backup serving on its own.
TEST(WirePositionLockstep, EchoThenFailover) {
  QueuedPair pair(LockstepConfig());
  World& primary = *pair.primary;
  World& backup = *pair.backup;

  std::vector<NicRequest> primary_released;
  primary.devices().nic()->set_on_latch([&primary_released](const EnvTraceEntry& entry) {
    if (auto req = DecodeNicPacket(entry.bytes)) {
      primary_released.push_back(*req);
    }
  });
  std::vector<NicRequest> backup_released;
  backup.devices().nic()->set_on_latch([&backup_released](const EnvTraceEntry& entry) {
    if (auto req = DecodeNicPacket(entry.bytes)) {
      backup_released.push_back(*req);
    }
  });

  const SimTime step = SimTime::Micros(200);
  SimTime now = SimTime::Zero();

  // Request 1 commits through the chain: the primary's TX latch may only
  // fire once the backup acked everything the echo depends on.
  NicRequest first{77, 1, {'w', 'r', 'i', 't', 'e'}};
  primary.InjectPacket(EncodeNicRequest(first), now);
  SimTime deadline = now + SimTime::Millis(400);
  while (primary_released.empty() && now < deadline) {
    now = now + step;
    pair.Step(now);
  }
  ASSERT_EQ(primary_released.size(), 1u);
  EXPECT_EQ(primary_released[0], first);
  EXPECT_GT(backup.replica(0)->stats().epochs, 0u);
  EXPECT_FALSE(backup.replica(0)->promoted());

  // The primary dies. Its unshipped frames vanish with it (the sink queues
  // are dropped); the backup sees the socket break and promotes.
  pair.to_backup.clear();
  pair.to_primary.clear();
  const SimTime lost = now;
  backup.PeerLost(lost);
  deadline = now + SimTime::Millis(400);
  while (!backup.replica(0)->promoted() && now < deadline) {
    now = now + step;
    RunPast(backup, now);
  }
  ASSERT_TRUE(backup.replica(0)->promoted());
  EXPECT_GE(backup.replica(0)->promotion_time(), lost);
  EXPECT_EQ(backup.crash_times(), std::vector<SimTime>{lost});

  // The promoted backup serves request 2 end to end by itself.
  NicRequest second{77, 2, {'m', 'o', 'r', 'e'}};
  backup.InjectPacket(EncodeNicRequest(second), now);
  deadline = now + SimTime::Millis(400);
  size_t already = backup_released.size();
  bool seen = false;
  while (!seen && now < deadline) {
    now = now + step;
    RunPast(backup, now);
    for (size_t i = already; i < backup_released.size(); ++i) {
      if (backup_released[i] == second) {
        seen = true;
      }
    }
  }
  EXPECT_TRUE(seen);
}

// A dead socket takes the killed-replica path: a wire backup whose peer is
// lost at t promotes within one step of its World twin whose primary is
// killed at t. The twin's detector counts from the arrival of the last frame
// still in flight at the kill, a link latency after t; the wire backup has
// received everything by t, so it promotes that much earlier.
TEST(WirePositionLockstep, LostPeerPromotesLikeAKilledPrimary) {
  const SimTime step = SimTime::Micros(200);
  for (int64_t kill_ms : {37, 120, 301}) {
    SCOPED_TRACE(kill_ms);
    const SimTime kill = SimTime::Millis(kill_ms);
    const SimTime deadline = kill + SimTime::Millis(50);
    std::unique_ptr<World> twin = LockstepConfig().FailAtTime(kill).BuildWorld();
    twin->RunLoop(deadline);
    const ReplicaNode& twin_backup = *twin->replica(1);
    ASSERT_TRUE(twin_backup.promoted());

    QueuedPair pair(LockstepConfig());
    SimTime now = SimTime::Zero();
    while (now < kill) {
      now = now + step;
      pair.Step(now);
    }
    pair.to_backup.clear();
    pair.backup->PeerLost(kill);
    const ReplicaNode& backup = *pair.backup->replica(0);
    while (!backup.promoted() && now < deadline) {
      now = now + step;
      RunPast(*pair.backup, now);
    }
    ASSERT_TRUE(backup.promoted());
    EXPECT_LE(std::abs((backup.promotion_time() - twin_backup.promotion_time()).micros_f()),
              step.micros_f())
        << "wire backup promoted at " << backup.promotion_time().micros_f() << " us, twin at "
        << twin_backup.promotion_time().micros_f() << " us";
  }
}

// The wire roles run their replicas by the in-process chain's rules: a pair
// of wire positions stepped at 200 us over the byte queues executes the
// guest time its World twin executes and latches the same echoes at the
// same instants. A role that delivered inputs before running its replica up
// to their stamp would jump the guest's clock over time it never ran: it
// falls thousands of epochs behind here and latches every echo milliseconds
// late.
//
// The pair cannot match its twin exactly. The harness delivers each frame
// on a step boundary, not at the link model's arrival instant, so output
// commit waits end at different instants in the two runs (the pair's are
// shorter here) and the guest's epoch grid drifts against its twin's: over
// this run the pair ends about one epoch ahead, and an interrupt waits for
// a boundary up to an epoch earlier or later. The bounds below allow that
// for this scenario: two epochs, two steps per echo and one step on the
// mean, where a skipping role misses by 3,344 epochs and by 1.4-1.8 ms on
// every echo.
TEST(WirePositionLockstep, PairRunsTheGuestTimeItsWorldTwinRuns) {
  constexpr int kRequests = 20;
  const SimTime gap = SimTime::Millis(100);
  const SimTime step = SimTime::Micros(200);
  const SimTime end = gap * (kRequests + 1);
  std::vector<std::vector<uint8_t>> requests;
  for (int i = 1; i <= kRequests; ++i) {
    NicRequest req{31, static_cast<uint64_t>(i), {'e', 'c', 'h', 'o', static_cast<uint8_t>(i)}};
    requests.push_back(EncodeNicRequest(req));
  }
  auto due = [&gap](int i) { return gap * (i + 1); };

  Scenario scenario = LockstepConfig();
  for (int i = 0; i < kRequests; ++i) {
    scenario.InjectPacket(requests[i], due(i));
  }
  std::unique_ptr<World> world = scenario.BuildWorld();
  world->RunLoop(end);

  QueuedPair pair(LockstepConfig());
  int next = 0;
  for (SimTime now = step; now <= end; now = now + step) {
    if (next < kRequests && due(next) == now) {
      pair.primary->InjectPacket(requests[next++], now);
    }
    pair.Step(now);
  }
  ASSERT_EQ(next, kRequests);

  const struct {
    const char* name;
    World* wire;
    size_t position;
  } sides[] = {{"primary", pair.primary.get(), 0}, {"backup", pair.backup.get(), 1}};
  for (const auto& side : sides) {
    SCOPED_TRACE(side.name);
    ReplicaNode& node = *side.wire->replica(0);
    ReplicaNode& twin = *world->replica(side.position);
    const auto epochs = static_cast<int64_t>(node.stats().epochs);
    const auto twin_epochs = static_cast<int64_t>(twin.stats().epochs);
    EXPECT_GT(twin_epochs, 8000);
    EXPECT_LE(std::abs(epochs - twin_epochs), 2) << epochs << " vs " << twin_epochs;
    const double retired = static_cast<double>(node.hypervisor().machine().cpu().instret);
    const double twin_retired = static_cast<double>(twin.hypervisor().machine().cpu().instret);
    EXPECT_NEAR(retired, twin_retired, twin_retired * 0.001);
  }

  const std::deque<EnvTraceEntry>& echoes = pair.primary->devices().nic()->trace();
  const std::deque<EnvTraceEntry>& twin_echoes = world->devices().nic()->trace();
  ASSERT_EQ(twin_echoes.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(echoes.size(), twin_echoes.size());
  const double step_us = step.micros_f();
  double total_late_us = 0.0;
  for (size_t i = 0; i < echoes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(echoes[i].bytes, twin_echoes[i].bytes);
    const double late_us = (echoes[i].time - twin_echoes[i].time).micros_f();
    EXPECT_LE(std::abs(late_us), 2 * step_us) << "us after the World twin's latch";
    total_late_us += late_us;
  }
  EXPECT_LE(std::abs(total_late_us / static_cast<double>(echoes.size())), step_us)
      << "mean us after the World twin's latches";
}

// A standing backup queues environment input until promotion completes —
// the single-process RouteInput semantics carried over to the socket world.
TEST(WirePositionLockstep, StandingBackupQueuesInputUntilPromotion) {
  std::unique_ptr<World> backup = LockstepConfig().BuildWirePosition(1);
  backup->BindWireSink([](const std::vector<uint8_t>&) { return true; });

  std::vector<NicRequest> released;
  backup->devices().nic()->set_on_latch([&released](const EnvTraceEntry& entry) {
    if (auto req = DecodeNicPacket(entry.bytes)) {
      released.push_back(*req);
    }
  });

  NicRequest request{5, 1, {'q'}};
  SimTime now = SimTime::Millis(1);
  backup->InjectPacket(EncodeNicRequest(request), now);
  RunPast(*backup, now + SimTime::Millis(2));
  EXPECT_TRUE(released.empty());  // Standing by: input held, not consumed.

  backup->PeerLost(now + SimTime::Millis(2));
  SimTime deadline = now + SimTime::Millis(400);
  const SimTime step = SimTime::Micros(200);
  while (now < deadline && released.empty()) {
    now = now + step;
    RunPast(*backup, now);
  }
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], request);
}

// --- The serve loops' wait rule ----------------------------------------------

TEST(WaitBound, RunnableReplicaWaitsAtMostTwoMillis) {
  const SimTime now = SimTime::Millis(10);
  EXPECT_EQ(RealtimePump::WaitBound(now, now + SimTime::Millis(50), true), SimTime::Millis(2));
  EXPECT_EQ(RealtimePump::WaitBound(now, SimTime::Max(), true), SimTime::Millis(2));
  // An event sooner than the bound still ends the sleep at the event.
  EXPECT_EQ(RealtimePump::WaitBound(now, now + SimTime::Micros(300), true), SimTime::Micros(300));
}

TEST(WaitBound, BlockedReplicaWaitsUntilItsNextEvent) {
  const SimTime now = SimTime::Millis(10);
  EXPECT_EQ(RealtimePump::WaitBound(now, now + SimTime::Millis(26), false), SimTime::Millis(26));
  EXPECT_EQ(RealtimePump::WaitBound(now, now + SimTime::Micros(95), false), SimTime::Micros(95));
}

TEST(WaitBound, DueEventWaitsThePollFloor) {
  const SimTime now = SimTime::Millis(10);
  EXPECT_EQ(RealtimePump::kMinWait, SimTime::Micros(50));
  for (bool runnable : {false, true}) {
    EXPECT_EQ(RealtimePump::WaitBound(now, now, runnable), SimTime::Micros(50));
    EXPECT_EQ(RealtimePump::WaitBound(now, now - SimTime::Millis(3), runnable),
              SimTime::Micros(50));
  }
}

TEST(WaitBound, IdleWaitsFiftyMillis) {
  EXPECT_EQ(RealtimePump::WaitBound(SimTime::Millis(10), SimTime::Max(), false),
            SimTime::Millis(50));
}

// --- Released responses across a failover -----------------------------------

// The active replica dies right after issuing I/O 3, the first echo's
// transmit (each request here costs three device operations). Its latch had
// already released the echo; the completion never reached the backup, so P7
// synthesises an uncertain one and the promoted guest transmits the echo
// again. The session's budget must count that response once: counting
// latches ended `serve --max-requests=N` one distinct response short of N.
TEST(ReleasedResponses, FailoverReReleaseCountsOnce) {
  constexpr uint64_t kRequests = 10;
  FailurePlan kill;
  kill.kind = FailurePlan::Kind::kAtPhase;
  kill.phase = FailPhase::kAfterIoIssue;
  kill.io_seq = 3;
  Scenario scenario = Scenario::Replicated(WorkloadSpec::NetEcho(kRequests))
                          .Variant(ProtocolVariant::kRevised)
                          .Epoch(4096)
                          .Seed(42)
                          .FailAt(kill);
  for (uint64_t seq = 1; seq <= kRequests; ++seq) {
    NicRequest req{7, seq, {'r', static_cast<uint8_t>('0' + seq)}};
    scenario.InjectPacket(EncodeNicRequest(req), SimTime::Millis(40 * seq));
  }
  std::unique_ptr<World> world = scenario.BuildWorld();
  Frontend frontend(0);  // Never listening: every response counts as unroutable.
  ReleasedResponses released;
  AttachLatchRelease(world->devices().nic(), &frontend, &released);
  world->RunLoop(SimTime::Max());
  ASSERT_TRUE(world->finished());

  const std::deque<EnvTraceEntry>& latches = world->devices().nic()->trace();
  ASSERT_EQ(latches.size(), kRequests + 1);  // One echo latched twice...
  EXPECT_EQ(latches[0].bytes, latches[1].bytes);
  EXPECT_EQ(frontend.stats().responses_unroutable, kRequests + 1);
  EXPECT_EQ(released.size(), kRequests);  // ...and counted once.
  for (uint64_t seq = 1; seq <= kRequests; ++seq) {
    EXPECT_EQ(released.count({7, seq}), 1u) << "seq " << seq;
  }
}

}  // namespace
}  // namespace serve
}  // namespace hbft
