// Transport-subsystem tests: the lossy-link model (drop/duplicate/reorder),
// go-back-N retransmission over the protocol's own cumulative acks, and the
// per-channel counters — plus a seed matrix, so transport regressions fail
// fast under both the ideal and the lossy wire.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/channel.hpp"
#include "net/link_faults.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

Message Sample(MsgType type) {
  Message msg;
  msg.type = type;
  msg.epoch = 7;
  return msg;
}

LinkFaults Lossy(double p) { return LinkFaults::SymmetricLoss(p); }

WorkloadSpec TxnSpec(uint32_t records) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kTxnLog;
  spec.iterations = records;
  spec.num_blocks = 16;
  return spec;
}

WorkloadSpec NetEchoSpec(uint32_t packets) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kNetEcho;
  spec.iterations = packets;
  return spec;
}

void InjectEchoPackets(Scenario* scenario, uint32_t packets) {
  for (uint32_t i = 0; i < packets; ++i) {
    std::vector<uint8_t> payload = {'p', 'k', 't', static_cast<uint8_t>('0' + i)};
    scenario->InjectPacket(std::move(payload));
  }
}

// ---------------------------------------------------------------------------
// Channel-level: the wire faults and the go-back-N machinery.
// ---------------------------------------------------------------------------

TEST(LossyChannel, DropsAreCountedAndRecoveredByRetransmission) {
  LinkFaults faults;
  faults.drop_probability = 0.5;
  Channel channel(LinkModel::Ethernet10(), ChannelMode::kOrdered, faults, /*seed=*/3);
  const int kMessages = 20;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(channel.Send(Sample(MsgType::kEpochEnd), t).has_value());
  }
  EXPECT_GT(channel.counters().link_drops, 0u);

  // Drive sender timeouts and receiver polls until the stream heals. Each
  // round acks what arrived in order, as the protocol would.
  uint64_t delivered = 0;
  for (int round = 0; round < 200 && delivered < kMessages; ++round) {
    t += faults.retransmit_timeout;
    channel.MaybeRetransmit(t);
    while (auto msg = channel.Receive(t)) {
      EXPECT_EQ(msg->seq, delivered);  // Strictly in order, no gaps.
      ++delivered;
    }
    channel.OnCumulativeAck(delivered, t);
  }
  EXPECT_EQ(delivered, static_cast<uint64_t>(kMessages));
  EXPECT_GT(channel.counters().retransmits, 0u);
  EXPECT_GT(channel.messages_sent(), channel.messages_enqueued());
  EXPECT_FALSE(channel.NeedsRetransmitTimer());  // Window fully acked.
}

TEST(LossyChannel, PostGapFramesAreDiscardedAndHealedByRetransmit) {
  // Find a seed where the first of two messages is reorder-delayed past the
  // second: the receiver must discard the overtaking frame (go-back-N keeps
  // no out-of-order buffer) and recover it via retransmission, still
  // delivering strictly in sequence.
  bool saw_gap = false;
  for (uint64_t seed = 0; seed < 64 && !saw_gap; ++seed) {
    LinkFaults faults;
    faults.reorder_probability = 0.5;
    Channel channel(LinkModel::Ethernet10(), ChannelMode::kOrdered, faults, seed);
    channel.Send(Sample(MsgType::kTimeSync), SimTime::Zero());
    channel.Send(Sample(MsgType::kEpochEnd), SimTime::Zero());
    uint64_t delivered = 0;
    SimTime t = SimTime::Zero();
    for (int round = 0; round < 20 && delivered < 2; ++round) {
      t += faults.retransmit_timeout;
      channel.MaybeRetransmit(t);
      while (auto msg = channel.Receive(t)) {
        EXPECT_EQ(msg->seq, delivered);  // In-order despite the swap.
        ++delivered;
      }
      channel.OnCumulativeAck(delivered, t);
    }
    EXPECT_EQ(delivered, 2u) << "seed " << seed;
    if (channel.counters().rx_gaps > 0) {
      saw_gap = true;
    }
  }
  EXPECT_TRUE(saw_gap) << "no seed produced an overtaking frame";
}

TEST(LossyChannel, DuplicatesAreDiscardedAndTriggerReack) {
  LinkFaults faults;
  faults.duplicate_probability = 1.0;
  Channel channel(LinkModel::Ethernet10(), ChannelMode::kOrdered, faults, /*seed=*/9);
  channel.Send(Sample(MsgType::kEpochEnd), SimTime::Zero());
  SimTime late = SimTime::Seconds(1);
  ASSERT_TRUE(channel.Receive(late).has_value());
  EXPECT_FALSE(channel.Receive(late).has_value());  // The wire's copy.
  EXPECT_EQ(channel.counters().link_duplicates, 1u);
  EXPECT_EQ(channel.counters().rx_duplicates, 1u);
  EXPECT_TRUE(channel.TakeReackRequested());
  EXPECT_FALSE(channel.TakeReackRequested());  // One-shot flag.
}

TEST(LossyChannel, DatagramModeDeliversWhateverArrives) {
  LinkFaults faults;
  faults.duplicate_probability = 1.0;
  Channel channel(LinkModel::Ethernet10(), ChannelMode::kDatagram, faults, /*seed=*/13);
  channel.Send(Sample(MsgType::kAck), SimTime::Zero());
  SimTime late = SimTime::Seconds(1);
  // Both copies are handed to the receiver: acks are idempotent.
  EXPECT_TRUE(channel.Receive(late).has_value());
  EXPECT_TRUE(channel.Receive(late).has_value());
  EXPECT_FALSE(channel.Receive(late).has_value());
  EXPECT_FALSE(channel.TakeReackRequested());
}

// ---------------------------------------------------------------------------
// Scenario-level: the protocol over a lossy wire.
// ---------------------------------------------------------------------------

TEST(LossyScenario, ReplicatedPairSurvivesLossyLinkInLockstep) {
  WorkloadSpec spec = TxnSpec(8);
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);

  ScenarioResult ft =
      Scenario::Replicated(spec).Epoch(4096).AuditLockstep().LinkFaults(Lossy(0.05)).Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  EXPECT_EQ(ft.exited_flag, 1u);
  EXPECT_EQ(ft.guest_checksum, bare.guest_checksum);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
  // Zero divergence: every boundary both replicas recorded fingerprints for
  // matches exactly, loss or no loss.
  size_t prefix = MatchingBoundaryPrefix(ft);
  size_t compared = std::min(ft.nodes[0].boundary_fingerprints.size(),
                             ft.nodes[1].boundary_fingerprints.size());
  EXPECT_EQ(prefix, compared);
  EXPECT_GT(compared, 0u);
  // The wire genuinely misbehaved and the transport genuinely repaired it.
  EXPECT_GT(ft.TotalRetransmits(), 0u);
  EXPECT_GT(ft.TotalWireBytes(), ft.TotalDeliveredBytes());
}

TEST(LossyScenario, LossyButAliveNeverPromotes) {
  // Heavy loss, no failure injection: delayed/dropped traffic alone must not
  // look like a crash — nobody promotes, the run completes.
  ScenarioResult ft =
      Scenario::Replicated(TxnSpec(6)).Epoch(4096).LinkFaults(Lossy(0.15)).Run();
  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked;
  EXPECT_FALSE(ft.promoted);
  EXPECT_GT(ft.TotalRetransmits(), 0u);
}

// The acceptance scenario: a three-replica net-echo cascade over a lossy,
// reordering wire — primary killed, then the promoted backup killed — must
// finish with the environment clean and the counters showing real transport
// work.
TEST(LossyScenario, NetEchoCascadeSurvivesLossAndReorder) {
  const uint32_t kPackets = 3;
  WorkloadSpec spec = NetEchoSpec(kPackets);

  Scenario bare_scenario = Scenario::Bare(spec);
  InjectEchoPackets(&bare_scenario, kPackets);
  ScenarioResult bare = bare_scenario.Run();
  ASSERT_TRUE(bare.completed);

  LinkFaults faults;
  faults.drop_probability = 0.05;
  faults.reorder_probability = 0.05;
  Scenario scenario = Scenario::Replicated(spec)
                          .Backups(2)
                          .Epoch(4096)
                          .LinkFaults(faults)
                          .FailAtTime(SimTime::Millis(4))
                          .FailAtPhase(FailPhase::kAfterIoIssue, 0,
                                       FailurePlan::CrashIo::kNotPerformed);
  InjectEchoPackets(&scenario, kPackets);
  ScenarioResult ft = scenario.Run();

  ASSERT_TRUE(ft.completed) << "timed_out=" << ft.timed_out << " deadlocked=" << ft.deadlocked
                            << " service_lost=" << ft.service_lost;
  EXPECT_EQ(ft.exited_flag, 1u) << "guest panic " << ft.panic_code;
  EXPECT_EQ(ft.exit_code, bare.exit_code);
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  EXPECT_TRUE(env.ok) << env.detail;
  EXPECT_TRUE(ft.nodes[1].promoted);
  EXPECT_TRUE(ft.nodes[2].promoted);
  EXPECT_GT(ft.TotalRetransmits(), 0u);
  EXPECT_GT(ft.TotalWireBytes(), ft.TotalDeliveredBytes());
}

// ---------------------------------------------------------------------------
// Per-channel counters across a break and a rejoin.
// ---------------------------------------------------------------------------

// Counters across Break -> reconnect (the rejoin path replaces a dead pair's
// channels with a fresh pair): the broken channel's counters survive for
// reporting, its queue occupancy drains to zero, and its retransmission
// machinery goes quiet instead of re-sending into the void.
TEST(Transport, CountersSurviveBreakWithNoPhantomRetransmits) {
  LinkFaults faults = Lossy(1e-9);  // Fault machinery on, nothing actually lost.
  Channel channel(LinkModel::Ethernet10(), ChannelMode::kOrdered, faults, /*seed=*/3);
  auto a1 = channel.Send(Sample(MsgType::kTimeSync), SimTime::Zero());
  auto a2 = channel.Send(Sample(MsgType::kEpochEnd), SimTime::Zero());
  ASSERT_TRUE(a1.has_value() && a2.has_value());
  Channel::Counters before = channel.counters();
  EXPECT_EQ(before.messages_enqueued, 2u);

  channel.Break(*a2);  // Both frames fully serialised: they still arrive.
  EXPECT_TRUE(channel.Receive(*a2).has_value());
  EXPECT_TRUE(channel.Receive(*a2).has_value());
  EXPECT_FALSE(channel.LastPendingArrival().has_value());  // Occupancy at zero.

  // The dead sender never re-sends: a retransmission timeout far in the
  // future moves nothing and mints no wire sends.
  auto retx = channel.MaybeRetransmit(SimTime::Seconds(5));
  EXPECT_EQ(retx.frames, 0u);
  Channel::Counters after = channel.counters();
  EXPECT_EQ(after.messages_enqueued, before.messages_enqueued);
  EXPECT_EQ(after.wire_sends, before.wire_sends);
  EXPECT_EQ(after.retransmits, 0u);
  EXPECT_EQ(after.messages_delivered, 2u);
}

// Scenario-level: after kill -> rejoin, the dead pair's channel counters are
// still reported (frozen), and the fresh rejoin pair carries the transfer —
// queue occupancy on the broken wires returns to zero with no phantom
// retransmissions inflating the totals.
TEST(Transport, RejoinReportsFrozenBrokenChannelsAndFreshPair) {
  ScenarioResult ft = Scenario::Replicated(TxnSpec(16))
                          .LinkFaults(Lossy(0.02))
                          .FailAtPhase(FailPhase::kAfterSendTme, 2)
                          .RejoinAfterFail(SimTime::Millis(10))
                          .Run();
  ASSERT_TRUE(ft.completed);
  ASSERT_EQ(ft.resyncs.size(), 1u);
  ASSERT_TRUE(ft.resyncs[0].completed);
  // Mesh: (0,1)+(1,0) from construction, (1,2)+(2,1) from the rejoin.
  ASSERT_EQ(ft.channels.size(), 4u);
  const auto* dead_pair = &ft.channels[0];      // 0 -> 1: broken at the kill.
  const auto* rejoin_pair = &ft.channels[2];    // 1 -> 2: the transfer stream.
  EXPECT_EQ(dead_pair->from, 0u);
  EXPECT_EQ(dead_pair->to, 1u);
  EXPECT_GT(dead_pair->counters.messages_enqueued, 0u);  // History survives.
  EXPECT_EQ(rejoin_pair->from, 1u);
  EXPECT_EQ(rejoin_pair->to, 2u);
  EXPECT_EQ(rejoin_pair->mode, ChannelMode::kOrdered);
  // The transfer rode the fresh ordered channel: at least the resync bytes.
  EXPECT_GE(rejoin_pair->counters.bytes_delivered, ft.resyncs[0].transfer.bytes_sent);
  EXPECT_GT(rejoin_pair->counters.messages_delivered, 0u);
}

// The lossy wire's frame order, pinned: a revised-protocol disk read over a
// link that drops, reorders and duplicates frames, as `hbft_cli run
// --workload=diskread --iterations=64 --variant=new --loss=0.05
// --reorder=0.05 --dup=0.05` runs it. A change to where the wire queues a
// frame, or to its fault draws, moves the completion time and the counters.
TEST(Transport, LossyDiskReadPinsCompletionAndCounters) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskRead;
  spec.iterations = 64;
  LinkFaults faults;
  faults.drop_probability = 0.05;
  faults.reorder_probability = 0.05;
  faults.duplicate_probability = 0.05;
  ScenarioResult ft =
      Scenario::Replicated(spec).Variant(ProtocolVariant::kRevised).LinkFaults(faults).Run();
  ASSERT_TRUE(ft.completed);
  EXPECT_EQ(ft.guest_checksum, 2845377478u);
  EXPECT_EQ(ft.completion_time.picos(), 15391103140000);

  struct Expected {
    uint64_t messages_enqueued, wire_sends, retransmits, link_drops, link_duplicates,
        link_reorders, queue_high_water, rx_duplicates, rx_gaps, messages_delivered,
        bytes_on_wire, bytes_delivered;
  };
  const Expected expected[] = {
      // r0 -> r1, the protocol stream.
      {9367, 65541, 53234, 3498, 2940, 2915, 240, 487, 52189, 9367, 8482987, 722671},
      // r1 -> r0, the ack datagrams.
      {18344, 19227, 0, 916, 883, 880, 34, 0, 0, 18310, 480675, 457750},
  };
  ASSERT_EQ(ft.channels.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const Channel::Counters& c = ft.channels[i].counters;
    const Expected& e = expected[i];
    SCOPED_TRACE(i == 0 ? "r0->r1" : "r1->r0");
    EXPECT_EQ(c.messages_enqueued, e.messages_enqueued);
    EXPECT_EQ(c.wire_sends, e.wire_sends);
    EXPECT_EQ(c.retransmits, e.retransmits);
    EXPECT_EQ(c.link_drops, e.link_drops);
    EXPECT_EQ(c.link_duplicates, e.link_duplicates);
    EXPECT_EQ(c.link_reorders, e.link_reorders);
    EXPECT_EQ(c.queue_high_water, e.queue_high_water);
    EXPECT_EQ(c.rx_duplicates, e.rx_duplicates);
    EXPECT_EQ(c.rx_gaps, e.rx_gaps);
    EXPECT_EQ(c.messages_delivered, e.messages_delivered);
    EXPECT_EQ(c.bytes_on_wire, e.bytes_on_wire);
    EXPECT_EQ(c.bytes_delivered, e.bytes_delivered);
  }
}

// ---------------------------------------------------------------------------
// The seed matrix: net-echo and txnlog cascades of two backups,
// {ideal, lossy} x seeds. Transport regressions under any wire or seed fail
// here first.
// ---------------------------------------------------------------------------

class TransportMatrix : public testing::TestWithParam<int> {};

TEST_P(TransportMatrix, NetEchoAndCascadeCompleteCleanly) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 1013 + 42;
  for (bool lossy : {false, true}) {
    LinkFaults faults = lossy ? Lossy(0.05) : LinkFaults{};

    // net-echo over a chain of two backups, no kill.
    const uint32_t kPackets = 3;
    WorkloadSpec net = NetEchoSpec(kPackets);
    Scenario net_bare = Scenario::Bare(net).Seed(seed);
    InjectEchoPackets(&net_bare, kPackets);
    ScenarioResult nb = net_bare.Run();
    ASSERT_TRUE(nb.completed) << "seed " << seed;
    Scenario net_ft = Scenario::Replicated(net).Backups(2).Seed(seed).LinkFaults(faults);
    InjectEchoPackets(&net_ft, kPackets);
    ScenarioResult nf = net_ft.Run();
    ASSERT_TRUE(nf.completed) << "seed " << seed << " lossy " << lossy
                              << " timed_out=" << nf.timed_out
                              << " deadlocked=" << nf.deadlocked;
    ConsistencyResult net_env = CheckEnvConsistency(nb.env_trace, nf.env_trace,
                                                    nf.issuer_chain());
    EXPECT_TRUE(net_env.ok) << "seed " << seed << " lossy " << lossy << ": " << net_env.detail;
    EXPECT_EQ(nf.guest_checksum, nb.guest_checksum) << "seed " << seed << " lossy " << lossy;

    // txnlog cascade (kill the primary, then the promoted backup).
    WorkloadSpec txn = TxnSpec(8);
    ScenarioResult tb = Scenario::Bare(txn).Seed(seed).Run();
    ASSERT_TRUE(tb.completed) << "seed " << seed;
    ScenarioResult tf = Scenario::Replicated(txn)
                            .Backups(2)
                            .Seed(seed)
                            .LinkFaults(faults)
                            .FailAtTime(SimTime::Millis(4))
                            .FailAtPhase(FailPhase::kAfterIoIssue)
                            .Run();
    ASSERT_TRUE(tf.completed) << "seed " << seed << " lossy " << lossy
                              << " timed_out=" << tf.timed_out
                              << " deadlocked=" << tf.deadlocked
                              << " service_lost=" << tf.service_lost;
    ConsistencyResult txn_env = CheckEnvConsistency(tb.env_trace, tf.env_trace,
                                                    tf.issuer_chain());
    EXPECT_TRUE(txn_env.ok) << "seed " << seed << " lossy " << lossy << ": " << txn_env.detail;
    EXPECT_EQ(tf.guest_checksum, tb.guest_checksum) << "seed " << seed << " lossy " << lossy;
    if (lossy) {
      EXPECT_GT(nf.TotalRetransmits() + tf.TotalRetransmits(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportMatrix, testing::Range(0, 3));

}  // namespace
}  // namespace hbft
