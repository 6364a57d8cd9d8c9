#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "cli/commands.hpp"

namespace hbft {
namespace cli {

void PrintReport(const JsonValue& doc, bool json) {
  std::fputs((json ? doc.Dump() : doc.DumpText()).c_str(), stdout);
}

double PromotionLatencyMs(const ScenarioResult& r, SimTime promotion_time) {
  SimTime crash = SimTime::Zero();
  for (SimTime t : r.crash_times) {
    if (t <= promotion_time) {
      crash = std::max(crash, t);
    }
  }
  return (promotion_time - crash).seconds() * 1e3;
}

JsonValue StatsJson(const ReplicaNode::Stats& stats) {
  return JsonValue::Object()
      .Set("messages_sent", stats.messages_sent)
      .Set("acks_received", stats.acks_received)
      .Set("relays_forwarded", stats.relays_forwarded)
      .Set("env_values", stats.env_values)
      .Set("io_issued", stats.io_issued)
      .Set("io_suppressed", stats.io_suppressed)
      .Set("uncertain_synthesised", stats.uncertain_synthesised)
      .Set("epochs", stats.epochs)
      .Set("ack_wait_ms", stats.ack_wait_time.seconds() * 1e3)
      .Set("boundary_ms", stats.boundary_time.seconds() * 1e3);
}

JsonValue StatsJson(const Hypervisor::Stats& stats) {
  return JsonValue::Object()
      .Set("privileged_simulated", stats.privileged_simulated)
      .Set("traps_reflected", stats.traps_reflected)
      .Set("tlb_fills", stats.tlb_fills)
      .Set("interrupts_delivered", stats.interrupts_delivered);
}

JsonValue ReplicationJson(const ScenarioResult& r) {
  JsonValue crash_times = JsonValue::Array();
  for (SimTime t : r.crash_times) {
    crash_times.Push(t.seconds() * 1e3);
  }
  JsonValue nodes = JsonValue::Array();
  for (const ScenarioResult::NodeReport& node : r.nodes) {
    JsonValue entry = JsonValue::Object()
                          .Set("id", node.id)
                          .Set("promoted", node.promoted)
                          .Set("promotion_time_ms", node.promotion_time.seconds() * 1e3);
    if (node.promoted) {
      entry.Set("promotion_latency_ms", PromotionLatencyMs(r, node.promotion_time));
    }
    entry.Set("rejoined", node.rejoined)
        .Set("joined", node.joined)
        .Set("join_epoch", node.join_epoch)
        .Extend(StatsJson(node.stats))
        .Set("hypervisor", StatsJson(node.hv_stats));
    nodes.Push(std::move(entry));
  }
  JsonValue resyncs = JsonValue::Array();
  for (const ResyncReport& resync : r.resyncs) {
    JsonValue row = JsonValue::Object()
                        .Set("source", static_cast<uint64_t>(resync.source))
                        .Set("joined", static_cast<uint64_t>(resync.joined))
                        .Set("completed", resync.completed)
                        .Set("start_ms", resync.start.seconds() * 1e3);
    // Only instants that happened. A joiner restores only after the cut.
    if (resync.transfer.cut) {
      row.Set("cut_ms", resync.transfer.cut_time.seconds() * 1e3);
      if (resync.completed) {
        row.Set("join_ms", resync.join_time.seconds() * 1e3)
            .Set("latency_ms", (resync.join_time - resync.start).seconds() * 1e3);
      }
      row.Set("join_epoch", resync.transfer.cut_epoch);
    }
    row.Set("bytes", resync.transfer.bytes_sent)
        .Set("page_chunks", resync.transfer.page_chunks)
        .Set("zero_run_chunks", resync.transfer.zero_run_chunks)
        .Set("full_pages", resync.transfer.full_pages)
        .Set("delta_pages", resync.transfer.delta_pages)
        .Set("rounds", resync.transfer.rounds);
    resyncs.Push(std::move(row));
  }
  return JsonValue::Object()
      .Set("replicas", static_cast<uint64_t>(r.nodes.size()))
      .Set("promoted", r.promoted)
      .Set("promotion_time_ms", r.promotion_time.seconds() * 1e3)
      .Set("crash_times_ms", std::move(crash_times))
      .Set("nodes", std::move(nodes))
      .Set("resyncs", std::move(resyncs));
}

JsonValue ChannelsJson(const std::vector<ScenarioResult::ChannelReport>& channels) {
  JsonValue rows = JsonValue::Array();
  for (const ScenarioResult::ChannelReport& ch : channels) {
    const Channel::Counters& c = ch.counters;
    rows.Push(JsonValue::Object()
                  .Set("name", "r" + std::to_string(ch.from) + "->r" + std::to_string(ch.to))
                  .Set("from", static_cast<uint64_t>(ch.from))
                  .Set("to", static_cast<uint64_t>(ch.to))
                  .Set("mode", ch.mode == ChannelMode::kOrdered ? "protocol" : "acks")
                  .Set("messages_enqueued", c.messages_enqueued)
                  .Set("wire_sends", c.wire_sends)
                  .Set("retransmits", c.retransmits)
                  .Set("link_drops", c.link_drops)
                  .Set("link_duplicates", c.link_duplicates)
                  .Set("link_reorders", c.link_reorders)
                  .Set("queue_high_water", c.queue_high_water)
                  // Stale and post-gap frames the receiver discarded.
                  .Set("rx_discards", c.rx_duplicates + c.rx_gaps)
                  .Set("messages_delivered", c.messages_delivered)
                  .Set("bytes_on_wire", c.bytes_on_wire)
                  .Set("bytes_delivered", c.bytes_delivered)
                  .Set("wire_decode_errors", c.wire_decode_errors));
  }
  return rows;
}

}  // namespace cli
}  // namespace hbft
