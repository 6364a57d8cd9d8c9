// `hbft_cli run` — execute one workload bare, replicated, or both, and print
// a comparison report (the paper's N'/N figure of merit when both ran). A
// --fail schedule makes it a failover drill: the report gives each promoted
// node's takeover latency, and the verdict requires every scheduled kill to
// fire and every rejoin to complete. With --json the same information is
// emitted as one machine-readable document on stdout, so CI and scripts
// consume structured output instead of scraping the text report.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "cli/json.hpp"
#include "cli/options.hpp"
#include "perf/report.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace cli {

namespace {

// A promoted node's takeover latency: its promotion time minus the latest
// crash at or before it.
double PromotionLatencyMs(const ScenarioResult& r, SimTime promotion_time) {
  SimTime crash = SimTime::Zero();
  for (SimTime t : r.crash_times) {
    if (t <= promotion_time) {
      crash = std::max(crash, t);
    }
  }
  return (promotion_time - crash).seconds() * 1e3;
}

// The run's verdict: one reason per failed check, none when it passes.
// `bare` and `ft` are null for the run --mode skipped; `env` is set when
// both completed.
std::vector<std::string> FailedChecks(const ScenarioFlags& parsed, const ScenarioResult* bare,
                                      const ScenarioResult* ft,
                                      const std::optional<ConsistencyResult>& env) {
  std::vector<std::string> failed;
  auto check_outcome = [&failed](const std::string& label, const ScenarioResult& r) {
    if (!r.completed) {
      failed.push_back(label + " run did not complete");
    } else if (r.exited_flag != 1) {
      failed.push_back(label + " guest did not exit cleanly");
    }
  };
  if (bare != nullptr) {
    check_outcome("bare", *bare);
  }
  if (ft == nullptr) {
    return failed;
  }
  check_outcome("replicated", *ft);
  const std::vector<FailurePlan>& schedule = parsed.scenario.failures();
  const size_t rejoins = static_cast<size_t>(
      std::count_if(schedule.begin(), schedule.end(),
                    [](const FailurePlan& p) { return p.kind == FailurePlan::Kind::kRejoin; }));
  const size_t kills = schedule.size() - rejoins;
  if (ft->crash_times.size() < kills) {
    failed.push_back("scheduled kill never fired: " + std::to_string(ft->crash_times.size()) +
                     " of " + std::to_string(kills) + " fired (" + parsed.failure_description +
                     ")");
  }
  const size_t resynced = static_cast<size_t>(
      std::count_if(ft->resyncs.begin(), ft->resyncs.end(),
                    [](const ResyncReport& resync) { return resync.completed; }));
  if (resynced < rejoins) {
    failed.push_back("scheduled rejoin never completed: " + std::to_string(resynced) + " of " +
                     std::to_string(rejoins) + " completed (" + parsed.failure_description +
                     ")");
  }
  if (bare != nullptr && bare->completed && ft->completed &&
      ChecksumMatchesBare(parsed.scenario.workload().kind) &&
      ft->guest_checksum != bare->guest_checksum) {
    failed.push_back("guest checksum " + std::to_string(ft->guest_checksum) +
                     " differs from bare " + std::to_string(bare->guest_checksum));
  }
  if (env.has_value() && !env->ok) {
    failed.push_back("env consistency: " + env->detail);
  }
  return failed;
}

void ReportOutcome(const char* label, const ScenarioResult& r) {
  std::printf("-- %s --\n", label);
  ReportYesNo("completed", r.completed);
  if (r.timed_out) {
    ReportYesNo("timed_out", true);
  }
  if (r.deadlocked) {
    ReportYesNo("deadlocked", true);
  }
  if (r.service_lost) {
    ReportYesNo("service_lost", true);
  }
  ReportF("runtime_s", r.completion_time.seconds());
  ReportLine("exited_flag", r.exited_flag == 1 ? "clean" : std::to_string(r.exited_flag));
  ReportLine("exit_code", std::to_string(r.exit_code));
  ReportLine("guest_checksum", std::to_string(r.guest_checksum));
  ReportLine("clock_ticks", std::to_string(r.ticks));
  if (!r.console_output.empty()) {
    std::string preview = r.console_output.substr(0, 60);
    for (char& c : preview) {
      if (c == '\n') {
        c = ' ';
      }
    }
    ReportLine("console_bytes", std::to_string(r.console_output.size()) + " (\"" + preview + "\")");
  }
}

void ReportReplicationStats(const ScenarioResult& r) {
  ReportLine("replicas", std::to_string(r.nodes.size()));
  ReportLine("epochs", std::to_string(r.primary_stats().epochs));
  ReportLine("messages_sent", std::to_string(r.primary_stats().messages_sent));
  ReportLine("acks_received", std::to_string(r.primary_stats().acks_received));
  ReportF("ack_wait_ms", r.primary_stats().ack_wait_time.seconds() * 1e3);
  ReportF("boundary_ms", r.primary_stats().boundary_time.seconds() * 1e3);
  ReportYesNo("promoted", r.promoted);
  for (size_t i = 0; i + 1 < r.nodes.size(); ++i) {
    if (r.backup_stats(i).relays_forwarded > 0) {
      ReportLine("backup" + std::to_string(i) + "_relays",
                 std::to_string(r.backup_stats(i).relays_forwarded));
    }
  }
  if (r.promoted) {
    for (size_t c = 0; c < r.crash_times.size(); ++c) {
      ReportF("crash_time_ms" + (c == 0 ? std::string() : "_" + std::to_string(c + 1)),
              r.crash_times[c].seconds() * 1e3);
    }
    for (size_t i = 1; i < r.nodes.size(); ++i) {
      if (r.nodes[i].promoted) {
        const std::string id = std::to_string(r.nodes[i].id);
        ReportF("promotion_time_ms_node" + id, r.nodes[i].promotion_time.seconds() * 1e3);
        ReportF("promotion_latency_ms_node" + id, PromotionLatencyMs(r, r.nodes[i].promotion_time));
      }
    }
    ReportF("promotion_time_ms", r.promotion_time.seconds() * 1e3);
    ReportLine("backup_io_redriven", std::to_string(r.backup_stats().io_issued));
  }
}

// Per-channel transport counters, printed when the run exercised the modeled
// transport (a faulty wire): unique messages vs wire sends, retransmits, wire
// discards, queue high-water, bytes on wire, and effective goodput in Mbit/s.
void ReportTransportStats(const ScenarioResult& r) {
  ReportLine("link_retransmits", std::to_string(r.TotalRetransmits()));
  ReportLine("link_wire_bytes", std::to_string(r.TotalWireBytes()));
  ReportLine("link_delivered_bytes", std::to_string(r.TotalDeliveredBytes()));
  ReportF("link_goodput_mbps", r.GoodputBps() / 1e6);
  TableReporter table({"channel", "msgs", "wire_sends", "retx", "drops", "dups", "reord",
                       "q_drop", "q_hwm", "rx_disc", "bytes_wire", "goodput_mbps"});
  const double run_seconds = r.completion_time.seconds();
  for (const ScenarioResult::ChannelReport& ch : r.channels) {
    const Channel::Counters& c = ch.counters;
    const double goodput_mbps =
        run_seconds > 0.0 ? static_cast<double>(c.bytes_delivered) * 8.0 / run_seconds / 1e6
                          : 0.0;
    table.AddRow({std::to_string(ch.from) + "->" + std::to_string(ch.to) +
                      (ch.mode == ChannelMode::kOrdered ? " (protocol)" : " (acks)"),
                  std::to_string(c.messages_enqueued), std::to_string(c.wire_sends),
                  std::to_string(c.retransmits), std::to_string(c.link_drops),
                  std::to_string(c.link_duplicates), std::to_string(c.link_reorders),
                  std::to_string(c.queue_drops), std::to_string(c.queue_high_water),
                  std::to_string(c.rx_duplicates + c.rx_gaps), std::to_string(c.bytes_on_wire),
                  TableReporter::Num(goodput_mbps, 3)});
  }
  std::fputs(table.Render().c_str(), stdout);
}

void ReportResyncStats(const ScenarioResult& r) {
  for (size_t i = 0; i < r.resyncs.size(); ++i) {
    const ResyncReport& resync = r.resyncs[i];
    const std::string suffix = i == 0 ? std::string() : "_" + std::to_string(i + 1);
    ReportYesNo("resync_completed" + suffix, resync.completed);
    if (!resync.completed) {
      continue;
    }
    ReportF("resync_latency_ms" + suffix, (resync.join_time - resync.start).seconds() * 1e3);
    ReportLine("resync_bytes" + suffix, std::to_string(resync.transfer.bytes_sent));
    ReportLine("resync_page_chunks" + suffix, std::to_string(resync.transfer.page_chunks));
    ReportLine("resync_delta_pages" + suffix, std::to_string(resync.transfer.delta_pages));
    ReportLine("resync_rounds" + suffix, std::to_string(resync.transfer.rounds));
  }
}

// --- JSON assembly (run --json) ---------------------------------------------

JsonValue OutcomeJson(const ScenarioResult& r) {
  JsonValue doc = JsonValue::Object()
                      .Set("completed", r.completed)
                      .Set("timed_out", r.timed_out)
                      .Set("deadlocked", r.deadlocked)
                      .Set("service_lost", r.service_lost)
                      .Set("runtime_s", r.completion_time.seconds())
                      .Set("exited_flag", static_cast<uint64_t>(r.exited_flag))
                      .Set("exit_code", static_cast<uint64_t>(r.exit_code))
                      .Set("guest_checksum", static_cast<uint64_t>(r.guest_checksum))
                      .Set("clock_ticks", static_cast<uint64_t>(r.ticks))
                      .Set("console_bytes", static_cast<uint64_t>(r.console_output.size()));
  return doc;
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
        .Set("epochs", node.stats.epochs)
        .Set("messages_sent", node.stats.messages_sent)
        .Set("acks_received", node.stats.acks_received)
        .Set("io_issued", node.stats.io_issued)
        .Set("uncertain_synthesised", node.stats.uncertain_synthesised);
    nodes.Push(std::move(entry));
  }
  JsonValue resyncs = JsonValue::Array();
  for (const ResyncReport& resync : r.resyncs) {
    resyncs.Push(JsonValue::Object()
                     .Set("source", static_cast<uint64_t>(resync.source))
                     .Set("joined", static_cast<uint64_t>(resync.joined))
                     .Set("completed", resync.completed)
                     .Set("start_ms", resync.start.seconds() * 1e3)
                     .Set("cut_ms", resync.transfer.cut_time.seconds() * 1e3)
                     .Set("join_ms", resync.join_time.seconds() * 1e3)
                     .Set("latency_ms", (resync.join_time - resync.start).seconds() * 1e3)
                     .Set("join_epoch", resync.transfer.cut_epoch)
                     .Set("bytes", resync.transfer.bytes_sent)
                     .Set("page_chunks", resync.transfer.page_chunks)
                     .Set("zero_run_chunks", resync.transfer.zero_run_chunks)
                     .Set("full_pages", resync.transfer.full_pages)
                     .Set("delta_pages", resync.transfer.delta_pages)
                     .Set("rounds", resync.transfer.rounds));
  }
  return JsonValue::Object()
      .Set("replicas", static_cast<uint64_t>(r.nodes.size()))
      .Set("promoted", r.promoted)
      .Set("promotion_time_ms", r.promotion_time.seconds() * 1e3)
      .Set("crash_times_ms", std::move(crash_times))
      .Set("nodes", std::move(nodes))
      .Set("resyncs", std::move(resyncs));
}

JsonValue TransportJson(const ScenarioResult& r) {
  JsonValue channels = JsonValue::Array();
  for (const ScenarioResult::ChannelReport& ch : r.channels) {
    channels.Push(JsonValue::Object()
                      .Set("from", static_cast<uint64_t>(ch.from))
                      .Set("to", static_cast<uint64_t>(ch.to))
                      .Set("mode", ch.mode == ChannelMode::kOrdered ? "protocol" : "acks")
                      .Set("messages_enqueued", ch.counters.messages_enqueued)
                      .Set("wire_sends", ch.counters.wire_sends)
                      .Set("retransmits", ch.counters.retransmits)
                      .Set("rx_discards", ch.counters.rx_duplicates + ch.counters.rx_gaps)
                      .Set("queue_drops", ch.counters.queue_drops)
                      .Set("bytes_on_wire", ch.counters.bytes_on_wire)
                      .Set("bytes_delivered", ch.counters.bytes_delivered));
  }
  return JsonValue::Object()
      .Set("retransmits", r.TotalRetransmits())
      .Set("wire_bytes", r.TotalWireBytes())
      .Set("delivered_bytes", r.TotalDeliveredBytes())
      .Set("goodput_mbps", r.GoodputBps() / 1e6)
      .Set("channels", std::move(channels));
}

}  // namespace

int RunCommand(FlagSet& flags) {
  std::string mode = flags.GetString("mode", "both");
  const bool json = flags.Has("json");
  std::optional<ScenarioFlags> parsed = ParseScenarioFlags(flags);
  if (!parsed || !flags.Finish()) {
    return 2;
  }
  const Scenario& scenario = parsed->scenario;
  const WorldConfig config = scenario.world_config();
  const ReplicationConfig& replication = config.replication;
  const LinkFaults& link_faults = config.link_faults;
  if (mode != "both" && mode != "bare" && mode != "replicated") {
    std::fprintf(stderr, "hbft_cli: unknown --mode '%s' (both, bare, replicated)\n", mode.c_str());
    return 2;
  }
  const bool want_bare = mode != "replicated";
  const bool want_replicated = mode != "bare";
  if (!want_replicated && !scenario.failures().empty()) {
    std::fprintf(stderr, "hbft_cli: --fail needs a replicated run; --mode=bare has no replica\n");
    return 2;
  }

  ScenarioResult bare;
  ScenarioResult ft;
  if (want_bare) {
    bare = scenario.AsBare().Run();
  }
  if (want_replicated) {
    ft = scenario.Run();
  }
  // One device-generic transparency check covering every attached device's
  // output (disk, console, NIC).
  std::optional<ConsistencyResult> env;
  if (want_bare && want_replicated && bare.completed && ft.completed) {
    env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  }
  const std::vector<std::string> failed = FailedChecks(
      *parsed, want_bare ? &bare : nullptr, want_replicated ? &ft : nullptr, env);
  const char* verdict = failed.empty() ? "PASS" : "FAIL";

  if (json) {
    // Machine-readable path: one document on stdout, nothing else.
    JsonValue doc = JsonValue::Object()
                        .Set("command", "run")
                        .Set("workload", WorkloadKindName(scenario.workload().kind))
                        .Set("iterations", static_cast<uint64_t>(scenario.workload().iterations))
                        .Set("mode", mode)
                        .Set("variant", VariantName(replication.variant))
                        .Set("epoch_length", replication.epoch_length)
                        .Set("backups", config.backups)
                        .Set("seed", config.seed)
                        .Set("failure", parsed->failure_description);
    if (want_bare) {
      doc.Set("bare", OutcomeJson(bare));
    }
    if (want_replicated) {
      JsonValue rep = OutcomeJson(ft);
      rep.Set("replication", ReplicationJson(ft));
      rep.Set("transport", TransportJson(ft));
      doc.Set("replicated", std::move(rep));
    }
    if (env.has_value()) {
      doc.Set("comparison", JsonValue::Object()
                                .Set("normalized_performance", NormalizedPerformance(ft, bare))
                                .Set("env_consistency", env->ok)
                                .Set("env_consistency_detail", env->ok ? "" : env->detail));
    }
    JsonValue failed_json = JsonValue::Array();
    for (const std::string& reason : failed) {
      failed_json.Push(reason);
    }
    doc.Set("failed_checks", std::move(failed_json)).Set("verdict", verdict);
    std::fputs(doc.Dump().c_str(), stdout);
    return failed.empty() ? 0 : 1;
  }

  std::printf("== hbft run report ==\n");
  ReportLine("workload", WorkloadKindName(scenario.workload().kind));
  ReportLine("iterations", std::to_string(scenario.workload().iterations));
  ReportLine("mode", mode);
  if (want_replicated) {
    ReportLine("variant", VariantName(replication.variant));
    ReportLine("epoch_length", std::to_string(replication.epoch_length));
    ReportLine("backups", std::to_string(config.backups));
    ReportLine("failure", parsed->failure_description);
    if (link_faults.Enabled()) {
      char link[128];
      std::snprintf(link, sizeof(link), "loss=%g dup=%g reorder=%g queue=%u rto_ms=%.3f",
                    link_faults.drop_probability, link_faults.duplicate_probability,
                    link_faults.reorder_probability, link_faults.sender_queue_limit,
                    link_faults.retransmit_timeout.seconds() * 1e3);
      ReportLine("link_faults", link);
    }
  }
  if (want_bare) {
    ReportOutcome("bare reference", bare);
  }
  if (want_replicated) {
    ReportOutcome("replicated", ft);
    ReportReplicationStats(ft);
    if (!ft.resyncs.empty()) {
      ReportResyncStats(ft);
    }
    if (link_faults.Enabled()) {
      ReportTransportStats(ft);
    }
  }
  if (env.has_value()) {
    std::printf("-- comparison --\n");
    ReportF("normalized_performance", NormalizedPerformance(ft, bare), " (N'/N)");
    ReportLine("env_consistency", env->ok ? "ok" : "FAIL: " + env->detail);
    // Back-compat aliases for scripts grepping the per-device verdicts.
    ReportLine("disk_consistency", env->ok ? "ok" : "see env_consistency");
    ReportLine("console_consistency", env->ok ? "ok" : "see env_consistency");
  }
  for (const std::string& reason : failed) {
    ReportLine("failed_check", reason);
  }
  ReportLine("verdict", verdict);
  return failed.empty() ? 0 : 1;
}

}  // namespace cli
}  // namespace hbft
