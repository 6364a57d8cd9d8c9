// `hbft_cli run` — execute one workload bare, replicated, or both, and print
// a comparison report (the paper's N'/N figure of merit when both ran). A
// --fail schedule makes it a failover drill: the report gives each promoted
// node's takeover latency, and the verdict requires every scheduled kill to
// fire and every rejoin to complete. The report is one document: --json
// prints it as JSON, otherwise as one `path : value` line per leaf.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "cli/json.hpp"
#include "cli/options.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace cli {

namespace {

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

JsonValue OutcomeJson(const ScenarioResult& r) {
  return JsonValue::Object()
      .Set("completed", r.completed)
      .Set("timed_out", r.timed_out)
      .Set("deadlocked", r.deadlocked)
      .Set("service_lost", r.service_lost)
      .Set("runtime_s", r.completion_time.seconds())
      .Set("exited_flag", static_cast<uint64_t>(r.exited_flag))
      .Set("exit_code", static_cast<uint64_t>(r.exit_code))
      .Set("guest_checksum", static_cast<uint64_t>(r.guest_checksum))
      .Set("clock_ticks", static_cast<uint64_t>(r.ticks))
      .Set("console_bytes", static_cast<uint64_t>(r.console_output.size()))
      .Set("console_head", r.console_output.substr(0, 60));
}

JsonValue TransportJson(const ScenarioResult& r) {
  return JsonValue::Object()
      .Set("retransmits", r.TotalRetransmits())
      .Set("wire_bytes", r.TotalWireBytes())
      .Set("delivered_bytes", r.TotalDeliveredBytes())
      .Set("goodput_mbps", r.GoodputBps() / 1e6)
      .Set("channels", ChannelsJson(r.channels));
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

  JsonValue doc = JsonValue::Object()
                      .Set("command", "run")
                      .Set("workload", WorkloadKindName(scenario.workload().kind))
                      .Set("iterations", static_cast<uint64_t>(scenario.workload().iterations))
                      .Set("mode", mode)
                      .Set("variant", VariantName(config.replication.variant))
                      .Set("epoch_length", config.replication.epoch_length)
                      .Set("backups", config.backups)
                      .Set("seed", config.seed)
                      .Set("failure", parsed->failure_description)
                      .Set("link_faults",
                           JsonValue::Object()
                               .Set("loss", link_faults.drop_probability)
                               .Set("dup", link_faults.duplicate_probability)
                               .Set("reorder", link_faults.reorder_probability)
                               .Set("rto_ms", link_faults.retransmit_timeout.seconds() * 1e3));
  if (want_bare) {
    doc.Set("bare", OutcomeJson(bare));
  }
  if (want_replicated) {
    doc.Set("replicated", OutcomeJson(ft)
                              .Set("replication", ReplicationJson(ft))
                              .Set("transport", TransportJson(ft)));
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
  doc.Set("failed_checks", std::move(failed_json))
      .Set("verdict", failed.empty() ? "PASS" : "FAIL");
  PrintReport(doc, json);
  return failed.empty() ? 0 : 1;
}

}  // namespace cli
}  // namespace hbft
