// `hbft_cli serve` — front a protected guest with a real TCP listener, in
// one process (the simulated chain) or two (--role=primary / --role=backup
// with the replication stream over a real socket). The chain comes from
// run's chain flags (ParseChainFlags, variant `new` by default), and the
// final report is one document, like `run`'s: the session outcome, then,
// from the session's ScenarioResult, its takeover, the top-level protocol
// counters of `nodes[0]` (chain position 0, or the hosted replica in a wire
// role), every replica as `run` reports it, and per-channel transport
// counters.
#include <cstdio>
#include <string>
#include <utility>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "serve/server.hpp"

namespace hbft {
namespace cli {

namespace {

JsonValue ServeJson(const serve::ServeConfig& config, const serve::ServeReport& report) {
  const WorldConfig world = config.scenario.world_config();
  const ScenarioResult& r = report.result;
  JsonValue doc = JsonValue::Object()
                      .Set("command", "serve")
                      .Set("role", report.role)
                      .Set("workload", "net-echo")
                      .Set("port", static_cast<uint64_t>(config.port))
                      .Set("epoch_length", world.replication.epoch_length)
                      .Set("seed", world.seed)
                      .Set("failure", config.failure_description)
                      .Set("completed", report.ok)
                      .Set("stop_reason", report.stop_reason)
                      .Set("runtime_s", report.runtime_s)
                      .Set("connections", report.frontend.connections_accepted)
                      .Set("requests", report.frontend.requests)
                      .Set("responses", report.frontend.responses)
                      .Set("responses_unroutable", report.frontend.responses_unroutable)
                      .Set("rejected_frames", report.frontend.rejected_frames)
                      .Set("client_bytes_in", report.frontend.bytes_in)
                      .Set("client_bytes_out", report.frontend.bytes_out)
                      .Set("failovers", static_cast<uint64_t>(r.crash_times.size()))
                      .Set("promoted", r.promoted)
                      .Set("solo", report.solo);
  if (r.promoted) {
    doc.Set("promotion_latency_ms", PromotionLatencyMs(r, r.promotion_time));
  }
  return doc.Set("repl_bytes_in", report.repl_bytes_in)
      .Set("repl_bytes_out", report.repl_bytes_out)
      .Extend(StatsJson(r.primary_stats()))
      .Set("replication", ReplicationJson(r))
      .Set("channels", ChannelsJson(r.channels));
}

}  // namespace

int ServeCommand(FlagSet& flags) {
  serve::ServeConfig config;
  const bool json = flags.Has("json");

  std::string role = flags.GetString("role", "single");
  if (role == "single") {
    config.role = serve::ServeRole::kSingle;
  } else if (role == "primary") {
    config.role = serve::ServeRole::kPrimary;
  } else if (role == "backup") {
    config.role = serve::ServeRole::kBackup;
  } else {
    std::fprintf(stderr, "hbft_cli: unknown --role '%s' (single, primary, backup)\n",
                 role.c_str());
    return 2;
  }

  const uint64_t port = flags.GetU64("port").value_or(7070);
  const uint64_t repl_port = flags.GetU64("repl-port").value_or(7071);
  for (const auto& [flag, value] : {std::pair{"port", port}, std::pair{"repl-port", repl_port}}) {
    if (value > 65535) {
      std::fprintf(stderr, "hbft_cli: --%s must be a TCP port (0-65535), got %llu\n", flag,
                   static_cast<unsigned long long>(value));
      return 2;
    }
  }
  config.port = static_cast<uint16_t>(port);
  config.repl_port = static_cast<uint16_t>(repl_port);
  config.peer_host = flags.GetString("peer", "127.0.0.1");
  config.duration_ms = flags.GetU64("duration-ms", kMaxMillis).value_or(0);
  config.max_requests = flags.GetU64("max-requests").value_or(0);
  config.backup_wait_ms = flags.GetU64("backup-wait-ms", kMaxMillis).value_or(3000);

  const bool backups_given = flags.Has("backups");
  if (!ParseChainFlags(flags, "new", &config.scenario, &config.failure_description)) {
    return 2;
  }
  if (config.scenario.world_config().replication.variant == ProtocolVariant::kOriginal) {
    // Responses are released at the NIC TX latch, which only the revised
    // protocol gates on all-acked; under the original variant a released
    // response could outrun the backup's state by up to an epoch.
    std::fprintf(stderr,
                 "hbft_cli: serve requires --variant=new — output commit at the socket "
                 "boundary is the serving contract (see docs/PROTOCOL.md)\n");
    return 2;
  }

  if (!config.scenario.failures().empty() && config.role != serve::ServeRole::kSingle) {
    std::fprintf(stderr,
                 "hbft_cli: --fail applies to --role=single only (multi-process failures "
                 "are real: kill the primary process)\n");
    return 2;
  }
  if (backups_given && config.role != serve::ServeRole::kSingle) {
    std::fprintf(stderr,
                 "hbft_cli: --backups applies to --role=single only (a multi-process pair "
                 "is one primary process and one backup process)\n");
    return 2;
  }
  if (!flags.Finish()) {
    return 2;
  }

  serve::ServeReport report;
  int rc = RunServe(config, &report);
  if (!report.error.empty()) {
    std::fprintf(stderr, "hbft_cli: serve failed: %s\n", report.error.c_str());
  }
  PrintReport(ServeJson(config, report), json);
  return rc;
}

}  // namespace cli
}  // namespace hbft
