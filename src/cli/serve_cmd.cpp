// `hbft_cli serve` — front a protected guest with a real TCP listener, in
// one process (the simulated chain) or two (--role=primary / --role=backup
// with the replication stream over a real socket). The final report is one
// document, like `run`'s: the session outcome, the first replica's protocol
// counters and per-channel transport counters.
#include <climits>
#include <cstdio>
#include <optional>
#include <string>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "serve/server.hpp"

namespace hbft {
namespace cli {

namespace {

JsonValue ServeJson(const serve::ServeConfig& config, const serve::ServeReport& report) {
  return JsonValue::Object()
      .Set("command", "serve")
      .Set("role", report.role)
      .Set("workload", "net-echo")
      .Set("port", static_cast<uint64_t>(config.port))
      .Set("epoch_length", config.epoch_length)
      .Set("seed", config.seed)
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
      .Set("failovers", report.failovers)
      .Set("promoted", report.promoted)
      .Set("solo", report.solo)
      .Set("promotion_time_ms", report.promotion_latency_ms)
      .Set("repl_bytes_in", report.repl_bytes_in)
      .Set("repl_bytes_out", report.repl_bytes_out)
      .Extend(StatsJson(report.node))
      .Set("channels", ChannelsJson(report.channels));
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
  config.seed = flags.GetU64("seed").value_or(42);
  config.epoch_length = flags.GetU64("epoch-length").value_or(4096);
  const std::optional<uint64_t> backups = flags.GetU64("backups", INT_MAX);
  config.backups = static_cast<int>(backups.value_or(1));
  config.duration_ms = flags.GetU64("duration-ms", kMaxMillis).value_or(0);
  config.max_requests = flags.GetU64("max-requests").value_or(0);
  config.backup_wait_ms = flags.GetU64("backup-wait-ms", kMaxMillis).value_or(3000);

  const std::string variant_name = flags.GetString("variant", "new");
  const std::optional<ProtocolVariant> variant = ParseVariant(variant_name);
  if (!variant) {
    std::fprintf(stderr, "hbft_cli: unknown variant '%s' (old, new)\n", variant_name.c_str());
    return 2;
  }
  if (*variant == ProtocolVariant::kOriginal) {
    // Responses are released at the NIC TX latch, which only the revised
    // protocol gates on all-acked; under the original variant a released
    // response could outrun the backup's state by up to an epoch.
    std::fprintf(stderr,
                 "hbft_cli: serve requires --variant=new — output commit at the socket "
                 "boundary is the serving contract (see docs/PROTOCOL.md)\n");
    return 2;
  }

  if (!ParseFailureSchedule(flags, config.backups, &config.failures,
                            &config.failure_description)) {
    return 2;
  }
  if (!config.failures.empty() && config.role != serve::ServeRole::kSingle) {
    std::fprintf(stderr,
                 "hbft_cli: --fail applies to --role=single only (multi-process failures "
                 "are real: kill the primary process)\n");
    return 2;
  }
  if (backups.has_value() && config.role != serve::ServeRole::kSingle) {
    std::fprintf(stderr,
                 "hbft_cli: --backups applies to --role=single only (a multi-process pair "
                 "is one primary process and one backup process)\n");
    return 2;
  }
  if (!flags.Finish()) {
    return 2;
  }
  if (config.backups < 1) {
    std::fprintf(stderr, "hbft_cli: --backups must be at least 1\n");
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
