// `hbft_cli fleet`: many protected chains across simulated hosts — placement,
// host failure storms, bounded repair, and open-loop traffic measurement.
#include <climits>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "fleet/fleet.hpp"
#include "isa/isa.hpp"

namespace hbft {
namespace cli {

namespace {

// Parses one `--fail=SPEC` for the fleet:
//   host-K,time-ms=X                 one host fails at X
//   host-storm,hosts=N,time-ms=X     N hosts fail at X, evenly spread
// Appends the resulting failures to `out`.
bool ParseHostFailSpec(const std::string& spec, size_t fleet_hosts,
                       std::vector<HostFailure>* out) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : spec) {
    if (c == ',') {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  if (parts.empty()) {
    std::fprintf(stderr, "hbft_cli: empty --fail spec\n");
    return false;
  }

  bool storm = false;
  std::optional<uint64_t> host;
  std::optional<uint64_t> storm_hosts = 1;
  std::optional<double> time_ms;
  const std::string& head = parts[0];
  if (head == "host-storm") {
    storm = true;
  } else if (head.rfind("host-", 0) == 0) {
    host = ParseCount(head.substr(5));
    if (!host) {
      std::fprintf(stderr, "hbft_cli: bad host in --fail=%s\n", spec.c_str());
      return false;
    }
  } else {
    std::fprintf(stderr,
                 "hbft_cli: fleet --fail wants host-K or host-storm, got '%s'\n", head.c_str());
    return false;
  }
  for (size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    auto eq = part.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "hbft_cli: bad --fail part '%s'\n", part.c_str());
      return false;
    }
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    if (key == "time-ms") {
      time_ms = ParseFailMillis(key, value);
      if (!time_ms) {
        return false;
      }
    } else if (key == "hosts" && storm) {
      storm_hosts = ParseCount(value);
      if (!storm_hosts || *storm_hosts == 0) {
        std::fprintf(stderr, "hbft_cli: --fail hosts expects a count >= 1, got '%s'\n",
                     value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "hbft_cli: bad --fail part '%s'\n", part.c_str());
      return false;
    }
  }
  if (!time_ms) {
    std::fprintf(stderr, "hbft_cli: --fail=%s needs time-ms\n", spec.c_str());
    return false;
  }
  const SimTime t = SimTime::MicrosF(*time_ms * 1e3);
  if (storm) {
    for (size_t h : StormHosts(fleet_hosts, *storm_hosts)) {
      out->push_back(HostFailure{h, t});
    }
  } else {
    if (*host >= fleet_hosts) {
      std::fprintf(stderr, "hbft_cli: --fail host %llu out of range (hosts=%zu)\n",
                   static_cast<unsigned long long>(*host), fleet_hosts);
      return false;
    }
    out->push_back(HostFailure{*host, t});
  }
  return true;
}

JsonValue LatencyJson(const LatencySummary& s) {
  return JsonValue::Object()
      .Set("count", s.count)
      .Set("mean_ms", s.mean)
      .Set("p50_ms", s.p50)
      .Set("p90_ms", s.p90)
      .Set("p99_ms", s.p99)
      .Set("p999_ms", s.p999)
      .Set("max_ms", s.max);
}

}  // namespace

int FleetCommand(FlagSet& flags) {
  FleetConfig config;
  // Millisecond flags keep fleet's rounding: to the nearest picosecond.
  auto millis = [&flags](const char* key, double default_ms) {
    return SimTime::MicrosF(flags.GetMillis(key).value_or(default_ms) * 1e3);
  };
  config.chains = flags.GetU64("chains").value_or(8);
  config.hosts = flags.GetU64("hosts").value_or(4);
  config.backups = static_cast<int>(flags.GetU64("backups", INT_MAX).value_or(1));
  config.seed = flags.GetU64("seed").value_or(42);
  const std::optional<uint64_t> epoch_length = flags.GetU64("epoch-length");
  config.epoch_length = epoch_length.value_or(0);
  config.traffic.requests_per_chain = flags.GetU64("requests").value_or(8);
  config.traffic.payload_bytes =
      static_cast<uint32_t>(flags.GetU64("payload-bytes", UINT32_MAX).value_or(32));
  config.traffic.start = millis("start-ms", 100.0);
  config.traffic.interval = millis("interval-ms", 20.0);
  config.slo = millis("slo-ms", 50.0);
  config.repair_delay = millis("repair-delay-ms", 20.0);
  config.repair_retry = millis("repair-retry-ms", 10.0);
  config.repair_concurrency = flags.GetU64("repair-concurrency").value_or(1);
  if (flags.Has("max-time-ms")) {
    config.max_time = millis("max-time-ms", 0.0);
  }
  config.verify = !flags.Has("no-verify");
  config.threads = flags.GetU64("threads").value_or(1);
  // Reject what Fleet would otherwise abort on.
  const std::pair<const char*, bool> at_least_one[] = {
      {"chains", config.chains >= 1},
      {"hosts", config.hosts >= 1},
      {"backups", config.backups >= 1},
      {"repair-concurrency", config.repair_concurrency >= 1},
      {"threads", config.threads >= 1},
      {"epoch-length", epoch_length.value_or(1) >= 1},
  };
  for (const auto& [flag, ok] : at_least_one) {
    if (!ok) {
      std::fprintf(stderr, "hbft_cli: --%s must be >= 1\n", flag);
      return 2;
    }
  }
  if (config.threads > WorkerPool::kMaxThreads) {
    std::fprintf(stderr, "hbft_cli: --threads must be <= %zu\n", WorkerPool::kMaxThreads);
    return 2;
  }
  if (config.traffic.payload_bytes > kNicMaxPacketBytes) {
    std::fprintf(stderr, "hbft_cli: --payload-bytes must be <= %u\n", kNicMaxPacketBytes);
    return 2;
  }

  const std::string placement_name = flags.GetString("placement", "anti-affinity");
  if (!ParsePlacementPolicy(placement_name, &config.placement)) {
    std::fprintf(stderr, "hbft_cli: unknown placement '%s' (round-robin|anti-affinity)\n",
                 placement_name.c_str());
    return 2;
  }
  for (const std::string& spec : flags.GetList("fail")) {
    if (!ParseHostFailSpec(spec, config.hosts, &config.host_failures)) {
      return 2;
    }
  }
  const bool as_json = flags.Has("json");
  if (!flags.Finish()) {
    return 2;
  }

  Fleet fleet(config);
  FleetResult result = fleet.Run();

  const bool healthy = result.chains_lost == 0 && result.all_env_consistent &&
                       result.chains_completed == result.chains.size();

  JsonValue doc =
      JsonValue::Object()
          .Set("command", "fleet")
          .Set("config",
               JsonValue::Object()
                   .Set("chains", static_cast<uint64_t>(config.chains))
                   .Set("hosts", static_cast<uint64_t>(config.hosts))
                   .Set("backups", config.backups)
                   .Set("placement", PlacementPolicyName(config.placement))
                   .Set("requests_per_chain", config.traffic.requests_per_chain)
                   .Set("interval_ms", config.traffic.interval.seconds() * 1e3)
                   .Set("slo_ms", config.slo.seconds() * 1e3)
                   .Set("repair_concurrency", static_cast<uint64_t>(config.repair_concurrency))
                   .Set("seed", config.seed)
                   .Set("verify", config.verify)
                   .Set("threads", static_cast<uint64_t>(config.threads)))
          .Set("requests_total", result.requests_total)
          .Set("requests_served", result.requests_served)
          .Set("requests_within_slo", result.requests_within_slo)
          .Set("availability", result.availability)
          .Set("slo_attainment", result.slo_attainment)
          .Set("latency", LatencyJson(result.latency_ms))
          .Set("chains_completed", static_cast<uint64_t>(result.chains_completed))
          .Set("chains_lost", static_cast<uint64_t>(result.chains_lost))
          .Set("hosts_failed", static_cast<uint64_t>(result.hosts_failed))
          .Set("failovers", static_cast<uint64_t>(result.failovers))
          .Set("repairs", static_cast<uint64_t>(result.repairs))
          .Set("all_env_consistent", result.all_env_consistent)
          .Set("makespan_ms", result.makespan.seconds() * 1e3)
          .Set("fingerprint", result.fingerprint)
          .Set("healthy", healthy);

  JsonValue chains = JsonValue::Array();
  for (const FleetChainReport& chain : result.chains) {
    chains.Push(JsonValue::Object()
                    .Set("chain", static_cast<uint64_t>(chain.chain))
                    .Set("completed", chain.completed)
                    .Set("service_lost", chain.service_lost)
                    .Set("failovers", static_cast<uint64_t>(chain.failovers))
                    .Set("repairs", static_cast<uint64_t>(chain.repairs))
                    .Set("replicas_lost", static_cast<uint64_t>(chain.replicas_lost))
                    .Set("requests_served", chain.requests_served)
                    .Set("availability", chain.availability)
                    .Set("env_consistent", chain.env_consistent));
  }
  doc.Set("chains", std::move(chains));

  JsonValue hosts = JsonValue::Array();
  for (const FleetHostReport& host : result.hosts) {
    hosts.Push(JsonValue::Object()
                   .Set("host", static_cast<uint64_t>(host.host))
                   .Set("failed", host.failed)
                   .Set("replicas_killed", static_cast<uint64_t>(host.replicas_killed))
                   .Set("repairs_hosted", static_cast<uint64_t>(host.repairs_hosted))
                   .Set("repair_queue_peak", static_cast<uint64_t>(host.repair_queue_peak)));
  }
  doc.Set("hosts", std::move(hosts));
  PrintReport(doc, as_json);
  return healthy ? 0 : 1;
}

}  // namespace cli
}  // namespace hbft
