// The hbft_cli subcommands. Each takes pre-split flags and returns a process
// exit code (0 = success / scenario passed its checks).
#ifndef HBFT_CLI_COMMANDS_HPP_
#define HBFT_CLI_COMMANDS_HPP_

#include <vector>

#include "cli/json.hpp"
#include "cli/options.hpp"

namespace hbft {
namespace cli {

int RunCommand(FlagSet& flags);
int BenchCommand(FlagSet& flags);
int FleetCommand(FlagSet& flags);
int ServeCommand(FlagSet& flags);

// Each command builds one report document and prints it on stdout: with
// --json as the document, otherwise as its DumpText() lines.
void PrintReport(const JsonValue& doc, bool json);

// A promoted replica's takeover latency, as `run` and `serve` report it:
// its promotion time minus the latest crash at or before it.
double PromotionLatencyMs(const ScenarioResult& r, SimTime promotion_time);

// One renderer per stats struct, shared by the reports that carry it: an
// object with one key per counter, durations in milliseconds.
JsonValue StatsJson(const ReplicaNode::Stats& stats);
JsonValue StatsJson(const Hypervisor::Stats& stats);
// Every replica's takeover, join and counters, plus crashes and resyncs.
JsonValue ReplicationJson(const ScenarioResult& r);
// One row per channel: its chain positions, mode and Channel::Counters.
JsonValue ChannelsJson(const std::vector<ScenarioResult::ChannelReport>& channels);

}  // namespace cli
}  // namespace hbft

#endif  // HBFT_CLI_COMMANDS_HPP_
