// The hbft_cli subcommands. Each takes pre-split flags and returns a process
// exit code (0 = success / scenario passed its checks).
#ifndef HBFT_CLI_COMMANDS_HPP_
#define HBFT_CLI_COMMANDS_HPP_

#include <cstdio>
#include <string>

#include "cli/options.hpp"

namespace hbft {
namespace cli {

int RunCommand(FlagSet& flags);
int BenchCommand(FlagSet& flags);
int FleetCommand(FlagSet& flags);
int ServeCommand(FlagSet& flags);

// Report line helpers: aligned "key : value" rows, greppable by the smoke
// test and stable for transcripts in README.md.
inline void ReportLine(const std::string& key, const std::string& value) {
  std::printf("%-24s: %s\n", key.c_str(), value.c_str());
}
inline void ReportYesNo(const std::string& key, bool value) {
  ReportLine(key, value ? "yes" : "no");
}
inline void ReportF(const std::string& key, double value, const char* unit = "") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f%s", value, unit);
  ReportLine(key, buf);
}

}  // namespace cli
}  // namespace hbft

#endif  // HBFT_CLI_COMMANDS_HPP_
