// Flag parsing for the hbft_cli subcommands.
//
// Flags are --key=value (or bare --key for booleans). Every flag a command
// reads is tracked; Finish() rejects anything left over, so typos fail loudly
// instead of silently running a default scenario. A few flags (--fail) are
// repeatable: each occurrence appends to an ordered list.
#ifndef HBFT_CLI_OPTIONS_HPP_
#define HBFT_CLI_OPTIONS_HPP_

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "guest/workloads.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"

namespace hbft {
namespace cli {

// Every millisecond value a flag or --fail key takes becomes a SimTime, so
// it must fit one: int64 picoseconds, about 106 days.
constexpr uint64_t kMaxMillis = static_cast<uint64_t>(SimTime::Max().millis());

// A decimal count spanning the whole text: digits only (no sign, space or
// suffix) and at most `max`. Nullopt otherwise.
std::optional<uint64_t> ParseCount(const std::string& text, uint64_t max = UINT64_MAX);
// The value of a time key in either --fail grammar (run's and fleet's):
// milliseconds, finite and in [0, kMaxMillis]. Prints the error itself.
std::optional<double> ParseFailMillis(const std::string& key, const std::string& value);
// The truncating millisecond-to-SimTime rounding of run and serve.
SimTime MillisToSimTime(double ms);

class FlagSet {
 public:
  // Returns false (with a message on stderr) on malformed arguments.
  bool Parse(int argc, char** argv, int first);

  // The typed getters exit 2 with a message on a malformed value.
  bool Has(const std::string& key);
  std::string GetString(const std::string& key, const std::string& default_value);
  // ParseCount: pass the limit of the field the value narrows into.
  std::optional<uint64_t> GetU64(const std::string& key, uint64_t max = UINT64_MAX);
  std::optional<double> GetDouble(const std::string& key);  // Finite only.
  // Milliseconds: finite and in [0, kMaxMillis].
  std::optional<double> GetMillis(const std::string& key);
  // Every occurrence of a repeatable flag, in command-line order.
  std::vector<std::string> GetList(const std::string& key);

  // True when every provided flag was consumed; otherwise prints the
  // unrecognised ones to stderr.
  bool Finish();

 private:
  std::map<std::string, std::vector<std::string>> values_;
  std::set<std::string> consumed_;
};

// Name <-> enum maps shared by run/serve/bench.
std::optional<WorkloadKind> ParseWorkloadKind(const std::string& name);
const char* WorkloadKindName(WorkloadKind kind);
std::optional<ProtocolVariant> ParseVariant(const std::string& name);
const char* VariantName(ProtocolVariant variant);
std::optional<FailPhase> ParseFailPhase(const std::string& name);

// One enum name per line — the discoverability behind --list-workloads and
// --list-phases.
void PrintWorkloadNames(std::FILE* out);
void PrintFailPhaseNames(std::FILE* out);

// The replica chain every replicated command runs, from its flags, applied
// to `scenario`: --epoch-length, --variant (`default_variant` when absent),
// --seed, --backups and every --fail=SPEC, in order. Each SPEC is
// comma-separated key=value pairs:
//   --fail=time-ms=40                          kill the active replica at 40ms
//   --fail=phase=after-io-issue,epoch=2        kill at a protocol phase
//   --fail=time-ms=60,target=backup:1          kill the second standing backup
//                                              below the active replica
//   --fail=phase=after-send-tme,crash-io=performed
// `failure_description` joins the specs' descriptions with "; then " (it is
// left as is without --fail). Returns false after printing the offending
// flag, or why a spec cannot run on the chain.
bool ParseChainFlags(FlagSet& flags, const char* default_variant, Scenario* scenario,
                     std::string* failure_description);

// The scenario `run` parses from its flags: workload selection, the chain
// (ParseChainFlags, variant `old` by default), device fault plans, link
// faults and injected input. Its bare reference is `scenario.AsBare()`,
// which keeps every environment knob, so the transparency checks compare
// like with like.
struct ScenarioFlags {
  Scenario scenario;
  std::string failure_description = "none";
};

// Returns nullopt after printing the offending flag.
std::optional<ScenarioFlags> ParseScenarioFlags(FlagSet& flags);

}  // namespace cli
}  // namespace hbft

#endif  // HBFT_CLI_OPTIONS_HPP_
