// Entry point and argument parsing for the `hbft_cli` scenario driver.
//
// Subcommands:
//   run    — execute one workload bare and/or replicated, print a report;
//            with --fail, a failover drill with per-takeover promotion
//            latency and a PASS/FAIL verdict.
//   bench  — regenerate the paper's Table 1 / Fig 2-4 numbers and this
//            reproduction's fig5-8 extensions as JSON artifacts under bench/.
//   fleet  — co-simulate many protected chains across simulated hosts.
//   serve  — front a protected guest with a real TCP listener.
#ifndef HBFT_CLI_CLI_HPP_
#define HBFT_CLI_CLI_HPP_

namespace hbft {
namespace cli {

int Main(int argc, char** argv);

}  // namespace cli
}  // namespace hbft

#endif  // HBFT_CLI_CLI_HPP_
