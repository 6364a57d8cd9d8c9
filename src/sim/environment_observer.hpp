// Environment consistency checking, device-generically.
//
// The paper's correctness criterion: "the environment does not see an
// anomalous sequence of I/O requests if the primary fails and the backup
// takes over" — specifically, the observed sequence must be consistent with
// what a SINGLE processor could have produced, given that devices may report
// uncertain completions and drivers therefore repeat operations.
//
// The criterion is stated per device output channel (disk blocks, console
// bytes, NIC packets — anything a DeviceBackend traces as EnvTraceEntry
// records). Concretely, for each device, against a reference (unreplicated)
// run of the same workload:
//   * without failover: the observed device trace must equal the reference
//     trace, and only the primary may have touched the device;
//   * with failover: the primary's operations form a prefix of the reference
//     sequence, the promoted backup's operations form a suffix, and they
//     overlap (the re-driven window) — every overlap operation repeats the
//     reference operation exactly, which is precisely the repetition IO1/IO2
//     license.
//
// With a backup chain, the same structure holds per handover: each replica's
// operations form a contiguous window of the reference sequence, windows
// appear in takeover order, consecutive windows may overlap (the re-driven
// operations) but never leave a gap, and together they cover the reference
// exactly. This is the per-device output-commit window: the overlap is
// bounded by what was in flight at the crash, for every device uniformly.
#ifndef HBFT_SIM_ENVIRONMENT_OBSERVER_HPP_
#define HBFT_SIM_ENVIRONMENT_OBSERVER_HPP_

#include <string>
#include <vector>

#include "devices/io.hpp"

namespace hbft {

struct ConsistencyResult {
  bool ok = true;
  std::string detail;
};

// Device-generic trace check against a replica chain: `issuer_chain` lists
// device-issuer ids in takeover order (ScenarioResult::issuer_chain()); the
// reference trace may use any single issuer. The traces are split by
// DeviceId and each device's windowed-overlap structure is verified
// independently; unperformed entries are ignored (the environment never saw
// them).
ConsistencyResult CheckEnvConsistency(const std::vector<EnvTraceEntry>& reference,
                                      const std::vector<EnvTraceEntry>& observed,
                                      const std::vector<int>& issuer_chain);

}  // namespace hbft

#endif  // HBFT_SIM_ENVIRONMENT_OBSERVER_HPP_
