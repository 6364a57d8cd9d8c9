// Replica placement for a fleet of protected chains across simulated hosts.
//
// The paper's availability argument assumes a single failure takes out at
// most one replica of a protected pair (section 2: the primary and backup
// run on *distinct* processors precisely so one hardware fault cannot kill
// both). At fleet scale that assumption is a scheduling property, not a
// given: a placement that co-locates a chain's primary and backup converts
// one host failure into an unrecoverable double failure for that chain.
//
// Two policies:
//  - kRoundRobin: a single global cursor deals replicas out chain-major.
//    Cheap and balanced, but blind to chain membership — whenever the host
//    count is smaller than a chain's replica count (and at repair time, when
//    the cursor happens to land on a host the chain already occupies) a
//    chain ends up with two replicas on one host.
//  - kAntiAffinity: each replica goes to the least-loaded host *not already
//    holding a replica of the same chain* (ties break toward the lowest host
//    id). One host failure then kills at most one replica per chain — the
//    paper's single-failure assumption, restored per chain by construction.
//    When every host already holds a chain replica (hosts < chain width) it
//    falls back to least-loaded rather than failing.
//
// Placement keeps no record of where replicas live: the caller passes each
// host's load, which the fleet derives from its chains' worlds (live
// replicas plus the repairs reserved on the host). Its only state is the
// round-robin cursor, so every choice is a pure function of the call
// sequence and the loads passed — no RNG — and fleet runs with equal seeds
// place identically.
#ifndef HBFT_FLEET_PLACEMENT_HPP_
#define HBFT_FLEET_PLACEMENT_HPP_

#include <cstddef>
#include <string>
#include <vector>

namespace hbft {

enum class PlacementPolicy { kRoundRobin, kAntiAffinity };

const char* PlacementPolicyName(PlacementPolicy policy);
// Parses "round-robin"/"rr" or "anti-affinity"/"aa"; returns false on
// anything else.
bool ParsePlacementPolicy(const std::string& text, PlacementPolicy* out);

class Placement {
 public:
  Placement(PlacementPolicy policy, size_t hosts);

  // Hosts for a new chain's replicas, position 0 = primary, each counted
  // into `load` (replicas per host). Call once per chain, in chain order.
  std::vector<size_t> AssignChain(size_t replicas, std::vector<size_t>* load);

  // Host for a replacement replica of a chain whose live replicas occupy
  // `occupied` (host ids, duplicates allowed), given each host's `load` (its
  // live replicas plus the repairs reserved on it). Failed hosts
  // (`host_up[h]` == false) are never picked by either policy; at least one
  // host must be up.
  size_t PickRepairHost(const std::vector<size_t>& occupied, const std::vector<bool>& host_up,
                        const std::vector<size_t>& load);

 private:
  size_t PickLeastLoaded(const std::vector<size_t>& avoid, const std::vector<bool>* host_up,
                         const std::vector<size_t>& load) const;

  PlacementPolicy policy_ = PlacementPolicy::kAntiAffinity;
  size_t hosts_ = 0;
  size_t cursor_ = 0;  // Round-robin only.
};

// The deterministic spread used by `--fail=host-storm,hosts=N`: N distinct
// host ids evenly strided across [0, hosts), lowest first — evenly spaced so
// a storm exercises concurrent failovers across the fleet rather than one
// corner of it.
std::vector<size_t> StormHosts(size_t hosts, size_t count);

}  // namespace hbft

#endif  // HBFT_FLEET_PLACEMENT_HPP_
