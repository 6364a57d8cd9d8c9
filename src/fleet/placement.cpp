#include "fleet/placement.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace hbft {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kAntiAffinity:
      return "anti-affinity";
  }
  return "?";
}

bool ParsePlacementPolicy(const std::string& text, PlacementPolicy* out) {
  if (text == "round-robin" || text == "rr") {
    *out = PlacementPolicy::kRoundRobin;
    return true;
  }
  if (text == "anti-affinity" || text == "aa") {
    *out = PlacementPolicy::kAntiAffinity;
    return true;
  }
  return false;
}

Placement::Placement(PlacementPolicy policy, size_t hosts) : policy_(policy), hosts_(hosts) {
  HBFT_CHECK_GT(hosts, 0u);
}

size_t Placement::PickLeastLoaded(const std::vector<size_t>& avoid,
                                  const std::vector<bool>* host_up,
                                  const std::vector<size_t>& load) const {
  size_t best = hosts_;
  for (size_t h = 0; h < hosts_; ++h) {
    if (host_up != nullptr && !(*host_up)[h]) {
      continue;
    }
    if (std::find(avoid.begin(), avoid.end(), h) != avoid.end()) {
      continue;
    }
    if (best == hosts_ || load[h] < load[best]) {
      best = h;  // Ties keep the earlier (lowest-id) host.
    }
  }
  if (best == hosts_) {
    // Every live host already holds a replica of this chain: anti-affinity
    // is unsatisfiable, fall back to plain least-loaded (still up-only).
    HBFT_CHECK(!avoid.empty()) << "no live host to place on";
    return PickLeastLoaded({}, host_up, load);
  }
  return best;
}

std::vector<size_t> Placement::AssignChain(size_t replicas, std::vector<size_t>* load) {
  HBFT_CHECK_EQ(load->size(), hosts_);
  std::vector<size_t> out;
  out.reserve(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    size_t host;
    if (policy_ == PlacementPolicy::kRoundRobin) {
      host = cursor_++ % hosts_;
    } else {
      host = PickLeastLoaded(out, nullptr, *load);
    }
    ++(*load)[host];
    out.push_back(host);
  }
  return out;
}

size_t Placement::PickRepairHost(const std::vector<size_t>& occupied,
                                 const std::vector<bool>& host_up,
                                 const std::vector<size_t>& load) {
  HBFT_CHECK_EQ(host_up.size(), hosts_);
  HBFT_CHECK_EQ(load.size(), hosts_);
  if (policy_ == PlacementPolicy::kRoundRobin) {
    // Blind to chain membership (that is the policy's defect), but a failed
    // host is physically gone: skip it.
    size_t host;
    do {
      host = cursor_++ % hosts_;
    } while (!host_up[host]);
    return host;
  }
  return PickLeastLoaded(occupied, &host_up, load);
}

std::vector<size_t> StormHosts(size_t hosts, size_t count) {
  if (count > hosts) {
    count = hosts;
  }
  std::vector<size_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(i * hosts / count);
  }
  return out;
}

}  // namespace hbft
