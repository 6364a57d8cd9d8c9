#include "sim/environment_observer.hpp"

#include <set>
#include <sstream>
#include <string>

namespace hbft {

namespace {

// Chain-structure check: each segment (one replica's operations, in takeover
// order) must equal a contiguous window of the reference; a window may start
// anywhere at or before the previous coverage end (overlap = the re-driven
// operations IO1/IO2 license) but never after it (a gap would mean lost
// operations), and the final coverage must reach the end of the reference.
//
// Window placement can be ambiguous when a segment matches several reference
// positions, so the check searches placements (latest-start first — minimal
// overlap) with backtracking; traces are small.
bool MatchSegments(const std::vector<EnvTraceEntry>& reference,
                   const std::vector<std::vector<EnvTraceEntry>>& segments, size_t seg_idx,
                   size_t cover_end) {
  const size_t n = reference.size();
  if (seg_idx == segments.size()) {
    return cover_end == n;
  }
  const std::vector<EnvTraceEntry>& items = segments[seg_idx];
  if (items.empty()) {
    // This replica never touched the device (killed while passive, or the
    // run ended before its takeover did I/O): coverage is unchanged.
    return MatchSegments(reference, segments, seg_idx + 1, cover_end);
  }
  if (items.size() > n) {
    return false;
  }
  size_t latest = cover_end < n - items.size() ? cover_end : n - items.size();
  for (size_t start = latest + 1; start-- > 0;) {
    bool match = true;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].op_hash != reference[start + i].op_hash) {
        match = false;
        break;
      }
    }
    if (match) {
      size_t end = start + items.size();
      size_t new_cover = end > cover_end ? end : cover_end;
      if (MatchSegments(reference, segments, seg_idx + 1, new_cover)) {
        return true;
      }
    }
  }
  return false;
}

// One entry, rendered for a failure message.
std::string Describe(const EnvTraceEntry& e) {
  std::ostringstream out;
  out << "op " << e.opcode << " (block " << e.block << ", " << e.bytes.size()
      << " bytes, hash " << e.op_hash << ")";
  return out.str();
}

// Per-device driver: split `observed` by issuer, check issuer interleaving
// follows the chain order, then match windows against the reference.
ConsistencyResult CheckDevice(DeviceId device, const std::vector<EnvTraceEntry>& reference,
                              const std::vector<EnvTraceEntry>& observed,
                              const std::vector<int>& issuer_chain) {
  std::ostringstream detail;

  // Ordering sanity: once a later replica in the chain has touched the
  // device, an earlier one must not (it only goes quiet or dies).
  size_t furthest = 0;
  for (const EnvTraceEntry& e : observed) {
    size_t pos = issuer_chain.size();
    for (size_t i = 0; i < issuer_chain.size(); ++i) {
      if (issuer_chain[i] == e.issuer) {
        pos = i;
        break;
      }
    }
    if (pos == issuer_chain.size()) {
      detail << DeviceIdName(device) << ": operation from unknown issuer " << e.issuer << ": "
             << Describe(e);
      return {false, detail.str()};
    }
    if (pos < furthest) {
      detail << DeviceIdName(device) << ": issuer " << e.issuer
             << " operated after its successor took over: " << Describe(e);
      return {false, detail.str()};
    }
    furthest = pos > furthest ? pos : furthest;
  }

  std::vector<std::vector<EnvTraceEntry>> segments(issuer_chain.size());
  for (const EnvTraceEntry& e : observed) {
    for (size_t i = 0; i < issuer_chain.size(); ++i) {
      if (issuer_chain[i] == e.issuer) {
        segments[i].push_back(e);
        break;
      }
    }
  }

  if (!MatchSegments(reference, segments, 0, 0)) {
    detail << DeviceIdName(device)
           << ": observed sequence is not a gap-free overlap chain of the reference ("
           << reference.size() << " reference operations;";
    for (size_t i = 0; i < segments.size(); ++i) {
      detail << " issuer " << issuer_chain[i] << ": " << segments[i].size();
    }
    detail << ")";
    return {false, detail.str()};
  }
  return {true, ""};
}

std::vector<EnvTraceEntry> PerformedOn(DeviceId device, const std::vector<EnvTraceEntry>& trace) {
  std::vector<EnvTraceEntry> out;
  for (const EnvTraceEntry& e : trace) {
    if (e.device_id == device && e.performed) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace

ConsistencyResult CheckEnvConsistency(const std::vector<EnvTraceEntry>& reference,
                                      const std::vector<EnvTraceEntry>& observed,
                                      const std::vector<int>& issuer_chain) {
  // Every device either trace mentions gets its own windowed check; a device
  // absent from both is vacuously consistent.
  std::set<DeviceId> devices;
  for (const EnvTraceEntry& e : reference) {
    devices.insert(e.device_id);
  }
  for (const EnvTraceEntry& e : observed) {
    devices.insert(e.device_id);
  }
  for (DeviceId device : devices) {
    ConsistencyResult result = CheckDevice(device, PerformedOn(device, reference),
                                           PerformedOn(device, observed), issuer_chain);
    if (!result.ok) {
      return result;
    }
  }
  return {true, ""};
}

}  // namespace hbft
