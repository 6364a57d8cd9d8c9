#include "perf/report.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace hbft {

double PercentileNearestRank(const std::vector<double>& sorted, double pct) {
  HBFT_CHECK(!sorted.empty());
  HBFT_CHECK(pct >= 0.0 && pct <= 100.0);  // pct 0 clamps to the minimum.
  // 1-indexed rank ceil(pct/100 * N), clamped against floating-point slop.
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > sorted.size()) {
    rank = sorted.size();
  }
  return sorted[rank - 1];
}

LatencySummary SummarizeLatencies(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = PercentileNearestRank(samples, 50.0);
  s.p90 = PercentileNearestRank(samples, 90.0);
  s.p99 = PercentileNearestRank(samples, 99.0);
  s.p999 = PercentileNearestRank(samples, 99.9);
  s.max = samples.back();
  return s;
}

SimTime MergedOutageTime(std::vector<OutageWindow> windows, SimTime duration) {
  if (duration <= SimTime::Zero()) {
    return SimTime::Zero();
  }
  // Clip to [0, duration], drop empties, then sweep the sorted starts.
  std::vector<OutageWindow> clipped;
  clipped.reserve(windows.size());
  for (OutageWindow w : windows) {
    if (w.start < SimTime::Zero()) {
      w.start = SimTime::Zero();
    }
    if (w.end > duration) {
      w.end = duration;
    }
    if (w.end > w.start) {
      clipped.push_back(w);
    }
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const OutageWindow& a, const OutageWindow& b) { return a.start < b.start; });
  SimTime total = SimTime::Zero();
  SimTime cur_start = SimTime::Zero();
  SimTime cur_end = SimTime::Zero();
  bool open = false;
  for (const OutageWindow& w : clipped) {
    if (open && w.start <= cur_end) {
      if (w.end > cur_end) {
        cur_end = w.end;
      }
    } else {
      if (open) {
        total += cur_end - cur_start;
      }
      cur_start = w.start;
      cur_end = w.end;
      open = true;
    }
  }
  if (open) {
    total += cur_end - cur_start;
  }
  return total;
}

double AvailabilityFromOutages(std::vector<OutageWindow> windows, SimTime duration) {
  if (duration <= SimTime::Zero()) {
    return windows.empty() ? 1.0 : 0.0;
  }
  SimTime outage = MergedOutageTime(std::move(windows), duration);
  double frac =
      static_cast<double>(outage.picos()) / static_cast<double>(duration.picos());
  double avail = 1.0 - frac;
  if (avail < 0.0) {
    avail = 0.0;
  }
  if (avail > 1.0) {
    avail = 1.0;
  }
  return avail;
}

}  // namespace hbft
