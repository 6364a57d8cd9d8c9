// Report building blocks for the CLI: aligned plain-text tables, the shared
// renderer for per-channel transport counters (retransmits, queue pressure,
// goodput), and the latency-percentile and availability arithmetic behind
// the fleet reports.
#ifndef HBFT_PERF_REPORT_HPP_
#define HBFT_PERF_REPORT_HPP_

#include <string>
#include <vector>

#include "common/time.hpp"
#include "net/channel.hpp"

namespace hbft {

class TableReporter {
 public:
  explicit TableReporter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Renders with aligned columns.
  std::string Render() const;

  static std::string Num(double value, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// One labelled channel's counters plus the run duration (for goodput).
struct ChannelCounterRow {
  std::string label;  // e.g. "0->1 (protocol)".
  Channel::Counters counters;
  double run_seconds = 0.0;
};

// Renders the per-channel transport table: unique messages vs wire sends,
// retransmits, wire discards, queue high-water, bytes on wire, and effective
// goodput in Mbit/s.
std::string RenderTransportTable(const std::vector<ChannelCounterRow>& rows);

// --- Latency percentiles & availability (fleet bench machinery) -------------

// Exact nearest-rank percentile over `sorted` (ascending): the smallest
// sample such that at least pct% of the samples are <= it — the ceil(pct/100
// * N)-th smallest, 1-indexed. No interpolation, so small samples have exact,
// testable answers (p50 of {1,2,3,4} is 2). `sorted` must be non-empty.
double PercentileNearestRank(const std::vector<double>& sorted, double pct);

// Five-number latency summary. Zero-filled when `samples` is empty.
struct LatencySummary {
  uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};
LatencySummary SummarizeLatencies(std::vector<double> samples);  // Sorts its copy.

// A half-open window of virtual time during which a chain was not serving
// (crash to promotion, or crash to end-of-run when nobody took over).
struct OutageWindow {
  SimTime start;
  SimTime end;
};

// Total covered time of possibly-overlapping windows, clipped to
// [0, duration].
SimTime MergedOutageTime(std::vector<OutageWindow> windows, SimTime duration);

// 1 - outage/duration over the merged windows; 1.0 for an empty window set,
// 0.0 for a zero/negative duration with any outage.
double AvailabilityFromOutages(std::vector<OutageWindow> windows, SimTime duration);

}  // namespace hbft

#endif  // HBFT_PERF_REPORT_HPP_
