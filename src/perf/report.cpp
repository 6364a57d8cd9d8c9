#include "perf/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"

namespace hbft {

TableReporter::TableReporter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TableReporter::AddRow(std::vector<std::string> cells) {
  HBFT_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TableReporter::Num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TableReporter::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << cells[c];
      for (size_t pad = cells[c].size(); pad < widths[c]; ++pad) {
        out << ' ';
      }
    }
    out << '\n';
  };
  emit_row(headers_);
  std::vector<std::string> rule;
  rule.reserve(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    rule.push_back(std::string(widths[c], '-'));
  }
  emit_row(rule);
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string RenderTransportTable(const std::vector<ChannelCounterRow>& rows) {
  TableReporter table({"channel", "msgs", "wire_sends", "retx", "drops", "dups", "reord",
                       "q_drop", "q_hwm", "rx_disc", "bytes_wire", "goodput_mbps"});
  for (const ChannelCounterRow& row : rows) {
    const Channel::Counters& c = row.counters;
    double goodput_mbps =
        row.run_seconds > 0.0
            ? static_cast<double>(c.bytes_delivered) * 8.0 / row.run_seconds / 1e6
            : 0.0;
    table.AddRow({row.label, std::to_string(c.messages_enqueued), std::to_string(c.wire_sends),
                  std::to_string(c.retransmits), std::to_string(c.link_drops),
                  std::to_string(c.link_duplicates), std::to_string(c.link_reorders),
                  std::to_string(c.queue_drops), std::to_string(c.queue_high_water),
                  std::to_string(c.rx_duplicates + c.rx_gaps), std::to_string(c.bytes_on_wire),
                  TableReporter::Num(goodput_mbps, 3)});
  }
  return table.Render();
}

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
