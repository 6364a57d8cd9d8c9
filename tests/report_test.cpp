// perf/report helper tests: exact nearest-rank percentiles on small samples
// and time-based availability from outage windows — the fleet's measurement
// arithmetic, checked against hand-computed values — plus the JSON printer
// every report goes through, as JSON and as flattened text, and the resync
// rows of the replication report.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "cli/json.hpp"
#include "perf/report.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

TEST(Percentile, NearestRankOnSmallSamples) {
  // Nearest-rank: rank = ceil(pct/100 * N), 1-indexed. For {1,2,3,4}:
  // p50 -> rank 2, p75 -> rank 3, p76 -> rank 4, p100 -> rank 4.
  const std::vector<double> s = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(s, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(s, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(s, 75.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(s, 76.0), 4.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(s, 100.0), 4.0);
  // Rank clamps to [1, N]: pct 0 is the minimum, pct > 100 the maximum.
  EXPECT_DOUBLE_EQ(PercentileNearestRank(s, 0.0), 1.0);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  const std::vector<double> s = {7.5};
  for (double pct : {0.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(PercentileNearestRank(s, pct), 7.5);
  }
}

TEST(Percentile, SummarizeEmptySamples) {
  LatencySummary summary = SummarizeLatencies({});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.mean, 0.0);
  EXPECT_DOUBLE_EQ(summary.p50, 0.0);
  EXPECT_DOUBLE_EQ(summary.p999, 0.0);
  EXPECT_DOUBLE_EQ(summary.max, 0.0);
}

TEST(Percentile, SummarizeOrderStatistics) {
  // 1..100 shuffled (reverse order): sorting is the summary's job.
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  LatencySummary summary = SummarizeLatencies(std::move(samples));
  EXPECT_EQ(summary.count, 100u);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_DOUBLE_EQ(summary.p50, 50.0);
  EXPECT_DOUBLE_EQ(summary.p90, 90.0);
  EXPECT_DOUBLE_EQ(summary.p99, 99.0);
  EXPECT_DOUBLE_EQ(summary.p999, 100.0);  // ceil(0.999*100) = 100.
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  // The invariant diff_bench.py enforces on fig7.
  EXPECT_LE(summary.p50, summary.p99);
  EXPECT_LE(summary.p99, summary.p999);
}

TEST(Availability, MergesOverlapsAndClipsToDuration) {
  // [10,20] and [15,30] merge to [10,30]; [40,50] clips to [40,45].
  std::vector<OutageWindow> windows = {
      {SimTime::Micros(40), SimTime::Micros(50)},
      {SimTime::Micros(10), SimTime::Micros(20)},
      {SimTime::Micros(15), SimTime::Micros(30)},
  };
  EXPECT_EQ(MergedOutageTime(windows, SimTime::Micros(45)), SimTime::Micros(25));
  EXPECT_NEAR(AvailabilityFromOutages(windows, SimTime::Micros(45)), 1.0 - 25.0 / 45.0, 1e-12);
}

TEST(Availability, BackToBackWindowsDoNotDoubleCount) {
  std::vector<OutageWindow> windows = {
      {SimTime::Micros(0), SimTime::Micros(10)},
      {SimTime::Micros(10), SimTime::Micros(20)},
      {SimTime::Micros(0), SimTime::Micros(20)},  // Fully contained.
  };
  EXPECT_EQ(MergedOutageTime(windows, SimTime::Micros(100)), SimTime::Micros(20));
  EXPECT_NEAR(AvailabilityFromOutages(windows, SimTime::Micros(100)), 0.8, 1e-12);
}

TEST(Availability, EdgeCases) {
  // No outages: fully available.
  EXPECT_DOUBLE_EQ(AvailabilityFromOutages({}, SimTime::Millis(5)), 1.0);
  // Outage covering the whole run: zero.
  EXPECT_DOUBLE_EQ(AvailabilityFromOutages({{SimTime::Zero(), SimTime::Millis(5)}},
                                           SimTime::Millis(5)),
                   0.0);
  // A window entirely past the measured duration contributes nothing.
  EXPECT_DOUBLE_EQ(AvailabilityFromOutages({{SimTime::Millis(8), SimTime::Millis(9)}},
                                           SimTime::Millis(5)),
                   1.0);
  // Degenerate empty duration: available iff there was no outage at all.
  EXPECT_DOUBLE_EQ(AvailabilityFromOutages({}, SimTime::Zero()), 1.0);
  EXPECT_DOUBLE_EQ(AvailabilityFromOutages({{SimTime::Zero(), SimTime::Zero()}},
                                           SimTime::Zero()),
                   0.0);
}

// Reports carry fingerprints and seeds as full-range uint64_t: values at or
// above 2^63 must print as the unsigned numbers they are, not wrap negative.
TEST(JsonValue, PrintsUint64AboveInt64MaxUnsigned) {
  EXPECT_EQ(cli::JsonValue(uint64_t{1} << 63).Dump(), "9223372036854775808\n");
  EXPECT_EQ(cli::JsonValue(~uint64_t{0}).Dump(), "18446744073709551615\n");
  EXPECT_EQ(cli::JsonValue(int64_t{-1}).Dump(), "-1\n");
  cli::JsonValue doc = cli::JsonValue::Object();
  doc.Set("fingerprint", uint64_t{16216602067118716049ULL});
  EXPECT_EQ(doc.Dump(), "{\n  \"fingerprint\": 16216602067118716049\n}\n");
}

// The text report is the document flattened: one `path : value` line per
// leaf, object keys and array indices joined with '.', paths padded to the
// longest, values printed exactly as Dump prints them.
TEST(JsonValueText, FlattensNestedObjectsAndArrays) {
  cli::JsonValue node0 = cli::JsonValue::Object().Set("id", 1).Set("promoted", false);
  cli::JsonValue node1 = cli::JsonValue::Object().Set("id", 2).Set("promoted", true);
  cli::JsonValue doc = cli::JsonValue::Object();
  doc.Set("verdict", "PASS")
      .Set("replication",
           cli::JsonValue::Object().Set("nodes", cli::JsonValue::Array().Push(node0).Push(node1)))
      .Set("crash_times_ms", cli::JsonValue::Array().Push(6.0).Push(20.5))
      .Set("seed", ~uint64_t{0})
      .Set("ratio", 1.0 / 3.0)
      .Set("missing", cli::JsonValue());
  EXPECT_EQ(doc.DumpText(),
            "verdict                      : \"PASS\"\n"
            "replication.nodes.0.id       : 1\n"
            "replication.nodes.0.promoted : false\n"
            "replication.nodes.1.id       : 2\n"
            "replication.nodes.1.promoted : true\n"
            "crash_times_ms.0             : 6\n"
            "crash_times_ms.1             : 20.5\n"
            "seed                         : 18446744073709551615\n"
            "ratio                        : 0.333333\n"
            "missing                      : null\n");
}

TEST(JsonValueText, EmptyContainersAreLeaves) {
  cli::JsonValue doc = cli::JsonValue::Object();
  doc.Set("failed_checks", cli::JsonValue::Array())
      .Set("config", cli::JsonValue::Object())
      .Set("rows", cli::JsonValue::Array().Push(cli::JsonValue::Object()).Push(
                       cli::JsonValue::Array()));
  EXPECT_EQ(doc.DumpText(),
            "failed_checks : []\n"
            "config        : {}\n"
            "rows.0        : {}\n"
            "rows.1        : []\n");
  EXPECT_EQ(cli::JsonValue::Object().DumpText(), " : {}\n");
}

// A string prints quoted and escaped, so no value can start a second line.
TEST(JsonValueText, EscapedStringsKeepOneLinePerLeaf) {
  cli::JsonValue doc = cli::JsonValue::Object();
  doc.Set("detail", "line one\nline \"two\"\tand \\ three")
      .Set("bell", std::string("a\x07") + "b")
      .Set("reasons", cli::JsonValue::Array().Push("x\ny").Push("\r\n"));
  const std::string text = doc.DumpText();
  EXPECT_EQ(text,
            "detail    : \"line one\\nline \\\"two\\\"\\tand \\\\ three\"\n"
            "bell      : \"a\\u0007b\"\n"
            "reasons.0 : \"x\\ny\"\n"
            "reasons.1 : \"\\u000d\\n\"\n");
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

// Every line of a wide document puts its ':' in one column.
TEST(JsonValueText, AlignsEveryLineToTheLongestPath) {
  cli::JsonValue rows = cli::JsonValue::Array();
  for (int i = 0; i < 12; ++i) {
    rows.Push(cli::JsonValue::Object().Set("n", i).Set("a_much_longer_key", i * 2));
  }
  cli::JsonValue doc = cli::JsonValue::Object();
  doc.Set("k", "v").Set("rows", std::move(rows));
  const std::string text = doc.DumpText();
  const size_t column = std::string("rows.10.a_much_longer_key").size() + 1;
  size_t lines = 0;
  for (size_t start = 0; start < text.size(); ++lines) {
    const size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(start, end - start);
    EXPECT_EQ(line.find(" : "), column - 1) << line;
    start = end + 1;
  }
  EXPECT_EQ(lines, 1u + 12u * 2u);
}

// The `path : value` lines of `text` under `prefix`, as `field : value`.
std::vector<std::string> LinesUnder(const std::string& text, const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0) {
      continue;
    }
    const size_t path_end = line.find(' ');
    const size_t value = line.find(" : ");
    out.push_back(line.substr(prefix.size(), path_end - prefix.size()) + " : " +
                  line.substr(value + 3));
  }
  return out;
}

// A resync row carries only the instants that happened: a transfer that
// never cut has no cut time or join epoch, and one whose joiner never
// restored has no join time or latency.
TEST(ReplicationJson, ResyncRowsCarryOnlyTheInstantsThatHappened) {
  ResyncReport joined;
  joined.source = 1;
  joined.joined = 2;
  joined.start = SimTime::Millis(8);
  joined.transfer.cut = true;
  joined.transfer.cut_time = SimTime::Millis(9);
  joined.transfer.cut_epoch = 15;
  joined.transfer.bytes_sent = 4096;
  joined.completed = true;
  joined.join_time = SimTime::Millis(11);
  ResyncReport cut_unjoined = joined;
  cut_unjoined.joined = 3;
  cut_unjoined.completed = false;
  cut_unjoined.join_time = SimTime::Zero();
  ResyncReport uncut;
  uncut.source = 1;
  uncut.joined = 4;
  uncut.start = SimTime::Millis(20);
  ScenarioResult r;
  r.resyncs = {joined, cut_unjoined, uncut};

  const std::string text = cli::ReplicationJson(r).DumpText();
  // Every row ends with the transfer's counters.
  auto row = [](std::vector<std::string> fields, const std::string& bytes) {
    fields.insert(fields.end(), {"bytes : " + bytes, "page_chunks : 0", "zero_run_chunks : 0",
                                 "full_pages : 0", "delta_pages : 0", "rounds : 0"});
    return fields;
  };
  EXPECT_EQ(LinesUnder(text, "resyncs.0."),
            row({"source : 1", "joined : 2", "completed : true", "start_ms : 8", "cut_ms : 9",
                 "join_ms : 11", "latency_ms : 3", "join_epoch : 15"},
                "4096"));
  EXPECT_EQ(LinesUnder(text, "resyncs.1."),
            row({"source : 1", "joined : 3", "completed : false", "start_ms : 8", "cut_ms : 9",
                 "join_epoch : 15"},
                "4096"));
  EXPECT_EQ(LinesUnder(text, "resyncs.2."),
            row({"source : 1", "joined : 4", "completed : false", "start_ms : 20"}, "0"));
}

}  // namespace
}  // namespace hbft
