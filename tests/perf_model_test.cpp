// Analytic model tests: the closed-form NP models must reproduce the paper's
// published numbers within tolerance, and obey the paper's qualitative
// claims (monotonicity, protocol ordering, link ordering, crossovers).
#include <gtest/gtest.h>

#include "perf/models.hpp"

namespace hbft {
namespace {

// ---- Figure 2 (CPU-intensive, original protocol, Ethernet) ------------------

struct Fig2Point {
  double el;
  double paper_np;
  double tolerance;
};

class Fig2Model : public testing::TestWithParam<Fig2Point> {};

TEST_P(Fig2Model, MatchesPaper) {
  const Fig2Point& p = GetParam();
  double np = ModelNpCpu(p.el, /*revised=*/false, ModelLink::kEthernet10);
  EXPECT_NEAR(np, p.paper_np, p.tolerance) << "EL=" << p.el;
}

INSTANTIATE_TEST_SUITE_P(PaperPoints, Fig2Model,
                         testing::Values(Fig2Point{1024, 22.24, 0.7}, Fig2Point{2048, 11.83, 0.5},
                                         Fig2Point{4096, 6.50, 0.3}, Fig2Point{8192, 3.83, 0.2},
                                         Fig2Point{32768, 1.84, 0.1},
                                         Fig2Point{385000, 1.24, 0.12}));

// ---- Figure 3 (I/O workloads) -----------------------------------------------

struct IoPoint {
  double el;
  double paper_write;
  double paper_read;
};

class Fig3Model : public testing::TestWithParam<IoPoint> {};

TEST_P(Fig3Model, MatchesPaper) {
  const IoPoint& p = GetParam();
  EXPECT_NEAR(ModelNpWrite(p.el, false), p.paper_write, 0.08) << "EL=" << p.el;
  EXPECT_NEAR(ModelNpRead(p.el, false, ModelLink::kEthernet10), p.paper_read, 0.10)
      << "EL=" << p.el;
}

INSTANTIATE_TEST_SUITE_P(PaperPoints, Fig3Model,
                         testing::Values(IoPoint{1024, 1.87, 2.32}, IoPoint{2048, 1.71, 2.10},
                                         IoPoint{4096, 1.67, 2.03}, IoPoint{8192, 1.64, 1.98}));

// ---- Table 1 revised protocol ------------------------------------------------

TEST(Table1Model, RevisedCpuMatchesPaper) {
  EXPECT_NEAR(ModelNpCpu(4096, true, ModelLink::kEthernet10), 3.21, 0.35);
  EXPECT_NEAR(ModelNpCpu(8192, true, ModelLink::kEthernet10), 2.20, 0.25);
}

TEST(Table1Model, RevisedReadMatchesPaper) {
  // The paper's 1K revised row is its noisiest point (see EXPERIMENTS.md's
  // deviations note); the wider tolerance reflects that.
  EXPECT_NEAR(ModelNpRead(1024, true, ModelLink::kEthernet10), 1.92, 0.20);
  EXPECT_NEAR(ModelNpRead(4096, true, ModelLink::kEthernet10), 1.72, 0.08);
  EXPECT_NEAR(ModelNpRead(8192, true, ModelLink::kEthernet10), 1.70, 0.08);
}

TEST(Table1Model, RevisedWriteMatchesPaper) {
  EXPECT_NEAR(ModelNpWrite(4096, true), 1.66, 0.08);
  EXPECT_NEAR(ModelNpWrite(8192, true), 1.64, 0.08);
}

// ---- Figure 4 (ATM link) ------------------------------------------------------

TEST(Fig4Model, AtmBeatsEthernetAndMatchesEndpoints) {
  EXPECT_NEAR(ModelNpCpu(32768, false, ModelLink::kEthernet10), 1.84, 0.08);
  EXPECT_NEAR(ModelNpCpu(32768, false, ModelLink::kAtm155), 1.66, 0.08);
  for (double el = 1024; el <= 32768; el *= 2) {
    EXPECT_LT(ModelNpCpu(el, false, ModelLink::kAtm155),
              ModelNpCpu(el, false, ModelLink::kEthernet10))
        << "EL=" << el;
  }
}

// ---- Qualitative shape properties ---------------------------------------------

TEST(ModelShape, NpFallsWithEpochLengthForCpu) {
  double prev = 1e9;
  for (double el = 512; el <= 262144; el *= 2) {
    double np = ModelNpCpu(el, false, ModelLink::kEthernet10);
    EXPECT_LT(np, prev) << "EL=" << el;
    EXPECT_GT(np, 1.0);
    prev = np;
  }
}

TEST(ModelShape, RevisedNeverWorseThanOriginal) {
  for (double el = 512; el <= 65536; el *= 2) {
    EXPECT_LE(ModelNpCpu(el, true, ModelLink::kEthernet10) - 1e-9,
              ModelNpCpu(el, false, ModelLink::kEthernet10));
    EXPECT_LE(ModelNpWrite(el, true) - 1e-9, ModelNpWrite(el, false));
    EXPECT_LE(ModelNpRead(el, true, ModelLink::kEthernet10) - 1e-9,
              ModelNpRead(el, false, ModelLink::kEthernet10));
  }
}

TEST(ModelShape, ReadCostlierThanWriteUnderOriginalProtocol) {
  // The read data must be forwarded to the backup (rule P2): reads carry the
  // extra transfer, writes do not.
  for (double el = 1024; el <= 32768; el *= 2) {
    EXPECT_GT(ModelNpRead(el, false, ModelLink::kEthernet10), ModelNpWrite(el, false));
  }
}

TEST(ModelShape, CpuCurveCrossesBelowIoCurvesAtLargeEpochs) {
  // Small epochs: CPU suffers far more than I/O; large epochs: CPU recovers
  // below the I/O workloads (the paper's qualitative story).
  EXPECT_GT(ModelNpCpu(1024, false, ModelLink::kEthernet10),
            ModelNpRead(1024, false, ModelLink::kEthernet10));
  EXPECT_LT(ModelNpCpu(385000, false, ModelLink::kEthernet10),
            ModelNpWrite(385000, false));
}

TEST(ModelShape, IoDelayTermLiftsVeryLargeEpochs) {
  // The paper notes a slight upward drift for large EL as interrupt delivery
  // is delayed: the write curve's minimum is interior.
  double np32k = ModelNpWrite(32768, false);
  double np512k = ModelNpWrite(524288, false);
  EXPECT_GT(np512k, np32k);
}

}  // namespace
}  // namespace hbft
