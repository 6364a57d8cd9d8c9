// Paper-shape assertions on MEASURED simulation results: the qualitative
// claims of the paper's evaluation must hold in the simulated system, not
// just in the closed-form models. Workloads are scaled
// down to keep the suite fast; shape, not absolute time, is asserted.
#include <gtest/gtest.h>

#include "guest/workloads.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

double Np(const WorkloadSpec& spec, const ScenarioResult& bare, uint64_t epoch_len,
          ProtocolVariant variant, CostModel costs = {}) {
  ScenarioResult ft =
      Scenario::Replicated(spec).Epoch(epoch_len).Variant(variant).Costs(costs).Run();
  EXPECT_TRUE(ft.completed);
  return NormalizedPerformance(ft, bare);
}

WorkloadSpec SmallCpu() {
  WorkloadSpec spec = WorkloadSpec::PaperCpu();
  spec.iterations = 6000;  // ~1e6 instructions.
  return spec;
}

TEST(PaperShape, CpuNpFallsWithEpochLength) {
  WorkloadSpec spec = SmallCpu();
  ScenarioResult bare = RunBare(spec);
  ASSERT_TRUE(bare.completed);
  double prev = 1e9;
  for (uint64_t el : {uint64_t{1024}, uint64_t{4096}, uint64_t{16384}}) {
    double np = Np(spec, bare, el, ProtocolVariant::kOriginal);
    EXPECT_LT(np, prev) << "EL=" << el;
    EXPECT_GT(np, 1.0);
    prev = np;
  }
}

TEST(PaperShape, RevisedProtocolBeatsOriginalOnCpu) {
  // Table 1's headline: dropping the boundary ack wait helps most where
  // boundaries dominate.
  WorkloadSpec spec = SmallCpu();
  ScenarioResult bare = RunBare(spec);
  for (uint64_t el : {uint64_t{1024}, uint64_t{4096}}) {
    double old_np = Np(spec, bare, el, ProtocolVariant::kOriginal);
    double new_np = Np(spec, bare, el, ProtocolVariant::kRevised);
    EXPECT_LT(new_np, old_np) << "EL=" << el;
    // "Most pronounced in the CPU-intensive workload": at least 1.5x better.
    EXPECT_LT(new_np, old_np / 1.5) << "EL=" << el;
  }
}

TEST(PaperShape, ReadsCostMoreThanWritesUnderOriginalProtocol) {
  WorkloadSpec write_spec = WorkloadSpec::PaperDiskWrite(10);
  WorkloadSpec read_spec = WorkloadSpec::PaperDiskRead(10);
  ScenarioResult bare_write = RunBare(write_spec);
  ScenarioResult bare_read = RunBare(read_spec);
  double np_write = Np(write_spec, bare_write, 4096, ProtocolVariant::kOriginal);
  double np_read = Np(read_spec, bare_read, 4096, ProtocolVariant::kOriginal);
  // The read data must reach the backup before the epoch commits.
  EXPECT_GT(np_read, np_write);
}

TEST(PaperShape, RevisedProtocolHidesReadForwarding) {
  // Table 1: read 2.03 -> 1.72 at 4K; the forward overlaps computation.
  WorkloadSpec spec = WorkloadSpec::PaperDiskRead(10);
  ScenarioResult bare = RunBare(spec);
  double old_np = Np(spec, bare, 4096, ProtocolVariant::kOriginal);
  double new_np = Np(spec, bare, 4096, ProtocolVariant::kRevised);
  EXPECT_LT(new_np, old_np);
  EXPECT_LT(old_np - new_np, 0.6);  // Improvement, not a rewrite of physics.
  EXPECT_GT(old_np - new_np, 0.1);  // The paper's ~0.3 gap, loosely banded.
}

TEST(PaperShape, FasterLinkImprovesCpuWorkload) {
  // Figure 4: ATM's only effect is cheaper communication.
  WorkloadSpec spec = SmallCpu();
  ScenarioResult bare = RunBare(spec);
  double eth = Np(spec, bare, 4096, ProtocolVariant::kOriginal, CostModel::PaperCalibrated());
  double atm = Np(spec, bare, 4096, ProtocolVariant::kOriginal, CostModel::WithAtmLink());
  EXPECT_LT(atm, eth);
}

TEST(PaperShape, HypervisorAloneCostsLessThanReplication) {
  // The paper attributes most overhead at long epochs to instruction
  // simulation, not replica coordination ("only 6% overhead" at 385K). At a
  // long epoch, NP must approach the privileged-simulation floor.
  WorkloadSpec spec = SmallCpu();
  ScenarioResult bare = RunBare(spec);
  double np_long = Np(spec, bare, 262144, ProtocolVariant::kRevised);
  EXPECT_LT(np_long, 1.6);
  EXPECT_GT(np_long, 1.0);
}

}  // namespace
}  // namespace hbft
