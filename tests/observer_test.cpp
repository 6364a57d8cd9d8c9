// Environment-observer tests: the consistency checker itself must accept
// exactly the sequences a single processor could produce and reject
// anomalies — uniformly across device-tagged traces (disk, console, NIC),
// with per-device output-commit windows.
#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "sim/environment_observer.hpp"

namespace hbft {
namespace {

EnvTraceEntry Entry(DeviceId device, uint64_t op_hash, int issuer, bool performed = true) {
  EnvTraceEntry e;
  e.device_id = device;
  e.op_hash = op_hash;
  e.issuer = issuer;
  e.performed = performed;
  return e;
}

EnvTraceEntry Write(uint32_t block, uint64_t hash, int issuer, bool performed = true) {
  Fnv1aHasher hasher;
  hasher.UpdateU32(1);
  hasher.UpdateU32(block);
  hasher.UpdateU64(hash);
  return Entry(DeviceId::kDisk, hasher.digest(), issuer, performed);
}

EnvTraceEntry Read(uint32_t block, int issuer, bool performed = true) {
  Fnv1aHasher hasher;
  hasher.UpdateU32(0);
  hasher.UpdateU32(block);
  return Entry(DeviceId::kDisk, hasher.digest(), issuer, performed);
}

EnvTraceEntry Ch(char c, int issuer) {
  return Entry(DeviceId::kConsole, static_cast<uint64_t>(static_cast<uint8_t>(c)), issuer);
}

EnvTraceEntry Pkt(uint64_t hash, int issuer) { return Entry(DeviceId::kNic, hash, issuer); }

constexpr int kBare = 0;
constexpr int kPrimary = 1;
constexpr int kBackup = 2;

TEST(EnvConsistency, ExactMatchWithoutFailover) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare), Read(2, kBare), Write(3, 33, kBare)};
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kPrimary), Read(2, kPrimary),
                                    Write(3, 33, kPrimary)};
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EnvConsistency, RejectsDivergentContent) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare)};
  std::vector<EnvTraceEntry> obs = {Write(1, 99, kPrimary)};
  EXPECT_FALSE(CheckEnvConsistency(ref, obs, {kPrimary, kBackup}).ok);
}

TEST(EnvConsistency, RejectsMissingCoverageWithoutFailover) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare), Write(2, 22, kBare)};
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kPrimary)};
  EXPECT_FALSE(CheckEnvConsistency(ref, obs, {kPrimary, kBackup}).ok);
}

TEST(EnvConsistency, AcceptsFailoverOverlapWindow) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare), Write(2, 22, kBare),
                                    Write(3, 33, kBare)};
  // Primary did ops 0..1, backup re-drove op 1 then continued.
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kPrimary), Write(2, 22, kPrimary),
                                    Write(2, 22, kBackup), Write(3, 33, kBackup)};
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EnvConsistency, AcceptsFailoverWithoutOverlap) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare), Write(2, 22, kBare)};
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kPrimary), Write(2, 22, kBackup)};
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EnvConsistency, RejectsGapInCoverage) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare), Write(2, 22, kBare),
                                    Write(3, 33, kBare)};
  // Primary stopped after op 0, backup resumed at op 2: op 1 lost.
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kPrimary), Write(3, 33, kBackup)};
  EXPECT_FALSE(CheckEnvConsistency(ref, obs, {kPrimary, kBackup}).ok);
}

TEST(EnvConsistency, RejectsBackupOutputBeforePrimaryFinished) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare), Write(2, 22, kBare)};
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kBackup), Write(2, 22, kPrimary)};
  EXPECT_FALSE(CheckEnvConsistency(ref, obs, {kPrimary, kBackup}).ok);
}

TEST(EnvConsistency, IgnoresUnperformedOperations) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare)};
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kPrimary, /*performed=*/false),
                                    Write(1, 11, kPrimary)};
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EnvConsistency, RejectsExtraBackupOps) {
  std::vector<EnvTraceEntry> ref = {Write(1, 11, kBare)};
  std::vector<EnvTraceEntry> obs = {Write(1, 11, kPrimary), Write(1, 11, kBackup),
                                    Write(9, 99, kBackup)};
  EXPECT_FALSE(CheckEnvConsistency(ref, obs, {kPrimary, kBackup}).ok);
}

TEST(EnvConsistency, ConsoleAcceptsPrefixSuffixOverlap) {
  std::vector<EnvTraceEntry> ref = {Ch('a', kBare), Ch('b', kBare), Ch('c', kBare)};
  std::vector<EnvTraceEntry> obs = {Ch('a', kPrimary), Ch('b', kPrimary), Ch('b', kBackup),
                                    Ch('c', kBackup)};
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EnvConsistency, ConsoleRejectsWrongCharacters) {
  std::vector<EnvTraceEntry> ref = {Ch('a', kBare), Ch('b', kBare)};
  std::vector<EnvTraceEntry> obs = {Ch('a', kPrimary), Ch('x', kPrimary)};
  EXPECT_FALSE(CheckEnvConsistency(ref, obs, {kPrimary, kBackup}).ok);
}

TEST(EnvConsistency, ConsoleRejectsDroppedOutput) {
  std::vector<EnvTraceEntry> ref = {Ch('a', kBare), Ch('b', kBare), Ch('c', kBare)};
  std::vector<EnvTraceEntry> obs = {Ch('a', kPrimary), Ch('c', kBackup)};
  EXPECT_FALSE(CheckEnvConsistency(ref, obs, {kPrimary, kBackup}).ok);
}

// Devices are checked independently: each gets its own window structure, so
// a duplicated packet at handover and an exact console match coexist — but a
// violation on ANY device fails the whole check.
TEST(EnvConsistency, DevicesCheckedIndependently) {
  std::vector<EnvTraceEntry> ref = {Pkt(100, kBare), Ch('a', kBare), Pkt(200, kBare),
                                    Write(1, 11, kBare)};
  std::vector<EnvTraceEntry> obs = {
      Pkt(100, kPrimary), Ch('a', kPrimary),  Pkt(200, kPrimary),
      Pkt(200, kBackup),  Write(1, 11, kBackup),  // NIC overlap window; disk handed over.
  };
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_TRUE(result.ok) << result.detail;

  // A lost packet fails even with every other device consistent.
  std::vector<EnvTraceEntry> lost = {Pkt(100, kPrimary), Ch('a', kPrimary),
                                     Write(1, 11, kPrimary)};
  EXPECT_FALSE(CheckEnvConsistency(ref, lost, {kPrimary, kBackup}).ok);
}

TEST(EnvConsistency, DeviceAbsentFromBothIsVacuouslyConsistent) {
  std::vector<EnvTraceEntry> ref = {Ch('a', kBare)};
  std::vector<EnvTraceEntry> obs = {Ch('a', kPrimary)};
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(EnvConsistency, RejectsUnknownIssuer) {
  std::vector<EnvTraceEntry> ref = {Ch('a', kBare)};
  std::vector<EnvTraceEntry> obs = {Ch('a', 77)};
  auto result = CheckEnvConsistency(ref, obs, {kPrimary, kBackup});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.detail.find("unknown issuer"), std::string::npos);
}

}  // namespace
}  // namespace hbft
