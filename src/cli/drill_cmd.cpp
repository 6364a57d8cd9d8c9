// `hbft_cli drill` — the end-to-end failover drill: run the workload bare for
// reference, run it replicated, kill the active replica mid-run (repeatedly,
// in cascading mode), and report the promotion-latency breakdown per stage
// plus the environment-transparency verdict.
//
// Cascading mode: with --backups=N and no explicit schedule, the drill kills
// the active replica N times — primary first, then each promoted backup —
// so a chain of N backups is driven through every takeover it can survive.
// Explicit schedules come from repeatable --fail= flags.
//
// Repair mode (--repair): after the schedule's kills, a fresh replica
// rejoins via live state transfer, and once the resync completes the (new)
// active replica is killed too — proving the rejoined backup can take over.
// The report adds the resync latency and transferred-byte breakdown.
#include <cstdio>
#include <string>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace cli {

int DrillCommand(FlagSet& flags) {
  ScenarioFlags scenario;
  const bool repair = flags.Has("repair");
  const bool user_iterations = flags.Has("iterations");
  double repair_delay_ms = 20.0;
  double refail_delay_ms = 10.0;
  if (auto v = flags.GetDouble("repair-delay-ms")) {
    repair_delay_ms = *v;
  }
  if (auto v = flags.GetDouble("refail-delay-ms")) {
    refail_delay_ms = *v;
  }
  if (!ParseScenarioFlags(flags, &scenario) || !flags.Finish()) {
    return 2;
  }
  if (repair && !user_iterations && scenario.workload.kind == WorkloadKind::kTxnLog) {
    // The default workload must outlive the resync (the transfer streams at
    // link speed while the guest keeps running).
    scenario.workload.iterations = 40;
  }
  if (!scenario.has_failure) {
    // The drill's whole point is killing the serving replica; default to a
    // boundary-phase crash a few epochs in, then (cascading mode) one more
    // kill per extra backup, each at an I/O phase of the promoted node.
    FailurePlan first;
    first.kind = FailurePlan::Kind::kAtPhase;
    first.phase = FailPhase::kAfterSendTme;
    first.phase_epoch = 3;
    scenario.failures.push_back(first);
    scenario.failure_description = "at-phase after-send-tme epoch 3";
    for (int i = 1; i < scenario.backups; ++i) {
      FailurePlan next;
      next.kind = FailurePlan::Kind::kAtPhase;
      next.phase = FailPhase::kAfterIoIssue;
      scenario.failures.push_back(next);
      scenario.failure_description += "; then at-phase after-io-issue";
    }
    scenario.has_failure = true;
  }
  if (repair) {
    // Restore redundancy after the last kill, then prove it: kill the active
    // replica again once the rejoined backup is online.
    FailurePlan rejoin;
    rejoin.kind = FailurePlan::Kind::kRejoin;
    rejoin.relative = true;
    rejoin.time = SimTime::Picos(static_cast<int64_t>(repair_delay_ms * 1e9));
    scenario.failures.push_back(rejoin);
    FailurePlan refail;
    refail.kind = FailurePlan::Kind::kAtTime;
    refail.after_resync = true;
    refail.time = SimTime::Picos(static_cast<int64_t>(refail_delay_ms * 1e9));
    scenario.failures.push_back(refail);
    char repair_desc[96];
    std::snprintf(repair_desc, sizeof(repair_desc),
                  "; then rejoin +%g ms; then kill +%g ms after resync", repair_delay_ms,
                  refail_delay_ms);
    scenario.failure_description += repair_desc;
  }
  for (const FailurePlan& plan : scenario.failures) {
    if (plan.kind != FailurePlan::Kind::kRejoin &&
        plan.target != FailurePlan::Target::kActive) {
      std::fprintf(stderr,
                   "hbft_cli: drill kills the serving replica; use run for standing-backup "
                   "failures\n");
      return 2;
    }
  }

  std::printf("== hbft failover drill ==\n");
  ReportLine("workload", WorkloadKindName(scenario.workload.kind));
  ReportLine("variant", VariantName(scenario.variant));
  ReportLine("epoch_length", std::to_string(scenario.epoch_length));
  ReportLine("backups", std::to_string(scenario.backups));
  ReportLine("kill", scenario.failure_description);

  ScenarioResult bare = scenario.Bare().Run();
  if (!bare.completed || bare.exited_flag != 1) {
    std::fprintf(stderr, "hbft_cli: bare reference run failed\n");
    return 1;
  }
  ScenarioResult ft = scenario.Replicated().Run();

  ReportYesNo("completed", ft.completed);
  if (!ft.completed) {
    ReportYesNo("timed_out", ft.timed_out);
    ReportYesNo("deadlocked", ft.deadlocked);
    ReportYesNo("service_lost", ft.service_lost);
    return 1;
  }
  ReportYesNo("promoted", ft.promoted);
  if (!ft.promoted) {
    std::fprintf(stderr,
                 "hbft_cli: the workload finished before the kill point was reached; "
                 "try an earlier --fail=phase=P,epoch=N or --fail=time-ms=X\n");
    return 1;
  }

  // Promotion-latency breakdown, one stage per takeover. Detection is the
  // channel-drain timeout the failure detector waits after the last message
  // from the dead replica; the takeover remainder is P6/P7 processing
  // (deliver buffered interrupts, synthesise uncertain interrupts, switch to
  // real devices).
  const double detect_ms = CostModel{}.failure_detect_timeout.seconds() * 1e3;
  std::printf("-- promotion latency --\n");
  size_t stage = 0;
  for (size_t i = 1; i < ft.nodes.size(); ++i) {
    if (!ft.nodes[i].promoted || stage >= ft.crash_times.size()) {
      break;
    }
    const double crash_ms = ft.crash_times[stage].seconds() * 1e3;
    const double promo_ms = ft.nodes[i].promotion_time.seconds() * 1e3;
    const double latency_ms = promo_ms - crash_ms;
    const std::string suffix = stage == 0 ? std::string() : "_stage" + std::to_string(stage + 1);
    ReportF(("crash_time_ms" + suffix).c_str(), crash_ms);
    ReportF(("promotion_time_ms" + suffix).c_str(), promo_ms);
    ReportF(("promotion_latency_ms" + suffix).c_str(), latency_ms);
    ReportF(("  detection_timeout_ms" + suffix).c_str(), detect_ms);
    ReportF(("  takeover_ms" + suffix).c_str(), latency_ms - detect_ms);
    ReportLine(("uncertain_interrupts" + suffix).c_str(),
               std::to_string(ft.backup_stats(i - 1).uncertain_synthesised));
    ReportLine(("backup_io_redriven" + suffix).c_str(),
               std::to_string(ft.backup_stats(i - 1).io_issued));
    ReportLine(("backup_epochs" + suffix).c_str(), std::to_string(ft.backup_stats(i - 1).epochs));
    ++stage;
  }
  ReportLine("takeovers", std::to_string(stage));

  bool repair_ok = true;
  if (!ft.resyncs.empty()) {
    // Repair breakdown: transfer latency from rejoin to the joiner coming
    // online, and what it cost the wire.
    std::printf("-- repair --\n");
    size_t resync_stage = 0;
    for (const ResyncReport& resync : ft.resyncs) {
      const std::string suffix =
          resync_stage == 0 ? std::string() : "_" + std::to_string(resync_stage + 1);
      ReportYesNo("resync_completed" + suffix, resync.completed);
      repair_ok = repair_ok && resync.completed;
      if (resync.completed) {
        ReportF("resync_latency_ms" + suffix, (resync.join_time - resync.start).seconds() * 1e3);
        ReportF("  resync_cut_ms" + suffix, (resync.cut_time - resync.start).seconds() * 1e3);
        ReportLine("resync_bytes" + suffix, std::to_string(resync.bytes));
        ReportLine("  resync_page_chunks" + suffix, std::to_string(resync.page_chunks));
        ReportLine("  resync_zero_runs" + suffix, std::to_string(resync.zero_run_chunks));
        ReportLine("  resync_delta_pages" + suffix, std::to_string(resync.delta_pages));
        ReportLine("  resync_rounds" + suffix, std::to_string(resync.rounds));
        ReportLine("resync_join_epoch" + suffix, std::to_string(resync.join_epoch));
      }
      ++resync_stage;
    }
  }

  std::printf("-- transparency --\n");
  bool ok = ft.exited_flag == 1;
  ReportLine("guest_exit",
             ft.exited_flag == 1 ? "clean" : "panic " + std::to_string(ft.panic_code));
  bool checksum_ok = ft.guest_checksum == bare.guest_checksum;
  ok = ok && checksum_ok;
  ReportLine("guest_checksum", std::to_string(ft.guest_checksum) + " (bare " +
                                   std::to_string(bare.guest_checksum) +
                                   (checksum_ok ? ", match)" : ", MISMATCH)"));
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  ReportLine("env_consistency", env.ok ? "ok" : "FAIL: " + env.detail);
  ok = ok && env.ok && repair_ok;
  ReportLine("verdict", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace cli
}  // namespace hbft
