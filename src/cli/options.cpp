#include "cli/options.hpp"

#include <cstdio>
#include <cstdlib>

namespace hbft {
namespace cli {

namespace {

bool IsRepeatable(const std::string& key) { return key == "fail"; }

// Canonical enum lists: the single place a new workload or phase must be
// registered for both name lookup and --list-* discoverability.
constexpr WorkloadKind kAllWorkloadKinds[] = {
    WorkloadKind::kCpu,   WorkloadKind::kDiskRead, WorkloadKind::kDiskWrite,
    WorkloadKind::kHello, WorkloadKind::kTxnLog,   WorkloadKind::kEcho,
    WorkloadKind::kHeap,  WorkloadKind::kTime,     WorkloadKind::kNetEcho,
};

constexpr FailPhase kAllFailPhases[] = {
    FailPhase::kBeforeSendTme, FailPhase::kAfterSendTme, FailPhase::kAfterAckWait,
    FailPhase::kAfterDeliver,  FailPhase::kAfterSendEnd, FailPhase::kBeforeIoIssue,
    FailPhase::kAfterIoIssue,
};

}  // namespace

bool FlagSet::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      std::fprintf(stderr, "hbft_cli: unexpected argument '%s' (flags are --key=value)\n",
                   arg.c_str());
      return false;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    std::string key = body.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : body.substr(eq + 1);
    if (values_.count(key) && !IsRepeatable(key)) {
      std::fprintf(stderr, "hbft_cli: flag --%s given twice\n", key.c_str());
      return false;
    }
    values_[key].push_back(value);
  }
  return true;
}

bool FlagSet::Has(const std::string& key) {
  consumed_.insert(key);
  return values_.count(key) > 0;
}

std::string FlagSet::GetString(const std::string& key, const std::string& default_value) {
  consumed_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second.back();
}

std::optional<uint64_t> FlagSet::GetU64(const std::string& key) {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  const std::string& raw = it->second.back();
  char* end = nullptr;
  uint64_t value = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    std::fprintf(stderr, "hbft_cli: --%s expects an integer, got '%s'\n", key.c_str(),
                 raw.c_str());
    std::exit(2);
  }
  return value;
}

std::optional<double> FlagSet::GetDouble(const std::string& key) {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  const std::string& raw = it->second.back();
  char* end = nullptr;
  double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0') {
    std::fprintf(stderr, "hbft_cli: --%s expects a number, got '%s'\n", key.c_str(), raw.c_str());
    std::exit(2);
  }
  return value;
}

std::vector<std::string> FlagSet::GetList(const std::string& key) {
  consumed_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

bool FlagSet::Finish() {
  bool ok = true;
  for (const auto& [key, value] : values_) {
    if (!consumed_.count(key)) {
      std::fprintf(stderr, "hbft_cli: unknown flag --%s\n", key.c_str());
      ok = false;
    }
  }
  return ok;
}

std::optional<WorkloadKind> ParseWorkloadKind(const std::string& name) {
  for (WorkloadKind kind : kAllWorkloadKinds) {
    if (name == WorkloadKindName(kind)) {
      return kind;
    }
  }
  // Aliases.
  if (name == "disk-read" || name == "read") return WorkloadKind::kDiskRead;
  if (name == "disk-write" || name == "write") return WorkloadKind::kDiskWrite;
  if (name == "txn-log") return WorkloadKind::kTxnLog;
  if (name == "netecho") return WorkloadKind::kNetEcho;
  return std::nullopt;
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCpu:
      return "cpu";
    case WorkloadKind::kDiskRead:
      return "diskread";
    case WorkloadKind::kDiskWrite:
      return "diskwrite";
    case WorkloadKind::kHello:
      return "hello";
    case WorkloadKind::kTxnLog:
      return "txnlog";
    case WorkloadKind::kEcho:
      return "echo";
    case WorkloadKind::kHeap:
      return "heap";
    case WorkloadKind::kTime:
      return "time";
    case WorkloadKind::kNetEcho:
      return "net-echo";
  }
  return "unknown";
}

void PrintWorkloadNames(std::FILE* out) {
  for (WorkloadKind kind : kAllWorkloadKinds) {
    std::fprintf(out, "%s\n", WorkloadKindName(kind));
  }
}

void PrintFailPhaseNames(std::FILE* out) {
  for (FailPhase phase : kAllFailPhases) {
    std::fprintf(out, "%s\n", FailPhaseName(phase));
  }
}

std::optional<ProtocolVariant> ParseVariant(const std::string& name) {
  if (name == "old" || name == "original") return ProtocolVariant::kOriginal;
  if (name == "new" || name == "revised") return ProtocolVariant::kRevised;
  return std::nullopt;
}

const char* VariantName(ProtocolVariant variant) {
  return variant == ProtocolVariant::kOriginal ? "old" : "new";
}

std::optional<FailPhase> ParseFailPhase(const std::string& name) {
  for (FailPhase phase : kAllFailPhases) {
    if (name == FailPhaseName(phase)) {
      return phase;
    }
  }
  return std::nullopt;
}

namespace {

bool ParseCrashIo(const std::string& value, FailurePlan::CrashIo* out) {
  if (value == "random") {
    *out = FailurePlan::CrashIo::kRandom;
  } else if (value == "performed") {
    *out = FailurePlan::CrashIo::kPerformed;
  } else if (value == "not-performed") {
    *out = FailurePlan::CrashIo::kNotPerformed;
  } else {
    return false;
  }
  return true;
}

bool ParseFailTarget(const std::string& value, FailurePlan* plan) {
  if (value == "active" || value == "primary") {
    plan->target = FailurePlan::Target::kActive;
    return true;
  }
  if (value.rfind("backup", 0) == 0) {
    plan->target = FailurePlan::Target::kBackup;
    plan->backup_index = 0;
    if (value.size() > 6) {
      if (value[6] != ':') {
        return false;
      }
      std::string idx = value.substr(7);
      char* end = nullptr;
      long parsed = std::strtol(idx.c_str(), &end, 10);
      if (end == idx.c_str() || *end != '\0' || parsed < 0) {
        return false;
      }
      plan->backup_index = static_cast<int>(parsed);
    }
    return true;
  }
  return false;
}

}  // namespace

bool ParseFailSpec(const std::string& spec, FailurePlan* out, std::string* description) {
  FailurePlan plan;
  int time_keys = 0;    // time-ms / after-resync-ms occurrences.
  int phase_keys = 0;   // phase occurrences.
  int rejoin_keys = 0;  // rejoin-time-ms / rejoin-after-ms occurrences.
  bool has_phase_only_key = false;  // epoch= / io-seq= constrain phase kills.
  std::string desc;

  auto parse_ms = [](const std::string& value, const char* key, SimTime* t) {
    char* end = nullptr;
    double ms = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      std::fprintf(stderr, "hbft_cli: --fail %s expects a number, got '%s'\n", key,
                   value.c_str());
      return false;
    }
    *t = SimTime::Picos(static_cast<int64_t>(ms * 1e9));
    return true;
  };

  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string part = spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                                   : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (part.empty()) {
      continue;
    }
    auto eq = part.find('=');
    std::string key = part.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : part.substr(eq + 1);

    if (key == "time-ms") {
      if (!parse_ms(value, "time-ms", &plan.time)) {
        return false;
      }
      plan.kind = FailurePlan::Kind::kAtTime;
      ++time_keys;
      desc = "at-time " + value + " ms" + desc;
    } else if (key == "rejoin-time-ms" || key == "rejoin-after-ms") {
      // Repair events: spawn a fresh replica below the chain's tail and
      // stream it the live state transfer — at an absolute time, or a delay
      // after the previous schedule event fired.
      if (!parse_ms(value, key.c_str(), &plan.time)) {
        return false;
      }
      plan.kind = FailurePlan::Kind::kRejoin;
      plan.relative = key == "rejoin-after-ms";
      ++rejoin_keys;
      desc = (plan.relative ? "rejoin +" : "rejoin at ") + value + " ms" + desc;
    } else if (key == "after-resync-ms") {
      // Kill the active replica `value` ms after the pending rejoin's state
      // transfer completes — the fail -> rejoin -> fail drill without
      // guessing transfer durations.
      if (!parse_ms(value, "after-resync-ms", &plan.time)) {
        return false;
      }
      plan.kind = FailurePlan::Kind::kAtTime;
      plan.after_resync = true;
      ++time_keys;
      desc = "kill +" + value + " ms after resync" + desc;
    } else if (key == "phase") {
      auto phase = ParseFailPhase(value);
      if (!phase) {
        std::fprintf(stderr,
                     "hbft_cli: unknown --fail phase '%s' (see hbft_cli --list-phases)\n",
                     value.c_str());
        return false;
      }
      plan.kind = FailurePlan::Kind::kAtPhase;
      plan.phase = *phase;
      ++phase_keys;
      desc = "at-phase " + value + desc;
    } else if (key == "epoch") {
      char* end = nullptr;
      plan.phase_epoch = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "hbft_cli: --fail epoch expects an integer, got '%s'\n",
                     value.c_str());
        return false;
      }
      has_phase_only_key = true;
      desc += " epoch " + value;
    } else if (key == "io-seq") {
      char* end = nullptr;
      plan.io_seq = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "hbft_cli: --fail io-seq expects an integer, got '%s'\n",
                     value.c_str());
        return false;
      }
      has_phase_only_key = true;
      desc += " io-seq " + value;
    } else if (key == "target") {
      if (!ParseFailTarget(value, &plan)) {
        std::fprintf(stderr,
                     "hbft_cli: unknown --fail target '%s' (active, backup, backup:K)\n",
                     value.c_str());
        return false;
      }
      desc += ", target " + value;
    } else if (key == "crash-io") {
      if (!ParseCrashIo(value, &plan.crash_io)) {
        std::fprintf(stderr,
                     "hbft_cli: unknown --fail crash-io '%s' (random, performed, "
                     "not-performed)\n",
                     value.c_str());
        return false;
      }
      desc += ", crash-io " + value;
    } else {
      std::fprintf(stderr,
                   "hbft_cli: unknown --fail key '%s' (time-ms, phase, epoch, io-seq, target, "
                   "crash-io, rejoin-time-ms, rejoin-after-ms, after-resync-ms)\n",
                   key.c_str());
      return false;
    }
  }

  // Exactly one event key per spec — a repeated or conflicting key would
  // silently overwrite the earlier one's fields, so it fails loudly instead.
  if (time_keys + phase_keys + rejoin_keys != 1) {
    std::fprintf(stderr,
                 "hbft_cli: --fail needs exactly one of time-ms=..., phase=..., "
                 "rejoin-time-ms=..., rejoin-after-ms=..., or after-resync-ms=...\n");
    return false;
  }
  const bool has_time = time_keys > 0;
  const bool has_phase = phase_keys > 0;
  if (rejoin_keys > 0 && (has_phase_only_key || plan.target != FailurePlan::Target::kActive ||
                          plan.crash_io != FailurePlan::CrashIo::kRandom)) {
    std::fprintf(stderr, "hbft_cli: --fail rejoin events take no kill modifiers\n");
    return false;
  }
  if (has_time && has_phase_only_key) {
    std::fprintf(stderr,
                 "hbft_cli: --fail epoch=/io-seq= only constrain phase=... kills, not "
                 "time-ms=...\n");
    return false;
  }
  if (has_phase && plan.target != FailurePlan::Target::kActive) {
    std::fprintf(stderr,
                 "hbft_cli: --fail target=backup supports only time-ms (standing backups run "
                 "no device phases)\n");
    return false;
  }
  *out = plan;
  *description = desc;
  return true;
}

namespace {

// Shared scenario shaping for the knobs that must match between a replicated
// run and its bare reference (devices, fault plans, injected input).
void ApplyEnvironment(const ScenarioFlags& flags, Scenario* scenario) {
  scenario->Interp(flags.interp)
      .DiskFaults(flags.disk_faults)
      .ConsoleFaults(flags.console_faults)
      .NicFaults(flags.nic_faults);
  if (flags.workload.kind == WorkloadKind::kNetEcho) {
    uint64_t packets = flags.packets != 0 ? flags.packets : flags.workload.iterations;
    for (uint64_t i = 0; i < packets; ++i) {
      // Deterministic 12-byte payloads: "pkt-NNNN...." stamped per index.
      std::vector<uint8_t> payload;
      char text[16];
      std::snprintf(text, sizeof(text), "pkt-%04u....", static_cast<unsigned>(i));
      payload.assign(text, text + 12);
      scenario->InjectPacket(std::move(payload));
    }
  }
}

}  // namespace

Scenario ScenarioFlags::Replicated() const {
  Scenario scenario = Scenario::Replicated(workload)
                          .Backups(backups)
                          .Epoch(epoch_length)
                          .Variant(variant)
                          .Seed(seed)
                          .LinkFaults(link_faults)
                          .PipelineDepth(pipeline_depth)
                          .AckBatch(ack_batch);
  ApplyEnvironment(*this, &scenario);
  for (const FailurePlan& plan : failures) {
    scenario.FailAt(plan);
  }
  return scenario;
}

Scenario ScenarioFlags::Bare() const {
  Scenario scenario = Scenario::Bare(workload).Seed(seed);
  ApplyEnvironment(*this, &scenario);
  return scenario;
}

bool ParseScenarioFlags(FlagSet& flags, ScenarioFlags* out) {
  std::string workload_name = flags.GetString("workload", "txnlog");
  auto kind = ParseWorkloadKind(workload_name);
  if (!kind) {
    std::fprintf(stderr,
                 "hbft_cli: unknown workload '%s' (see hbft_cli --list-workloads)\n",
                 workload_name.c_str());
    return false;
  }
  out->workload.kind = *kind;
  if (auto v = flags.GetU64("iterations")) {
    out->workload.iterations = static_cast<uint32_t>(*v);
  } else if (*kind == WorkloadKind::kTxnLog) {
    out->workload.iterations = 10;
  } else if (*kind == WorkloadKind::kNetEcho) {
    out->workload.iterations = 4;
  }
  if (auto v = flags.GetU64("num-blocks")) {
    out->workload.num_blocks = static_cast<uint32_t>(*v);
  } else if (*kind == WorkloadKind::kTxnLog) {
    out->workload.num_blocks = 16;
  }

  if (auto v = flags.GetU64("epoch-length")) {
    out->epoch_length = *v;
  }
  std::string variant_name = flags.GetString("variant", "old");
  auto variant = ParseVariant(variant_name);
  if (!variant) {
    std::fprintf(stderr, "hbft_cli: unknown variant '%s' (old, new)\n", variant_name.c_str());
    return false;
  }
  out->variant = *variant;
  if (auto v = flags.GetU64("seed")) {
    out->seed = *v;
  }
  if (auto v = flags.GetU64("backups")) {
    if (*v < 1) {
      std::fprintf(stderr, "hbft_cli: --backups must be >= 1\n");
      return false;
    }
    out->backups = static_cast<int>(*v);
  }

  // Per-device transient-fault knobs: uncertain-completion probabilities,
  // plus one shared performed-when-uncertain probability.
  struct FaultFlag {
    const char* flag;
    FaultPlan* plan;
  };
  const FaultFlag fault_flags[] = {
      {"disk-uncertain", &out->disk_faults},
      {"console-uncertain", &out->console_faults},
      {"nic-uncertain", &out->nic_faults},
  };
  for (const FaultFlag& f : fault_flags) {
    if (auto v = flags.GetDouble(f.flag)) {
      if (*v < 0.0 || *v > 1.0) {
        std::fprintf(stderr, "hbft_cli: --%s expects a probability in [0,1]\n", f.flag);
        return false;
      }
      f.plan->uncertain_probability = *v;
    }
  }
  if (auto v = flags.GetDouble("uncertain-performed")) {
    if (*v < 0.0 || *v > 1.0) {
      std::fprintf(stderr, "hbft_cli: --uncertain-performed expects a probability in [0,1]\n");
      return false;
    }
    out->disk_faults.performed_when_uncertain = *v;
    out->console_faults.performed_when_uncertain = *v;
    out->nic_faults.performed_when_uncertain = *v;
  }
  // Interconnect fault knobs: lossy-wire probabilities, bounded sender
  // queue, retransmission timeout, and an optional burst window.
  struct LinkProbFlag {
    const char* flag;
    double* field;
  };
  const LinkProbFlag link_prob_flags[] = {
      {"loss", &out->link_faults.drop_probability},
      {"reorder", &out->link_faults.reorder_probability},
      {"dup", &out->link_faults.duplicate_probability},
  };
  for (const LinkProbFlag& f : link_prob_flags) {
    if (auto v = flags.GetDouble(f.flag)) {
      if (*v < 0.0 || *v > 1.0) {
        std::fprintf(stderr, "hbft_cli: --%s expects a probability in [0,1]\n", f.flag);
        return false;
      }
      *f.field = *v;
    }
  }
  if (auto v = flags.GetU64("link-queue")) {
    if (*v > UINT32_MAX) {
      std::fprintf(stderr, "hbft_cli: --link-queue is out of range\n");
      return false;
    }
    out->link_faults.sender_queue_limit = static_cast<uint32_t>(*v);
  }
  if (auto v = flags.GetDouble("rto-ms")) {
    if (*v <= 0.0) {
      std::fprintf(stderr, "hbft_cli: --rto-ms expects a positive duration\n");
      return false;
    }
    out->link_faults.retransmit_timeout = SimTime::Picos(static_cast<int64_t>(*v * 1e9));
  }
  if (auto v = flags.GetDouble("loss-until-ms")) {
    if (*v < 0.0) {
      std::fprintf(stderr, "hbft_cli: --loss-until-ms expects a non-negative time\n");
      return false;
    }
    out->link_faults.active_until = SimTime::Picos(static_cast<int64_t>(*v * 1e9));
  }
  if (auto v = flags.GetU64("pipeline-depth")) {
    out->pipeline_depth = static_cast<uint32_t>(*v);
  }
  if (auto v = flags.GetU64("ack-batch")) {
    if (*v < 1) {
      std::fprintf(stderr, "hbft_cli: --ack-batch must be >= 1\n");
      return false;
    }
    out->ack_batch = static_cast<uint32_t>(*v);
  }

  std::string interp_name = flags.GetString("interp", "");
  if (!interp_name.empty()) {
    if (interp_name == "slow") {
      out->interp = InterpMode::kSlow;
    } else if (interp_name == "cached") {
      out->interp = InterpMode::kCached;
    } else {
      std::fprintf(stderr, "hbft_cli: unknown --interp '%s' (slow, cached)\n",
                   interp_name.c_str());
      return false;
    }
  }

  if (auto v = flags.GetU64("packets")) {
    if (out->workload.kind != WorkloadKind::kNetEcho) {
      std::fprintf(stderr, "hbft_cli: --packets applies only to --workload=net-echo\n");
      return false;
    }
    if (*v < out->workload.iterations) {
      // The guest consumes exactly `iterations` packets; fewer would leave it
      // blocked in net_recv until max_time.
      std::fprintf(stderr,
                   "hbft_cli: --packets=%llu is less than the %u packets the workload "
                   "consumes (see --iterations)\n",
                   static_cast<unsigned long long>(*v), out->workload.iterations);
      return false;
    }
    out->packets = *v;
  }

  for (const std::string& spec : flags.GetList("fail")) {
    FailurePlan plan;
    std::string desc;
    if (!ParseFailSpec(spec, &plan, &desc)) {
      return false;
    }
    if (out->has_failure) {
      out->failure_description += "; then " + desc;
    } else {
      out->failure_description = desc;
    }
    out->failures.push_back(plan);
    out->has_failure = true;
  }

  bool seen_rejoin = false;
  for (const FailurePlan& plan : out->failures) {
    if (plan.target == FailurePlan::Target::kBackup && plan.backup_index >= out->backups) {
      std::fprintf(stderr,
                   "hbft_cli: failure targets backup %d but the chain has only %d backup(s) "
                   "(see --backups)\n",
                   plan.backup_index, out->backups);
      return false;
    }
    seen_rejoin = seen_rejoin || plan.kind == FailurePlan::Kind::kRejoin;
    if (plan.after_resync && !seen_rejoin) {
      std::fprintf(stderr,
                   "hbft_cli: --fail=after-resync-ms needs an earlier rejoin event "
                   "(rejoin-time-ms / rejoin-after-ms) to wait for\n");
      return false;
    }
  }
  return true;
}

}  // namespace cli
}  // namespace hbft
