#include "cli/options.hpp"

#include <climits>
#include <cmath>
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

// The one millisecond validator behind every *-ms flag and --fail time key.
std::optional<double> ParseMillis(const std::string& text) {
  char* end = nullptr;
  double ms = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(ms >= 0.0) ||
      !(ms <= static_cast<double>(kMaxMillis))) {
    return std::nullopt;
  }
  return ms;
}

}  // namespace

std::optional<uint64_t> ParseCount(const std::string& text, uint64_t max) {
  if (text.empty()) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> ParseFailMillis(const std::string& key, const std::string& value) {
  std::optional<double> ms = ParseMillis(value);
  if (!ms) {
    std::fprintf(stderr, "hbft_cli: --fail %s expects milliseconds in [0, %llu], got '%s'\n",
                 key.c_str(), static_cast<unsigned long long>(kMaxMillis), value.c_str());
  }
  return ms;
}

SimTime MillisToSimTime(double ms) { return SimTime::Picos(static_cast<int64_t>(ms * 1e9)); }

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

std::optional<uint64_t> FlagSet::GetU64(const std::string& key, uint64_t max) {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  const std::string& raw = it->second.back();
  std::optional<uint64_t> value = ParseCount(raw, max);
  if (!value) {
    std::fprintf(stderr, "hbft_cli: --%s expects an integer in [0, %llu], got '%s'\n",
                 key.c_str(), static_cast<unsigned long long>(max), raw.c_str());
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
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(value)) {
    std::fprintf(stderr, "hbft_cli: --%s expects a finite number, got '%s'\n", key.c_str(),
                 raw.c_str());
    std::exit(2);
  }
  return value;
}

std::optional<double> FlagSet::GetMillis(const std::string& key) {
  consumed_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  const std::string& raw = it->second.back();
  std::optional<double> ms = ParseMillis(raw);
  if (!ms) {
    std::fprintf(stderr, "hbft_cli: --%s expects milliseconds in [0, %llu], got '%s'\n",
                 key.c_str(), static_cast<unsigned long long>(kMaxMillis), raw.c_str());
    std::exit(2);
  }
  return ms;
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
      std::optional<uint64_t> index = ParseCount(value.substr(7), INT_MAX);
      if (!index) {
        return false;
      }
      plan->backup_index = static_cast<int>(*index);
    }
    return true;
  }
  return false;
}

// Parses one --fail=SPEC value: comma-separated key=value pairs. Returns
// false after printing the offending part.
bool ParseFailSpec(const std::string& spec, FailurePlan* out, std::string* description) {
  FailurePlan plan;
  int time_keys = 0;    // time-ms / after-resync-ms occurrences.
  int phase_keys = 0;   // phase occurrences.
  int rejoin_keys = 0;  // rejoin-time-ms / rejoin-after-ms occurrences.
  bool has_phase_only_key = false;  // epoch= / io-seq= constrain phase kills.
  std::string desc;

  auto parse_ms = [](const std::string& value, const std::string& key, SimTime* t) {
    std::optional<double> ms = ParseFailMillis(key, value);
    if (ms) {
      *t = MillisToSimTime(*ms);
    }
    return ms.has_value();
  };
  auto parse_count = [](const std::string& value, const std::string& key, uint64_t* out) {
    std::optional<uint64_t> count = ParseCount(value);
    if (!count) {
      std::fprintf(stderr, "hbft_cli: --fail %s expects an integer, got '%s'\n", key.c_str(),
                   value.c_str());
      return false;
    }
    *out = *count;
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
      if (!parse_ms(value, key, &plan.time)) {
        return false;
      }
      plan.kind = FailurePlan::Kind::kAtTime;
      ++time_keys;
      desc = "at-time " + value + " ms" + desc;
    } else if (key == "rejoin-time-ms" || key == "rejoin-after-ms") {
      // Repair events: spawn a fresh replica below the chain's tail and
      // stream it the live state transfer — at an absolute time, or a delay
      // after the previous schedule event fired.
      if (!parse_ms(value, key, &plan.time)) {
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
      if (!parse_ms(value, key, &plan.time)) {
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
      if (!parse_count(value, key, &plan.phase_epoch)) {
        return false;
      }
      has_phase_only_key = true;
      desc += " epoch " + value;
    } else if (key == "io-seq") {
      if (!parse_count(value, key, &plan.io_seq)) {
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

// Parses every --fail=SPEC flag, in order, into `schedule` for a chain of
// `backups` backups. `description` joins the specs' descriptions with
// "; then " (it is left as is for an empty schedule). Returns false after
// printing why a spec is malformed or cannot run on the chain: a backup
// target beyond it, or an after-resync kill with no earlier rejoin to wait
// for.
bool ParseFailureSchedule(FlagSet& flags, int backups, FailureSchedule* schedule,
                          std::string* description) {
  bool seen_rejoin = false;
  for (const std::string& spec : flags.GetList("fail")) {
    FailurePlan plan;
    std::string desc;
    if (!ParseFailSpec(spec, &plan, &desc)) {
      return false;
    }
    if (plan.target == FailurePlan::Target::kBackup && plan.backup_index >= backups) {
      std::fprintf(stderr,
                   "hbft_cli: failure targets backup %d but the chain has only %d backup(s) "
                   "(see --backups)\n",
                   plan.backup_index, backups);
      return false;
    }
    seen_rejoin = seen_rejoin || plan.kind == FailurePlan::Kind::kRejoin;
    if (plan.after_resync && !seen_rejoin) {
      std::fprintf(stderr,
                   "hbft_cli: --fail=after-resync-ms needs an earlier rejoin event "
                   "(rejoin-time-ms / rejoin-after-ms) to wait for\n");
      return false;
    }
    *description = schedule->empty() ? desc : *description + "; then " + desc;
    schedule->push_back(plan);
  }
  return true;
}

}  // namespace

bool ParseChainFlags(FlagSet& flags, const char* default_variant, Scenario* scenario,
                     std::string* failure_description) {
  if (auto v = flags.GetU64("epoch-length")) {
    if (*v < 1) {
      std::fprintf(stderr, "hbft_cli: --epoch-length must be >= 1\n");
      return false;
    }
    scenario->Epoch(*v);
  }
  std::string variant_name = flags.GetString("variant", default_variant);
  auto variant = ParseVariant(variant_name);
  if (!variant) {
    std::fprintf(stderr, "hbft_cli: unknown variant '%s' (old, new)\n", variant_name.c_str());
    return false;
  }
  scenario->Variant(*variant);
  if (auto v = flags.GetU64("seed")) {
    scenario->Seed(*v);
  }
  int backups = 1;
  if (auto v = flags.GetU64("backups", INT_MAX)) {
    if (*v < 1) {
      std::fprintf(stderr, "hbft_cli: --backups must be >= 1\n");
      return false;
    }
    backups = static_cast<int>(*v);
  }
  scenario->Backups(backups);

  FailureSchedule schedule;
  if (!ParseFailureSchedule(flags, backups, &schedule, failure_description)) {
    return false;
  }
  for (const FailurePlan& plan : schedule) {
    scenario->FailAt(plan);
  }
  return true;
}

std::optional<ScenarioFlags> ParseScenarioFlags(FlagSet& flags) {
  std::string workload_name = flags.GetString("workload", "txnlog");
  auto kind = ParseWorkloadKind(workload_name);
  if (!kind) {
    std::fprintf(stderr,
                 "hbft_cli: unknown workload '%s' (see hbft_cli --list-workloads)\n",
                 workload_name.c_str());
    return std::nullopt;
  }
  WorkloadSpec workload;
  workload.kind = *kind;
  if (auto v = flags.GetU64("iterations", UINT32_MAX)) {
    workload.iterations = static_cast<uint32_t>(*v);
  } else if (*kind == WorkloadKind::kTxnLog) {
    workload.iterations = 10;
  } else if (*kind == WorkloadKind::kNetEcho || *kind == WorkloadKind::kEcho) {
    workload.iterations = 4;
  }
  if (auto v = flags.GetU64("num-blocks", UINT32_MAX)) {
    workload.num_blocks = static_cast<uint32_t>(*v);
  } else if (*kind == WorkloadKind::kTxnLog) {
    workload.num_blocks = 16;
  }
  ScenarioFlags out{Scenario::Replicated(workload)};
  Scenario& scenario = out.scenario;
  if (!ParseChainFlags(flags, "old", &scenario, &out.failure_description)) {
    return std::nullopt;
  }

  // Per-device transient-fault knobs: uncertain-completion probabilities,
  // plus one shared performed-when-uncertain probability.
  FaultPlan disk_faults;
  FaultPlan console_faults;
  FaultPlan nic_faults;
  struct FaultFlag {
    const char* flag;
    FaultPlan* plan;
  };
  const FaultFlag fault_flags[] = {
      {"disk-uncertain", &disk_faults},
      {"console-uncertain", &console_faults},
      {"nic-uncertain", &nic_faults},
  };
  for (const FaultFlag& f : fault_flags) {
    if (auto v = flags.GetDouble(f.flag)) {
      if (*v < 0.0 || *v > 1.0) {
        std::fprintf(stderr, "hbft_cli: --%s expects a probability in [0,1]\n", f.flag);
        return std::nullopt;
      }
      f.plan->uncertain_probability = *v;
    }
  }
  if (auto v = flags.GetDouble("uncertain-performed")) {
    if (*v < 0.0 || *v > 1.0) {
      std::fprintf(stderr, "hbft_cli: --uncertain-performed expects a probability in [0,1]\n");
      return std::nullopt;
    }
    disk_faults.performed_when_uncertain = *v;
    console_faults.performed_when_uncertain = *v;
    nic_faults.performed_when_uncertain = *v;
  }
  scenario.DiskFaults(disk_faults).ConsoleFaults(console_faults).NicFaults(nic_faults);

  // Interconnect fault knobs: lossy-wire probabilities and the
  // retransmission timeout.
  LinkFaults link_faults;
  struct LinkProbFlag {
    const char* flag;
    double* field;
  };
  const LinkProbFlag link_prob_flags[] = {
      {"loss", &link_faults.drop_probability},
      {"reorder", &link_faults.reorder_probability},
      {"dup", &link_faults.duplicate_probability},
  };
  for (const LinkProbFlag& f : link_prob_flags) {
    if (auto v = flags.GetDouble(f.flag)) {
      if (*v < 0.0 || *v > 1.0) {
        std::fprintf(stderr, "hbft_cli: --%s expects a probability in [0,1]\n", f.flag);
        return std::nullopt;
      }
      *f.field = *v;
    }
  }
  if (auto v = flags.GetMillis("rto-ms")) {
    if (*v <= 0.0) {
      std::fprintf(stderr, "hbft_cli: --rto-ms expects a positive duration\n");
      return std::nullopt;
    }
    link_faults.retransmit_timeout = MillisToSimTime(*v);
  }
  scenario.LinkFaults(link_faults);

  // net-echo: the packets injected into the run (default: one per
  // iteration).
  uint64_t packets = workload.iterations;
  if (auto v = flags.GetU64("packets")) {
    if (workload.kind != WorkloadKind::kNetEcho) {
      std::fprintf(stderr, "hbft_cli: --packets applies only to --workload=net-echo\n");
      return std::nullopt;
    }
    if (*v < workload.iterations) {
      // The guest consumes exactly `iterations` packets; fewer would leave it
      // blocked in net_recv until max_time.
      std::fprintf(stderr,
                   "hbft_cli: --packets=%llu is less than the %u packets the workload "
                   "consumes (see --iterations)\n",
                   static_cast<unsigned long long>(*v), workload.iterations);
      return std::nullopt;
    }
    packets = *v;
  }
  if (workload.kind == WorkloadKind::kNetEcho) {
    for (uint64_t i = 0; i < packets; ++i) {
      // Deterministic 12-byte payloads: "pkt-NNNN...." stamped per index.
      char text[16];
      std::snprintf(text, sizeof(text), "pkt-%04u....", static_cast<unsigned>(i));
      scenario.InjectPacket(std::vector<uint8_t>(text, text + 12));
    }
  }

  // echo: one console character per iteration (a-p, never the 'q' that
  // ends the guest), then the 'q'.
  if (workload.kind == WorkloadKind::kEcho) {
    std::string input;
    for (uint32_t i = 0; i < workload.iterations; ++i) {
      input.push_back(static_cast<char>('a' + i % 16));
    }
    scenario.ConsoleInput(input + "q");
  }
  return out;
}

}  // namespace cli
}  // namespace hbft
