// perfbench_driver: the in-process half of the repository benchmark.
//
// Runs one workload (cpu-epoch, diskread-lossy-failover, fleet-storm) for a
// fixed host-time budget and prints one JSON object on stdout:
//
//   {"attempted": N, "failed": F, "failures": [...], "metrics": {...},
//    "info": {...}}
//
// perfbench/run.py turns that into the benchmark's result line. The driver
// measures from outside: it times calls into each layer's public functions
// (Scenario::BuildWorld, World::RunLoop, Scenario::CollectResult,
// Fleet::Run, ...) and reads the public stat structs afterwards. Nothing in
// src/ is instrumented.
//
// Passes:
//   untraced  — repeated, checked units of the workload; end-to-end numbers.
//   traced    — (--trace=1) one more unit with spans around every public
//               call, the lockstep / fleet-verify checks, and the per-layer
//               probes; per-layer numbers. Spans go to --spans=FILE.
//
// With --workload=probes only the per-layer probes run (serve-pair uses this:
// its end-to-end path is two real processes driven from run.py).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "fleet/fleet.hpp"
#include "fleet/placement.hpp"
#include "fleet/worker_pool.hpp"
#include "guest/workloads.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "net/message.hpp"
#include "sim/environment_observer.hpp"
#include "sim/event_queue.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + Num(v[i]);
  }
  return out + "]";
}

// --- Spans ------------------------------------------------------------------
//
// One record per timed public call: name, host start/end (ns since the
// driver started), the enclosing span, and the run id. Held in memory and
// written once at exit. A null SpanLog* means "untraced": Scope does nothing.
class SpanLog {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  int Begin(const std::string& name, int parent) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  bool Write(const std::string& path, const std::string& run_id) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"run_id\": \"%s\", \"clock\": \"host_ns\", \"spans\": [\n",
                 JsonEscape(run_id).c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"run\": \"%s\"}%s\n",
                   s.id, s.parent, JsonEscape(s.name).c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), JsonEscape(run_id).c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, int parent) : log_(log) {
    if (log_ != nullptr) {
      id_ = log_->Begin(name, parent);
    }
  }
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void Close() {
    if (log_ != nullptr && !closed_) {
      log_->End(id_);
      closed_ = true;
    }
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_ = -1;
  bool closed_ = false;
};

// --- Options, checks, output ------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string spans_path;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // Values are raw JSON.

  // Every check is counted: a failed unit stays in `attempted`.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void Metric(const std::string& name, double value) { metrics.emplace_back(name, value); }
  void Info(const std::string& key, const std::string& raw_json) { info.emplace_back(key, raw_json); }

  void Print() const {
    std::string out = "{\"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i) {
      out += (i ? ", \"" : "\"") + JsonEscape(failures[i]) + "\"";
    }
    out += "], \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      out += (i ? ", \"" : "\"") + metrics[i].first + "\": " + Num(metrics[i].second);
    }
    out += "}, \"info\": {";
    for (size_t i = 0; i < info.size(); ++i) {
      out += (i ? ", \"" : "\"") + info[i].first + "\": " + info[i].second;
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
  }
};

// --- Host-speed calibration and timed units -----------------------------------
//
// The host this benchmark was built on changes speed by up to 60% over tens
// of seconds (other tenants of the physical machine; thread CPU time tracks
// wall time, so it is not steal), which no number of repeats averages out.
// Every timed unit is therefore bracketed by a fixed calibration kernel that
// uses no hbft code, and the end-to-end host times are reported scaled to a
// reference host on which that kernel takes kReferenceCalibrationS:
//   reported = measured * kReferenceCalibrationS / kernel time around it.
// The raw medians are reported beside them.

constexpr double kReferenceCalibrationS = 0.02;

// A dispatch-like loop (a data-dependent switch) over a 64 KB table walked
// in a scattered order: the interpreter's mix of branches and cache traffic.
// Of the table sizes tried (16 KB, 64 KB, 1 MB), 64 KB tracked the scenario
// units' host-speed swings best.
double CalibrationSeconds() {
  static std::vector<uint32_t> table(1u << 14, 1u);
  static uint64_t sink = 0;
  auto t0 = Clock::now();
  uint64_t h = 1469598103934665603ULL;
  for (int rep = 0; rep < 640; ++rep) {
    for (size_t i = 0; i < table.size(); ++i) {
      uint32_t v = table[(i * 2654435761u) & (table.size() - 1)];
      switch ((h >> 7) & 7) {
        case 0: h = (h ^ v) * 1099511628211ULL; break;
        case 1: h += v * 3ULL; break;
        case 2: h ^= h >> 13; break;
        case 3: h = h * 5 + v; break;
        case 4: h -= v; break;
        case 5: h = (h << 3) | (h >> 61); break;
        case 6: h ^= static_cast<uint64_t>(v) << 9; break;
        default: h += 0x9E3779B97F4A7C15ULL; break;
      }
      table[i] = static_cast<uint32_t>(h);
    }
  }
  sink += h;  // Keeps the loop observable.
  return SecondsSince(t0);
}

// The factor that turns host seconds measured between calibration runs of
// `before` and `after` seconds into reference seconds.
double ReferenceScale(double before, double after) {
  return kReferenceCalibrationS / (0.5 * (before + after));
}

// Traced time over untraced time, as a percentage above the untraced.
double OverheadPct(double traced_s, double untraced_s) {
  return (traced_s - untraced_s) / untraced_s * 100.0;
}

struct UnitTimes {
  double setup_s = 0.0;
  double wall_s = 0.0;
};

// Host times of the measured units: scaled (see above) and raw.
struct HostSamples {
  std::vector<double> setup, wall, setup_raw, wall_raw, calibration;

  void Add(double setup_s, double wall_s, double before, double after, bool has_wall) {
    const double scale = ReferenceScale(before, after);
    setup.push_back(setup_s * scale);
    setup_raw.push_back(setup_s);
    if (has_wall) {
      wall.push_back(wall_s * scale);
      wall_raw.push_back(wall_s);
    }
    calibration.push_back(0.5 * (before + after));
  }

  void Report(Report* report) const {
    report->Metric("setup_s", Median(setup));
    report->Metric("wall_s", Median(wall));
    report->Metric("peak_rss_mb", PeakRssMb());
    report->Info("setup_raw_s", Num(Median(setup_raw)));
    report->Info("wall_raw_s", Num(Median(wall_raw)));
    report->Info("calibration_s", Num(Median(calibration)));
    report->Info("wall_samples_s", NumList(wall));
  }
};

// Runs unit(0) as a warm-up, then unit(1), unit(2), ... until `budget`
// seconds of measured work (at least three units), then setup_only() until
// there are nine set-up samples. Each sample is scaled by the mean of the
// calibration runs on either side of it.
HostSamples TimeUnits(double budget, const std::function<UnitTimes(int)>& unit,
                      const std::function<double()>& setup_only) {
  HostSamples out;
  double before = CalibrationSeconds();
  double spent = 0.0;
  for (int i = 0; i == 0 || spent < budget || out.wall.size() < 3; ++i) {
    UnitTimes t = unit(i);
    double after = CalibrationSeconds();
    if (i > 0) {
      out.Add(t.setup_s, t.wall_s, before, after, true);
      spent += t.setup_s + t.wall_s;
    }
    before = after;
  }
  while (out.setup.size() < 9) {
    double setup_s = setup_only();
    double after = CalibrationSeconds();
    out.Add(setup_s, 0.0, before, after, false);
    before = after;
  }
  return out;
}

// --- Per-layer probes -------------------------------------------------------
//
// Each probe times one public function in isolation on inputs shaped like
// the workload, repeated; the reported value is the median batch.

enum class Shape { kCpu, kDiskRead, kFleet, kServe };

Shape ShapeOf(const std::string& workload) {
  if (workload == "cpu-epoch") {
    return Shape::kCpu;
  }
  if (workload == "diskread-lossy-failover") {
    return Shape::kDiskRead;
  }
  if (workload == "fleet-storm") {
    return Shape::kFleet;
  }
  return Shape::kServe;
}

// Machine::Run on the fig6 CPU kernel (arithmetic, a word-copy loop, leaf
// calls) on a bare machine with the cached interpreter: dispatch in
// isolation. Returns MIPS.
double ProbeMachineMips(const Options& o, SpanLog* spans, int parent, Report* report) {
  const uint32_t outer = o.quick ? 5000 : 60000;
  char source[1024];
  std::snprintf(source, sizeof(source), R"(
    li r1, %u
    li r2, 0x9E3779B9
    li r3, 0x2000
outer:
    add r2, r2, r1
    li r4, 16
copy:
    slli r5, r4, 2
    add r6, r3, r5
    sw r2, 0(r6)
    lw r7, 0(r6)
    add r2, r2, r7
    addi r4, r4, -1
    bnez r4, copy
    call leaf
    xor r2, r2, r9
    addi r1, r1, -1
    bnez r1, outer
    sw r2, 0x1F00(zero)
    halt
leaf:
    slli r9, r2, 3
    xor r9, r9, r2
    srli r10, r9, 5
    add r9, r9, r10
    ret
)",
                outer);
  auto assembled = Assemble(source);
  if (!assembled.ok()) {
    report->Check(false, "probe.machine_run: kernel failed to assemble");
    return 0.0;
  }
  std::vector<double> mips;
  uint32_t first_checksum = 0;
  bool same = true;
  for (int rep = 0; rep < 5; ++rep) {
    MachineConfig config;
    config.trap_mode = TrapMode::kDirect;
    config.interp = InterpMode::kCached;
    Machine machine(config);
    machine.LoadImage(assembled.value());
    machine.cpu().pc = 0;
    Scope span(spans, "probe.machine_run", parent);
    auto t0 = Clock::now();
    MachineExit exit = machine.Run(UINT64_MAX);
    double s = SecondsSince(t0);
    span.Close();
    if (exit.kind != ExitKind::kHalt) {
      same = false;
      break;
    }
    uint32_t checksum = machine.memory().Read32(0x1F00);
    if (rep == 0) {
      first_checksum = checksum;
    }
    same = same && checksum == first_checksum;
    mips.push_back(static_cast<double>(machine.cpu().instret) / (s * 1e6));
  }
  report->Check(same, "probe.machine_run: kernel did not halt with a stable checksum");
  return Median(mips);
}

std::vector<Message> ShapedMessages(Shape shape) {
  std::vector<Message> msgs;
  auto nic_packet = [](uint32_t bytes) {
    Message m;
    m.type = MsgType::kInterrupt;
    m.epoch = 7;
    m.irq_lines = 0x8;
    IoCompletionPayload io;
    io.device_irq = 0x8;
    io.guest_op_seq = 3;
    io.has_dma_data = true;
    io.dma_guest_paddr = 0x40000;
    io.dma_data.assign(bytes, 0x5A);
    m.io = io;
    return m;
  };
  switch (shape) {
    case Shape::kCpu: {
      // An epoch boundary of the original protocol: [Tme_p] then [end, E].
      Message tme;
      tme.type = MsgType::kTimeSync;
      tme.epoch = 7;
      tme.tod_value = 123456789;
      Message end;
      end.type = MsgType::kEpochEnd;
      end.epoch = 7;
      msgs = {tme, end};
      break;
    }
    case Shape::kDiskRead: {
      // A completed 8K disk read relayed with its data, plus the boundary.
      Message read = nic_packet(8192);
      read.irq_lines = 0x2;
      read.io->device_irq = 0x2;
      Message end;
      end.type = MsgType::kEpochEnd;
      end.epoch = 7;
      msgs = {read, end};
      break;
    }
    case Shape::kFleet:
      msgs = {nic_packet(32)};
      break;
    case Shape::kServe:
      msgs = {nic_packet(48 + 18)};
      break;
  }
  return msgs;
}

// Message::Serialize + Message::Deserialize round trips. Returns ns/message.
double ProbeCodec(const Options& o, Shape shape, SpanLog* spans, int parent, Report* report) {
  std::vector<Message> msgs = ShapedMessages(shape);
  const int per_batch = o.quick ? 2000 : 20000;
  std::vector<double> ns;
  bool ok = true;
  for (int rep = 0; rep < 5; ++rep) {
    Scope span(spans, "probe.codec", parent);
    auto t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) {
      Message& m = msgs[static_cast<size_t>(i) % msgs.size()];
      m.seq = static_cast<uint64_t>(i);
      std::optional<Message> back = Message::Deserialize(m.Serialize());
      ok = ok && back.has_value() && back->seq == m.seq && back->type == m.type;
    }
    ns.push_back(SecondsSince(t0) * 1e9 / per_batch);
  }
  report->Check(ok, "probe.codec: message did not round-trip");
  return Median(ns);
}

// EventQueue::Push + RunNext over a deterministic pseudo-random schedule.
// The fleet shape spreads events over one partition per host. Returns
// ns/event.
double ProbeEventQueue(const Options& o, Shape shape, SpanLog* spans, int parent,
                       Report* report) {
  const int events = o.quick ? 5000 : 50000;
  const uint32_t partitions = shape == Shape::kFleet ? 8 : 1;
  std::vector<double> ns;
  bool ok = true;
  for (int rep = 0; rep < 5; ++rep) {
    EventQueue queue;
    uint64_t state = o.seed * 6364136223846793005ULL + 1442695040888963407ULL;
    int fired = 0;
    Scope span(spans, "probe.event_queue", parent);
    auto t0 = Clock::now();
    for (int i = 0; i < events; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      SimTime t = SimTime::Nanos(static_cast<int64_t>((state >> 33) % 1000000));
      queue.Push(static_cast<uint32_t>(i) % partitions, t, [&fired] { ++fired; });
    }
    while (!queue.empty()) {
      queue.RunNext();
    }
    ns.push_back(SecondsSince(t0) * 1e9 / events);
    ok = ok && fired == events;
  }
  report->Check(ok, "probe.event_queue: not every event fired");
  return Median(ns);
}

// Machine::CaptureState + RestoreState of a 4 MB machine whose memory is
// partly dirty (a fleet repair or a live state transfer ships such a state).
double ProbeSnapshot(const Options& o, SpanLog* spans, int parent, Report* report) {
  MachineConfig config;
  config.interp = InterpMode::kCached;
  Machine source(config);
  const uint32_t dirty_bytes = o.quick ? 256 * 1024 : 1024 * 1024;
  for (uint32_t a = 0; a < dirty_bytes; a += 4) {
    source.memory().Write32(a, a * 2654435761u ^ static_cast<uint32_t>(o.seed));
  }
  std::vector<double> ms;
  bool ok = true;
  for (int rep = 0; rep < 5; ++rep) {
    Machine target(config);
    Scope span(spans, "probe.snapshot", parent);
    auto t0 = Clock::now();
    Snapshot snap;
    SnapshotWriter w(&snap);
    source.CaptureState(w, true);
    SnapshotReader r(snap);
    bool restored = target.RestoreState(r, true);
    ms.push_back(SecondsSince(t0) * 1e3);
    span.Close();
    ok = ok && restored && target.memory().Read32(dirty_bytes - 4) ==
                               source.memory().Read32(dirty_bytes - 4);
  }
  report->Check(ok, "probe.snapshot: restore did not reproduce the source");
  return Median(ms);
}

// WorkerPool::Run with trivial tasks at 2 threads: the fleet round barrier's
// fixed cost. Returns us/round.
double ProbeWorkerPool(const Options& o, SpanLog* spans, int parent, Report* report) {
  const int rounds = o.quick ? 200 : 2000;
  const size_t tasks = 256;
  WorkerPool pool(2);
  std::vector<uint64_t> slots(tasks, 0);
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    Scope span(spans, "probe.worker_pool", parent);
    auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
      pool.Run(tasks, [&slots](size_t i) { slots[i] += i; });
    }
    us.push_back(SecondsSince(t0) * 1e6 / rounds);
  }
  uint64_t expect = 0;
  for (size_t i = 0; i < tasks; ++i) {
    expect += i * 5 * static_cast<uint64_t>(rounds);
  }
  uint64_t got = 0;
  for (uint64_t v : slots) {
    got += v;
  }
  report->Check(got == expect, "probe.worker_pool: a task was lost or repeated");
  return Median(us);
}

void RunProbes(const Options& o, SpanLog* spans, int parent, Report* report) {
  Shape shape = ShapeOf(o.workload);
  Scope probes(spans, "probes", parent);
  report->Metric("machine.probe_mips", ProbeMachineMips(o, spans, probes.id(), report));
  report->Metric("net.codec_ns_per_msg", ProbeCodec(o, shape, spans, probes.id(), report));
  report->Metric("sim.event_ns", ProbeEventQueue(o, shape, spans, probes.id(), report));
  report->Metric("snapshot.capture_restore_ms", ProbeSnapshot(o, spans, probes.id(), report));
  report->Metric("fleet.pool_round_us", ProbeWorkerPool(o, spans, probes.id(), report));
}

// --- Scenario workloads (cpu-epoch, diskread-lossy-failover) -----------------

bool IsFailover(const Options& o) { return o.workload == "diskread-lossy-failover"; }

uint32_t DiskOps(const Options& o) { return o.quick ? 64 : 256; }

// The fixed sim instant the primary dies: about a sixth of the way through
// the lossy run (about 250 ms of sim time per operation).
SimTime KillTime(const Options& o) { return SimTime::Millis(40 * DiskOps(o)); }

// `audit`: the lockstep-audit twin. It records boundary fingerprints and
// drops the kill, because a primary killed on a lossy link legitimately ran
// epochs whose messages never reached the backup, so only a kill-free run
// can demand that every compared boundary matches.
Scenario MakeScenario(const Options& o, bool audit) {
  if (IsFailover(o)) {
    Scenario s = Scenario::Replicated(WorkloadSpec::PaperDiskRead(DiskOps(o)));
    s.Backups(1)
        .Epoch(4096)
        .Variant(ProtocolVariant::kRevised)
        .LinkFaults(LinkFaults::SymmetricLoss(0.05))
        .Interp(InterpMode::kCached)
        .Seed(o.seed)
        .AuditLockstep(audit);
    if (!audit) {
      s.FailAtTime(KillTime(o)).RejoinAfterFail(SimTime::Millis(20));
    }
    return s;
  }
  WorkloadSpec cpu = WorkloadSpec::PaperCpu();
  cpu.iterations = o.quick ? 4000 : 50000;
  Scenario s = Scenario::Replicated(cpu);
  s.Backups(1)
      .Epoch(4096)
      .Variant(ProtocolVariant::kOriginal)
      .Interp(InterpMode::kCached)
      .Seed(o.seed)
      .AuditLockstep(audit);
  return s;
}

// One checked unit: the result must complete cleanly, match the bare twin's
// guest checksum and environment, and (failover) show the promotion and the
// completed rejoin.
bool CheckUnit(const Options& o, const ScenarioResult& ft, const ScenarioResult& bare,
               std::string* why) {
  if (!ft.completed || ft.exited_flag != 1) {
    *why = "run did not complete cleanly";
    return false;
  }
  if (ft.guest_checksum != bare.guest_checksum) {
    *why = "guest checksum differs from the bare twin";
    return false;
  }
  ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  if (!env.ok) {
    *why = "environment inconsistent with the bare twin: " + env.detail;
    return false;
  }
  if (IsFailover(o)) {
    if (!ft.promoted || ft.crash_times.size() != 1) {
      *why = "the primary kill did not lead to a promotion";
      return false;
    }
    if (ft.resyncs.size() != 1 || !ft.resyncs[0].completed) {
      *why = "the rejoined backup never completed its state transfer";
      return false;
    }
  }
  return true;
}

// Layer counts read from the world's replicas and the collected result.
void LayerCounts(World& world, const ScenarioResult& r, Report* report, double runloop_s) {
  uint64_t instructions = 0, hits = 0, lookups = 0;
  for (size_t i = 0; i < world.replica_count(); ++i) {
    Machine& m = world.replica(i)->hypervisor().machine();
    instructions += m.cpu().instret - m.idle_skipped_instructions();
    const TranslationCache::Stats& tc = m.tcache_stats();
    hits += tc.hits;
    lookups += tc.hits + tc.misses + tc.stale;
  }
  uint64_t epochs = 0, privileged = 0, traps = 0, irqs = 0, messages = 0, env_values = 0;
  double ack_wait_ms = 0.0, boundary_ms = 0.0;
  for (size_t i = 0; i < r.nodes.size(); ++i) {
    const ScenarioResult::NodeReport& n = r.nodes[i];
    epochs += n.stats.epochs;
    privileged += n.hv_stats.privileged_simulated;
    traps += n.hv_stats.traps_reflected;
    irqs += n.hv_stats.interrupts_delivered;
    messages += n.stats.messages_sent;
    env_values += n.stats.env_values;
    if (i == 0 || n.promoted) {
      // The replicas that drove the environment: their boundary and ack
      // waits are what N' is made of.
      ack_wait_ms += n.stats.ack_wait_time.seconds() * 1e3;
      boundary_ms += n.stats.boundary_time.seconds() * 1e3;
    }
  }
  double resync_ms = 0.0;
  for (const ResyncReport& rs : r.resyncs) {
    if (rs.completed) {
      resync_ms += (rs.join_time - rs.start).seconds() * 1e3;
    }
  }
  uint64_t wire_sends = 0;
  for (const ScenarioResult::ChannelReport& ch : r.channels) {
    wire_sends += ch.counters.wire_sends;
  }
  report->Metric("machine.instructions", static_cast<double>(instructions));
  report->Metric("machine.host_ns_per_instr",
                 instructions ? runloop_s * 1e9 / static_cast<double>(instructions) : 0.0);
  report->Metric("machine.tcache_hit_ratio",
                 lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0);
  report->Metric("hypervisor.epochs", static_cast<double>(epochs));
  report->Metric("hypervisor.privileged_simulated", static_cast<double>(privileged));
  report->Metric("hypervisor.traps_reflected", static_cast<double>(traps));
  report->Metric("hypervisor.interrupts_delivered", static_cast<double>(irqs));
  report->Metric("hypervisor.host_us_per_epoch",
                 epochs ? runloop_s * 1e6 / static_cast<double>(epochs) : 0.0);
  report->Metric("core.messages_sent", static_cast<double>(messages));
  report->Metric("core.env_values", static_cast<double>(env_values));
  report->Metric("core.ack_wait_ms", ack_wait_ms);
  report->Metric("core.boundary_ms", boundary_ms);
  report->Metric("core.resync_ms", resync_ms);
  report->Metric("core.resync_bytes", static_cast<double>(r.TotalResyncBytes()));
  report->Metric("net.wire_sends", static_cast<double>(wire_sends));
  report->Metric("net.retransmits", static_cast<double>(r.TotalRetransmits()));
  report->Metric("net.goodput_ratio",
                 r.TotalWireBytes() ? static_cast<double>(r.TotalDeliveredBytes()) /
                                          static_cast<double>(r.TotalWireBytes())
                                    : 0.0);
}

void ResultFigures(const Options& o, const ScenarioResult& ft, const ScenarioResult& bare,
                   Report* report) {
  report->Metric("np", NormalizedPerformance(ft, bare));
  if (IsFailover(o)) {
    report->Metric("failover_ms", (ft.promotion_time - ft.crash_time).seconds() * 1e3);
  }
}

void RunScenarioWorkload(const Options& o, SpanLog* spans, Report* report) {
  const Scenario scenario = MakeScenario(o, false);

  // The bare twin: the reference for N'/N and every unit's checks.
  auto verify_t0 = Clock::now();
  ScenarioResult bare = scenario.AsBare().Run();
  double bare_s = SecondsSince(verify_t0);
  report->Check(bare.completed && bare.exited_flag == 1, "bare twin did not complete cleanly");

  // Untraced units. In a traced run they get half the budget.
  ScenarioResult last;
  HostSamples samples = TimeUnits(
      o.trace ? o.seconds / 2 : o.seconds,
      [&](int unit) {
        UnitTimes t;
        auto t0 = Clock::now();
        std::unique_ptr<World> world = scenario.BuildWorld();
        t.setup_s = SecondsSince(t0);
        auto t1 = Clock::now();
        ScenarioResult r;
        world->Run(&r);
        scenario.CollectResult(*world, &r);
        t.wall_s = SecondsSince(t1);
        std::string why;
        report->Check(CheckUnit(o, r, bare, &why), "unit " + std::to_string(unit) + ": " + why);
        if (unit > 0) {
          // Identical inputs must give identical sim results.
          report->Check(r.completion_time == last.completion_time &&
                            r.guest_checksum == last.guest_checksum,
                        "unit " + std::to_string(unit) + ": sim result changed between "
                        "identical units");
        }
        last = std::move(r);
        return t;
      },
      [&] {
        auto t0 = Clock::now();
        std::unique_ptr<World> world = scenario.BuildWorld();
        return SecondsSince(t0);
      });

  if (!o.trace) {
    samples.Report(report);
    ResultFigures(o, last, bare, report);
    report->Info("sim_completion_s", Num(last.completion_time.seconds()));
    if (!IsFailover(o)) {
      report->Info("np_paper", "6.50");
    }
    return;
  }

  // Traced unit: the same work, with a span around every public call,
  // between two calibration runs so its time compares with the untraced
  // units' on the reference clock.
  ResultFigures(o, last, bare, report);
  const double calibration_before = CalibrationSeconds();
  Scope pass(spans, "pass.traced", -1);
  std::unique_ptr<World> world;
  {
    Scope s(spans, "scenario.build_world", pass.id());
    world = scenario.BuildWorld();
  }
  ScenarioResult r;
  double runloop_s = 0.0, collect_s = 0.0;
  {
    Scope loop(spans, "sim.runloop", pass.id());
    auto t0 = Clock::now();
    {
      Scope s(spans, "world.run_loop", loop.id());
      world->RunLoop(SimTime::Max());
    }
    {
      Scope s(spans, "world.finish", loop.id());
      world->Finish(&r);
    }
    runloop_s = SecondsSince(t0);
  }
  {
    Scope s(spans, "scenario.collect", pass.id());
    auto t0 = Clock::now();
    scenario.CollectResult(*world, &r);
    collect_s = SecondsSince(t0);
  }
  const double scale = ReferenceScale(calibration_before, CalibrationSeconds());
  std::string why;
  report->Check(CheckUnit(o, r, bare, &why), "traced unit: " + why);
  report->Check(r.completion_time == last.completion_time &&
                    r.guest_checksum == last.guest_checksum,
                "traced unit: spans changed the sim result");
  double verify_s = bare_s;
  {
    Scope s(spans, "verify.env_consistency", pass.id());
    auto t0 = Clock::now();
    CheckEnvConsistency(bare.env_trace, r.env_trace, r.issuer_chain());
    verify_s += SecondsSince(t0);
  }
  LayerCounts(*world, r, report, runloop_s);
  report->Metric("sim.runloop_s", runloop_s);
  report->Metric("sim.collect_s", collect_s);
  report->Metric("sim.verify_s", verify_s);
  report->Metric("trace.overhead_pct",
                 OverheadPct((runloop_s + collect_s) * scale, Median(samples.wall)));
  report->Info("traced_wall_s", Num((runloop_s + collect_s) * scale));
  report->Info("wall_samples_s", NumList(samples.wall));
  pass.Close();

  // Lockstep audit on the kill-free twin: every boundary both replicas
  // recorded must carry the same VM fingerprint.
  {
    Scope s(spans, "check.audit_lockstep", -1);
    ScenarioResult audited = MakeScenario(o, true).Run();
    size_t compared = std::min(audited.nodes[0].boundary_fingerprints.size(),
                               audited.nodes[1].boundary_fingerprints.size());
    report->Check(compared > 0 && MatchingBoundaryPrefix(audited, 0, 1) == compared,
                  "lockstep audit: primary and backup fingerprints diverged");
  }

  // Probe: World::RunLoop cut into 10 ms sim slices, host time per slice.
  // The world is documented as horizon-invariant, but on the disk-read
  // workloads slicing moves the completion time, so the divergence is
  // reported beside the number instead of being assumed away.
  {
    Scope probe(spans, "probe.runloop_slices", -1);
    std::unique_ptr<World> sliced = scenario.BuildWorld();
    std::vector<double> slice_ms;
    SimTime limit = SimTime::Zero();
    bool more = true;
    while (more) {
      limit += SimTime::Millis(10);
      Scope slice(spans, "world.run_loop", probe.id());
      auto t0 = Clock::now();
      more = sliced->RunLoop(limit);
      slice_ms.push_back(SecondsSince(t0) * 1e3);
    }
    ScenarioResult sr;
    sliced->Finish(&sr);
    scenario.CollectResult(*sliced, &sr);
    report->Metric("sim.slice_p99_ms", Percentile(slice_ms, 0.99));
    report->Info("sliced_completion_s", Num(sr.completion_time.seconds()));
    report->Info("slicing_changed_result",
                 sr.completion_time == r.completion_time ? "false" : "true");
  }
  RunProbes(o, spans, -1, report);
}

// --- fleet-storm -------------------------------------------------------------

FleetConfig MakeFleetConfig(const Options& o, size_t threads, bool verify) {
  FleetConfig fc;
  fc.chains = o.quick ? 8 : 32;
  fc.hosts = o.quick ? 4 : 8;
  fc.backups = 1;
  fc.placement = PlacementPolicy::kAntiAffinity;
  fc.seed = o.seed;
  fc.traffic.requests_per_chain = o.quick ? 6 : 48;
  // 20 req/s per chain: below the ~33 req/s a chain sustains, so latency
  // measures failover, not backlog.
  fc.traffic.interval = SimTime::Millis(50);
  // The storm lands mid-traffic (arrivals run 100 ms .. 2.45 s).
  const SimTime storm = SimTime::Millis(o.quick ? 220 : 1200);
  for (size_t h : StormHosts(fc.hosts, 1)) {
    fc.host_failures.push_back(HostFailure{h, storm});
  }
  fc.verify = verify;
  fc.threads = threads;
  return fc;
}

bool CheckFleet(const FleetConfig& fc, const FleetResult& r, std::string* why) {
  if (r.chains_completed != fc.chains || r.chains_lost != 0) {
    *why = "not every chain completed (" + std::to_string(r.chains_completed) + "/" +
           std::to_string(fc.chains) + ", lost " + std::to_string(r.chains_lost) + ")";
    return false;
  }
  if (r.requests_served != r.requests_total) {
    *why = "requests unserved: " + std::to_string(r.requests_total - r.requests_served);
    return false;
  }
  if (fc.verify && !r.all_env_consistent) {
    *why = "a chain's environment is inconsistent with its bare twin";
    return false;
  }
  return true;
}

void FleetFigures(const FleetResult& r, Report* report) {
  report->Metric("availability", r.availability);
  report->Metric("slo_attainment", r.slo_attainment);
  report->Metric("sim_p50_ms", r.latency_ms.p50);
  report->Metric("sim_p999_ms", r.latency_ms.p999);
}

void RunFleetWorkload(const Options& o, SpanLog* spans, Report* report) {
  const FleetConfig fc = MakeFleetConfig(o, 2, false);
  FleetResult last;
  HostSamples samples = TimeUnits(
      o.trace ? o.seconds / 2 : o.seconds,
      [&](int unit) {
        UnitTimes t;
        auto t0 = Clock::now();
        auto fleet = std::make_unique<Fleet>(fc);
        t.setup_s = SecondsSince(t0);
        auto t1 = Clock::now();
        FleetResult r = fleet->Run();
        t.wall_s = SecondsSince(t1);
        fleet.reset();
        std::string why;
        report->Check(CheckFleet(fc, r, &why), "unit " + std::to_string(unit) + ": " + why);
        if (unit > 0) {
          report->Check(r.fingerprint == last.fingerprint,
                        "unit " + std::to_string(unit) +
                            ": fleet fingerprint changed between identical units");
        }
        last = std::move(r);
        return t;
      },
      [&] {
        auto t0 = Clock::now();
        Fleet fleet(fc);
        return SecondsSince(t0);
      });
  FleetFigures(last, report);
  if (!o.trace) {
    samples.Report(report);
    report->Info("latency_samples", std::to_string(last.latency_ms.count));
    report->Info("fingerprint", "\"" + std::to_string(last.fingerprint) + "\"");
    return;
  }

  // Traced pass: construction and Fleet::Run at threads=2, then the serial
  // pass (parallel efficiency, fingerprint identity) and the verify pass.
  const double calibration_before = CalibrationSeconds();
  Scope pass(spans, "pass.traced", -1);
  FleetResult traced;
  double run_s = 0.0;
  {
    std::unique_ptr<Fleet> fleet;
    {
      Scope s(spans, "fleet.construct", pass.id());
      fleet = std::make_unique<Fleet>(fc);
    }
    Scope s(spans, "fleet.run", pass.id());
    auto t0 = Clock::now();
    traced = fleet->Run();
    run_s = SecondsSince(t0);
  }
  pass.Close();
  const double scale = ReferenceScale(calibration_before, CalibrationSeconds());
  std::string why;
  report->Check(CheckFleet(fc, traced, &why), "traced unit: " + why);
  report->Check(traced.fingerprint == last.fingerprint, "traced unit: fingerprint changed");

  double serial_s = 0.0;
  {
    Scope s(spans, "check.fleet_threads1", -1);
    FleetConfig serial = MakeFleetConfig(o, 1, false);
    const double before = CalibrationSeconds();
    auto t0 = Clock::now();
    FleetResult r = Fleet(serial).Run();
    serial_s = SecondsSince(t0) * ReferenceScale(before, CalibrationSeconds());
    report->Check(r.fingerprint == traced.fingerprint,
                  "fleet fingerprint differs between threads=1 and threads=2");
  }
  // The verify pass's extra cost, on the reference clock: the time of a
  // verify=true run minus the untraced units' median.
  double verify_s = 0.0;
  {
    Scope s(spans, "check.fleet_verify", -1);
    FleetConfig verified = MakeFleetConfig(o, 2, true);
    const double before = CalibrationSeconds();
    auto t0 = Clock::now();
    FleetResult r = Fleet(verified).Run();
    verify_s = SecondsSince(t0) * ReferenceScale(before, CalibrationSeconds()) -
               Median(samples.wall);
    report->Check(CheckFleet(verified, r, &why), "verify pass: " + why);
  }

  size_t queue_peak = 0;
  for (const FleetHostReport& h : traced.hosts) {
    queue_peak = std::max(queue_peak, h.repair_queue_peak);
  }
  report->Metric("sim.runloop_s", run_s);
  report->Metric("sim.verify_s", verify_s);
  report->Metric("fleet.failovers", static_cast<double>(traced.failovers));
  report->Metric("fleet.repairs", static_cast<double>(traced.repairs));
  report->Metric("fleet.repair_queue_peak", static_cast<double>(queue_peak));
  report->Metric("fleet.parallel_efficiency", serial_s / (2.0 * run_s * scale));
  report->Metric("trace.overhead_pct", OverheadPct(run_s * scale, Median(samples.wall)));
  report->Info("traced_wall_s", Num(run_s * scale));
  report->Info("serial_wall_s", Num(serial_s));
  report->Info("wall_samples_s", NumList(samples.wall));
  RunProbes(o, spans, -1, report);
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      o.trace = std::string(v) == "1";
    } else if (const char* v = value("--spans=")) {
      o.spans_path = v;
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  const bool scenario = o.workload == "cpu-epoch" || o.workload == "diskread-lossy-failover";
  if (!scenario && o.workload != "fleet-storm" && o.workload != "probes") {
    std::fprintf(stderr, "perfbench_driver: unknown --workload '%s'\n", o.workload.c_str());
    return 2;
  }

  SpanLog log;
  SpanLog* spans = o.trace ? &log : nullptr;
  Report report;
  if (scenario) {
    RunScenarioWorkload(o, spans, &report);
  } else if (o.workload == "fleet-storm") {
    RunFleetWorkload(o, spans, &report);
  } else {
    RunProbes(o, spans, -1, &report);
  }
  if (spans != nullptr && !o.spans_path.empty()) {
    std::string run_id = o.workload + "-seed" + std::to_string(o.seed);
    report.Check(spans->Write(o.spans_path, run_id), "could not write " + o.spans_path);
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace hbft

int main(int argc, char** argv) { return hbft::Main(argc, argv); }
