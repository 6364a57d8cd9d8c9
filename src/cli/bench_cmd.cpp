// `hbft_cli bench` — the one driver for this reproduction's evaluation:
// regenerates the paper's Table 1 and Figures 2-4 plus the fig5-8 extensions
// and writes them as the JSON artifacts committed under bench/, the
// simulated-time baselines tools/diff_bench.py byte-compares. Host-time
// measurement of the simulator itself lives in perfbench/.
//
// --quick shrinks the workloads and epoch-length sweep so the artifact shape
// stays identical while the whole run fits in a smoke test.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cli/commands.hpp"
#include "cli/json.hpp"
#include "cli/options.hpp"
#include "fleet/fleet.hpp"
#include "guest/workloads.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "perf/models.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace cli {

namespace {

// Artifact names accepted by --only, in emission order. Each matches the
// basename of the JSON file it regenerates, so the dev loop reads as
// `hbft_cli bench --only=fig7_fleet && tools/diff_bench.py bench /tmp/regen`.
const char* const kArtifacts[] = {"table1",           "fig2_cpu",        "fig3_io",
                                  "fig4_faster_comm", "fig4_lossy_link", "fig5_resync",
                                  "fig6_throughput",  "fig7_fleet",      "fig8_parallel"};

struct BenchConfig {
  bool quick = false;
  std::string only;  // Empty = regenerate every artifact.
  std::string out_dir = "bench";
  // Workload scale relative to the paper: NP is a ratio, so scaling that
  // keeps the instruction mix keeps the curves' shape. --quick shrinks both.
  uint32_t cpu_iterations = 26000;  // ~1/100 of the paper's CPU workload.
  uint32_t io_operations = 64;      // vs the paper's 2048.
  std::vector<uint64_t> table_els = {1024, 2048, 4096, 8192};
  std::vector<uint64_t> sweep_els = {1024, 2048, 4096, 8192, 16384, 32768};
};

enum class Link { kEthernet10, kAtm155 };

// Runs (and memoises) one replicated measurement. The table and figure
// sweeps overlap heavily — fig2's Ethernet CPU points are table1's, fig4
// repeats them again — so identical (workload, EL, variant, link)
// configurations simulate once. A failed measurement counts in the bench's
// failure count: the artifacts still get written (with np = null) but the
// command exits non-zero so CI cannot stay green on a corrupt perf
// trajectory.
class Measurer {
 public:
  Measurer(const WorkloadSpec* specs, const ScenarioResult* bares, int* failures)
      : specs_(specs), bares_(bares), failures_(failures) {}

  // `workload` indexes the shared specs/bares arrays (0 cpu, 1 write, 2 read).
  double Np(int workload, uint64_t epoch_len, ProtocolVariant variant,
            Link link = Link::kEthernet10) {
    auto key = std::make_tuple(workload, epoch_len, static_cast<int>(variant),
                               static_cast<int>(link));
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      return it->second;
    }
    ScenarioResult ft =
        Scenario::Replicated(specs_[workload])
            .Epoch(epoch_len)
            .Variant(variant)
            .Costs(link == Link::kAtm155 ? CostModel::WithAtmLink() : CostModel::PaperCalibrated())
            .Run();
    double np = -1.0;
    if (!ft.completed || ft.exited_flag != 1) {
      std::fprintf(stderr, "hbft_cli: bench measurement failed (%s, EL=%llu)\n",
                   WorkloadKindName(specs_[workload].kind),
                   static_cast<unsigned long long>(epoch_len));
      ++*failures_;
    } else {
      np = NormalizedPerformance(ft, bares_[workload]);
    }
    cache_[key] = np;
    return np;
  }

 private:
  const WorkloadSpec* specs_;
  const ScenarioResult* bares_;
  int* failures_;
  std::map<std::tuple<int, uint64_t, int, int>, double> cache_;
};

// Paper-measured reference values at EL = 1K/2K/4K/8K (Table 1), or a
// negative sentinel when the paper reports no number for that point.
double PaperNp(WorkloadKind kind, ProtocolVariant variant, uint64_t el) {
  static const uint64_t kEls[] = {1024, 2048, 4096, 8192};
  static const double kCpu[2][4] = {{22.24, 11.83, 6.50, 3.83}, {11.67, 4.49, 3.21, 2.20}};
  static const double kWrite[2][4] = {{1.87, 1.71, 1.67, 1.64}, {1.70, 1.66, 1.66, 1.64}};
  static const double kRead[2][4] = {{2.32, 2.10, 2.03, 1.98}, {1.92, 1.76, 1.72, 1.70}};
  int v = variant == ProtocolVariant::kOriginal ? 0 : 1;
  for (int i = 0; i < 4; ++i) {
    if (kEls[i] != el) {
      continue;
    }
    switch (kind) {
      case WorkloadKind::kCpu:
        return kCpu[v][i];
      case WorkloadKind::kDiskWrite:
        return kWrite[v][i];
      case WorkloadKind::kDiskRead:
        return kRead[v][i];
      default:
        return -1.0;
    }
  }
  return -1.0;
}

JsonValue MaybeNum(double v) { return v > 0 ? JsonValue(v) : JsonValue(); }

// The artifact envelope every emitter shares: bench name + quick flag (+
// any emitter-specific top-level keys) + rows, written to
// `<out-dir>/<file>`. Key order matters — the committed baselines are
// byte-compared in CI — so extras land between "quick" and "rows", exactly
// where the emitters always put them.
bool WriteBenchDoc(const BenchConfig& cfg, const char* bench_name, const char* file,
                   JsonValue rows, const std::function<void(JsonValue*)>& extras = nullptr) {
  JsonValue doc = JsonValue::Object().Set("bench", bench_name).Set("quick", cfg.quick);
  if (extras) {
    extras(&doc);
  }
  doc.Set("rows", std::move(rows));
  return WriteJsonFile(cfg.out_dir + "/" + file, doc);
}

bool EmitTable1(const BenchConfig& cfg, const WorkloadSpec specs[3], Measurer& m) {
  std::printf("bench: table1 (old vs new protocol, %zu epoch lengths)\n", cfg.table_els.size());
  JsonValue rows = JsonValue::Array();
  for (uint64_t el : cfg.table_els) {
    for (int w = 0; w < 3; ++w) {
      for (ProtocolVariant variant : {ProtocolVariant::kOriginal, ProtocolVariant::kRevised}) {
        rows.Push(JsonValue::Object()
                      .Set("epoch_length", el)
                      .Set("workload", WorkloadKindName(specs[w].kind))
                      .Set("variant", VariantName(variant))
                      .Set("np", MaybeNum(m.Np(w, el, variant)))
                      .Set("np_paper", MaybeNum(PaperNp(specs[w].kind, variant, el))));
      }
    }
  }
  return WriteBenchDoc(cfg, "table1_protocol_comparison", "table1.json", std::move(rows));
}

bool EmitFig2(const BenchConfig& cfg, const ScenarioResult& bare, Measurer& m) {
  std::printf("bench: fig2 (CPU workload, NP vs epoch length)\n");
  JsonValue rows = JsonValue::Array();
  for (uint64_t el : cfg.sweep_els) {
    rows.Push(JsonValue::Object()
                  .Set("epoch_length", el)
                  .Set("np", MaybeNum(m.Np(0, el, ProtocolVariant::kOriginal)))
                  .Set("np_model",
                       ModelNpCpu(static_cast<double>(el), false, ModelLink::kEthernet10))
                  .Set("np_paper", MaybeNum(PaperNp(WorkloadKind::kCpu,
                                                    ProtocolVariant::kOriginal, el))));
  }
  return WriteBenchDoc(cfg, "fig2_cpu_workload", "fig2_cpu.json", std::move(rows),
                       [&bare](JsonValue* doc) {
                         doc->Set("workload", "cpu")
                             .Set("bare_runtime_s", bare.completion_time.seconds());
                       });
}

bool EmitFig3(const BenchConfig& cfg, Measurer& m) {
  std::printf("bench: fig3 (I/O workloads, NP vs epoch length)\n");
  JsonValue rows = JsonValue::Array();
  for (uint64_t el : cfg.sweep_els) {
    // Workload indices as ordered by BenchCommand: 1 = write, 2 = read.
    rows.Push(JsonValue::Object()
                  .Set("epoch_length", el)
                  .Set("workload", "diskwrite")
                  .Set("np", MaybeNum(m.Np(1, el, ProtocolVariant::kOriginal)))
                  .Set("np_model", ModelNpWrite(static_cast<double>(el), false))
                  .Set("np_paper", MaybeNum(PaperNp(WorkloadKind::kDiskWrite,
                                                    ProtocolVariant::kOriginal, el))));
    rows.Push(JsonValue::Object()
                  .Set("epoch_length", el)
                  .Set("workload", "diskread")
                  .Set("np", MaybeNum(m.Np(2, el, ProtocolVariant::kOriginal)))
                  .Set("np_model",
                       ModelNpRead(static_cast<double>(el), false, ModelLink::kEthernet10))
                  .Set("np_paper", MaybeNum(PaperNp(WorkloadKind::kDiskRead,
                                                    ProtocolVariant::kOriginal, el))));
  }
  return WriteBenchDoc(cfg, "fig3_io_workloads", "fig3_io.json", std::move(rows));
}

// Fig 4 variant for the modeled transport: the disk-read workload (chatty —
// every 8K block is the paper's 9 frames) over the Ethernet link, ideal vs
// lossy wires. Reports N'/N alongside the per-run transport counters:
// retransmits, wire discards, queue pressure, bytes on wire, and effective
// goodput — the lossy rows must show retransmits > 0 and goodput below the
// ideal wire's.
bool EmitFig4Lossy(const BenchConfig& cfg, const WorkloadSpec specs[3],
                   const ScenarioResult bares[3], int* failures) {
  std::printf("bench: fig4-lossy (ideal vs lossy link, disk-read workload)\n");
  const double kLossPoints[] = {0.0, 0.02, 0.05};
  const uint64_t el = 4096;
  JsonValue rows = JsonValue::Array();
  double ideal_goodput = 0.0;
  for (double loss : kLossPoints) {
    ScenarioResult ft = Scenario::Replicated(specs[2])
                            .Epoch(el)
                            .LinkFaults(LinkFaults::SymmetricLoss(loss))
                            .Run();
    const bool measured = ft.completed && ft.exited_flag == 1;
    if (!measured) {
      std::fprintf(stderr, "hbft_cli: bench fig4-lossy measurement failed (loss=%g)\n", loss);
      ++*failures;
      continue;  // Counters from an aborted run would corrupt the artifact.
    }
    double np = NormalizedPerformance(ft, bares[2]);
    double goodput_mbps = ft.GoodputBps() / 1e6;
    if (loss == 0.0) {
      ideal_goodput = goodput_mbps;
    }
    // Per-channel counters, summed over the mesh.
    uint64_t wire_sends = 0, rx_discards = 0, queue_hwm = 0;
    for (const ScenarioResult::ChannelReport& ch : ft.channels) {
      wire_sends += ch.counters.wire_sends;
      rx_discards += ch.counters.rx_duplicates + ch.counters.rx_gaps;
      queue_hwm = std::max(queue_hwm, ch.counters.queue_high_water);
    }
    rows.Push(JsonValue::Object()
                  .Set("epoch_length", el)
                  .Set("workload", "diskread")
                  .Set("link", "ethernet10")
                  .Set("loss", loss)
                  .Set("reorder", loss)
                  .Set("np", MaybeNum(np))
                  .Set("retransmits", ft.TotalRetransmits())
                  .Set("wire_sends", wire_sends)
                  .Set("rx_discards", rx_discards)
                  .Set("queue_high_water", queue_hwm)
                  .Set("bytes_on_wire", ft.TotalWireBytes())
                  .Set("bytes_delivered", ft.TotalDeliveredBytes())
                  .Set("goodput_mbps", goodput_mbps)
                  .Set("goodput_vs_ideal",
                       ideal_goodput > 0.0 ? JsonValue(goodput_mbps / ideal_goodput)
                                           : JsonValue()));
  }
  return WriteBenchDoc(cfg, "fig4_lossy_link", "fig4_lossy_link.json", std::move(rows));
}

bool EmitFig4(const BenchConfig& cfg, Measurer& m) {
  std::printf("bench: fig4 (Ethernet 10 vs ATM 155)\n");
  JsonValue rows = JsonValue::Array();
  for (uint64_t el : cfg.sweep_els) {
    struct LinkCase {
      const char* name;
      Link link;
      ModelLink model_link;
    };
    const LinkCase cases[] = {
        {"ethernet10", Link::kEthernet10, ModelLink::kEthernet10},
        {"atm155", Link::kAtm155, ModelLink::kAtm155},
    };
    for (const LinkCase& link : cases) {
      rows.Push(JsonValue::Object()
                    .Set("epoch_length", el)
                    .Set("workload", "cpu")
                    .Set("link", link.name)
                    .Set("np", MaybeNum(m.Np(0, el, ProtocolVariant::kOriginal, link.link)))
                    .Set("np_model", ModelNpCpu(static_cast<double>(el), false, link.model_link)));
    }
  }
  return WriteBenchDoc(cfg, "fig4_faster_comm", "fig4_faster_comm.json", std::move(rows));
}

// Fig 5 (this reproduction's extension) — repair: resync latency and
// transferred bytes for a fresh backup rejoining a healthy chain via live
// state transfer, vs memory size (zero-run elision makes idle RAM nearly
// free), vs workload dirty rate (disk DMA forces delta rounds), and over an
// ideal vs a 5% lossy wire.
//
// One case = one replicated run with a healthy-chain rejoin at 8 ms: the
// standing backup streams the snapshot while the chain keeps serving.
struct ResyncCase {
  const char* group;  // "size" or "dirty".
  const char* workload;
  uint32_t ram_mb = 4;
  double loss = 0.0;
  WorkloadSpec spec;
};

std::vector<ResyncCase> ResyncBenchCases(bool quick) {
  WorkloadSpec cpu = WorkloadSpec::PaperCpu();
  cpu.iterations = 12000;  // ~80 ms: outlives the transfer.
  WorkloadSpec write_spec = WorkloadSpec::PaperDiskWrite(6);
  WorkloadSpec read_spec = WorkloadSpec::PaperDiskRead(6);

  std::vector<ResyncCase> cases;
  const uint32_t sizes[] = {4, 8, 16};
  for (uint32_t ram_mb : sizes) {
    cases.push_back(ResyncCase{"size", "cpu", ram_mb, 0.0, cpu});
    if (quick) {
      break;  // One size row keeps the smoke-test shape without the sweep.
    }
  }
  struct Dirty {
    const char* name;
    const WorkloadSpec* spec;
  };
  const Dirty dirty[] = {{"cpu", &cpu}, {"diskwrite", &write_spec}, {"diskread", &read_spec}};
  for (const Dirty& d : dirty) {
    for (double loss : {0.0, 0.05}) {
      cases.push_back(ResyncCase{"dirty", d.name, 4, loss, *d.spec});
      if (quick && loss > 0.0) {
        break;
      }
    }
    if (quick && d.spec == &write_spec) {
      break;  // Quick: cpu (both links) + diskwrite (ideal only).
    }
  }
  return cases;
}

ScenarioResult RunResyncCase(const ResyncCase& c) {
  Scenario scenario = Scenario::Replicated(c.spec)
                          .Epoch(4096)
                          .RamBytes(c.ram_mb * 1024u * 1024u)
                          .RejoinAtTime(SimTime::Millis(8));
  if (c.loss > 0.0) {
    scenario.LinkFaults(LinkFaults::SymmetricLoss(c.loss));
  }
  return scenario.Run();
}

bool EmitFig5(const BenchConfig& cfg, int* failures) {
  std::printf("bench: fig5 (backup resync via live state transfer)\n");
  JsonValue rows = JsonValue::Array();
  for (const ResyncCase& c : ResyncBenchCases(cfg.quick)) {
    ScenarioResult ft = RunResyncCase(c);
    const bool measured = ft.completed && ft.exited_flag == 1 && ft.resyncs.size() == 1 &&
                          ft.resyncs[0].completed;
    if (!measured) {
      std::fprintf(stderr, "hbft_cli: bench fig5 measurement failed (%s, %s, ram=%u, loss=%g)\n",
                   c.group, c.workload, c.ram_mb, c.loss);
      ++*failures;
      continue;
    }
    const ResyncReport& resync = ft.resyncs[0];
    rows.Push(JsonValue::Object()
                  .Set("group", c.group)
                  .Set("workload", c.workload)
                  .Set("ram_mb", static_cast<uint64_t>(c.ram_mb))
                  .Set("link", "ethernet10")
                  .Set("loss", c.loss)
                  .Set("reorder", c.loss)
                  .Set("resync_ms", (resync.join_time - resync.start).seconds() * 1e3)
                  .Set("cut_ms", (resync.transfer.cut_time - resync.start).seconds() * 1e3)
                  .Set("bytes", resync.transfer.bytes_sent)
                  .Set("full_pages", resync.transfer.full_pages)
                  .Set("page_chunks", resync.transfer.page_chunks)
                  .Set("zero_run_chunks", resync.transfer.zero_run_chunks)
                  .Set("delta_pages", resync.transfer.delta_pages)
                  .Set("rounds", resync.transfer.rounds)
                  .Set("join_epoch", resync.transfer.cut_epoch)
                  .Set("retransmits", ft.TotalRetransmits()));
  }
  return WriteBenchDoc(cfg, "fig5_resync", "fig5_resync.json", std::move(rows));
}

// Fig 6 (this reproduction's extension) — interpreter throughput: the cached
// (predecoded-superblock) dispatch engine vs the slow fetch-decode path, on
// a bare-machine CPU kernel (dispatch cost isolated) and on the full CPU
// workload scenario. `instructions`, `checksum`, and the tcache counters are
// deterministic and byte-diffed in CI; the host-clock fields (host_ms, mips,
// wall_ms, speedup) vary by machine and are stripped before diffing
// (tools/diff_bench.py), which instead enforces a speedup floor.
//
// The kernel mirrors the CPU workload's instruction mix (arithmetic, a
// word-copy loop, leaf calls) on a bare machine with no embedder in the
// loop, so the measurement isolates dispatch cost.
struct InterpThroughput {
  uint64_t instructions = 0;
  uint32_t checksum = 0;  // Guest-computed result (determinism witness).
  double host_ms = 0.0;
  double mips = 0.0;
  TranslationCache::Stats tcache;
};

InterpThroughput MeasureInterpThroughput(InterpMode mode, uint32_t outer_iterations) {
  char source[2048];
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
                static_cast<unsigned>(outer_iterations));
  auto assembled = Assemble(source);
  if (!assembled.ok()) {
    std::fprintf(stderr, "fig6 kernel failed to assemble: %s\n",
                 assembled.error().ToString().c_str());
    return {};
  }
  MachineConfig config;
  config.trap_mode = TrapMode::kDirect;
  config.interp = mode;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.cpu().pc = 0;
  // hbft-lint: allow(wall-clock) — host-side bench timing, never feeds the simulation.
  auto start = std::chrono::steady_clock::now();
  MachineExit exit = machine.Run(UINT64_MAX);
  // hbft-lint: allow(wall-clock) — host-side bench timing, never feeds the simulation.
  auto stop = std::chrono::steady_clock::now();
  if (exit.kind != ExitKind::kHalt) {
    std::fprintf(stderr, "fig6 kernel did not halt (exit kind %d)\n",
                 static_cast<int>(exit.kind));
    return {};
  }
  InterpThroughput result;
  result.instructions = machine.cpu().instret;
  result.checksum = machine.memory().Read32(0x1F00);
  result.host_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  result.mips = result.host_ms > 0.0
                    ? static_cast<double>(result.instructions) / (result.host_ms * 1e3)
                    : 0.0;
  result.tcache = machine.tcache_stats();
  return result;
}

// End-to-end variant: the real CPU workload through the full bare scenario
// (MiniOS, devices, event loop). Simulated results (completion time,
// checksum) are dispatch-mode invariant; wall_ms is not.
struct ScenarioThroughput {
  bool ok = false;
  double sim_ms = 0.0;          // Deterministic.
  uint32_t guest_checksum = 0;  // Deterministic.
  double wall_ms = 0.0;         // Host clock.
};

ScenarioThroughput MeasureScenarioThroughput(InterpMode mode, uint32_t iterations) {
  WorkloadSpec spec = WorkloadSpec::PaperCpu();
  spec.iterations = iterations;
  // hbft-lint: allow(wall-clock) — host-side bench timing, never feeds the simulation.
  auto start = std::chrono::steady_clock::now();
  ScenarioResult result = Scenario::Bare(spec).Interp(mode).Run();
  // hbft-lint: allow(wall-clock) — host-side bench timing, never feeds the simulation.
  auto stop = std::chrono::steady_clock::now();
  ScenarioThroughput out;
  out.ok = result.completed && result.exited_flag == 1;
  out.sim_ms = result.completion_time.seconds() * 1e3;
  out.guest_checksum = result.guest_checksum;
  out.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return out;
}

bool EmitFig6(const BenchConfig& cfg, int* failures) {
  std::printf("bench: fig6 (interpreter throughput, slow vs cached dispatch)\n");
  const uint32_t kernel_iters = cfg.quick ? 20000 : 200000;
  const uint32_t scenario_iters = cfg.cpu_iterations;
  JsonValue rows = JsonValue::Array();

  InterpThroughput kernel[2];
  ScenarioThroughput e2e[2];
  const InterpMode modes[2] = {InterpMode::kSlow, InterpMode::kCached};
  const char* mode_names[2] = {"slow", "cached"};
  for (int i = 0; i < 2; ++i) {
    kernel[i] = MeasureInterpThroughput(modes[i], kernel_iters);
    e2e[i] = MeasureScenarioThroughput(modes[i], scenario_iters);
    if (kernel[i].instructions == 0 || !e2e[i].ok) {
      std::fprintf(stderr, "hbft_cli: bench fig6 measurement failed (%s)\n", mode_names[i]);
      ++*failures;
    }
  }
  if (kernel[0].instructions != kernel[1].instructions ||
      kernel[0].checksum != kernel[1].checksum ||
      e2e[0].guest_checksum != e2e[1].guest_checksum || e2e[0].sim_ms != e2e[1].sim_ms) {
    // The engines must do identical guest work or the speedup is meaningless.
    std::fprintf(stderr, "hbft_cli: bench fig6 dispatch modes diverged\n");
    ++*failures;
  }

  for (int i = 0; i < 2; ++i) {
    JsonValue row = JsonValue::Object()
                        .Set("workload", "cpu-kernel")
                        .Set("mode", mode_names[i])
                        .Set("instructions", kernel[i].instructions)
                        .Set("checksum", static_cast<uint64_t>(kernel[i].checksum));
    if (modes[i] == InterpMode::kCached) {
      const TranslationCache::Stats& tc = kernel[i].tcache;
      row.Set("tcache_builds", tc.builds)
          .Set("tcache_hits", tc.hits)
          .Set("tcache_misses", tc.misses)
          .Set("tcache_stale", tc.stale);
    }
    row.Set("host_ms", kernel[i].host_ms).Set("mips", kernel[i].mips);
    if (modes[i] == InterpMode::kCached && kernel[i].host_ms > 0.0) {
      row.Set("speedup", kernel[0].host_ms / kernel[i].host_ms);
    }
    rows.Push(std::move(row));
  }
  for (int i = 0; i < 2; ++i) {
    JsonValue row = JsonValue::Object()
                        .Set("workload", "cpu-e2e")
                        .Set("mode", mode_names[i])
                        .Set("iterations", static_cast<uint64_t>(scenario_iters))
                        .Set("sim_ms", e2e[i].sim_ms)
                        .Set("guest_checksum", static_cast<uint64_t>(e2e[i].guest_checksum))
                        .Set("wall_ms", e2e[i].wall_ms);
    if (modes[i] == InterpMode::kCached && e2e[i].wall_ms > 0.0) {
      row.Set("speedup", e2e[0].wall_ms / e2e[i].wall_ms);
    }
    rows.Push(std::move(row));
  }
  return WriteBenchDoc(cfg, "fig6_interp_throughput", "fig6_throughput.json", std::move(rows));
}

// The storm fleet fig7 and fig8 run: `chains` chains of one backup each,
// placed anti-affinity on `hosts` hosts, and `storm` hosts failing at
// 120 ms. The storm lands mid-traffic (arrivals start at 100 ms, 20 ms
// apart), so the latency tail contains failover-delayed requests. The
// per-chain env-consistency check doubles the run for no extra data here;
// the fleet tests exercise it.
FleetConfig StormFleet(const BenchConfig& cfg, size_t chains, size_t hosts, size_t storm) {
  FleetConfig fc;
  fc.chains = chains;
  fc.hosts = hosts;
  fc.backups = 1;
  fc.traffic.requests_per_chain = cfg.quick ? 4 : 8;
  for (size_t h : StormHosts(hosts, storm)) {
    fc.host_failures.push_back(HostFailure{h, SimTime::Millis(120)});
  }
  fc.verify = false;
  return fc;
}

// Fig 7 (this reproduction's extension) — fleet: availability and request
// latency percentiles for a fleet of protected chains under host failure
// storms of increasing width. Placement is anti-affinity, so every affected
// chain loses exactly one replica per storm and must fail over (and repair)
// without losing service. Every field is simulated-time and byte-diffed in
// CI; diff_bench.py additionally enforces sanity floors (availability <= 1,
// p50 <= p99 <= p999) on the regenerated rows.
bool EmitFig7(const BenchConfig& cfg, int* failures) {
  std::printf("bench: fig7 (fleet availability + latency vs host failure storm)\n");
  const size_t chains = cfg.quick ? 8 : 32;
  const size_t hosts = 8;
  const size_t storm_widths[] = {0, 1, 2, 4};
  JsonValue rows = JsonValue::Array();
  for (size_t width : storm_widths) {
    FleetResult r = Fleet(StormFleet(cfg, chains, hosts, width)).Run();
    if (r.chains_lost != 0 || r.chains_completed != chains) {
      std::fprintf(stderr, "hbft_cli: bench fig7 measurement failed (storm=%zu)\n", width);
      ++*failures;
      continue;
    }
    rows.Push(JsonValue::Object()
                  .Set("chains", static_cast<uint64_t>(chains))
                  .Set("hosts", static_cast<uint64_t>(hosts))
                  .Set("placement", "anti-affinity")
                  .Set("hosts_failed", static_cast<uint64_t>(width))
                  .Set("requests_total", r.requests_total)
                  .Set("requests_served", r.requests_served)
                  .Set("availability", r.availability)
                  .Set("slo_attainment", r.slo_attainment)
                  .Set("p50_ms", r.latency_ms.p50)
                  .Set("p99_ms", r.latency_ms.p99)
                  .Set("p999_ms", r.latency_ms.p999)
                  .Set("max_ms", r.latency_ms.max)
                  .Set("failovers", static_cast<uint64_t>(r.failovers))
                  .Set("repairs", static_cast<uint64_t>(r.repairs))
                  .Set("fingerprint", r.fingerprint));
  }
  return WriteBenchDoc(cfg, "fig7_fleet", "fig7_fleet.json", std::move(rows));
}

// Fig 8 (this reproduction's extension) — parallel fleet rounds: the fig7
// storm scenario at increasing --threads, proving the headline guarantee
// (bit-identical fingerprints at every thread count — the emitter fails the
// bench if they diverge) and recording the wall-clock scaling. The
// deterministic fields (availability, fingerprint, request counts) are
// byte-diffed in CI; wall_ms / speedup / host_cpus are host-dependent and
// stripped by tools/diff_bench.py, which instead enforces the speedup floor
// (>= 2x at 4 threads on the large row) whenever the regenerating machine
// actually has >= 4 CPUs (host_cpus says so).
bool EmitFig8(const BenchConfig& cfg, int* failures) {
  std::printf("bench: fig8 (parallel fleet rounds, wall-clock scaling)\n");
  struct FleetCase {
    const char* name;
    size_t chains;
    size_t hosts;
    size_t storm;
  };
  const FleetCase cases[] = {
      {"small", cfg.quick ? size_t{4} : size_t{64}, cfg.quick ? size_t{4} : size_t{8}, 1},
      {"large", cfg.quick ? size_t{8} : size_t{256}, cfg.quick ? size_t{8} : size_t{32},
       cfg.quick ? size_t{2} : size_t{4}},
  };
  const uint64_t host_cpus = std::thread::hardware_concurrency();
  JsonValue rows = JsonValue::Array();
  for (const FleetCase& fleet_case : cases) {
    double serial_wall_ms = 0.0;
    uint64_t serial_fingerprint = 0;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      FleetConfig fc = StormFleet(cfg, fleet_case.chains, fleet_case.hosts, fleet_case.storm);
      fc.threads = threads;
      // hbft-lint: allow(wall-clock) — host-side bench timing, never feeds the simulation.
      auto t0 = std::chrono::steady_clock::now();
      FleetResult r = Fleet(fc).Run();
      double wall_ms =
          // hbft-lint: allow(wall-clock) — host-side bench timing, never feeds the simulation.
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
      if (r.chains_lost != 0 || r.chains_completed != fleet_case.chains) {
        std::fprintf(stderr, "hbft_cli: bench fig8 measurement failed (%s, threads=%zu)\n",
                     fleet_case.name, threads);
        ++*failures;
        continue;
      }
      if (threads == 1) {
        serial_wall_ms = wall_ms;
        serial_fingerprint = r.fingerprint;
      } else if (r.fingerprint != serial_fingerprint) {
        // The whole artifact is meaningless if parallelism moved a result.
        std::fprintf(stderr,
                     "hbft_cli: bench fig8 fingerprint diverged (%s, threads=%zu): "
                     "%016llx vs %016llx\n",
                     fleet_case.name, threads,
                     static_cast<unsigned long long>(r.fingerprint),
                     static_cast<unsigned long long>(serial_fingerprint));
        ++*failures;
        continue;
      }
      rows.Push(JsonValue::Object()
                    .Set("case", fleet_case.name)
                    .Set("chains", static_cast<uint64_t>(fleet_case.chains))
                    .Set("hosts", static_cast<uint64_t>(fleet_case.hosts))
                    .Set("hosts_failed", static_cast<uint64_t>(fleet_case.storm))
                    .Set("threads", static_cast<uint64_t>(threads))
                    .Set("requests_total", r.requests_total)
                    .Set("requests_served", r.requests_served)
                    .Set("availability", r.availability)
                    .Set("failovers", static_cast<uint64_t>(r.failovers))
                    .Set("repairs", static_cast<uint64_t>(r.repairs))
                    .Set("fingerprint", r.fingerprint)
                    .Set("wall_ms", wall_ms)
                    .Set("speedup", wall_ms > 0.0 ? serial_wall_ms / wall_ms : 1.0)
                    .Set("host_cpus", host_cpus));
    }
  }
  return WriteBenchDoc(cfg, "fig8_parallel_fleet", "fig8_parallel.json", std::move(rows));
}

}  // namespace

int BenchCommand(FlagSet& flags) {
  BenchConfig cfg;
  cfg.quick = flags.Has("quick");
  cfg.only = flags.GetString("only", "");
  cfg.out_dir = flags.GetString("out-dir", "bench");
  if (!cfg.only.empty()) {
    // Accept a unique prefix too (`--only=fig8` for fig8_parallel) — the
    // flag exists for the dev loop, where nobody wants to type full names.
    std::vector<const char*> matches;
    for (const char* a : kArtifacts) {
      if (cfg.only == a) {
        matches.assign(1, a);
        break;
      }
      if (std::string(a).rfind(cfg.only, 0) == 0) {
        matches.push_back(a);
      }
    }
    if (matches.size() != 1) {
      std::fprintf(stderr, "hbft_cli: %s artifact '%s'; valid:",
                   matches.empty() ? "unknown" : "ambiguous", cfg.only.c_str());
      for (const char* a : kArtifacts) {
        std::fprintf(stderr, " %s", a);
      }
      std::fputc('\n', stderr);
      return 2;
    }
    cfg.only = matches[0];
  }
  if (cfg.quick) {
    cfg.cpu_iterations = 4000;
    cfg.io_operations = 12;
    cfg.table_els = {2048, 8192};
    cfg.sweep_els = {2048, 8192};
  }
  if (!flags.Finish()) {
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "hbft_cli: cannot create %s: %s\n", cfg.out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // `--only` filters the emitter list (the whole point is the fast dev
  // loop: regenerate one artifact, diff it against the committed baseline).
  auto want = [&cfg](const char* artifact) { return cfg.only.empty() || cfg.only == artifact; };

  // Shared specs and bare references: cpu, write, read (paper section 4
  // workloads at reduced scale — NP is a ratio, scaling preserves shape).
  // Only the NP artifacts need the bare runs; a filtered fig5/6/7 loop
  // skips them entirely.
  WorkloadSpec specs[3];
  specs[0] = WorkloadSpec::PaperCpu();
  specs[0].iterations = cfg.cpu_iterations;
  specs[1] = WorkloadSpec::PaperDiskWrite(cfg.io_operations);
  specs[2] = WorkloadSpec::PaperDiskRead(cfg.io_operations);

  const bool needs_bares = want("table1") || want("fig2_cpu") || want("fig3_io") ||
                           want("fig4_faster_comm") || want("fig4_lossy_link");
  ScenarioResult bares[3];
  if (needs_bares) {
    for (int i = 0; i < 3; ++i) {
      bares[i] = RunBare(specs[i]);
      if (!bares[i].completed || bares[i].exited_flag != 1) {
        std::fprintf(stderr, "hbft_cli: bare reference run failed (%s)\n",
                     WorkloadKindName(specs[i].kind));
        return 1;
      }
    }
  }

  // Every failure site prints its own line; the command fails on the count.
  int failures = 0;
  Measurer measurer(specs, bares, &failures);
  bool ok = (!want("table1") || EmitTable1(cfg, specs, measurer)) &&
            (!want("fig2_cpu") || EmitFig2(cfg, bares[0], measurer)) &&
            (!want("fig3_io") || EmitFig3(cfg, measurer)) &&
            (!want("fig4_faster_comm") || EmitFig4(cfg, measurer)) &&
            (!want("fig4_lossy_link") || EmitFig4Lossy(cfg, specs, bares, &failures)) &&
            (!want("fig5_resync") || EmitFig5(cfg, &failures)) &&
            (!want("fig6_throughput") || EmitFig6(cfg, &failures)) &&
            (!want("fig7_fleet") || EmitFig7(cfg, &failures)) &&
            (!want("fig8_parallel") || EmitFig8(cfg, &failures));
  if (ok && failures > 0) {
    std::fprintf(stderr, "hbft_cli: %d bench measurement(s) failed\n", failures);
    ok = false;
  }
  if (ok) {
    if (cfg.only.empty()) {
      std::printf("bench: wrote table1.json, fig2_cpu.json, fig3_io.json, "
                  "fig4_faster_comm.json, fig4_lossy_link.json, fig5_resync.json, "
                  "fig6_throughput.json, fig7_fleet.json, fig8_parallel.json under %s/\n",
                  cfg.out_dir.c_str());
    } else {
      std::printf("bench: wrote %s.json under %s/\n", cfg.only.c_str(), cfg.out_dir.c_str());
    }
  }
  return ok ? 0 : 1;
}

}  // namespace cli
}  // namespace hbft
