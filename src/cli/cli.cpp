#include "cli/cli.hpp"

#include <cstdio>
#include <cstring>
#include <string>

#include "cli/commands.hpp"
#include "cli/options.hpp"

namespace hbft {
namespace cli {

namespace {

void PrintUsage(std::FILE* out) {
  std::fputs(
      "hbft_cli — hypervisor-based fault-tolerance scenario driver\n"
      "\n"
      "usage: hbft_cli <run|drill|bench|fleet|serve|help> [flags]\n"
      "       hbft_cli --list-workloads | --list-phases\n"
      "\n"
      "run    Execute one workload and report the outcome.\n"
      "  --workload=KIND       cpu|diskread|diskwrite|hello|txnlog|echo|heap|time|\n"
      "                        net-echo (txnlog). net-echo attaches the NIC and\n"
      "                        echoes injected packets (see --packets).\n"
      "  --iterations=N        workload operations / records / packets\n"
      "  --mode=M              both|bare|replicated (both: prints N'/N and consistency)\n"
      "  --epoch-length=N      instructions per epoch (4096)\n"
      "  --variant=V           old (P2 ack wait) | new (output commit, section 4.3)\n"
      "  --backups=N           replica chain length: 1 primary + N backups (1)\n"
      "  --disk-uncertain=P    per-device uncertain-completion probability (0):\n"
      "  --console-uncertain=P   each completion independently comes back\n"
      "  --nic-uncertain=P       CHECK_CONDITION-style; drivers retry (IO2)\n"
      "  --uncertain-performed=P probability an uncertain op actually happened (.5)\n"
      "  --loss=P --dup=P --reorder=P  replica-link fault probabilities (0):\n"
      "                        the protocol stream recovers via go-back-N\n"
      "                        retransmission driven by the cumulative P4 acks\n"
      "  --link-queue=N        bounded sender queue; overflow tail-drops (0=inf)\n"
      "  --rto-ms=X            go-back-N retransmission timeout (2)\n"
      "  --loss-until-ms=X     confine link faults to a burst ending at X\n"
      "  --pipeline-depth=W    epochs of unacked run-ahead at P2 boundaries (0 =\n"
      "                        the paper's strict wait; old variant only)\n"
      "  --ack-batch=K         backup coalesces K acks into one cumulative ack (1)\n"
      "  --packets=N           net-echo: packets injected (default: iterations)\n"
      "  --interp=E            slow (fetch-decode every instruction) | cached\n"
      "                        (predecoded superblocks); identical results,\n"
      "                        cached is faster (default: $HBFT_INTERP or slow)\n"
      "  --fail=SPEC           append a failure/repair event to the ordered schedule;\n"
      "                        repeatable. SPEC is comma-separated key=value:\n"
      "                          time-ms=X | phase=P[,epoch=N][,io-seq=N]\n"
      "                          target=active|backup:K   crash-io=random|performed|\n"
      "                          not-performed\n"
      "                          rejoin-time-ms=X | rejoin-after-ms=X   spawn a fresh\n"
      "                            backup below the chain tail (live state transfer)\n"
      "                          after-resync-ms=X   kill the active replica X ms\n"
      "                            after the pending rejoin's transfer completes\n"
      "                        e.g. --fail=time-ms=40 --fail=rejoin-after-ms=20\n"
      "                             --fail=after-resync-ms=10\n"
      "  --json                emit one machine-readable JSON document instead of\n"
      "                        the text report (outcome, replication, transport,\n"
      "                        resyncs, N'/N + consistency)\n"
      "  --num-blocks=N --seed=N\n"
      "\n"
      "drill  Failover drill with a per-takeover promotion-latency report.\n"
      "  Takes the run flags; defaults to txnlog with a kill at after-send-tme\n"
      "  epoch 3, plus — cascading mode — one further active-replica kill per\n"
      "  extra backup. Exits 0 iff the environment saw a sequence consistent\n"
      "  with a single machine and the workload result matches bare.\n"
      "  --repair              after the kills, rejoin a fresh backup (live state\n"
      "                        transfer) and kill the active replica once more —\n"
      "                        the report adds resync latency + transferred bytes\n"
      "  --repair-delay-ms=X   rejoin X ms after the last kill (20)\n"
      "  --refail-delay-ms=X   re-kill X ms after the resync completes (10)\n"
      "\n"
      "bench  Regenerate the paper's Table 1 / Fig 2-4 numbers plus this\n"
      "       reproduction's fig5-8 extensions as JSON artifacts.\n"
      "  --out-dir=DIR         artifact directory (bench)\n"
      "  --quick               small workloads + short sweep (same artifact shape)\n"
      "  --only=ARTIFACT       regenerate one artifact: table1, fig2_cpu,\n"
      "                        fig3_io, fig4_faster_comm, fig4_lossy_link,\n"
      "                        fig5_resync, fig6_throughput, fig7_fleet,\n"
      "                        fig8_parallel (prefixes like fig8 work too)\n"
      "\n"
      "fleet  Co-simulate many protected chains across simulated hosts.\n"
      "  --chains=N            protected chains (8); each is 1 primary + backups\n"
      "  --hosts=M             simulated hosts replicas are placed on (4)\n"
      "  --backups=N           backups per chain (1)\n"
      "  --placement=P         round-robin | anti-affinity (anti-affinity: a host\n"
      "                        failure kills at most one replica per chain)\n"
      "  --requests=N          open-loop requests per chain (8)\n"
      "  --rate=R              requests/second per chain (overrides --interval-ms)\n"
      "  --interval-ms=X       open-loop inter-arrival gap (20)\n"
      "  --slo-ms=X            request latency SLO for attainment (50)\n"
      "  --fail=SPEC           host-K,time-ms=X (one host) or\n"
      "                        host-storm,hosts=N,time-ms=X (N hosts, evenly\n"
      "                        spread, all at X); repeatable\n"
      "  --repair-delay-ms=X   replica death -> replacement request (20)\n"
      "  --repair-concurrency=N  inbound state transfers admitted per host (1);\n"
      "                        excess repairs queue FIFO per host\n"
      "  --no-verify           skip the per-chain env-consistency check against\n"
      "                        a bare reference run (the check doubles runtime)\n"
      "  --threads=N           worker threads for round slices (1); results are\n"
      "                        bit-identical at any N (chains shard by id, all\n"
      "                        cross-chain state changes at the round barrier)\n"
      "  --quantum-ms=X --repair-retry-ms=X --start-ms=X --payload-bytes=B\n"
      "  --epoch-length=N --seed=N --max-time-ms=X\n"
      "  --json                machine-readable fleet report\n"
      "\n"
      "serve  Run a protected guest behind a real TCP listener: client requests\n"
      "       become NIC RX packets, guest echoes are released at output commit.\n"
      "  --port=P              client listener port (7070); 127.0.0.1 only\n"
      "  --role=R              single (whole chain in-process, default) |\n"
      "                        primary | backup (multi-process: the replication\n"
      "                        stream runs over a real TCP connection and the\n"
      "                        backup promotes when the primary process dies)\n"
      "  --repl-port=P         replication transport port (7071)\n"
      "  --peer=HOST           backup: the primary's host (127.0.0.1)\n"
      "  --backup-wait-ms=X    primary: wait for a backup before going solo;\n"
      "                        backup: keep redialing the primary (3000)\n"
      "  --duration-ms=X       stop after X ms of serving (0 = until a signal)\n"
      "  --max-requests=N      stop after N committed responses (0 = unbounded)\n"
      "  --backups=N           single role: chain length (1)\n"
      "  --fail=SPEC           single role: in-process failure schedule, as in run\n"
      "  --epoch-length=N --seed=N\n"
      "  --json                machine-readable session report on stdout\n"
      "\n"
      "help   Print this text. With --list-workloads or --list-phases, print\n"
      "       the valid enum names one per line (machine-readable).\n"
      "\n"
      "examples:\n"
      "  hbft_cli run --workload=txnlog --iterations=8 --variant=new\n"
      "  hbft_cli run --workload=net-echo --iterations=4 --fail=phase=after-io-issue\n"
      "  hbft_cli run --workload=txnlog --disk-uncertain=0.3 --console-uncertain=0.3\n"
      "  hbft_cli drill --variant=new --epoch-length=4096\n"
      "  hbft_cli drill --backups=2 --fail=time-ms=6 --fail=phase=after-io-issue\n"
      "  hbft_cli run --workload=net-echo --backups=2 --loss=0.05 --reorder=0.05\n"
      "  hbft_cli drill --repair --variant=new\n"
      "  hbft_cli run --workload=txnlog --iterations=20 --json \\\n"
      "      --fail=time-ms=40 --fail=rejoin-after-ms=20 --fail=after-resync-ms=10\n"
      "  hbft_cli bench --quick --out-dir=/tmp/hbft-bench\n"
      "  hbft_cli fleet --chains=64 --hosts=8 --fail=host-storm,hosts=1,time-ms=60\n"
      "  hbft_cli fleet --chains=16 --hosts=4 --placement=round-robin --json\n"
      "  hbft_cli serve --port=7070 --duration-ms=2000 --fail=time-ms=500 --json\n"
      "  hbft_cli serve --role=primary --port=7070 --repl-port=7071 &\n"
      "  hbft_cli serve --role=backup --port=7070 --repl-port=7071\n",
      out);
}

// Returns true when `arg` asked for a list that was printed.
bool HandleListFlag(const std::string& arg) {
  if (arg == "--list-workloads") {
    PrintWorkloadNames(stdout);
    return true;
  }
  if (arg == "--list-phases") {
    PrintFailPhaseNames(stdout);
    return true;
  }
  return false;
}

int HelpCommand(int argc, char** argv) {
  bool listed = false;
  for (int i = 2; i < argc; ++i) {
    if (HandleListFlag(argv[i])) {
      listed = true;
    } else {
      std::fprintf(stderr, "hbft_cli: help takes --list-workloads or --list-phases, got '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  if (!listed) {
    PrintUsage(stdout);
  }
  return 0;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return HelpCommand(argc, argv);
  }
  if (HandleListFlag(command)) {
    return 0;
  }

  FlagSet flags;
  if (!flags.Parse(argc, argv, 2)) {
    return 2;
  }
  if (command == "run") {
    return RunCommand(flags);
  }
  if (command == "drill") {
    return DrillCommand(flags);
  }
  if (command == "bench") {
    return BenchCommand(flags);
  }
  if (command == "fleet") {
    return FleetCommand(flags);
  }
  if (command == "serve") {
    return ServeCommand(flags);
  }
  std::fprintf(stderr, "hbft_cli: unknown command '%s'\n\n", command.c_str());
  PrintUsage(stderr);
  return 2;
}

}  // namespace cli
}  // namespace hbft
