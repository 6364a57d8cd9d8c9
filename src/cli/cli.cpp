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
      "usage: hbft_cli <run|bench|fleet|serve|help> [flags]\n"
      "       hbft_cli --list-workloads | --list-phases\n"
      "\n"
      "run    Execute one workload and report the outcome; with --fail, a\n"
      "       failover drill reporting each takeover's promotion latency.\n"
      "       Exits 0 iff the verdict is PASS: every run completes cleanly, the\n"
      "       environment saw a sequence consistent with a single machine, the\n"
      "       checksum matches bare (timing-free workloads), every scheduled\n"
      "       kill fired and every scheduled rejoin completed.\n"
      "  --workload=KIND       cpu|diskread|diskwrite|hello|txnlog|echo|heap|time|\n"
      "                        net-echo (txnlog). net-echo attaches the NIC and\n"
      "                        echoes injected packets (see --packets); echo\n"
      "                        echoes one typed console character per iteration.\n"
      "  --iterations=N        workload operations / records / packets / characters\n"
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
      "  --rto-ms=X            go-back-N retransmission timeout (2)\n"
      "  --packets=N           net-echo: packets injected (default: iterations)\n"
      "  --fail=SPEC           append a failure/repair event to the ordered schedule;\n"
      "                        repeatable. SPEC is comma-separated key=value:\n"
      "                          time-ms=X | phase=P[,epoch=N][,io-seq=N]\n"
      "                          target=active|backup:K   crash-io=random|performed|\n"
      "                          not-performed; backup:K counts live backups down\n"
      "                            from the active replica when the kill is due\n"
      "                          rejoin-time-ms=X | rejoin-after-ms=X   spawn a fresh\n"
      "                            backup below the chain tail (live state transfer)\n"
      "                          after-resync-ms=X   kill the active replica X ms\n"
      "                            after the pending rejoin's transfer completes\n"
      "                        e.g. --fail=time-ms=40 --fail=rejoin-after-ms=20\n"
      "                             --fail=after-resync-ms=10\n"
      "  --json                print the report as JSON; without it the same\n"
      "                        document prints as one `path : value` line per leaf\n"
      "  --num-blocks=N --seed=N\n"
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
      "  --interval-ms=X       open-loop inter-arrival gap per chain (20)\n"
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
      "  --repair-retry-ms=X --start-ms=X --payload-bytes=B\n"
      "  --epoch-length=N --seed=N --max-time-ms=X\n"
      "  --json                the fleet report as JSON (else `path : value` lines)\n"
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
      "  --json                the session report as JSON (else `path : value` lines);\n"
      "                        its top-level replica counters are chain position\n"
      "                        0's (in a wire role, the hosted replica's), and\n"
      "                        replication.nodes lists every replica\n"
      "\n"
      "help   Print this text. With --list-workloads or --list-phases, print\n"
      "       the valid enum names one per line (machine-readable).\n"
      "\n"
      "examples:\n"
      "  hbft_cli run --workload=txnlog --iterations=8 --variant=new\n"
      "  hbft_cli run --workload=net-echo --iterations=4 --fail=phase=after-io-issue\n"
      "  hbft_cli run --workload=txnlog --disk-uncertain=0.3 --console-uncertain=0.3\n"
      "  hbft_cli run --variant=new --fail=phase=after-send-tme,epoch=3\n"
      "  hbft_cli run --backups=2 --fail=time-ms=6 --fail=phase=after-io-issue\n"
      "  hbft_cli run --workload=net-echo --backups=2 --loss=0.05 --reorder=0.05\n"
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
