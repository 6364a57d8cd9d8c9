#!/usr/bin/env python3
"""hbft repository benchmark: one command, four workloads, checked outputs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload cpu-epoch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-pair --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test        # every workload, tiny sizes

The first run builds the library, hbft_cli and the in-process driver from
source into .bench_build/ (Release). Each run then measures one workload for
--seconds of host time, checks every output it produced, prints every metric
with its unit and clock, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced). --trace 1 adds a traced
pass and reports the per-layer metrics; its spans are written to
.bench_build/spans/. perfbench/README.md documents every metric and workload.
"""

import argparse
import hashlib
import json
import os
import random
import select
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
CLI = os.path.join(BUILD, "hbft", "hbft_cli")

WORKLOADS = ["cpu-epoch", "diskread-lossy-failover", "fleet-storm", "serve-pair"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # Never used while the benchmark was tuned.

# name -> (unit, clock, better). Clock "host" is this machine's time, "sim"
# the simulation's deterministic clock, "-" a count or a ratio of counts.
END_TO_END = {
    "setup_s": ("s", "host", "lower"),
    "wall_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
}
PER_LAYER = {
    # Workload results: every one but serve's repeats exactly per seed.
    "np": ("ratio", "sim", "lower"),
    "failover_ms": ("sim_ms", "sim", "lower"),
    "availability": ("ratio", "sim", "higher"),
    "slo_attainment": ("ratio", "sim", "higher"),
    "sim_p50_ms": ("sim_ms", "sim", "lower"),
    "sim_p999_ms": ("sim_ms", "sim", "lower"),
    "serve_p50_ms": ("ms", "host", "lower"),
    "serve_p90_ms": ("ms", "host", "lower"),
    "fail_rate": ("ratio", "-", "lower"),
    "machine.probe_mips": ("MIPS", "host", "higher"),
    "machine.host_ns_per_instr": ("ns", "host", "lower"),
    "machine.tcache_hit_ratio": ("ratio", "-", "higher"),
    "machine.instructions": ("count", "-", "lower"),
    "hypervisor.epochs": ("count", "-", "lower"),
    "hypervisor.privileged_simulated": ("count", "-", "lower"),
    "hypervisor.traps_reflected": ("count", "-", "lower"),
    "hypervisor.interrupts_delivered": ("count", "-", "lower"),
    "hypervisor.host_us_per_epoch": ("us", "host", "lower"),
    "core.messages_sent": ("count", "-", "lower"),
    "core.env_values": ("count", "-", "lower"),
    "core.ack_wait_ms": ("sim_ms", "sim", "lower"),
    "core.boundary_ms": ("sim_ms", "sim", "lower"),
    "core.resync_ms": ("sim_ms", "sim", "lower"),
    "core.resync_bytes": ("bytes", "-", "lower"),
    "net.wire_sends": ("count", "-", "lower"),
    "net.retransmits": ("count", "-", "lower"),
    "net.goodput_ratio": ("ratio", "-", "higher"),
    "net.codec_ns_per_msg": ("ns", "host", "lower"),
    "sim.runloop_s": ("s", "host", "lower"),
    "sim.collect_s": ("s", "host", "lower"),
    "sim.verify_s": ("s", "host", "lower"),
    "sim.slice_p99_ms": ("ms", "host", "lower"),
    "sim.event_ns": ("ns", "host", "lower"),
    "snapshot.capture_restore_ms": ("ms", "host", "lower"),
    "fleet.failovers": ("count", "-", "lower"),
    "fleet.repairs": ("count", "-", "lower"),
    "fleet.repair_queue_peak": ("count", "-", "lower"),
    "fleet.pool_round_us": ("us", "host", "lower"),
    "fleet.parallel_efficiency": ("ratio", "host", "higher"),
    "serve.epochs_per_req": ("1/req", "-", "lower"),
    "serve.acks_per_req": ("1/req", "-", "lower"),
    "serve.repl_bytes_per_req": ("bytes/req", "-", "lower"),
    "loadgen.late_ms": ("ms", "host", "lower"),
    "trace.overhead_pct": ("%", "host", "lower"),
}
PAPER_NP = {"cpu-epoch": 6.50}  # Table 1, original protocol, EL = 4K.


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(code, msg):
    log("perfbench: " + msg)
    sys.exit(code)


# --- build --------------------------------------------------------------------


def build():
    """Configures once, then brings .bench_build up to date. Exits non-zero,
    printing no result, when the source tree is missing or does not build."""
    for needed in ("src", "CMakeLists.txt", os.path.join("tools", "hbft_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(2, "no hbft source tree here (missing %s); run from a full checkout" % needed)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    tail = f.read()[-3000:]
                die(1, "build failed (%s); tail of %s:\n%s" % (" ".join(cmd), build_log, tail))
    if not (os.path.exists(DRIVER) and os.path.exists(CLI)):
        die(1, "build finished without %s and %s" % (DRIVER, CLI))


def host_context(seed):
    """What a result depends on besides the code: build, CPUs, engine, seed,
    and which source it measured."""
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep and ":" in key:
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = (cache.get("CMAKE_CXX_FLAGS", "") + " " +
             cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names]
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    commit = None
    try:
        # The ceiling keeps git from adopting a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "build_type": build_type,
        "cxx_flags": flags,
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "interpreter": "cached",
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# --- in-process workloads -----------------------------------------------------


def run_driver(workload, args, spans_path):
    cmd = [DRIVER, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if args.quick:
        cmd.append("--quick")
    if spans_path:
        cmd.append("--spans=" + spans_path)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, HBFT_INTERP="cached"), timeout=170)
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "metrics": {}, "info": {},
                "failures": ["driver exited %d" % proc.returncode]}
    return json.loads(lines[-1])


# --- serve-pair ---------------------------------------------------------------
#
# Two real `hbft_cli serve` processes (primary + backup, replication over a
# loopback socket) and one open-loop load generator: requests fall due at
# Poisson times over two connections, and each is timed from when it was due.

FRAME = struct.Struct("<BBQQI")  # src/serve/wire.hpp: type, flags, client_id, seq, len
REQUEST, RESPONSE = 1, 2
RATE = 5.0          # mean requests/s; well below the pair's 9-14 req/s saturation
CONNECTIONS = 2
PAYLOAD_BYTES = 48
DRAIN_S = 15.0      # how long to wait for stragglers after the last send
ALNUM = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class Conn:
    """One client connection speaking the serve wire protocol."""

    def __init__(self, port, client_id, deadline):
        self.client_id = client_id
        self.rx = b""
        while True:
            try:
                self.sock = socket.create_connection(("127.0.0.1", port), timeout=1.0)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)

    def send(self, seq, payload):
        body = FRAME.pack(REQUEST, 0, self.client_id, seq, len(payload)) + payload
        self.sock.setblocking(True)
        self.sock.sendall(struct.pack("<I", len(body)) + body)
        self.sock.setblocking(False)

    def receive(self):
        """Returns [(seq, payload)] for every complete response frame."""
        try:
            data = self.sock.recv(65536)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("the server closed a client connection")
        self.rx += data
        out = []
        while len(self.rx) >= 4:
            (n,) = struct.unpack("<I", self.rx[:4])
            if len(self.rx) < 4 + n:
                break
            body, self.rx = self.rx[4:4 + n], self.rx[4 + n:]
            ftype, _flags, cid, seq, plen = FRAME.unpack(body[:FRAME.size])
            payload = body[FRAME.size:]
            if ftype == RESPONSE and cid == self.client_id and len(payload) == plen:
                out.append((seq, payload))
        return out

    def close(self):
        self.sock.close()


class Pair:
    """A primary + backup `hbft_cli serve` pair on fresh loopback ports."""

    def __init__(self, seed):
        self.port, repl = free_port(), free_port()
        common = ["--port=%d" % self.port, "--repl-port=%d" % repl, "--seed=%d" % seed,
                  "--duration-ms=170000", "--json"]
        env = dict(os.environ, HBFT_INTERP="cached")
        self.procs = [(role, subprocess.Popen([CLI, "serve", "--role=" + role] + common,
                                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                              stderr=subprocess.PIPE, text=True))
                      for role in ("primary", "backup")]

    def peak_rss_mb(self):
        peak = 0.0
        for _, proc in self.procs:
            with open("/proc/%d/status" % proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def stop(self):
        """Stops the backup, then the primary (so neither promotes), and
        returns (reports by role, problems)."""
        reports, problems = {}, []
        for role, proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                problems.append("%s ignored SIGTERM" % role)
            try:
                reports[role] = json.loads(out)
            except ValueError:
                problems.append("%s printed no report (exit %s): %s" %
                                (role, proc.returncode, err[-300:]))
                continue
            if proc.returncode != 0 or not reports[role].get("completed"):
                problems.append("%s did not complete cleanly (exit %s)" % (role, proc.returncode))
        return reports, problems


def payload_for(rng, conn_index, seq):
    stem = b"c%d-s%d-" % (conn_index, seq)
    return stem + bytes(rng.choice(ALNUM) for _ in range(PAYLOAD_BYTES - len(stem)))


def load(conns, rng, count, spans=None, parent=None):
    """Open loop with Poisson arrivals: request k falls due an exponential gap
    (mean 1/RATE) after request k-1, on connection k % n. Random gaps keep the
    arrivals from locking to a phase of the servers' own pacing, which a fixed
    interval does (its p50 then depends on the start-up phase). Every response
    must echo its request byte for byte; a missing response or a duplicate
    (there is no failover to excuse a P7 replay) is a failure.
    Returns (latencies_s, lateness_s, failures)."""
    failures = []
    expect = {}  # (conn, seq) -> (payload, due)
    answered = set()
    latencies, lateness = [], []
    by_fd = {c.sock.fileno(): i for i, c in enumerate(conns)}
    dues, t = [], time.monotonic() + 0.01
    for _ in range(count):
        dues.append(t)
        t += rng.expovariate(RATE)
    k = 0
    while True:
        now = time.monotonic()
        while k < count and dues[k] <= now:
            i, seq = k % len(conns), k // len(conns) + 1
            due = dues[k]
            payload = payload_for(rng, i, seq)
            expect[(i, seq)] = (payload, due)
            conns[i].send(seq, payload)
            lateness.append(time.monotonic() - due)
            k += 1
        if k == count and (len(answered) == count or now > dues[-1] + DRAIN_S):
            break
        wait = min(0.05, max(0.0, dues[k] - now)) if k < count else 0.05
        ready, _, _ = select.select([c.sock for c in conns], [], [], wait)
        for sock in ready:
            i = by_fd[sock.fileno()]
            for seq, payload in conns[i].receive():
                t = time.monotonic()
                want = expect.get((i, seq))
                if (i, seq) in answered:
                    failures.append("duplicate response conn %d seq %d" % (i, seq))
                elif want is None:
                    failures.append("response to an unsent request conn %d seq %d" % (i, seq))
                else:
                    answered.add((i, seq))
                    if payload != want[0]:
                        failures.append("echo differs from request conn %d seq %d" % (i, seq))
                    latencies.append(t - want[1])
                    if spans is not None:
                        spans.append(("loadgen.request", want[1], t, parent))
    for key in sorted(set(expect) - answered):
        failures.append("no response for conn %d seq %d" % key)
    return latencies, lateness, failures


def percentile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def run_serve(args, spans_path):
    rng = random.Random(args.seed)
    spawns = 1 if args.quick else 9
    count = max(4, int(args.seconds * RATE))
    attempted, failures, setup = 0, [], []
    spans = [] if args.trace else None
    lat, late, tlat, peak, reports = [], [], [], 0.0, {}
    pair, conns = None, []
    try:
        # Set-up is spawn until the first warm-up response, measured several
        # times; the last pair carries the load.
        for n in range(spawns):
            t0 = time.monotonic()
            pair = Pair(args.seed)
            conns = [Conn(pair.port, (args.seed << 8) | (i + 1), t0 + 30)
                     for i in range(CONNECTIONS)]
            _, _, fails = load(conns[:1], rng, 1)
            setup.append(time.monotonic() - t0)
            attempted += 1
            failures += fails
            if spans is not None:
                spans.append(("serve.spawn_to_first_response", t0, t0 + setup[-1], None))
            if n + 1 < spawns:
                for c in conns:
                    c.close()
                conns = []
                _, problems = pair.stop()
                pair = None
                attempted += 1
                failures += problems
        _, _, fails = load(conns, rng, 4)  # Warm-up on both connections.
        attempted += 4
        failures += fails
        lat, late, fails = load(conns, rng, count)
        attempted += count
        failures += fails
        if args.trace:
            spans.append(("loadgen.pass", time.monotonic(), None, None))
            parent = len(spans) - 1
            tlat, _, fails = load(conns, rng, max(4, count // 2), spans, parent)
            spans[parent] = spans[parent][:2] + (time.monotonic(), None)
            attempted += max(4, count // 2)
            failures += fails
        peak = pair.peak_rss_mb()
    except (OSError, ConnectionError) as e:
        attempted += 1
        failures.append("serve-pair: %s" % e)
    finally:
        for c in conns:
            c.close()
        if pair is not None:
            reports, problems = pair.stop()
            attempted += 1
            failures += problems

    p50 = percentile(lat, 0.5) * 1e3
    metrics = {"setup_s": statistics.median(setup) if setup else 0.0,
               "wall_s": p50 / 1e3, "peak_rss_mb": peak,
               "serve_p50_ms": p50, "serve_p90_ms": percentile(lat, 0.9) * 1e3}
    if args.trace:
        primary = reports.get("primary", {})
        requests = max(1, primary.get("requests", 0))
        roles = [reports.get(role, {}) for role in ("primary", "backup")]
        # Each process reports the sending side of its outgoing channel and
        # the receiving side of its incoming one, so a sum over both counts
        # every channel once. Goodput counts the protocol channel only, as
        # ScenarioResult::TotalDeliveredBytes does.
        channels = [ch for report in roles for ch in report.get("channels", [])]
        protocol = [ch for ch in channels if ch["mode"] == "protocol"]
        wire = sum(ch["bytes_on_wire"] for ch in protocol)
        metrics.update({
            "hypervisor.epochs": sum(report.get("epochs", 0) for report in roles),
            "core.messages_sent": sum(report.get("messages_sent", 0) for report in roles),
            "net.wire_sends": sum(ch["wire_sends"] for ch in channels),
            "net.retransmits": sum(ch["retransmits"] for ch in channels),
            "net.goodput_ratio": sum(ch["bytes_delivered"] for ch in protocol) / wire if wire else 0.0,
            "serve.epochs_per_req": primary.get("epochs", 0) / requests,
            "serve.acks_per_req": primary.get("acks_received", 0) / requests,
            "serve.repl_bytes_per_req": primary.get("repl_bytes_out", 0) / requests,
            "loadgen.late_ms": percentile(late, 0.9) * 1e3,
            "trace.overhead_pct": (percentile(tlat, 0.5) * 1e3 - p50) / p50 * 100.0 if p50 else 0.0,
        })
        probes = run_driver("probes", args, spans_path + ".probes.json")
        attempted += probes["attempted"]
        failures += probes["failures"]
        metrics.update(probes["metrics"])
        origin = min(s[1] for s in spans) if spans else 0.0
        run_id = "serve-pair-seed%d" % args.seed
        with open(spans_path, "w") as f:
            json.dump({"run_id": run_id, "clock": "host_ns", "spans": [
                {"id": i, "parent": -1 if p is None else p, "name": name,
                 "start_ns": int((a - origin) * 1e9), "end_ns": int((b - origin) * 1e9),
                 "run": run_id}
                for i, (name, a, b, p) in enumerate(spans)]}, f)
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "metrics": metrics, "info": {"responses": len(lat)}}


# --- one benchmark run --------------------------------------------------------


def run(args):
    build()
    context = host_context(args.seed)
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        spans_path = os.path.join(BUILD, "spans", "%s-seed%d.json" % (args.workload, args.seed))
    if args.workload == "serve-pair":
        result = run_serve(args, spans_path)
    else:
        result = run_driver(args.workload, args, spans_path)

    measured = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    measured["fail_rate"] = failed / attempted
    catalogue = PER_LAYER if args.trace else END_TO_END
    # A layer the workload does not exercise reads 0 (listed below the table).
    reported = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
                for name, (unit, _, _) in catalogue.items()}

    print("perfbench: workload=%s seed=%d seconds=%s trace=%d%s" %
          (args.workload, args.seed, args.seconds, args.trace, " (quick)" if args.quick else ""))
    print("context: " + json.dumps(context, sort_keys=True))
    for name, (unit, clock, better) in dict(END_TO_END, **PER_LAYER).items():
        if name in measured:
            paper = ("  (paper: %.2f)" % PAPER_NP[args.workload]
                     if name == "np" and args.workload in PAPER_NP else "")
            print("  %-34s %14.6g %-9s %-4s %s is better%s" %
                  (name, measured[name], unit, clock, better, paper))
    idle = [name for name in catalogue if name not in measured]
    if idle:
        print("  not exercised by %s (reported as 0): %s" % (args.workload, ", ".join(idle)))
    for failure in result["failures"]:
        print("  CHECK FAILED: " + failure)
    if result["info"]:
        print("info: " + json.dumps(result["info"], sort_keys=True))
    if spans_path:
        print("spans: " + os.path.relpath(spans_path, ROOT))
    print("checks: attempted=%d failed=%d" % (attempted, failed))
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


# --- self-test ----------------------------------------------------------------


def self_test():
    """Runs every workload at tiny sizes — untraced on the default and the
    held-out seed, traced on the default seed — and asserts that each run
    passes its checks and prints exactly the metrics BENCHMARK.json names,
    with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
        if want[trace] != {k: v[0] for k, v in catalogue.items()}:
            problems.append("BENCHMARK.json and run.py disagree on the trace=%d metrics" % trace)
    for workload in WORKLOADS:
        for seed, trace in ((DEFAULT_SEED, 0), (HELD_OUT_SEED, 0), (DEFAULT_SEED, 1)):
            label = "%s seed=%d trace=%d" % (workload, seed, trace)
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
                 str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=175)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (ValueError, IndexError):
                problems.append("%s: no result line (exit %d)\n%s" %
                                (label, proc.returncode, proc.stderr[-2000:]))
                continue
            if proc.returncode != 0 or sorted(result) != ["attempted", "correct", "failed",
                                                          "metrics"]:
                problems.append("%s: exit %d, result keys %s" %
                                (label, proc.returncode, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: checks failed\n%s" % (label, proc.stdout[-2000:]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics or units differ from BENCHMARK.json: %s" %
                                (label, sorted(set(got.items()) ^ set(want[trace].items()))))
            for name in want[trace]:
                if trace == 0 and not result["metrics"].get(name, {}).get("value"):
                    problems.append("%s: end-to-end metric %s is zero" % (label, name))
            printed = "\n".join(lines[:-1])
            for name in result["metrics"]:
                if trace == 0 and (" %s " % name) not in printed:
                    problems.append("%s: %s missing from the printed table" % (label, name))
            print("self-test: %-42s correct=%s (%.1f s)" %
                  (label, result["correct"], time.monotonic() - t0), flush=True)
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test: " + ("PASS" if not problems else "FAIL (%d problems)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (the self-test's mode; numbers are not comparable)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny sizes and check the output contract")
    args = parser.parse_args()
    if args.self_test:
        build()
        return self_test()
    if args.workload is None:
        parser.error("--workload is required (or --self-test)")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
