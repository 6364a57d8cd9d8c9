#!/usr/bin/env python3
"""Integration test for `hbft_cli serve`: real sockets, real processes.

Usage: serve_integration_test.py <path-to-hbft_cli>

Four phases:
  1. Single-process serve: a client commits writes through the full
     simulated chain and every echo matches.
  2. Single-process failover (--fail=time-ms=...): the primary replica is
     killed in-simulation mid-traffic; the backup promotes and the session
     report says so, for the session and for each replica; the client loses
     nothing.
  3. Solo primary: a --role=primary whose backup never comes serves as a
     chain of one, with no failover, no protocol messages and no channels.
  4. Multi-process: --role=primary and --role=backup processes joined by a
     real TCP replication link. The primary is SIGKILLed mid-traffic; the
     backup detects the dead socket, promotes via the failure detector,
     rebinds the client port, and the client finishes with zero lost
     acknowledged writes.

The test is its own client (tools/serve_client.py is imported), so the
acknowledged-write ledger lives in-process and the assertions are exact.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))
from serve_client import ServeClient  # noqa: E402


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def wait_listening(port, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
            return True
        except OSError:
            time.sleep(0.1)
    return False


def finish(proc, timeout_s, name):
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        fail("%s did not exit in %ss; stderr:\n%s" % (name, timeout_s, err))
    return out, err


def parse_report(out, err, name):
    try:
        return json.loads(out)
    except ValueError:
        fail("%s produced unparseable JSON: %r\nstderr:\n%s" % (name, out[:500], err))


def phase_single(cli):
    port = free_port()
    server = subprocess.Popen(
        [cli, "serve", "--port=%d" % port, "--duration-ms=30000", "--max-requests=20", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(wait_listening(port, 10), "single: server never listened")

    client = ServeClient("127.0.0.1", port, client_id=101)
    ok = client.run(20, 25.0, window=4)
    client.close()
    s = client.summary()
    check(ok, "single: client only got %d/20 acks" % s["acked"])
    check(s["mismatches"] == 0, "single: %d echo mismatches" % s["mismatches"])

    out, err = finish(server, 30, "single server")
    report = parse_report(out, err, "single server")
    check(report["completed"], "single: report not completed: %s" % report)
    check(report["stop_reason"] == "max-requests",
          "single: stop_reason %s" % report["stop_reason"])
    check(report["requests"] >= 20, "single: report requests %d" % report["requests"])
    check(report["responses"] >= 20, "single: report responses %d" % report["responses"])
    check(report["role"] == "single", "single: role %s" % report["role"])
    print("phase 1 (single-process): OK —", s)


def phase_single_failover(cli):
    port = free_port()
    server = subprocess.Popen(
        # The failure must land before the request stream can complete (40
        # requests take >2 s of sim time), or the server stops at
        # --max-requests with failovers=0. Early is safe: a failover before
        # the first request just means the promoted backup serves them all.
        [cli, "serve", "--port=%d" % port, "--duration-ms=60000", "--max-requests=40",
         "--fail=time-ms=400", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(wait_listening(port, 10), "single-failover: server never listened")

    client = ServeClient("127.0.0.1", port, client_id=102)
    ok = client.run(40, 50.0, window=4)
    client.close()
    s = client.summary()
    check(ok, "single-failover: client only got %d/40 acks" % s["acked"])
    check(s["mismatches"] == 0, "single-failover: %d echo mismatches" % s["mismatches"])

    out, err = finish(server, 30, "single-failover server")
    report = parse_report(out, err, "single-failover server")
    check(report["completed"], "single-failover: not completed: %s" % report)
    check(report["failovers"] == 1, "single-failover: failovers %d" % report["failovers"])
    check(report["promoted"], "single-failover: backup never promoted")
    check(report["promotion_latency_ms"] > 0,
          "single-failover: promotion_latency_ms %s" % report["promotion_latency_ms"])
    # The top-level counters are chain position 0's; every replica's are in
    # replication.nodes, the promoted backup's takeover latency included.
    nodes = report["replication"]["nodes"]
    check([n["promoted"] for n in nodes] == [False, True],
          "single-failover: promoted per node %s" % [n["promoted"] for n in nodes])
    check(nodes[1]["promotion_latency_ms"] == report["promotion_latency_ms"],
          "single-failover: node 1 promotion_latency_ms %s" % nodes[1]["promotion_latency_ms"])
    check(report["epochs"] == nodes[0]["epochs"],
          "single-failover: top-level epochs %d, node 0's %d" %
          (report["epochs"], nodes[0]["epochs"]))
    print("phase 2 (in-process failover): OK —", s)


def phase_solo_primary(cli):
    primary = subprocess.Popen(
        [cli, "serve", "--role=primary", "--port=%d" % free_port(),
         "--repl-port=%d" % free_port(), "--backup-wait-ms=100", "--duration-ms=300", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = finish(primary, 30, "solo primary")
    check(primary.returncode == 0, "solo: primary exited %d:\n%s" % (primary.returncode, err))
    report = parse_report(out, err, "solo primary")
    check(report["stop_reason"] == "duration", "solo: stop_reason %s" % report["stop_reason"])
    check(report["solo"], "solo: report not solo")
    check(report["failovers"] == 0, "solo: failovers %d" % report["failovers"])
    check(report["messages_sent"] == 0, "solo: messages_sent %d" % report["messages_sent"])
    check(report["channels"] == [], "solo: channels %s" % report["channels"])
    check(report["replication"]["replicas"] == 1,
          "solo: replicas %d" % report["replication"]["replicas"])
    print("phase 3 (solo primary): OK")


def phase_multiprocess_kill9(cli):
    port = free_port()
    repl_port = free_port()
    common = ["--port=%d" % port, "--repl-port=%d" % repl_port,
              "--duration-ms=120000", "--json"]
    primary = subprocess.Popen([cli, "serve", "--role=primary"] + common,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    backup = subprocess.Popen([cli, "serve", "--role=backup"] + common,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(wait_listening(port, 15), "multi: primary never listened")

    # Kill the primary — the REAL process, with SIGKILL — once 10 writes
    # have been acknowledged, so the failure lands mid-traffic.
    state = {"killed": False}

    def maybe_kill(c):
        if not state["killed"] and len(c.acked) >= 10:
            state["killed"] = True
            os.kill(primary.pid, signal.SIGKILL)
            print("killed primary (pid %d) after %d acks" % (primary.pid, len(c.acked)))

    client = ServeClient("127.0.0.1", port, client_id=103)
    ok = client.run(50, 90.0, window=4, on_progress=maybe_kill)
    client.close()
    s = client.summary()
    check(state["killed"], "multi: kill hook never fired (only %d acks)" % s["acked"])
    check(ok, "multi: client only got %d/50 acks after the kill" % s["acked"])
    check(s["mismatches"] == 0, "multi: %d echo mismatches" % s["mismatches"])
    check(s["reconnects"] >= 1, "multi: client finished without reconnecting?")

    primary.wait(timeout=10)
    backup.send_signal(signal.SIGTERM)
    out, err = finish(backup, 30, "backup")
    check(backup.returncode == 0, "multi: backup exited %d:\n%s" % (backup.returncode, err))
    report = parse_report(out, err, "backup")
    check(report["promoted"], "multi: backup report says not promoted:\n%s" % err)
    check(report["failovers"] == 1, "multi: failovers %d" % report["failovers"])
    check(report["promotion_latency_ms"] > 0,
          "multi: promotion_latency_ms %s" % report["promotion_latency_ms"])
    check(report["requests"] > 0, "multi: promoted backup served no requests")
    check(report["stop_reason"] == "signal", "multi: stop_reason %s" % report["stop_reason"])
    check("promoted" in err, "multi: no promotion note on backup stderr:\n%s" % err)
    nodes = report["replication"]["nodes"]
    check(len(nodes) == 1 and nodes[0]["promoted"],
          "multi: backup's hosted replica %s" % nodes)
    print("phase 4 (kill -9 failover): OK —", s,
          "promotion_latency_ms=%.1f" % report["promotion_latency_ms"])


def main():
    if len(sys.argv) != 2:
        fail("usage: serve_integration_test.py <hbft_cli>")
    cli = sys.argv[1]
    phase_single(cli)
    phase_single_failover(cli)
    phase_solo_primary(cli)
    phase_multiprocess_kill9(cli)
    print("serve_integration_test: all phases passed")


if __name__ == "__main__":
    main()
