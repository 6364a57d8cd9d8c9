#!/usr/bin/env python3
"""Diff regenerated bench artifacts against the committed baselines.

The simulation is deterministic, so every artifact except fig6 and fig8
must match byte-for-byte: any diff is a genuine behavior change — either
fix it or consciously re-baseline. fig6_throughput.json and
fig8_parallel.json mix deterministic simulated results (instruction counts,
checksums, availability, fingerprints) with host-dependent measurements
(host_ms, mips, wall_ms, speedup, host_cpus) that vary run to run and
machine to machine; those volatile keys are stripped before comparing. On
top of the diff the regenerated artifacts must clear sanity checks: fig6's
cached dispatch has to beat slow dispatch by a floor, fig7's rows must be
internally coherent (availability <= 1.0, p50 <= p99 <= p999), and fig8's
rows must carry identical deterministic results at every thread count —
plus, when the regenerating machine actually has >= 4 CPUs, a >= 2x
wall-clock speedup at 4 threads on the large case (on fewer CPUs the floor
is skipped with a loud warning, because parallel speedup is unmeasurable
there, but the determinism identity is enforced everywhere).

usage: diff_bench.py <baseline_dir> <regenerated_dir>
                     [--speedup-floor=X] [--only=NAME]

--only=NAME restricts the diff to one artifact (e.g. --only=fig7_fleet.json
or a unique prefix like --only=fig8), pairing with `hbft_cli bench
--only=...` for a fast regenerate-one/diff-one dev loop.
"""

import difflib
import json
import sys
from pathlib import Path

VOLATILE_KEYS = {"host_ms", "mips", "wall_ms", "speedup", "host_cpus"}
DEFAULT_SPEEDUP_FLOOR = 2.0

# Artifacts that carry host-dependent fields and get the strip-then-diff
# treatment instead of the plain byte comparison.
VOLATILE_ARTIFACTS = {
    "fig6_throughput.json",
    "fig8_parallel.json",
}

# Deterministic per-row fields of fig8 that must be identical across thread
# counts within a case — the headline guarantee of the parallel fleet.
FIG8_DETERMINISTIC_KEYS = (
    "fingerprint", "availability", "requests_total", "requests_served",
    "failovers", "repairs",
)


def strip_volatile(doc):
    """Remove host-clock fields from every row of a bench document."""
    out = dict(doc)
    out["rows"] = [
        {k: v for k, v in row.items() if k not in VOLATILE_KEYS}
        for row in doc.get("rows", [])
    ]
    return out


def render(doc):
    return json.dumps(doc, indent=2, sort_keys=True).splitlines(keepends=True)


def show_diff(name, baseline_lines, regen_lines):
    sys.stdout.writelines(
        difflib.unified_diff(
            baseline_lines, regen_lines,
            fromfile=f"bench/{name} (committed)",
            tofile=f"regen/{name}",
        )
    )


def check_fig6_speedup(doc, floor):
    """The regenerated cached rows must beat slow dispatch by `floor`."""
    ok = True
    for row in doc.get("rows", []):
        if row.get("mode") != "cached" or row.get("workload") != "cpu-kernel":
            continue
        speedup = row.get("speedup")
        if speedup is None or speedup < floor:
            print(
                f"fig6: cpu-kernel cached speedup {speedup} is below the "
                f"{floor}x floor — cached dispatch is not paying off",
                file=sys.stderr,
            )
            ok = False
    return ok


def check_fig7_sanity(doc):
    """Every fleet row must be internally coherent, baseline or not."""
    ok = True
    for row in doc.get("rows", []):
        tag = f"fig7 row (hosts_failed={row.get('hosts_failed')})"
        avail = row.get("availability")
        if avail is None or not (0.0 <= avail <= 1.0):
            print(f"{tag}: availability {avail} outside [0, 1]", file=sys.stderr)
            ok = False
        p50, p99, p999 = (row.get(k) for k in ("p50_ms", "p99_ms", "p999_ms"))
        if None in (p50, p99, p999) or not (p50 <= p99 <= p999):
            print(
                f"{tag}: percentiles not monotone (p50={p50}, p99={p99}, "
                f"p999={p999})",
                file=sys.stderr,
            )
            ok = False
        served, total = row.get("requests_served"), row.get("requests_total")
        if served is None or total is None or served > total:
            print(f"{tag}: served {served} exceeds total {total}", file=sys.stderr)
            ok = False
    return ok


def check_fig8_parallel(doc, floor):
    """Cross-thread determinism identity, plus the scaling floor when the
    regenerating host has enough CPUs to make the measurement meaningful."""
    ok = True
    by_case = {}
    for row in doc.get("rows", []):
        by_case.setdefault(row.get("case"), []).append(row)
    for case, rows in sorted(by_case.items()):
        serial = [r for r in rows if r.get("threads") == 1]
        if len(serial) != 1:
            print(f"fig8 case {case}: expected exactly one threads=1 row, "
                  f"got {len(serial)}", file=sys.stderr)
            ok = False
            continue
        base = serial[0]
        for row in rows:
            for key in FIG8_DETERMINISTIC_KEYS:
                if row.get(key) != base.get(key):
                    print(
                        f"fig8 case {case}: threads={row.get('threads')} "
                        f"{key} {row.get(key)} diverges from the serial "
                        f"run's {base.get(key)} — parallel rounds changed "
                        f"a deterministic result",
                        file=sys.stderr,
                    )
                    ok = False
    floor_rows = [r for r in doc.get("rows", [])
                  if r.get("case") == "large" and r.get("threads") == 4]
    if not floor_rows:
        print("fig8: no large/threads=4 row to hold the speedup floor "
              "against", file=sys.stderr)
        ok = False
    for row in floor_rows:
        cpus = row.get("host_cpus") or 0
        if cpus < 4:
            print(
                f"fig8: WARNING — regenerating host has only {cpus} CPU(s); "
                f"skipping the {floor}x speedup floor (determinism identity "
                f"was still enforced). Re-run on a >= 4 CPU machine to "
                f"measure scaling.",
                file=sys.stderr,
            )
            continue
        speedup = row.get("speedup")
        if speedup is None or speedup < floor:
            print(
                f"fig8: large-case speedup at 4 threads is {speedup}, below "
                f"the {floor}x floor on a {cpus}-CPU host — parallel rounds "
                f"are not paying off",
                file=sys.stderr,
            )
            ok = False
    return ok


def main(argv):
    floor = DEFAULT_SPEEDUP_FLOOR
    only = None
    dirs = []
    for arg in argv[1:]:
        if arg.startswith("--speedup-floor="):
            floor = float(arg.split("=", 1)[1])
        elif arg.startswith("--only="):
            only = arg.split("=", 1)[1]
        else:
            dirs.append(Path(arg))
    if len(dirs) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_dir, regen_dir = dirs

    status = 0
    baselines = sorted(baseline_dir.glob("*.json"))
    if only is not None:
        # Exact name (with or without .json) wins; otherwise any unique-enough
        # prefix works, mirroring `hbft_cli bench --only=...`.
        exact = [b for b in baselines
                 if b.name == only or b.name == f"{only}.json"]
        baselines = exact or [b for b in baselines if b.name.startswith(only)]
        if not baselines:
            print(f"no baseline matching {only} under {baseline_dir}", file=sys.stderr)
            return 2
    if not baselines:
        print(f"no baseline artifacts under {baseline_dir}", file=sys.stderr)
        return 2
    for baseline in baselines:
        name = baseline.name
        regen = regen_dir / name
        if not regen.exists():
            print(f"missing regenerated artifact: {regen}", file=sys.stderr)
            status = 1
            continue
        regen_doc = json.loads(regen.read_text())
        if name in VOLATILE_ARTIFACTS:
            base_doc = json.loads(baseline.read_text())
            if strip_volatile(base_doc) != strip_volatile(regen_doc):
                print(f"bench baseline drift in {name} (deterministic fields):")
                show_diff(name, render(strip_volatile(base_doc)),
                          render(strip_volatile(regen_doc)))
                status = 1
        else:
            base_text = baseline.read_text()
            regen_text = regen.read_text()
            if base_text != regen_text:
                print(f"bench baseline drift in {name}:")
                show_diff(name, base_text.splitlines(keepends=True),
                          regen_text.splitlines(keepends=True))
                status = 1
        if name == "fig6_throughput.json" and not check_fig6_speedup(regen_doc, floor):
            status = 1
        if name == "fig7_fleet.json" and not check_fig7_sanity(regen_doc):
            status = 1
        if name == "fig8_parallel.json" and not check_fig8_parallel(regen_doc, floor):
            status = 1
    if status == 0:
        print(f"{len(baselines)} bench artifact(s) match the committed baselines")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
