#!/usr/bin/env python3
"""End-to-end benchmark of the SPM library: one command, four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload simpoint --seed 1 --seconds 20 --trace 0

It configures and builds perfbench/ (the library from src/ plus the C++
runner) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, runs the workload closed-loop, checks every item's output,
and prints each metric by name with its unit. An untraced run makes a fixed
number of passes over the workload's items, derived from --seconds alone, so
every build given the same arguments does the same work on the same inputs.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import layers  # noqa: E402  (perfbench/layers.py)

WORKLOADS = ("simpoint", "reconfig", "markers", "markers_sharded")
# Nominal seconds of one untraced pass over each workload's items, set-up
# samples and per-pass reference runs included (4-CPU 2.1 GHz Xeon). An
# untraced run makes ceil(--seconds / nominal) passes: a fixed amount of
# work that takes about --seconds, rounded up to whole passes, on that host.
PASS_SECONDS = {"simpoint": 9.0, "reconfig": 6.5, "markers": 2.4,
                "markers_sharded": 5.9}
# Every run must end within this many seconds of the build finishing.
RUN_DEADLINE_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the runner; returns its path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))
    return os.path.join(build_dir, "perfbench")


def source_digest(root):
    """SHA-256 over the library and benchmark sources, for provenance."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def tail_latency(lat):
    """Latency at the highest percentile with at least ten runs beyond it.

    Returns (value, percentile, runs); lat must be sorted, len(lat) > 10.
    """
    idx = len(lat) - 11
    return lat[idx], 100.0 * (idx + 1) / len(lat), len(lat)


def end_to_end(res):
    # Every item run of every pass counts. Wall time spent between items
    # (set-up samples, the run-length and unsharded reference runs of each
    # pass) is the benchmark's own and is left out of the throughput.
    lat = sorted(it["latency_s"] for it in res["items"])
    busy = sum(lat)
    tail, pct, n = tail_latency(lat)
    metrics = {
        "items_per_s": (n / busy, "items/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "items_per_s": "%d item runs / %.3f s spent in them" % (n, busy),
        "item_p50_ms": "median of %d item runs" % n,
        "item_tail_ms": "p%.1f of %d item runs, 10 beyond" % (pct, n),
        "setup_s": "median of %d set-ups" % len(res["setup_s"]),
    }
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=layers.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    passes = max(1, math.ceil(args.seconds / PASS_SECONDS[args.workload]))

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "bench/BenchUtil.h",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("run from the repository root: %s not found" % need, 2)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(root, os.path.abspath(build_dir))
    start = time.monotonic()

    out_dir = os.path.join(os.path.abspath(build_dir), "out",
                           "%s-%d" % (args.workload, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    for name in ("result.json", "trace.json", "metrics.jsonl"):
        if os.path.exists(os.path.join(out_dir, name)):
            os.remove(os.path.join(out_dir, name))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(passes), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", out_dir,
           "--commit", git_commit(root), "--source-digest", source_digest(root)]
    budget = RUN_DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %.0f s" % budget)
    if proc.returncode != 0:
        fail("runner exited with code %d" % proc.returncode)
    with open(os.path.join(out_dir, "result.json")) as f:
        res = json.load(f)

    items = res["items"]
    attempted = len(items)
    failed = sum(1 for it in items if it["failures"])
    problems = ["%s: %s" % (it["name"], "; ".join(it["failures"]))
                for it in items if it["failures"]]

    pinned = layers.pinned_digest(args.workload, args.seed)
    if pinned and res["digest"] not in ("incomplete", pinned):
        problems.append("run digest %s != pinned %s for seed %d"
                        % (res["digest"], pinned, args.seed))

    prov = res["provenance"]
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("workload %s seed %d: %d items (%d per pass, %d full passes) in "
          "%.2f s, digest %s%s" % (
              args.workload, args.seed, attempted, res["items_per_pass"],
              res["full_passes"], res["elapsed_s"], res["digest"],
              " (pinned)" if pinned == res["digest"] else ""))

    if args.trace == 0:
        metrics, notes = end_to_end(res)
        # Printed beside the JSON-line metrics; see README.md.
        info = {"fail_frac": (failed / attempted, "ratio"),
                "items_per_s_wall": (attempted / res["elapsed_s"], "items/s")}
        if args.workload == "simpoint":
            info["cpi_error_pct"] = (
                100.0 * statistics.mean(res["cpi_errors"]), "%")
        if args.workload == "reconfig":
            info["avg_cache_kb"] = (statistics.mean(res["cache_kb"]), "KB")
        for name, (value, unit) in list(metrics.items()) + list(info.items()):
            note = notes.get(name)
            print("%-16s %14.6f %-8s%s" % (name, value, unit,
                                          "  " + note if note else ""))
    else:
        metrics, table, layer_problems = layers.per_layer(
            res, os.path.join(out_dir, "trace.json"), failed / attempted)
        problems += layer_problems
        print(table)
        for name, (value, unit) in metrics.items():
            print("%-34s %18.6f %s" % (name, value, unit))
        print("trace exports: %s, %s" % (
            os.path.join(out_dir, "trace.json"),
            os.path.join(out_dir, "metrics.jsonl")))

    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
