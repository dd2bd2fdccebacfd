#!/usr/bin/env python3
"""Self-checks of the benchmark itself. Run from the repository root:

    python3 perfbench/selfcheck.py

Checks, on short runs (about three minutes in all):
  - the output digest is stable across two runs of the same seed;
  - every workload's first-pass digest matches its pin for the default seed;
  - markers_sharded's digest equals markers's digest;
  - a traced run is correct: traced outputs equal untraced ones, no span
    was dropped and the layer shares sum to at most 1;
  - BENCHMARK.json names exactly the metrics run.py reports.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import layers  # noqa: E402

FAILED = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILED.append(what)


def run(workload, seed, trace=0, seconds="0.1"):
    """One run; an untraced run of 0.1 s makes a single pass."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("run.py failed:\n" + out.stderr)
    lines = out.stdout.strip().splitlines()
    digest = re.search(r"digest (\w+)", "\n".join(lines)).group(1)
    return digest, json.loads(lines[-1])


def main():
    seed = layers.DEFAULT_SEED
    digests = {}
    for w in ("simpoint", "reconfig", "markers", "markers_sharded"):
        digests[w], res = run(w, seed)
        check(res["correct"] and res["failed"] == 0,
              "%s seed %d: every item passes its checks" % (w, seed))
        check(digests[w] == layers.pinned_digest(w, seed),
              "%s seed %d: digest %s matches the pin" % (w, seed, digests[w]))
    again, _ = run("markers", seed)
    check(again == digests["markers"], "markers digest stable across two runs")
    check(digests["markers_sharded"] == digests["markers"],
          "markers_sharded digest equals markers digest")

    _, traced = run("markers_sharded", seed, trace=1, seconds="2")
    m = traced["metrics"]
    shares = sum(v["value"] for k, v in m.items()
                 if k.startswith("share.") and k != "share.unattributed")
    check(traced["correct"], "traced run correct (traced digest == untraced)")
    check(m["trace.dropped_spans"]["value"] == 0, "no span dropped")
    check(shares <= 1.0 + 1e-9, "layer shares sum to %.4f <= 1" % shares)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    _, untraced = run("markers", seed)
    check([e["name"] for e in bench["end_to_end"]] ==
          list(untraced["metrics"]), "BENCHMARK.json end_to_end names")
    check([e["name"] for e in bench["per_layer"]] == list(m),
          "BENCHMARK.json per_layer names")
    if FAILED:
        sys.exit("%d self-check(s) failed" % len(FAILED))


if __name__ == "__main__":
    main()
