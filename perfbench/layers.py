"""Per-layer metrics of a traced perfbench run.

The runner's traced run (--trace 1) leaves three things in its output
directory: result.json (item latencies, work counts, replay timings and
registry counter deltas), trace.json (the library's Chrome-trace export:
benchmark spans "bench/<layer>.<call>" around every public call, the
library's own spans inside them, and one "item#<n> ..." span per traced
item) and metrics.jsonl. This module turns them into the per-layer metrics
and the layer-share table.

Self time is a span's duration minus the part its child spans cover. A
library span inherits the layer of the benchmark span around it, except
simpoint.kmeans (layer simpoint) and shard.* (layer shard). Replays the
runner timed after each item then move time between layers: the interpreter
running with a null observer moves to vm, the PerfModel-only replay to uarch,
the MultiCacheProbe replay of the recorded address stream to uarch.
"""

import json
import os
import statistics

DEFAULT_SEED = 1

LAYERS = ("ir", "vm", "callloop", "markers", "phase", "simpoint", "uarch",
          "adaptcache", "reuse", "shard", "support")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("ir.lower_s", "s"),
    ("ir.loop_index_s", "s"),
    ("vm.null_run_s", "s"),
    ("vm.instrs", "count"),
    ("vm.mem_accesses", "count"),
    ("vm.minstr_per_s", "Minstr/s"),
    ("callloop.profile_s", "s"),
    ("callloop.profile_self_s", "s"),
    ("callloop.edges", "count"),
    ("callloop.profile_io_s", "s"),
    ("markers.select_s", "s"),
    ("markers.candidates", "count"),
    ("markers.selected", "count"),
    ("markers.vli_run_s", "s"),
    ("markers.fixed_run_s", "s"),
    ("markers.intervals", "count"),
    ("markers.fired", "count"),
    ("markers.serialize_io_s", "s"),
    ("phase.classify_s", "s"),
    ("simpoint.runsimpoint_s", "s"),
    ("simpoint.kmeans_s", "s"),
    ("simpoint.other_self_s", "s"),
    ("simpoint.project_s", "s"),
    ("simpoint.estimate_s", "s"),
    ("simpoint.points", "count"),
    ("simpoint.k_chosen", "count"),
    ("simpoint.restarts", "count"),
    ("simpoint.kmeans_iters_p50", "count"),
    ("simpoint.cpi_error_pct", "%"),
    ("uarch.probe_replay_s", "s"),
    ("uarch.probe_accesses", "count"),
    ("uarch.probe_ns_per_access", "ns"),
    ("uarch.perfmodel_self_s", "s"),
    ("adaptcache.markers_policy_s", "s"),
    ("adaptcache.reuse_policy_s", "s"),
    ("adaptcache.oracle_policy_s", "s"),
    ("adaptcache.best_fixed_s", "s"),
    ("adaptcache.intervals", "count"),
    ("adaptcache.explorations", "count"),
    ("adaptcache.avg_cache_kb", "KB"),
    ("reuse.profile_s", "s"),
    ("reuse.distance_replay_s", "s"),
    ("reuse.ns_per_access", "ns"),
    ("reuse.markers", "count"),
    ("shard.plan_s", "s"),
    ("shard.leg_max_s", "s"),
    ("shard.leg_sum_s", "s"),
    ("shard.serial_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.speedup", "ratio"),
    ("shard.retries", "count"),
    ("support.pool_tasks", "count"),
] + [("share.%s" % layer, "ratio") for layer in LAYERS] + [
    ("share.unattributed", "ratio"),
    ("trace.items", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_spans", "count"),
    ("trace.dropped_phase_events", "count"),
    ("check.fail_frac", "ratio"),
]


def pinned_digest(workload, seed):
    """The pinned first-pass output digest of workload at seed, or None.

    digests.json pins the default seed and the held-out seed.
    """
    with open(os.path.join(os.path.dirname(__file__), "digests.json")) as f:
        pins = json.load(f)
    return pins["digests"].get(str(seed), {}).get(workload)


class Span:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.end = start
        self.children = []

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.dur - sum(c.dur for c in self.children)


def read_spans(trace_path):
    """Span trees per thread id from a Chrome trace (seconds)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    roots, stacks = {}, {}
    for ev in events:
        if ev.get("ph") not in ("B", "E"):
            continue
        tid = ev["tid"]
        stack = stacks.setdefault(tid, [])
        ts = ev["ts"] * 1e-6
        if ev["ph"] == "B":
            span = Span(ev["name"], ts)
            (stack[-1].children if stack else roots.setdefault(tid, [])).append(
                span)
            stack.append(span)
        else:
            stack.pop().end = ts
    return roots


def own_layer(name):
    if name.startswith("bench/"):
        return name[len("bench/"):].split(".", 1)[0]
    if name == "simpoint.kmeans":
        return "simpoint"
    if name.startswith("shard."):
        return "shard"
    return None


def walk(span):
    yield span
    for c in span.children:
        yield from walk(c)


def per_layer(res, trace_path, fail_frac):
    """Returns (metrics, table text, failed self-checks)."""
    problems = []
    roots = read_spans(trace_path)
    items = []  # (item number, item span)
    for spans in roots.values():
        for s in spans:
            if s.name.startswith("item#"):
                items.append((int(s.name[5:].split(" ", 1)[0]), s))

    # Attribute main-thread self time: each benchmark span owns its own
    # self time plus that of descendants without a layer of their own.
    span_time = {}  # (item, benchmark span name) -> attributed seconds
    layer_time = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    span_sum = {}  # benchmark span name -> summed duration
    kmeans_in_runsimpoint = 0.0

    def visit(num, span, layer, owner, path):
        nonlocal unattributed, kmeans_in_runsimpoint
        own = own_layer(span.name)
        if own is not None:
            layer = own
            owner = span.name
        if span.name.startswith("bench/"):
            span_sum[span.name] = span_sum.get(span.name, 0.0) + span.dur
        if (span.name == "simpoint.kmeans" and
                "bench/simpoint.runSimPoint" in path):
            kmeans_in_runsimpoint += span.dur
        st = max(0.0, span.self_time)
        if layer is None:
            unattributed += st
        else:
            layer_time[layer] += st
            key = (num, owner)
            span_time[key] = span_time.get(key, 0.0) + st
        for c in span.children:
            visit(num, c, layer, owner, path + (span.name,))

    for num, item in items:
        visit(num, item, None, None, ())

    # Replay moves: out of the benchmark span's attributed time, into the
    # target layer, never more than the span had.
    for mv in res["moves"]:
        key = (mv["item"], mv["span"])
        have = span_time.get(key, 0.0)
        moved = min(have, mv["seconds"])
        span_time[key] = have - moved
        layer_time[own_layer(mv["span"])] -= moved
        layer_time[mv["layer"]] += moved

    total = sum(s.dur for _, s in items)
    shares = {layer: (layer_time[layer] / total if total else 0.0)
              for layer in LAYERS}
    share_unattr = unattributed / total if total else 0.0
    if sum(shares.values()) > 1.0 + 1e-9:
        problems.append("layer shares sum to %.6f > 1" % sum(shares.values()))

    def spans(*names):
        return sum(span_sum.get("bench/" + n, 0.0) for n in names)

    def moved_to(layer, *names):
        return sum(mv["seconds"] for mv in res["moves"]
                   if mv["layer"] == layer and mv["span"] in
                   ["bench/" + n for n in names])

    cnt = res["counts"].get
    ext = res["extras"].get
    reg = res["registry"].get
    profile = ("callloop.buildCallLoopGraph", "callloop.buildCallLoopGraphs")
    shard_plan = sum(s.dur for spans_ in roots.values() for root in spans_
                     for s in walk(root) if s.name == "shard.plan")
    traced = [it for it in res["items"] if it["traced_s"] >= 0]
    plain_s = sum(it["latency_s"] for it in traced)
    traced_s = sum(it["traced_s"] for it in traced)
    null_s = ext("vm.null_run_s", 0.0)
    probe_acc = ext("uarch.probe_accesses", 0.0)
    reuse_acc = ext("reuse.replay_accesses", 0.0)
    runsimpoint = spans("simpoint.runSimPoint")
    values = {
        "ir.lower_s": statistics.median(res["setup_lower_s"]),
        "ir.loop_index_s": statistics.median(res["setup_loop_index_s"]),
        "vm.null_run_s": null_s,
        "vm.instrs": reg("vm.instrs_retired", 0.0),
        "vm.mem_accesses": reg("vm.mem_accesses", 0.0),
        "vm.minstr_per_s": (ext("vm.null_instrs", 0.0) / null_s / 1e6
                            if null_s else 0.0),
        "callloop.profile_s": spans(*profile),
        "callloop.profile_self_s": max(
            0.0, spans(*profile) - moved_to("vm", *profile)),
        "callloop.edges": cnt("callloop.edges", 0.0),
        "callloop.profile_io_s": spans("callloop.profileIO"),
        "markers.select_s": spans("markers.selectMarkers"),
        "markers.candidates": reg("select.pass1_candidates", 0.0),
        "markers.selected": cnt("markers.selected", 0.0),
        "markers.vli_run_s": spans("markers.runMarkerIntervals"),
        "markers.fixed_run_s": spans("markers.runFixedIntervals"),
        "markers.intervals": reg("intervals.cut", 0.0),
        "markers.fired": reg("markers.fired", 0.0),
        "markers.serialize_io_s": spans("markers.serializeIO"),
        "phase.classify_s": spans("phase.summarizeClassification"),
        "simpoint.runsimpoint_s": runsimpoint,
        "simpoint.kmeans_s": sum(s.dur for _, it in items for s in walk(it)
                                 if s.name == "simpoint.kmeans"),
        "simpoint.other_self_s": max(0.0, runsimpoint - kmeans_in_runsimpoint),
        "simpoint.project_s": ext("simpoint.project_s", 0.0),
        "simpoint.estimate_s": spans("simpoint.estimateCpi"),
        "simpoint.points": cnt("simpoint.points", 0.0),
        "simpoint.k_chosen": (cnt("simpoint.k_chosen", 0.0) /
                              cnt("simpoint.runs") if cnt("simpoint.runs")
                              else 0.0),
        "simpoint.restarts": reg("simpoint.restarts", 0.0),
        "simpoint.kmeans_iters_p50": res["kmeans_iters_p50"],
        "simpoint.cpi_error_pct": (100.0 * statistics.mean(res["cpi_errors"])
                                   if res["cpi_errors"] else 0.0),
        "uarch.probe_replay_s": ext("uarch.probe_replay_s", 0.0),
        "uarch.probe_accesses": probe_acc,
        "uarch.probe_ns_per_access": (ext("uarch.probe_replay_s", 0.0) /
                                      probe_acc * 1e9 if probe_acc else 0.0),
        "uarch.perfmodel_self_s": ext("uarch.perfmodel_self_s", 0.0),
        "adaptcache.markers_policy_s": spans(
            "adaptcache.runAdaptiveWithMarkers"),
        "adaptcache.reuse_policy_s": spans(
            "adaptcache.runAdaptiveWithReuseMarkers"),
        "adaptcache.oracle_policy_s": spans(
            "adaptcache.runAdaptiveWithOracleBbv"),
        "adaptcache.best_fixed_s": spans("adaptcache.bestFixedSize"),
        "adaptcache.intervals": cnt("adaptcache.intervals", 0.0),
        "adaptcache.explorations": cnt("adaptcache.explorations", 0.0),
        "adaptcache.avg_cache_kb": (statistics.mean(res["cache_kb"])
                                    if res["cache_kb"] else 0.0),
        "reuse.profile_s": spans("reuse.profileReuseMarkers"),
        "reuse.distance_replay_s": ext("reuse.distance_replay_s", 0.0),
        "reuse.ns_per_access": (ext("reuse.distance_replay_s", 0.0) /
                                reuse_acc * 1e9 if reuse_acc else 0.0),
        "reuse.markers": cnt("reuse.markers", 0.0),
        "shard.plan_s": shard_plan,
        "shard.leg_max_s": cnt("shard.leg_max_s", 0.0),
        "shard.leg_sum_s": cnt("shard.leg_sum_s", 0.0),
        "shard.serial_s": max(0.0, cnt("shard.call_s", 0.0) - shard_plan -
                              cnt("shard.leg_max_s", 0.0)),
        "shard.imbalance": (cnt("shard.imbalance_sum", 0.0) /
                            cnt("shard.calls") if cnt("shard.calls") else 0.0),
        "shard.speedup": (sum(res["unsharded_s"]) / sum(res["sharded_s"])
                          if res["sharded_s"] else 0.0),
        "shard.retries": reg("shard.retries", 0.0),
        "support.pool_tasks": reg("pool.tasks_submitted", 0.0),
        "share.unattributed": share_unattr,
        "trace.items": float(len(traced)),
        "trace.overhead_pct": ((traced_s / plain_s - 1.0) * 100.0
                               if plain_s else 0.0),
        "trace.dropped_spans": float(res["dropped_spans"]),
        "trace.dropped_phase_events": float(res["dropped_phase_events"]),
        "check.fail_frac": fail_frac,
    }
    for layer in LAYERS:
        values["share." + layer] = shares[layer]
    if res["dropped_spans"]:
        problems.append("%d spans dropped" % res["dropped_spans"])

    rows = ["layer self-time share (%d traced items, %.3f s traced):"
            % (len(traced), total)]
    for layer in sorted(LAYERS, key=lambda l: -shares[l]):
        rows.append("  %-12s %7.2f%%  %10.6f s" % (
            layer, 100 * shares[layer], layer_time[layer]))
    rows.append("  %-12s %7.2f%%  %10.6f s" % (
        "unattributed", 100 * share_unattr, unattributed))
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return metrics, "\n".join(rows), problems
