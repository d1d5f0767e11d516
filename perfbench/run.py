#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the simulated Sedna cluster.

    python3 perfbench/run.py --workload paper-loop --seed 1 --seconds 40 --trace 0

Each run repeats whole rounds until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  A round builds a fresh cluster (timed as set-up), then
runs the workload's client calls (the timed region).  Inputs are made
from ``--seed`` once, before the first round, so every round replays the
same simulated history: simulated metrics and counts come from round 0,
and every later round must reproduce its digest.  Wall metrics are
medians over the rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one plain
round for the counters and the tracing baseline, then rounds under
``cProfile``, and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object; the full report, and one span per
client call of round 0, go to ``--out``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
MIN_TAIL_SAMPLES = 1000

# Span kinds behind each latency metric.
CATEGORIES = {"read": ("read_latest", "probe"),
              "write": ("write_latest", "write_all"),
              "batch": ("multi_read", "multi_write"),
              "causal": ("read_causal", "write_causal")}
WRITE_KINDS = ("write_latest", "write_all", "multi_write", "write_causal",
               "delete")
# Set-up traffic is what moves these: they count the whole round.
WHOLE_ROUND = ("cache_full_loads", "cache_zk_reads", "zk_reads", "zk_writes")
# The metrics of BENCHMARK.json: the last JSON line carries exactly
# these, END_TO_END with --trace 0 and PER_LAYER with --trace 1.
END_TO_END = ("setup_s", "wall_ops_per_s", "sim_ops_per_s", "read_p50_ms",
              "read_p99_ms", "write_p50_ms", "write_p99_ms", "peak_rss_mb",
              "stored_bytes_per_user_byte")
PER_LAYER = (
    "simulator.events_per_op", "simulator.events_per_wall_s",
    "simulator.self_s", "transport.messages_per_op", "transport.bytes_per_op",
    "transport.self_s", "transport.estimate_size_us", "rpc.calls_per_op",
    "rpc.calls_per_key", "rpc.timeouts", "rpc.self_s", "client.self_s",
    "coordinator.self_s", "coordinator.coalesced_read_ratio",
    "placement.lookups_per_op", "placement.self_s", "placement.fnv1a_us",
    "placement.replicas_for_us", "cache.zk_reads", "cache.full_loads",
    "node.replica_ops_per_op", "node.self_s", "storage.ops_per_op",
    "storage.self_s", "persistence.appends_per_write", "persistence.self_s",
    "zk.reads_served", "zk.writes_led", "zk.self_s", "obs.self_s",
    "unattributed.self_s", "profile.total_s", "profile.overhead_ratio")
UNITS = {
    "setup_s": "s", "wall_ops_per_s": "ops/s", "sim_ops_per_s": "ops/sim_s",
    "peak_rss_mb": "MB", "stored_bytes_per_user_byte": "ratio",
    "simulator.events_per_op": "1/op", "simulator.events_per_wall_s": "1/s",
    "transport.messages_per_op": "1/op", "transport.bytes_per_op": "B/op",
    "transport.estimate_size_us": "us", "rpc.calls_per_op": "1/op",
    "rpc.calls_per_key": "1/key", "coordinator.coalesced_read_ratio": "ratio",
    "placement.lookups_per_op": "1/op", "placement.fnv1a_us": "us",
    "placement.replicas_for_us": "us", "node.replica_ops_per_op": "1/op",
    "storage.ops_per_op": "1/op", "persistence.appends_per_write": "1/key",
    "triggers.rows_scanned_per_activation": "1/activation",
    "profile.overhead_ratio": "ratio",
}


def unit(name: str) -> str:
    """Unit of a reported metric; the rest are ms, s or counts."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


@dataclass
class Round:
    setup_s: float
    drive_s: float
    sim_s: float
    counts: dict
    digest: str
    profile: Optional[dict] = None


@dataclass
class First:
    """What round 0 leaves for the report: its spans and checked outputs."""

    spans: list
    table: dict
    checks: list
    stored_bytes: int
    freshness: list


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def digest(spans, counts: dict, results) -> str:
    """Fingerprint of one round's simulated history and answers."""
    h = hashlib.sha256()
    for s in spans:
        h.update(repr((s.kind, s.hops, s.keys, s.sim_start, s.sim_end,
                       s.failed)).encode())
    h.update(repr(sorted(counts.items())).encode())
    h.update(repr(results).encode())
    return h.hexdigest()


def run_round(wl, inputs, profiled: bool):
    """One round: set-up, then the timed region.

    Returns the Round plus the world, spans and answers for the oracle.
    """
    from perfbench import layers, workloads
    profiles = (cProfile.Profile(), cProfile.Profile()) if profiled else None
    t0 = perf_counter()
    if profiles:
        profiles[0].enable()
    world = wl.setup(inputs)
    if profiles:
        profiles[0].disable()
    t1 = perf_counter()
    sim = world.cluster.sim
    before = layers.counters(world)
    spans = workloads.Spans(sim)
    sim0 = sim.now
    t2 = perf_counter()
    if profiles:
        profiles[1].enable()
    results = wl.drive(world, inputs, spans)
    if profiles:
        profiles[1].disable()
    t3 = perf_counter()
    after = layers.counters(world)
    counts = {k: v if k in WHOLE_ROUND else v - before[k]
              for k, v in after.items()}
    rnd = Round(t1 - t0, t3 - t2, sim.now - sim0, counts,
                digest(spans.rows, counts, results))
    if profiles:
        setup, drive = (layers.attribute(p) for p in profiles)
        rnd.profile = {
            "self_s": {k: setup["self_s"][k] + v
                       for k, v in drive["self_s"].items()},
            "total_s": setup["total_s"] + drive["total_s"],
            "hot": drive["hot"]}
    return rnd, world, spans.rows, results


def check_first(wl, inputs, world, spans, results) -> First:
    """Oracle checks and per-kind accounting on round 0."""
    from perfbench import layers, oracle
    propagation = world.cluster.network.latency.propagation
    checks = [oracle.latency_floor(spans, propagation)]
    table: dict[str, list[int]] = {}
    for s in spans:
        row = table.setdefault(s.kind, [0, 0])
        row[0] += 1
        row[1] += s.failed
    freshness: list[float] = []
    if wl.name == "paper-loop":
        checks += oracle.paper_loop(inputs, results)
    elif wl.name == "routed-mixed":
        checks += oracle.routed_mixed(inputs, results)
    else:
        rows = wl.read_back(world, inputs)
        checks += oracle.microblog(inputs, results, rows, wl.POSTING_CAP)
        freshness = list(results["freshness"].values())
        tweets = len(results["crawl"])
        found = len(freshness) + len(results["race"])
        table["freshness"] = [tweets, tweets - found]
    return First(spans, table, checks, layers.stored_bytes(world.cluster),
                 freshness)


def measure(wl, inputs, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` passed; round 0 is checked."""
    start = perf_counter()
    rounds: list[Round] = []
    first = None
    while True:
        rnd, world, spans, results = run_round(wl, inputs,
                                               trace and bool(rounds))
        if first is None:
            first = check_first(wl, inputs, world, spans, results)
        rounds.append(rnd)
        # Free the round's cluster (its processes form cycles) so the
        # next round starts from the same heap.
        del world, spans, results
        gc.collect()
        if (len(rounds) >= (2 if trace else MIN_ROUNDS)
                and perf_counter() - start >= seconds):
            return rounds, first


def end_to_end(wl, inputs, rounds, first):
    """End-to-end metrics and the sample count behind each percentile."""
    from perfbench import oracle
    spans = first.spans
    wall_ops = sum(1 for s in spans if s.kind in wl.wall_kinds)
    samples: dict[str, int] = {}
    out: dict[str, float] = {}
    plain = [r for r in rounds if r.profile is None]
    out["setup_s"] = statistics.median(r.setup_s for r in plain)
    out["wall_ops_per_s"] = statistics.median(wall_ops / r.drive_s
                                              for r in plain)
    latencies = {cat: [s.sim_end - s.sim_start for s in spans
                       if s.kind in kinds]
                 for cat, kinds in CATEGORIES.items()}
    latencies["freshness"] = first.freshness
    for cat, lat in latencies.items():
        if lat:
            samples[cat] = len(lat)
            out[f"{cat}_p50_ms"] = 1e3 * percentile(lat, 50)
            out[f"{cat}_p99_ms"] = 1e3 * percentile(lat, 99)
    if wl.name != "microblog-realtime":      # closed loops only
        out["sim_ops_per_s"] = wall_ops / rounds[0].sim_s
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["stored_bytes_per_user_byte"] = (
        first.stored_bytes / oracle.USER_BYTES[wl.name](inputs))
    return out, samples


def per_layer(wl, rounds, first) -> dict[str, float]:
    """Counts from round 0; self time and hot functions from traced rounds."""
    from perfbench import layers
    spans = first.spans
    wall_ops = sum(1 for s in spans if s.kind in wl.wall_kinds)
    keys = sum(s.keys for s in spans)
    writes = sum(s.keys for s in spans if s.kind in WRITE_KINDS)
    c = rounds[0].counts
    out = {
        "simulator.events_per_op": c["events"] / wall_ops,
        "simulator.events_per_wall_s": c["events"] / rounds[0].drive_s,
        "transport.messages_per_op": c["messages"] / wall_ops,
        "transport.bytes_per_op": c["bytes"] / wall_ops,
        "rpc.calls_per_op": c["rpc_calls"] / wall_ops,
        "rpc.calls_per_key": c["rpc_calls"] / keys,
        "rpc.timeouts": c["rpc_timeouts"],
        "coordinator.coalesced_read_ratio":
            c["reads_coalesced"] / max(1, c["reads_coordinated"]),
        "cache.zk_reads": c["cache_zk_reads"],
        "cache.full_loads": c["cache_full_loads"],
        "node.replica_ops_per_op": c["replica_ops"] / wall_ops,
        "storage.ops_per_op": c["storage_ops"] / wall_ops,
        "persistence.appends_per_write": c["wal_appends"] / writes,
        "zk.reads_served": c["zk_reads"],
        "zk.writes_led": c["zk_writes"],
        "triggers.activations": c["trigger_activations"],
        "triggers.coalesced": c["trigger_coalesced"],
        "triggers.rows_scanned_per_activation":
            c["trigger_rows_scanned"] / max(1, c["trigger_activations"]),
    }
    traced = [r.profile for r in rounds if r.profile is not None]
    if not traced:
        return out
    for layer in layers.LAYER_NAMES + ("unattributed",):
        out[f"{layer}.self_s"] = statistics.mean(
            p["self_s"][layer] for p in traced)
    out["profile.total_s"] = statistics.mean(p["total_s"] for p in traced)
    hot = traced[-1]["hot"]
    out["placement.lookups_per_op"] = hot["vnode_of"]["calls"] / wall_ops
    out["transport.estimate_size_us"] = hot["estimate_size"]["us_per_call"]
    out["placement.fnv1a_us"] = hot["fnv1a"]["us_per_call"]
    out["placement.replicas_for_us"] = hot["replicas_for"]["us_per_call"]
    out["profile.overhead_ratio"] = (
        statistics.median(r.drive_s for r in rounds if r.profile)
        / statistics.median(r.drive_s for r in rounds if not r.profile))
    return out


def evaluate(wl, inputs, seconds: float, trace: bool):
    """Measure, check and summarise one run of ``wl`` on ``inputs``."""
    rounds, first = measure(wl, inputs, seconds, trace)
    differing = [i for i, r in enumerate(rounds)
                 if r.digest != rounds[0].digest]
    first.checks.append((
        "every round replays round 0's simulated history", not differing,
        f"{len(rounds)} rounds; differing: {differing}"))
    e2e, samples = end_to_end(wl, inputs, rounds, first)
    layer = per_layer(wl, rounds, first)
    return rounds, first, e2e, samples, layer


def result_line(wl, rounds, first, metrics: dict) -> dict:
    """The last line of standard output: verdict, op counts, metrics."""
    counted = {k: v for k, v in first.table.items()
               if k in wl.wall_kinds or k == "freshness"}
    return {
        "correct": all(ok for _name, ok, _detail in first.checks),
        "attempted": len(rounds) * sum(a for a, _f in counted.values()),
        "failed": len(rounds) * sum(f for _a, f in counted.values()),
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()}}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out")
    args = parser.parse_args(argv)

    # Measure the checkout's own program, never an installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)

    rounds, first, e2e, samples, layer = evaluate(wl, inputs, args.seconds,
                                                  bool(args.trace))
    thin = {k: n for k, n in samples.items() if n < MIN_TAIL_SAMPLES}
    first.checks.append((f"every p99 rests on >= {MIN_TAIL_SAMPLES} samples",
                         not thin, f"samples {samples}"))
    metrics = ({k: layer[k] for k in PER_LAYER} if args.trace
               else {k: e2e[k] for k in END_TO_END if k in e2e})
    line = result_line(wl, rounds, first, metrics)
    correct = line["correct"]
    hot = next((r.profile["hot"] for r in reversed(rounds) if r.profile), {})
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "correct": correct,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in first.checks],
        "ops_per_round": {k: {"attempted": a, "failed": f}
                          for k, (a, f) in sorted(first.table.items())},
        "rpc_timeouts_per_round": rounds[0].counts["rpc_timeouts"],
        "samples": samples, "end_to_end": e2e, "per_layer": layer,
        "hot_functions": hot,
        "rounds_detail": [{"setup_s": r.setup_s, "drive_s": r.drive_s,
                           "profiled": r.profile is not None}
                          for r in rounds],
        "sim_digest": rounds[0].digest, "counts": rounds[0].counts,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(report, indent=1))
    with open(args.out / f"{stem}-spans.jsonl", "w") as fh:
        for s in first.spans:
            fh.write(json.dumps(asdict(s)) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}")
    print(f"  {'op kind':<14}{'attempted':>10}{'failed':>8}   (per round)")
    for kind, (a, f) in sorted(first.table.items()):
        print(f"  {kind:<14}{a:>10}{f:>8}")
    print(f"  rpc.timeouts {report['rpc_timeouts_per_round']}")
    for name, ok, detail in first.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, value in (layer if args.trace else e2e).items():
        cat = name.rsplit("_p", 1)[0] if name.endswith("_ms") else None
        note = f"  (n={samples[cat]})" if cat in samples else ""
        print(f"  {name} = {value:.6g} {unit(name)}{note}")
    for name, h in hot.items():
        print(f"  hot {name}: {h['calls']} calls, "
              f"{h['us_per_call']:.3g} us/call (profiled)")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
