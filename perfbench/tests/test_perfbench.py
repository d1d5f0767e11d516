"""Tests of the benchmark itself: small runs, checker corruption, determinism.

Run from the repository root:  python3 -m pytest perfbench/tests -q

The tests shrink the workloads' inputs (``shrink``) and call the run's
helpers directly; the command line always runs the full inputs.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracle, run, workloads  # noqa: E402
from perfbench.workloads import (MicroblogRealtime, PaperLoop,  # noqa: E402
                                 RoutedMixed)

WORKLOADS = tuple(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    PaperLoop: {"KEYS_PER_CLIENT": 12},
    RoutedMixed: {"MIX": {k: max(1, n // 10)
                          for k, n in RoutedMixed.MIX.items()},
                  "HOT_READS": 25},
    MicroblogRealtime: {"TWEETS": 60},
}
INDEXER_RACE = pytest.mark.xfail(
    strict=True, reason="the indexer's concurrent activations lose "
    "postings: race-a never becomes searchable")


def shrink(setattr_=setattr) -> None:
    """Small inputs for every workload."""
    for cls, attrs in SMALL.items():
        for name, value in attrs.items():
            setattr_(cls, name, value)


@pytest.fixture
def small(monkeypatch):
    shrink(monkeypatch.setattr)


def _checks_failed(checks) -> set[str]:
    return {name for name, ok, _detail in checks if not ok}


@pytest.mark.parametrize("name", [
    "paper-loop", "routed-mixed",
    pytest.param("microblog-realtime", marks=INDEXER_RACE)])
def test_small_run_passes_every_check(small, name):
    wl = workloads.WORKLOADS[name]
    rounds, first, e2e, _samples, _layer = run.evaluate(
        wl, wl.inputs(3), 0, False)
    line = run.result_line(wl, rounds, first,
                           {k: e2e[k] for k in run.END_TO_END if k in e2e})
    assert not _checks_failed(first.checks)
    assert line["correct"] and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    # Whole rounds of the same operations: failed is a fixed share.
    per_round = sum(a for kind, (a, _f) in first.table.items()
                    if kind in wl.wall_kinds or kind == "freshness")
    assert line["attempted"] == len(rounds) * per_round


def test_traced_run_reports_every_layer(small):
    wl = RoutedMixed
    rounds, first, _e2e, _samples, layer = run.evaluate(
        wl, wl.inputs(3), 0, True)
    assert not _checks_failed(first.checks)
    assert any(r.profile for r in rounds)
    assert set(run.PER_LAYER) <= set(layer)
    parts = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert parts == pytest.approx(layer["profile.total_s"], rel=1e-6)
    # The shared hot set is read concurrently at one coordinator.
    assert layer["coordinator.coalesced_read_ratio"] > 0


def test_benchmark_json_matches_the_run():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == run.unit(m["name"])


# -- every checker fails on a corrupted answer ---------------------------------

def _answers(name: str):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(5)
    world = wl.setup(inputs)
    spans = workloads.Spans(world.cluster.sim)
    results = wl.drive(world, inputs, spans)
    return inputs, results, spans.rows, world


@pytest.fixture(scope="module")
def answers():
    mp = pytest.MonkeyPatch()
    shrink(mp.setattr)
    try:
        yield {name: _answers(name) for name in WORKLOADS}
    finally:
        mp.undo()


def test_paper_loop_wrong_value_fails(answers):
    inputs, results, _spans, _world = answers["paper-loop"]
    assert not _checks_failed(oracle.paper_loop(inputs, results))
    bad = copy.deepcopy(results)
    bad[0][1][0] = "v" + "0" * 19
    assert _checks_failed(oracle.paper_loop(inputs, bad)) == {
        "every read returns the value written"}


def test_routed_mixed_wrong_value_and_extra_sibling_fail(answers):
    inputs, results, _spans, _world = answers["routed-mixed"]
    assert not _checks_failed(oracle.routed_mixed(inputs, results))
    reads = "single-key and batch reads return the last acked value"
    for client in (0, RoutedMixed.CLIENTS):     # a mixer, a hot reader
        ops = inputs.ops[client]
        bad = copy.deepcopy(results)
        i = next(i for i, (kind, _a) in enumerate(ops)
                 if kind == "read_latest")
        bad[client][i] = "wrong"
        assert _checks_failed(oracle.routed_mixed(inputs, bad)) == {reads}
    ops = inputs.ops[0]
    bad = copy.deepcopy(results)
    i = next(i for i, (kind, _a) in enumerate(ops)
             if kind == "read_causal" and results[0][i].found)
    read = results[0][i]
    extra = read.siblings + (("intruder", 0.0, "sibling"),)
    bad[0][i] = type(read)(read.found, extra, read.context)
    assert _checks_failed(oracle.routed_mixed(inputs, bad)) == {
        "read_causal returns exactly the last acked write"}


def _correct_microblog(inputs):
    """What a fault-free engine would answer, built from the inputs."""
    want = oracle.microblog_expected(inputs, MicroblogRealtime.POSTING_CAP)
    crawled = inputs.race + inputs.tweets
    results = {
        "crawl": {t.tweet_id: "ok" for t in crawled},
        "follow": ["ok"] * len(inputs.follows),
        "searches": [(term, want["index"].get(term, [])[-5:])
                     for _at, term in inputs.searches],
        "freshness": {t.tweet_id: 0.01 for t in inputs.tweets},
        "race": {t.tweet_id: 0.01 for t in inputs.race}}
    return results, copy.deepcopy(want)


def test_microblog_dropped_posting_and_lost_tweet_fail(answers):
    inputs = answers["microblog-realtime"][0]
    cap = MicroblogRealtime.POSTING_CAP
    results, rows = _correct_microblog(inputs)
    assert not _checks_failed(oracle.microblog(inputs, results, rows, cap))
    bad = copy.deepcopy(rows)
    term = inputs.tweets[0].text.split()[0]
    bad["index"][term] = bad["index"][term][1:]
    assert _checks_failed(oracle.microblog(inputs, results, bad, cap)) == {
        "index rows equal the stream's postings"}
    for table in ("freshness", "race"):
        bad = copy.deepcopy(results)
        bad[table].popitem()
        assert _checks_failed(oracle.microblog(inputs, bad, rows, cap)) == {
            "every tweet becomes searchable"}
    bad = copy.deepcopy(rows)
    original = next(iter(bad["rank"]))
    bad["rank"][original] += 1
    assert _checks_failed(oracle.microblog(inputs, results, bad, cap)) == {
        "rank rows equal the retweet counts"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_latency_under_the_floor_fails(answers, name):
    _inputs, _results, spans, world = answers[name]
    propagation = world.cluster.network.latency.propagation
    assert oracle.latency_floor(spans, propagation)[1]
    bad = copy.copy(spans[0])
    bad.sim_end = bad.sim_start + (bad.hops - 0.5) * propagation
    assert not oracle.latency_floor([bad] + spans[1:], propagation)[1]


# -- determinism --------------------------------------------------------------

WALL = {"setup_s", "wall_ops_per_s", "peak_rss_mb"}
CHILD = """
import json, sys
sys.path.insert(0, {here!r})
import test_perfbench as t
t.shrink()
wl = t.workloads.WORKLOADS[{name!r}]
rounds, first, e2e, _samples, layer = t.run.evaluate(wl, wl.inputs(4), 0, True)
print(json.dumps({{
    "digest": rounds[0].digest, "counts": rounds[0].counts,
    "ops": first.table, "checks": [ok for _n, ok, _d in first.checks],
    "layers": {{k: v for k, v in layer.items()
               if not k.endswith(("_s", "_us", "ratio"))}},
    "sim": {{k: v for k, v in e2e.items() if k not in t.WALL}}}}))
"""


def _simulated(name: str, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(here=str(HERE), name=name)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_simulated_results_ignore_the_hash_seed(name):
    assert _simulated(name, "0") == _simulated(name, "1")
