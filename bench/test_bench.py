"""Tests of the benchmark itself: inputs, references, checks, tracer, compare.

    python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

import compare
import harness  # puts the repro sources on sys.path
import repro
from trace import LAYERS, Tracer, _resolve
from workloads import (
    WORKLOADS,
    VOQSwitch,
    bipartite_edges,
    gnp_edges,
    pool_edges,
)

BENCH = Path(__file__).resolve().parent
STATIC = [name for name, w in WORKLOADS.items() if w.kind == "static"]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def edges_digest(edge_lists):
    """SHA-256 over the edge lists, one ``u v`` line per edge."""
    h = hashlib.sha256()
    for edges in edge_lists:
        for u, v in edges:
            h.update(f"{u} {v}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


#: the graph corpora; a change here changes every static measurement
POOL_DIGESTS = {
    "mpc_gnp":
        "3bb5333646e482502e15f57da6c60aaa75eafcd6b48bd8e518d5974d983d7070",
    "congest_mcm_bipartite":
        "8ab506284413f6920b417881c79392ebb74a5662f447c1382249d26791d222d1",
    "congest_sharded_gnp":
        "68dee7bb748c8db4577bfa910639722d0dd12e47aa48b890d1ba1fe1fe0e9d49",
}
#: seed 0's first 500 cycles of switch arrivals
SWITCH_DIGEST = (
    "b2cf927c1c18644d6068cf53661039d833f185a8099b2daa1f409e0ef076b7b9")


@pytest.mark.parametrize("name", STATIC)
def test_pool_edges_are_pinned(name):
    assert edges_digest(pool_edges(WORKLOADS[name])) == POOL_DIGESTS[name]


def test_switch_arrivals_are_pinned():
    spec = WORKLOADS["stream_switch"]
    switch = VOQSwitch(spec.ports, spec.load, 0)
    arrivals = [up[1:3] for _ in range(500) for up in switch.arrivals()]
    assert edges_digest([arrivals]) == SWITCH_DIGEST


@pytest.mark.parametrize("draw, pairs, valid", [
    (gnp_edges, 400 * 399 / 2, lambda u, v: 0 <= u < v < 400),
    (bipartite_edges, 400 * 400, lambda u, v: 0 <= u < 400 <= v < 800),
])
def test_generators_are_simple_with_the_expected_density(draw, pairs, valid):
    p = 0.02
    counts = []
    for seed in range(20):
        edges = draw(400, p, random.Random(seed))
        assert all(valid(u, v) for u, v in edges)
        assert len(set(edges)) == len(edges)
        counts.append(len(edges))
    assert abs(sum(counts) / len(counts) - p * pairs) < 0.05 * p * pairs


def test_switch_updates_track_the_queues():
    switch = VOQSwitch(8, 0.9, 3)
    present = set()
    for _ in range(200):
        for op, u, v, *_ in switch.arrivals():
            assert (op == "insert") == ((u, v) not in present)
            present.add((u, v))
        served = list(present)[:4]
        for op, u, v, *_ in switch.departures(served):
            if op == "delete":
                present.discard((u, v))
        assert present == set(switch.queues)


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_reference_agrees_with_networkx_on_general_graphs(seed):
    edges = gnp_edges(40, 0.12, random.Random(seed))
    graph = nx.Graph(edges)
    expected = len(nx.max_weight_matching(graph, maxcardinality=True))
    assert harness.reference_size(edges) == expected


@pytest.mark.parametrize("seed", range(6))
def test_references_agree_with_hopcroft_karp_on_bipartite_graphs(seed):
    switch = VOQSwitch(16, 0.5, seed)
    for _ in range(30):
        switch.arrivals()
    graph = nx.Graph(list(switch.queues))
    top = [v for v in graph if v < 16]
    expected = len(nx.bipartite.hopcroft_karp_matching(graph, top)) // 2
    assert harness.switch_reference_size(switch.queues, 16) == expected
    assert harness.reference_size(list(switch.queues)) == expected


def test_check_matching_flags_each_violation():
    edges = {(0, 1), (1, 2), (2, 3)}
    check = harness.check_matching
    assert check([(0, 1), (2, 3)], edges, 2, maximal=True,
                 min_ratio=0.5) == ([], 1.0)
    problems, _ = check([(0, 2)], edges, 2, maximal=False, min_ratio=0)
    assert "not a graph edge" in problems[0]
    problems, _ = check([(0, 1), (1, 2)], edges, 2, maximal=False,
                        min_ratio=0)
    assert "reuses a matched vertex" in problems[0]
    problems, _ = check([(0, 1)], edges, 2, maximal=True, min_ratio=0)
    assert problems[0].startswith("not maximal")
    problems, ratio = check([(1, 2)], edges, 2, maximal=False,
                            min_ratio=2 / 3)
    assert ratio == 0.5 and "below" in problems[0]


class _Corrupted:
    """A result whose matching lists ``edges`` instead of the real ones."""

    def __init__(self, result, edges):
        self.network_metrics = result.network_metrics
        self.matching = self
        self._edges = edges

    def edges(self):
        return self._edges


def test_corrupted_matchings_count_as_failed_ops_and_the_run_goes_on():
    spec = dataclasses.replace(WORKLOADS["congest_sharded_gnp"], n=120)

    def run_op(graph, i):
        result = repro.run(spec.algorithm, graph, seed=i + 1)
        matched = list(result.matching.edges())
        if i == 1:  # drop an edge: both ends free, so no longer maximal
            return _Corrupted(result, matched[1:])
        if i == 2:  # add an edge sharing a matched vertex
            u, v = matched[0]
            w = next(x for x in graph.neighbors(u) if x != v)
            return _Corrupted(result, matched + [(u, w)])
        if i == 3:
            raise RuntimeError("injected")
        return result

    out = harness.run_static(spec, 0, 0.0, run_op=run_op)
    assert out["attempted"] == 1 + harness.MIN_STATIC_OPS
    assert out["failed"] == 3
    assert out["metrics"]["fail_frac"] == 3 / out["attempted"]
    problems = [op["problems"] for op in out["ops"]]
    assert problems[0] == []
    assert problems[1][0].startswith("not maximal")
    assert "reuses a matched vertex" in problems[2][0]
    assert problems[3] == ["RuntimeError: injected"]


def _ops(*latencies):
    return [{"latency_s": x, "service_s": x, "work": 1} for x in latencies]


def test_best_window_reports_the_fastest_window():
    ops = _ops(*[0.3] * 8, *[0.2] * 8, *[0.3] * 8)
    latency, throughput = harness.best_window(ops, unit=4)
    assert latency == 0.2
    assert throughput == pytest.approx(5.0)
    # a run shorter than one window is one window
    assert harness.best_window(_ops(0.1, 0.3), unit=1) == (
        pytest.approx(0.2), pytest.approx(5.0))


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _originals(layers):
    found = {}
    for targets in layers.values():
        for target in targets:
            owner, attr = _resolve(target)
            found[target] = vars(owner).get(attr)
    return found


def test_uninstall_restores_every_original():
    layers = dict(LAYERS)
    # an inherited method: patched on the subclass, deleted on restore
    layers["inherited"] = ("repro.graphs.graph:BipartiteGraph.to_csr",)
    before = _originals(layers)
    tracer = Tracer(layers)
    tracer.install()
    patched = _originals(layers)
    assert all(patched[t] is not before[t] for t in before)
    tracer.uninstall()
    restored = _originals(layers)
    assert all(restored[t] is before[t] for t in before)
    assert "to_csr" not in vars(repro.BipartiteGraph)
    assert not tracer.absent


def test_missing_targets_are_recorded_absent():
    tracer = Tracer({"gone": ("repro.core.api:no_such_function",
                              "repro.no_such_module:f"),
                     "graphs.to_csr": LAYERS["graphs.to_csr"]})
    tracer.install()
    try:
        graph = repro.Graph()
        graph.add_edge(0, 1)
        with tracer.root("op", 0):
            graph.to_csr()
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == {"repro.core.api:no_such_function",
                                  "repro.no_such_module:f"}
    assert tracer.by_op()[0]["graphs.to_csr"]["calls"] == 1


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tracer = Tracer({}, clock=lambda: float(next(ticks)))
    with tracer.root("op", 7):          # 0 .. 5
        with tracer.root("child", 7, layer="a"):    # 1 .. 4
            with tracer.root("leaf", 7, layer="b"):  # 2 .. 3
                pass
    assert tracer.self_times() == [2.0, 2.0, 1.0]


@pytest.mark.parametrize("name", STATIC)
def test_self_times_sum_to_one_static_op(name):
    spec = WORKLOADS[name]
    graph = repro.Graph()
    for u, v in pool_edges(spec)[0]:
        graph.add_edge(u, v)
    tracer = Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        with tracer.root("repro.run", 0):
            repro.run(spec.algorithm, graph, seed=0, **dict(spec.kwargs))
        wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
        gc.collect()
    layers = tracer.by_op()[0]
    assert len(layers) > 2
    covered = sum(row["self_s"] for row in layers.values())
    assert abs(covered - wall) <= 0.05 * wall


def test_self_times_sum_to_one_stream_op():
    spec = WORKLOADS["stream_switch"]
    tracer = Tracer()
    loop = harness.StreamLoop(repro.MatchingService(k=spec.k),
                              VOQSwitch(spec.ports, spec.load, 0), spec,
                              tracer=tracer)
    loop.run(events=5_000)
    traced = [c for c in loop.commits if c["traced"]]
    op = loop.commits.index(max(traced, key=lambda c: c["service_s"]))
    layers = tracer.by_op()[op]
    assert {"stream.apply", "stream.commit", "stream.snapshot"} <= set(layers)
    covered = sum(row["self_s"] for row in layers.values())
    wall = loop.commits[op]["service_s"]
    assert abs(covered - wall) <= 0.05 * wall


def test_traced_static_run_reports_every_layer_metric():
    spec = dataclasses.replace(WORKLOADS["congest_mcm_bipartite"], n=60)
    tracer = Tracer()
    out = harness.run_static(spec, 0, 0.0, tracer=tracer)
    layers = harness.layer_metrics(tracer, out["ops"])
    assert out["failed"] == 0
    assert layers["congest.run.calls"] > 0
    assert layers["congest.rounds"] > 0
    assert layers["mpc.supersteps"] == 0
    assert layers["trace.self_sum_err"] <= harness.SELF_SUM_TOLERANCE
    assert layers["trace.overhead"] > 0
    assert {m["name"] for m in _benchmark()["per_layer"]} <= set(layers)


# ---------------------------------------------------------------------------
# run.py and compare.py
# ---------------------------------------------------------------------------

def _benchmark():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mpc_gnp", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("a, b, better, expect", [
    ([100, 101, 102, 103], [104, 105, 106, 107], "lower", "within bound"),
    ([100, 101, 102, 103], [120, 121, 122, 123], "lower", "worse"),
    ([100, 101, 102, 103], [80, 81, 82, 83], "lower", "better"),
    ([100, 101, 102, 103], [80, 81, 82, 83], "higher", "worse"),
    ([100, 60, 140, 100], [101, 99, 100, 98], "lower", "unresolved"),
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "higher", "within bound"),
])
def test_compare_verdicts(a, b, better, expect):
    assert compare.verdict(a, b, better, 0.10) == expect
