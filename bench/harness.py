"""One workload in one process: set up, measure, check, report.

``bench/run.py`` starts this file once per set-up sample and once per
measured run; it can also be run by hand::

    python3 bench/harness.py --workload mpc_gnp --seed 0 --seconds 20
    python3 bench/harness.py --workload mpc_gnp --phase setup
    python3 bench/harness.py --workload stream_switch --trace 1

The last line of standard output is one JSON object (see :func:`main`).

Timing rules.  ``setup_s`` runs from just before ``import repro`` to the
end of the warm-up: graph construction with ``add_edge`` and the first op
(static), or the ``MatchingService`` constructor plus the warm-up events'
service calls (stream).  Input generation, graph copies, reference optima
and output checks are harness work and are never timed.  Static ops run
on a fresh ``copy()`` of a pool graph, so each pays CSR packing as a new
user would.  An op that leaves shard workers alive (they live until their
pool is garbage-collected) is followed by a collection, outside the timed
region, so no op starts beside another op's pool.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from workloads import (
    WORKLOADS,
    StaticWorkload,
    StreamWorkload,
    VOQSwitch,
    op_seed,
    pool_edges,
)

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

#: a static run measures at least two blocks of one op per pool graph, so
#: a traced run has an untraced block to compare with
MIN_STATIC_OPS = 8
#: commits per traced/untraced block in a traced stream run
TRACE_BLOCK_COMMITS = 50
#: measured seconds per window (see :func:`best_window`)
WINDOW_S = 1.0
#: a traced op's layer self times must sum to its wall within this share
SELF_SUM_TOLERANCE = 0.05

clock = time.perf_counter


def quantile(samples: Iterable[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile, ``q`` in [0, 1]."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def check_matching(matched: Iterable[Tuple[int, int]], graph_edges: set,
                   ref_size: int, *, maximal: bool,
                   min_ratio: float) -> Tuple[List[str], float]:
    """Check one matching against the benchmark's own copy of the graph.

    Returns ``(problems, ratio)``; ``problems`` is empty when the matching
    uses only graph edges, no vertex twice, is maximal when ``maximal``,
    and reaches ``min_ratio`` of the reference optimum ``ref_size``.
    """
    problems: List[str] = []
    used: set = set()
    size = 0
    for u, v in matched:
        size += 1
        if edge_key(u, v) not in graph_edges:
            problems.append(f"({u}, {v}) is not a graph edge")
        if u in used or v in used:
            problems.append(f"({u}, {v}) reuses a matched vertex")
        used.add(u)
        used.add(v)
    if maximal:
        for u, v in graph_edges:
            if u not in used and v not in used:
                problems.append(f"not maximal: ({u}, {v}) has free ends")
                break
    ratio = size / ref_size if ref_size else 1.0
    if ratio < min_ratio - 1e-12:
        problems.append(f"ratio {ratio:.4f} below {min_ratio:.4f}")
    return problems, ratio


def reference_size(edges: List[Tuple[int, int]]) -> int:
    """|M*| of a static graph, from the program's sequential exact solver."""
    from repro import Graph
    from repro.matching.sequential.blossom import max_cardinality

    graph = Graph()
    for u, v in edges:
        graph.add_edge(u, v)
    return max_cardinality(graph).size


def switch_reference_size(queues: Dict[Tuple[int, int], int],
                          ports: int) -> int:
    """|M*| of the switch demand graph, by networkx Hopcroft-Karp."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from(queues)
    top = [v for v in graph if v < ports]
    return len(nx.bipartite.hopcroft_karp_matching(graph, top_nodes=top)) // 2


def _rss() -> Dict[str, float]:
    """Peak resident set, in MB, of this process and its reaped children."""
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _reap_children(timeout: float = 10.0) -> int:
    """Collect garbage and join every child the program left; returns how
    many were still alive after the deadline."""
    gc.collect()
    deadline = clock() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - clock()))
    return len(multiprocessing.active_children())


def _counters(result: Any, graph: Any) -> Dict[str, float]:
    """Public result fields the per-layer report reads."""
    m = getattr(result, "network_metrics", None)
    get = (lambda name: getattr(m, name, 0) or 0)
    return {
        "rounds": get("total_rounds"),
        "rounds_total": get("rounds_total"),
        "messages": get("messages"),
        "bits": get("total_bits"),
        "sub_rounds": get("sub_rounds"),
        "cut_edges": get("shard_cut_edges"),
        "halo_bits": get("shard_halo_bits"),
        "peak_words": get("memory_peak_words"),
        "limit_words": get("memory_limit_words"),
        "csr_hits": getattr(graph, "csr_cache_hits", 0),
        "csr_misses": getattr(graph, "csr_cache_misses", 0),
    }


# ---------------------------------------------------------------------------
# static workloads: closed-loop repro.run calls
# ---------------------------------------------------------------------------

def run_static(spec: StaticWorkload, seed: int, seconds: float, *,
               setup_only: bool = False, tracer: Any = None,
               run_op: Optional[Callable[[Any, int], Any]] = None,
               ) -> Dict[str, Any]:
    """Set up, then run ops on the pool until ``seconds`` have passed.

    Op ``i`` runs on a copy of pool graph ``i % pool`` with algorithm seed
    ``op_seed(seed, i)``; the warm-up is op -1.  ``run_op(graph, i)``
    replaces the ``repro.run`` call (tests use it to corrupt results).
    With a ``tracer``, alternate blocks of ``spec.pool`` ops run traced
    and untraced.
    """
    edge_lists = pool_edges(spec)
    t0 = clock()
    import repro

    pool = []
    for edges in edge_lists:
        graph = repro.Graph()
        for u, v in edges:
            graph.add_edge(u, v)
        pool.append(graph)
    built = clock() - t0
    kwargs = dict(spec.kwargs)
    if run_op is None:
        def run_op(graph: Any, i: int) -> Any:
            return repro.run(spec.algorithm, graph, seed=op_seed(seed, i),
                             **kwargs)

    warm = _attempt(run_op, pool[0].copy(), -1)
    setup_s = built + warm["latency_s"]
    if setup_only:
        del warm
        _reap_children()
        return {"setup_s": setup_s}

    pool_sets = [set(edges) for edges in edge_lists]
    refs = [reference_size(edges) for edges in edge_lists]
    check = (lambda op, j: _check_static(op, spec, pool_sets[j], refs[j]))
    check(warm, 0)
    ops: List[Dict[str, Any]] = [warm]
    _finish_op(warm)

    timed: List[Dict[str, Any]] = []
    start = clock()
    i = 0
    while i < MIN_STATIC_OPS or clock() - start < seconds:
        j = i % spec.pool
        graph = pool[j].copy()
        traced = tracer is not None and (i // spec.pool) % 2 == 0
        if traced:
            tracer.install()
            try:
                with tracer.root(f"repro.run:{spec.algorithm}", i):
                    op = _attempt(run_op, graph, i)
            finally:
                tracer.uninstall()
        else:
            op = _attempt(run_op, graph, i)
        op.update(index=i, traced=traced)
        check(op, j)
        _finish_op(op)
        timed.append(op)
        i += 1
    ops.extend(timed)

    lingering = _reap_children()
    out = _summary(ops, setup_s)
    out["metrics"].update(_timing_metrics(timed, spec.pool))
    out["metrics"]["rounds_mean"] = statistics.fmean(
        op["counters"]["rounds_total"] for op in timed)
    out["metrics"]["live_workers_max"] = max(op["live_workers"] for op in ops)
    out["lingering_workers"] = lingering
    out["ops"] = timed
    return out


def _attempt(run_op: Callable[[Any, int], Any], graph: Any,
             i: int) -> Dict[str, Any]:
    """One timed op; an exception is recorded, not raised."""
    t = clock()
    try:
        result = run_op(graph, i)
        error = None
    except Exception as exc:  # an op that raises is a failed op
        result, error = None, f"{type(exc).__name__}: {exc}"
    latency = clock() - t
    return {"latency_s": latency, "service_s": latency, "work": 1,
            "result": result, "graph": graph, "error": error}


def _check_static(op: Dict[str, Any], spec: StaticWorkload,
                  graph_edges: set, ref_size: int) -> None:
    result = op.pop("result")
    graph = op.pop("graph")
    op["live_workers"] = len(multiprocessing.active_children())
    if op["error"] is not None:
        op.update(problems=[op["error"]], ratio=None,
                  counters=_counters(None, None))
        return
    try:
        matched = list(result.matching.edges())
    except Exception as exc:  # a malformed result fails its op
        matched, op["error"] = [], f"unreadable matching: {exc}"
    problems, ratio = check_matching(
        matched, graph_edges, ref_size, maximal=spec.maximal,
        min_ratio=spec.min_ratio)
    if op["error"] is not None:
        problems.insert(0, op["error"])
    op.update(problems=problems, ratio=ratio,
              counters=_counters(result, graph))


def _finish_op(op: Dict[str, Any]) -> None:
    """Reap shard pools the op left behind, outside the timed region."""
    if multiprocessing.active_children():
        gc.collect()
    if op["problems"]:
        print(f"op {op.get('index', 'warm-up')} FAILED: "
              f"{'; '.join(op['problems'][:3])}", file=sys.stderr)


def best_window(ops: List[Dict[str, Any]],
                unit: int) -> Tuple[float, float]:
    """Latency and throughput of the run's fastest window.

    Windows are consecutive runs of whole groups of ``unit`` ops (one pass
    over a static pool) holding at least :data:`WINDOW_S` seconds of
    measured time; a short tail joins the last window.  A window's latency
    is its median op latency, its throughput the work it completed (calls
    or update events) per measured second.  On a shared two-core host,
    other tenants' load comes in phases of several seconds that slow every
    process by up to 1.6x: a median over the whole run moves with those
    phases, the fastest window moves with the program.
    """
    windows: List[List[Dict[str, Any]]] = [[]]
    spent = 0.0
    for op in ops:
        windows[-1].append(op)
        spent += op["service_s"]
        if spent >= WINDOW_S and len(windows[-1]) % unit == 0:
            windows.append([])
            spent = 0.0
    if not windows[-1]:
        windows.pop()
    elif len(windows) > 1:
        windows[-2].extend(windows.pop())
    latency = min(quantile((op["latency_s"] for op in w), 0.5)
                  for w in windows)
    throughput = max(sum(op["work"] for op in w)
                     / sum(op["service_s"] for op in w) for w in windows)
    return latency, throughput


def _timing_metrics(ops: List[Dict[str, Any]], unit: int) -> Dict[str, float]:
    """Timing metrics over the untraced ``ops`` (calls or commits)."""
    ops = [op for op in ops if not op["traced"]]
    if not ops:
        return {}
    latency, throughput = best_window(ops, unit)
    latencies = [op["latency_s"] for op in ops]
    return {
        "latency_ms": 1e3 * latency,
        "throughput_per_s": throughput,
        "latency_p50_ms": 1e3 * quantile(latencies, 0.50),
        "latency_p75_ms": 1e3 * quantile(latencies, 0.75),
        "latency_p99_ms": 1e3 * quantile(latencies, 0.99),
        "latency_samples": len(latencies),
        "throughput_mean_per_s": (sum(op["work"] for op in ops)
                                  / sum(op["service_s"] for op in ops)),
    }


def _summary(ops: List[Dict[str, Any]], setup_s: float) -> Dict[str, Any]:
    failed = sum(1 for op in ops if op["problems"])
    ratios = [op["ratio"] for op in ops if op.get("ratio") is not None]
    rss = _rss()
    return {
        "setup_s": setup_s,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            "ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
            "ratio_min": min(ratios) if ratios else 0.0,
            "fail_frac": failed / len(ops) if ops else 1.0,
            "peak_rss_mb": rss["self"],
            "children_peak_rss_mb": rss["children"],
        },
    }


# ---------------------------------------------------------------------------
# the stream workload: a closed-loop switch served by MatchingService
# ---------------------------------------------------------------------------

class StreamLoop:
    """Drive one service with one switch, timing every service call.

    Per cycle: the arrivals are applied, a commit follows whenever
    ``commit_every`` updates are pending, the latest snapshot is read and
    schedules the crossbar, and the departures are applied the same way.
    Every commit is checked against the switch's VOQ mirror.
    """

    def __init__(self, service: Any, switch: VOQSwitch,
                 spec: StreamWorkload, tracer: Any = None) -> None:
        self.service = service
        self.switch = switch
        self.spec = spec
        self.tracer = tracer
        self.call_s = 0.0
        self.events = 0
        self.commits: List[Dict[str, Any]] = []
        self.checks: List[Dict[str, Any]] = []
        self.error: Optional[str] = None
        # service time and events since the last commit
        self._op_s = 0.0
        self._op_events = 0

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.tracer.installed

    def _call(self, fn: Callable, *args: Any) -> Any:
        t = clock()
        try:
            return fn(*args)
        finally:
            dt = clock() - t
            self.call_s += dt
            self._op_s += dt

    def restart(self, tracer: Any = None) -> List[Dict[str, Any]]:
        """Start the timed part: returns the commits so far and numbers
        the next ones from 0, as the tracer numbers its ops."""
        done, self.commits = self.commits, []
        self.tracer = tracer
        self.call_s = self._op_s = 0.0
        self.events = self._op_events = 0
        return done

    def _toggle_tracing(self) -> None:
        if self.tracer is None:
            return
        want = (len(self.commits) // TRACE_BLOCK_COMMITS) % 2 == 0
        if want and not self.tracer.installed:
            self.tracer.install()
        elif not want and self.tracer.installed:
            self.tracer.uninstall()
        self.tracer.op = len(self.commits) if want else None

    def _push(self, updates: List[tuple]) -> None:
        if not updates:
            return
        self.events += len(updates)
        self._op_events += len(updates)
        self._call(self.service.apply, updates)
        if self.service.pending >= self.spec.commit_every:
            traced = self.traced
            t = clock()
            stats = self._call(self.service.commit)
            latency = clock() - t
            self.commits.append({
                "latency_s": latency, "service_s": self._op_s,
                "work": self._op_events, "traced": traced,
                "seeds": stats.seeds, "augmentations": stats.augmentations,
                "nodes_explored": stats.nodes_explored, "mode": stats.mode,
                "problems": self._check_commit(),
            })
            self._op_s, self._op_events = 0.0, 0
            self._toggle_tracing()

    def _check_commit(self) -> List[str]:
        problems, _ = check_matching(
            self.service.matching.edges(), set(self.switch.queues), 0,
            maximal=False, min_ratio=0.0)
        return problems

    def cycle(self) -> None:
        self._push(self.switch.arrivals())
        snapshot = self._call(self.service.snapshot)
        self._push(self.switch.departures(snapshot.matching.edges()))

    def run(self, events: int = 0, seconds: float = 0.0) -> None:
        """Cycle until ``events`` more events and ``seconds`` have passed,
        spot-checking every ``check_every`` events when ``seconds`` > 0."""
        stop_events = self.events + events
        next_check = self.events + self.spec.check_every
        start = clock()
        self._toggle_tracing()
        try:
            while self.events < stop_events or clock() - start < seconds:
                self.cycle()
                if seconds and self.events >= next_check:
                    self.spot_check()
                    next_check += self.spec.check_every
        except Exception as exc:  # the service broke: end the run, failed
            self.error = f"{type(exc).__name__}: {exc}"
            print(f"stream FAILED: {self.error}", file=sys.stderr)
        finally:
            if self.tracer is not None and self.tracer.installed:
                self.tracer.uninstall()

    def spot_check(self) -> None:
        """Commit what is pending (untimed), then check the ratio against
        the exact optimum of the mirror."""
        if self.service.pending:
            op, tracing = None, self.tracer
            if tracing is not None:
                op, tracing.op = tracing.op, None  # not part of any op
            self.service.commit()
            if tracing is not None:
                tracing.op = op
        ref = switch_reference_size(self.switch.queues, self.switch.ports)
        problems, ratio = check_matching(
            self.service.matching.edges(), set(self.switch.queues), ref,
            maximal=False, min_ratio=self.spec.min_ratio)
        self.checks.append({"events": self.events, "ratio": ratio,
                            "problems": problems})
        for problem in problems[:3]:
            print(f"spot check FAILED: {problem}", file=sys.stderr)


def run_stream(spec: StreamWorkload, seed: int, seconds: float, *,
               setup_only: bool = False, tracer: Any = None,
               ) -> Dict[str, Any]:
    """Set up and warm the service, then stream for ``seconds``."""
    switch = VOQSwitch(spec.ports, spec.load, seed)
    t0 = clock()
    import repro

    service = repro.MatchingService(k=spec.k, seed=seed)
    built = clock() - t0
    loop = StreamLoop(service, switch, spec)
    loop.run(events=spec.warmup_events)
    setup_s = built + loop.call_s
    if setup_only:
        _reap_children()
        return {"setup_s": setup_s}

    warm = loop.restart(tracer)
    loop.run(seconds=seconds)
    if loop.error is None:
        loop.spot_check()
    service.close()
    timed = loop.commits

    out = _summary(warm + timed + loop.checks, setup_s)
    if loop.error is not None:
        out["failed"] += 1
        out["attempted"] += 1
    out["metrics"].update(_timing_metrics(timed, 1))
    out["metrics"]["events"] = loop.events
    out["metrics"]["recomputes"] = service.recomputes
    out["lingering_workers"] = _reap_children()
    out["ops"] = timed
    return out


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Any, ops: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer calls, self time and counters, averaged per traced op.

    ``ops`` are the run's timed ops (static ops or stream commits) in
    order; op ``i``'s spans carry op id ``i``, and its ``service_s`` is
    the wall the harness measured around the op's calls.
    """
    per_op = tracer.by_op()
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    n = max(1, len(traced))

    def total(layer: str, key: str) -> float:
        return sum(per_op.get(i, {}).get(layer, {}).get(key, 0)
                   for i in traced)

    def self_ms(layer: str) -> float:
        return 1e3 * total(layer, "self_s") / n

    def counters(i: int) -> Dict[str, float]:
        return ops[i].get("counters", {})

    def ran(layer: str) -> List[int]:
        return [i for i in traced if layer in per_op.get(i, {})]

    def counter(layer: str, key: str) -> float:
        among = ran(layer)
        return (statistics.fmean(counters(i).get(key, 0) for i in among)
                if among else 0.0)

    m: Dict[str, Any] = {}
    for layer in ("matching.oracle", "congest.run", "graphs.to_csr"):
        m[f"{layer}.calls"] = total(layer, "calls") / n
    for layer in ("matching.oracle", "matching.verify",
                  "congest.network_init", "congest.run", "dist.driver",
                  "mpc.driver", "graphs.to_csr", "models.resolve",
                  "stream.apply", "stream.commit", "stream.snapshot",
                  "core.api"):
        m[f"{layer}.self_ms"] = self_ms(layer)
    m["mpc.cluster_init_ms"] = self_ms("mpc.cluster_init")
    for name in ("spawn", "partition", "execute"):
        m[f"congest.sharding.{name}_ms"] = self_ms(f"congest.sharding.{name}")

    # counters read from the results of the ops in which the layer ran
    for key in ("rounds", "messages", "bits", "sub_rounds"):
        m[f"congest.{key}"] = counter("congest.run", key)
    m["congest.sharding.cut_edges"] = counter(
        "congest.sharding.execute", "cut_edges")
    m["congest.sharding.halo_bits"] = counter(
        "congest.sharding.execute", "halo_bits")
    m["congest.sharding.live_workers_max"] = max(
        (op.get("live_workers", 0) for op in ops), default=0)
    m["mpc.supersteps"] = counter("mpc.driver", "rounds")
    among = ran("mpc.driver")
    m["mpc.peak_over_S"] = (statistics.fmean(
        counters(i).get("peak_words", 0)
        / max(1, counters(i).get("limit_words", 0)) for i in among)
        if among else 0.0)
    hits = sum(counters(i).get("csr_hits", 0) for i in traced)
    misses = sum(counters(i).get("csr_misses", 0) for i in traced)
    m["graphs.csr_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)

    # stream commits carry their BatchStats
    commits = [ops[i] for i in traced if "seeds" in ops[i]]
    explored = sum(c["nodes_explored"] for c in commits)
    m["stream.seeds_per_commit"] = (
        statistics.fmean(c["seeds"] for c in commits) if commits else 0.0)
    m["stream.repair_yield"] = (
        sum(c["augmentations"] for c in commits) / explored
        if explored else 0.0)
    m["stream.recompute_frac"] = (
        sum(c["mode"] == "recompute" for c in commits) / len(commits)
        if commits else 0.0)

    # the self times of an op's spans sum to its root spans; compare with
    # the wall the harness measured, over all traced ops (a collector
    # pause between the harness clock and a wrapper's clock would swamp
    # a single sub-millisecond op)
    covered = wall = 0.0
    for i in traced:
        covered += sum(row["self_s"] for row in per_op.get(i, {}).values())
        wall += ops[i]["service_s"]
    m["trace.self_sum_err"] = abs(covered - wall) / wall if wall else 0.0

    on = [ops[i]["latency_s"] for i in traced]
    off = [op["latency_s"] for op in ops if not op["traced"]]
    m["trace.overhead"] = (quantile(on, 0.5) / quantile(off, 0.5)
                           if on and off else 0.0)
    m["traced_ops"] = len(traced)
    m["tiers"] = tracer.tiers()
    m["absent"] = sorted(tracer.absent)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_only: bool) -> Dict[str, Any]:
    spec = WORKLOADS[workload]
    tracer = None
    if trace:
        from trace import Tracer

        tracer = Tracer()
    runner = run_static if spec.kind == "static" else run_stream
    out = runner(spec, seed, seconds, setup_only=setup_only, tracer=tracer)
    if setup_only:
        return out
    ops = out.pop("ops")
    if tracer is not None:
        layers = layer_metrics(tracer, ops)
        out["layers"] = layers
        tracer.write(OUT / f"trace-{workload}.jsonl")
        if layers["trace.self_sum_err"] > SELF_SUM_TOLERANCE:
            out["trace_error"] = (
                f"layer self times miss the op wall by "
                f"{layers['trace.self_sum_err']:.1%}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "measure"),
                    default="measure")
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.phase == "setup")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
