"""Same-host tier ratios: one number defends each execution tier.

Run from the repo root::

    PYTHONPATH=src python tools/bench_ratios.py [SUITE ...] [--json PATH]
                                                [--check-against PATH]

The paper is pure theory, so an execution tier here may change only
speed.  Each row of this harness runs one workload on a *reference*
configuration and on a *fast* configuration and records the ratio of
their wall times, reference over fast: how many times faster the fast
side runs.  Both sides run on the same host in the same process, so the
ratio travels across runners where absolute times do not.  End-to-end
and per-layer numbers belong to ``bench/``, not here.

Suites (default: all of them, in this order):

``engine``
    ``flood`` (every node rebroadcasts the largest id seen, 60 rounds:
    pure delivery work) and ``israeli_itai``, ``legacy`` dict engine vs
    the batched ``node`` engine on random_bipartite(500, 500, 0.008).
    Target: flood >= 3x.
``observe``
    the node-tier flood unobserved (reference) vs observed by an idle
    bus, a structural trace and a full message trace (fast side).  The
    ratio is therefore 1 / overhead, and the <= 1.5x overhead target on
    the idle bus and the structural trace is the target 1 / 1.5; the
    message trace is recorded only.  Traces go to a file in a temporary
    directory, as a recorded trace does.
``kernels``
    ``israeli_itai``, ``luby_mis``, the bipartite ``counting`` pass,
    ``token_mis`` selection and one whole ``bipartite_mcm(k=2)`` call
    (Theorem 3.10: counting and token passes alternating on one network,
    where the counting kernel reuses its level state from run to run),
    per-node ``node`` dispatch vs vectorized ``kernel`` passes on
    1,000-node graphs of mean degree 16, with numpy; ``israeli_itai`` and
    ``luby_mis`` also on the pure-python fallback (the other kernels have
    no numpy branch, so their fallback row would time the same code
    twice).  Targets: israeli_itai and luby_mis >= 3x with numpy, >= 1.2x
    on the fallback.
``shards``
    ``israeli_itai`` and ``luby_mis``, in-process ``kernel`` vs
    ``sharded-kernel`` at 1, 2 and 4 shards on gnp(10000, degree 16).
    Both sides keep one network and warm it before the clock starts, so
    the worker pool is spawned once, as a long experiment amortizes it.
    Target: >= 1.5x at 4 shards.  A shard count above the host's cores
    is recorded as skipped: no parallel speedup is physically possible.
``mpc``
    ``mpc_maximal`` on gnp(10000, 0.0008) at alpha = 0.5, per-machine
    ``node`` loops vs whole-cluster ``mpc_kernel`` passes.  Target:
    >= 3x; skipped without numpy.
``stream``
    the traffic of a closed-loop 32-port switch (load 0.7) is recorded
    once; after its first 20,000 events (the warm-up ``bench/`` discards
    for the same ``stream_switch`` traffic), pair i replays the i-th
    500-event window per event through
    ``MatchingService(repair="legacy")`` (one commit per update) vs the
    batched ``MatchingService`` (k = 2, batch 64).  Both services are
    built, untimed, on the demand graph at the window's start.  Target:
    >= 2x.

Mechanics, shared by every row:

* timing -- the two sides alternate sample by sample (reference then
  fast, then fast then reference, and so on), so a contention phase
  lands on both sides; a row's ratio is the median per-pair ratio;
* correctness -- the two outputs of every pair must be equal (the
  stream row instead requires the batched service to hold its
  invariant and its approximation guarantee after every window); a
  mismatch fails the row;
* gate -- a row fails when its ratio is below its target; a row that
  cannot run on this host is recorded as skipped, with the reason, and
  does not fail;
* regression -- ``--check-against`` fails a row whose ratio falls below
  0.8x the committed ratio; a row missing or skipped on either side is
  reported, not compared.

The committed ``BENCH_ratios.json`` is written by ``--json
BENCH_ratios.json``, and CI runs the same command with
``--check-against BENCH_ratios.json``, so the check compares like with
like.  The exit status is 1 when any row fails.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.congest import (
    BROADCAST,
    CONGEST,
    LOCAL,
    PIPELINE,
    ExecutionPlan,
    JsonlTraceWriter,
    Network,
    NodeAlgorithm,
    kernels,
)
from repro.dist.bipartite_counting import X_SIDE, Y_SIDE, run_counting
from repro.dist.bipartite_mcm import bipartite_mcm
from repro.dist.israeli_itai import israeli_itai
from repro.dist.luby_mis import luby_mis
from repro.dist.token_mis import run_token_selection
from repro.graphs import Graph, gnp, random_bipartite
from repro.mpc import MPCCluster, mpc_maximal
from repro.mpc.kernel import unavailable_reason
from repro.stream import EdgeUpdate, MatchingService
from repro.stream.replay import replay_events, replay_switch

PAIRS = 9                   # timed (reference, fast) pairs per row
REGRESSION_TOLERANCE = 0.8  # a ratio may not fall below 0.8x committed

#: A prepared sample: calling it is the timed region; its result is the
#: output compared across the pair.
Sample = Callable[[], Any]
#: One side's endless supply of prepared samples.
Samples = Generator[Sample, None, None]


@dataclass
class Row:
    """One same-host ratio: ``workload`` on ``reference`` vs ``fast``.

    ``samples`` holds one generator of prepared samples per side,
    reference first.  Untimed setup (graphs, networks, warm pools) runs
    inside the generators while they produce a sample, and their
    ``finally``/``with`` blocks release it when the row is done.
    ``check(reference_output, fast_output)`` returns why a pair is wrong,
    or None.  A row with a ``skip`` reason is recorded and never timed.
    """

    name: str
    workload: str
    reference: str
    fast: str
    samples: Optional[Tuple[Samples, Samples]] = None
    target: Optional[float] = None
    skip: Optional[str] = None
    pairs: int = PAIRS
    check: Callable[[Any, Any], Optional[str]] = (
        lambda ref, fast: None if ref == fast else "outputs differ")


# --- the one timing routine, gate rule and regression rule -------------

def measure(row: Row, clock: Callable[[], float] = time.perf_counter
            ) -> Dict[str, Any]:
    """Time ``row`` and return its record (``failed`` names a failure)."""
    record: Dict[str, Any] = {"workload": row.workload,
                              "reference": row.reference,
                              "fast": row.fast, "target": row.target}
    if row.skip is not None:
        record["skipped"] = row.skip
        return record
    seconds: Tuple[List[float], List[float]] = ([], [])
    try:
        for pair in range(row.pairs):
            outputs: List[Any] = [None, None]
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                sample = next(row.samples[side])
                start = clock()
                outputs[side] = sample()
                seconds[side].append(clock() - start)
            problem = row.check(*outputs)
            if problem is not None:
                record["failed"] = f"pair {pair}: {problem}"
                return record
    finally:
        for samples in row.samples:
            samples.close()
    ratios = [ref / fast for ref, fast in zip(*seconds)]
    ratio = statistics.median(ratios)
    record.update(
        pairs=row.pairs, ratio=round(ratio, 3),
        pair_ratios=[round(r, 3) for r in ratios],
        reference_ms=round(1e3 * statistics.median(seconds[0]), 2),
        fast_ms=round(1e3 * statistics.median(seconds[1]), 2))
    if row.target is not None and ratio < row.target:
        record["failed"] = (f"ratio {ratio:.3g}x is below the "
                            f"{row.target:.3g}x target")
    return record


def regressions(current: Dict[str, Dict[str, Any]],
                committed: Dict[str, Dict[str, Any]]
                ) -> Tuple[List[str], List[str]]:
    """``(failures, notes)`` of ``current`` against ``committed`` rows.

    A row fails when its ratio falls below ``REGRESSION_TOLERANCE`` times
    the committed ratio.  A row without a ratio on either side (missing,
    skipped or failed) is noted, not compared.
    """
    failures, notes = [], []
    for name in sorted(set(current) | set(committed)):
        now = current.get(name, {}).get("ratio")
        base = committed.get(name, {}).get("ratio")
        if now is None or base is None:
            where = "this run" if now is None else "the committed report"
            notes.append(f"{name}: not compared (no ratio in {where})")
        elif now < REGRESSION_TOLERANCE * base:
            failures.append(
                f"{name}: ratio {now:.3g}x fell below "
                f"{REGRESSION_TOLERANCE:g} x committed {base:.3g}x")
    return failures, notes


# --- sample generators -------------------------------------------------

# Each generator collects garbage before it hands out a sample, so an
# earlier sample's garbage is not charged to the next one.

def fresh(build: Callable[[], Any], run: Callable[[Any], Any]) -> Samples:
    """Samples that ``run`` a fresh ``build()`` each time (untimed build)."""
    while True:
        state = build()
        gc.collect()
        yield partial(run, state)


def persistent(build: Callable[[], Network], run: Callable[[Network], Any]
               ) -> Samples:
    """Samples that ``run`` one network again and again.

    A first, untimed run spawns any worker pool before the clock starts.
    The i-th samples of two such sides see the same per-run rng streams,
    so their outputs compare.
    """
    with build() as net:
        run(net)
        while True:
            gc.collect()
            yield partial(run, net)


def traced(build: Callable[..., Network], run: Callable[[Network], Any],
           **writer_options: Any) -> Samples:
    """Samples of ``run`` with a fresh trace writer subscribed, writing a
    file in a temporary directory; each writer is closed after its
    sample, outside the timed region."""
    with tempfile.TemporaryDirectory(prefix="bench_ratios_") as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        while True:
            with JsonlTraceWriter(path, **writer_options) as writer:
                net = build(observe=[writer])
                gc.collect()
                yield partial(run, net)


def congest(protocol: Callable[[Network], Any], net: Network) -> Any:
    """Run ``protocol``; its output and the network's cost account."""
    return protocol(net), net.metrics


def pure_python(run: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``run`` on the kernels' pure-python fallback (numpy switched off
    the way the tests do it, through ``kernels._np``)."""
    def fallback(state: Any) -> Any:
        saved, kernels._np = kernels._np, None
        try:
            return run(state)
        finally:
            kernels._np = saved
    return fallback


def ii_edges(net: Network) -> frozenset:
    return frozenset(israeli_itai(net).edges())


def mis_nodes(net: Network) -> frozenset:
    return frozenset(luby_mis(net))


# --- engine and observe: delivery work on a 1,000-node bipartite graph --

ENGINE_GRAPH = "random_bipartite(500, 500, 0.008)"
FLOOD_ROUNDS = 60


class FloodMax(NodeAlgorithm):
    """Broadcast the largest id seen; halt after ``shared['rounds']``."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.best = ctx.node_id
        self.limit = ctx.shared["rounds"]
        self.seen = 0

    def start(self):
        return {BROADCAST: self.best}

    def on_round(self, inbox):
        self.seen += 1
        for value in inbox.values():
            if value > self.best:
                self.best = value
        if self.seen >= self.limit:
            return self.halt(self.best)
        return {BROADCAST: self.best}


def flood(net: Network) -> Any:
    result = net.run(FloodMax, shared={"rounds": FLOOD_ROUNDS},
                     max_rounds=FLOOD_ROUNDS + 2)
    return result.outputs, net.metrics


def engine_rows() -> List[Row]:
    build = partial(Network, random_bipartite(500, 500, 0.008, rng=0),
                    policy=LOCAL, seed=0)

    def sides(run):
        return (fresh(partial(build, execution="legacy"), run),
                fresh(partial(build, execution="node"), run))

    return [
        Row("engine/flood", f"{ENGINE_GRAPH}, {FLOOD_ROUNDS} rounds",
            "legacy", "node", sides(flood), target=3.0),
        Row("engine/israeli_itai", ENGINE_GRAPH, "legacy", "node",
            sides(partial(congest, ii_edges))),
    ]


def observe_rows() -> List[Row]:
    build = partial(Network, random_bipartite(500, 500, 0.008, rng=0),
                    policy=LOCAL, seed=0, execution="node")
    workload = f"node-tier flood, {ENGINE_GRAPH}, {FLOOD_ROUNDS} rounds"

    def row(name, samples, target=None):
        return Row(f"observe/{name}", workload, "unobserved", name,
                   (fresh(build, flood), samples), target=target)

    return [
        row("idle bus", fresh(partial(build, observe=[]), flood),
            target=1 / 1.5),
        row("structural trace", traced(build, flood), target=1 / 1.5),
        row("message trace", traced(build, flood, messages=True)),
    ]


# --- kernels and shards: vectorized passes vs per-node dispatch --------

KERNEL_DEGREE = 16
#: kernel samples last milliseconds, so their per-pair ratios spread
#: widely; more pairs steady the median
KERNEL_PAIRS = 15
SHARD_COUNTS = (1, 2, 4)
#: shard workers share the host's cores with everything else running,
#: so their per-pair ratios spread widely too
SHARD_PAIRS = 15


def counting_instance(n: int):
    """A random bipartite graph of mean degree 16 with a greedy matching:
    the counting and token passes' inputs (graph, side, mate)."""
    half = n // 2
    g = random_bipartite(half, half, KERNEL_DEGREE / half, rng=7)
    side = {v: (X_SIDE if v < half else Y_SIDE) for v in sorted(g.nodes)}
    mate = {v: None for v in g.nodes}
    for u in sorted(g.nodes):
        if side[u] != X_SIDE or mate[u] is not None:
            continue
        for v in sorted(g.neighbors(u)):
            if mate[v] is None:
                mate[u], mate[v] = v, u
                break
    return g, side, mate


def kernel_rows(n: int = 1000) -> List[Row]:
    ell = 6
    g = gnp(n, KERNEL_DEGREE / (n - 1), rng=7)
    bip, side, mate = counting_instance(n)
    # count states are inputs to token selection, not part of its timed
    # protocol: compute them once, on a throwaway network
    states = run_counting(Network(bip, policy=PIPELINE, seed=7), side, mate,
                          ell)
    cap = (max(2, bip.num_nodes)
           * max(2, bip.max_degree) ** ((ell + 1) // 2)) ** 4

    def counting(net):
        out = run_counting(net, side, mate, ell)
        return tuple((v, None if s is None else (s.t, s.total))
                     for v, s in sorted(out.items()))

    def token_mis(net):
        new_mate, applied = run_token_selection(net, side, mate, ell,
                                                states, cap)
        return tuple(sorted(new_mate.items())), applied

    def mcm(net):
        return frozenset(bipartite_mcm(bip, k=2, network=net)
                         .matching.edges())

    gnp_build = partial(Network, g, policy=CONGEST, seed=7)
    bip_build = partial(Network, bip, policy=PIPELINE, seed=7)
    gnp_name = f"gnp({n}, degree {KERNEL_DEGREE})"
    bip_graph = (f"random_bipartite({n // 2}, {n // 2}, degree "
                 f"{KERNEL_DEGREE})")
    bip_name = f"{bip_graph}, greedy matching, ell={ell}"
    # the last field: the kernel has a numpy branch.  Only such a kernel
    # is gated, and only it runs different code on the fallback.
    workloads = [
        ("israeli_itai", gnp_name, gnp_build, ii_edges, True),
        ("luby_mis", gnp_name, gnp_build, mis_nodes, True),
        ("counting", bip_name, bip_build, counting, False),
        ("token_mis", bip_name, bip_build, token_mis, False),
        ("bipartite_mcm", f"{bip_graph}, k=2", bip_build, mcm, False),
    ]
    rows = []
    for mode, target in (("numpy", 3.0), ("fallback", 1.2)):
        for name, workload, build, protocol, numpy_branch in workloads:
            if mode == "fallback" and not numpy_branch:
                continue
            run = partial(congest, protocol)
            row = Row(f"kernels/{name}[{mode}]", workload, "node", "kernel",
                      target=target if numpy_branch else None,
                      pairs=KERNEL_PAIRS)
            if mode == "numpy" and kernels._np is None:
                row.skip = "numpy is not importable"
            else:
                if mode == "fallback":
                    run = pure_python(run)
                row.samples = (fresh(partial(build, execution="node"), run),
                               fresh(partial(build, execution="kernel"), run))
            rows.append(row)
    return rows


def shard_rows(n: int = 10_000) -> List[Row]:
    g = gnp(n, KERNEL_DEGREE / (n - 1), rng=7)
    build = partial(Network, g, policy=CONGEST, seed=7)
    cores = os.cpu_count() or 1
    rows = []
    for name, protocol in (("israeli_itai", ii_edges),
                           ("luby_mis", mis_nodes)):
        run = partial(congest, protocol)
        for shards in SHARD_COUNTS:
            plan = ExecutionPlan(tier="sharded-kernel", shards=shards)
            row = Row(f"shards/{name}[{shards}]",
                      f"gnp({n}, degree {KERNEL_DEGREE})", "kernel",
                      f"sharded-kernel, {shards} shard(s)",
                      target=1.5 if shards == max(SHARD_COUNTS) else None,
                      pairs=SHARD_PAIRS)
            if shards > cores:
                row.skip = (f"{shards} shards > {cores} core(s): no "
                            f"parallel speedup is physically possible")
            else:
                row.samples = (
                    persistent(partial(build, execution="kernel"), run),
                    persistent(partial(build, execution=plan), run))
            rows.append(row)
    return rows


# --- mpc and stream -----------------------------------------------------

def mpc_run(cluster: MPCCluster) -> Any:
    res = mpc_maximal(cluster)
    return (frozenset(res.matching.edges()), res.supersteps,
            res.peak_words, res.iteration_stats, res.delta_est,
            res.edge_decay)


def mpc_rows(n: int = 10_000, p: float = 0.0008,
             alpha: float = 0.5) -> List[Row]:
    row = Row("mpc/maximal", f"gnp({n}, {p:g}), alpha {alpha:g}", "node",
              "mpc_kernel", target=3.0, skip=unavailable_reason())
    if row.skip is None:
        build = partial(MPCCluster, gnp(n, p, rng=0), alpha=alpha, seed=0)
        row.samples = (fresh(partial(build, execution="node"), mpc_run),
                       fresh(partial(build, execution="mpc_kernel"),
                             mpc_run))
    return [row]


#: events of the switch traffic before the first timed window: the
#: warm-up bench/workloads.py discards for the same stream_switch workload
STREAM_WARMUP = 20_000
#: pair i replays the i-th window of STREAM_WINDOW events after the
#: warm-up.  A per-event replay is 20x longer than its batched partner;
#: short windows keep a whole pair inside one contention phase of a
#: shared host, so the phase lands on both sides
STREAM_WINDOW = 500
STREAM_PAIRS = 25


def switch_windows(ports: int, load: float, k: int, batch: int
                   ) -> List[Tuple[Graph, List[EdgeUpdate]]]:
    """Record the closed-loop switch traffic once; return, per timed
    window, the demand graph at its start and its events."""
    events: List[EdgeUpdate] = []
    replay_switch(ports=ports, cycles=10 ** 9, load=load, seed=0,
                  batch=batch, spot_checks=0,
                  max_events=STREAM_WARMUP + STREAM_PAIRS * STREAM_WINDOW,
                  record=events, k=k)
    tracker = MatchingService(k=k)
    tracker.apply(events[:STREAM_WARMUP])
    windows = []
    for lo in range(STREAM_WARMUP, STREAM_WARMUP
                    + STREAM_PAIRS * STREAM_WINDOW, STREAM_WINDOW):
        tracker.commit()
        windows.append((tracker.graph.copy(),
                        events[lo:lo + STREAM_WINDOW]))
        tracker.apply(events[lo:lo + STREAM_WINDOW])
    return windows


def per_event(updates: List[EdgeUpdate]) -> List[EdgeUpdate]:
    """The per-event cost model of the legacy repair: a weight update
    repairs as an ``insert_edge`` does."""
    return [EdgeUpdate("insert", up.u, up.v, up.weight)
            if up.op == "weight" else up for up in updates]


def replayed(service: MatchingService, updates: List[EdgeUpdate],
             batch: int) -> MatchingService:
    """Replay ``updates`` into ``service``, ``batch`` per commit; the
    service is the sample's output."""
    replay_events(updates, service=service, batch=batch)
    return service


def windowed(windows: List[Tuple[Graph, List[EdgeUpdate]]],
             build: Callable[[Graph], MatchingService], batch: int,
             convert: Callable[[List[EdgeUpdate]], List[EdgeUpdate]] = list
             ) -> Samples:
    """Samples that replay successive windows, each into a service built
    (untimed) on the window's starting graph, ``batch`` updates per
    commit."""
    for graph, updates in windows:
        service, updates = build(graph), convert(updates)
        gc.collect()
        yield partial(replayed, service, updates, batch)


def guarantee_broken(legacy: Any, batched: MatchingService
                     ) -> Optional[str]:
    """Why the batched service misses its invariant or its approximation
    guarantee after a window (checked untimed), or None."""
    if not batched.verify_invariant():
        return f"invariant violated at epoch {batched.epoch}"
    ratio = batched.current_ratio()
    if ratio < batched.guarantee - 1e-9:
        return (f"ratio {ratio:.3f} below the guarantee "
                f"{batched.guarantee:.3f} at epoch {batched.epoch}")
    return None


def stream_rows(ports: int = 32, load: float = 0.7, k: int = 2,
                batch: int = 64) -> List[Row]:
    windows = switch_windows(ports, load, k, batch)
    return [Row(
        "stream/switch",
        f"{STREAM_PAIRS} successive {STREAM_WINDOW}-event windows of a "
        f"{ports}-port switch at load {load} after {STREAM_WARMUP} "
        f"warm-up events, k={k}, batch {batch}",
        "per-event legacy repair", "batched MatchingService",
        (windowed(windows, partial(MatchingService, k=k, repair="legacy"),
                  1, per_event),
         windowed(windows, partial(MatchingService, k=k, seed=0), batch)),
        target=2.0, pairs=STREAM_PAIRS, check=guarantee_broken)]


SUITES: Dict[str, Callable[[], List[Row]]] = {
    "engine": engine_rows,
    "observe": observe_rows,
    "kernels": kernel_rows,
    "shards": shard_rows,
    "mpc": mpc_rows,
    "stream": stream_rows,
}


# --- report -------------------------------------------------------------

def describe(name: str, record: Dict[str, Any]) -> str:
    """One console line per row."""
    line = f"{name:34} {record['reference']} vs {record['fast']}:"
    if "skipped" in record:
        return f"{line} skipped ({record['skipped']})"
    if "ratio" in record:
        line += (f" {record['ratio']:.3g}x (pairs "
                 f"{min(record['pair_ratios']):.3g}-"
                 f"{max(record['pair_ratios']):.3g} over {record['pairs']}; "
                 f"{record['reference_ms']:.1f} ms vs "
                 f"{record['fast_ms']:.1f} ms)")
    if record["target"] is not None:
        line += f", target >= {record['target']:.2f}x"
    if "failed" in record:
        line += f"  FAILED: {record['failed']}"
    return line


def write_report(path: str, rows: Dict[str, Dict[str, Any]]) -> None:
    """The one writer: host metadata plus every row's record."""
    report = {
        "meta": {
            "tool": "tools/bench_ratios.py",
            "python": platform.python_version(),
            "numpy": getattr(kernels._np, "__version__", None),
            "machine": platform.machine(),
            "cores": os.cpu_count() or 1,
            "regression_tolerance": REGRESSION_TOLERANCE,
        },
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="same-host tier ratios, one row per measurement")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"suites to run (default: all of "
                             f"{', '.join(SUITES)})")
    parser.add_argument("--json", metavar="PATH",
                        help="write every row's record to PATH "
                             "(BENCH_ratios.json)")
    parser.add_argument("--check-against", metavar="PATH",
                        help="also fail a row whose ratio fell below "
                             f"{REGRESSION_TOLERANCE:g}x the ratio in this "
                             "committed report")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.suites) - set(SUITES))
    if unknown:
        parser.error(f"unknown suite(s) {', '.join(unknown)}; choose from "
                     f"{', '.join(SUITES)}")
    suites = args.suites or list(SUITES)
    committed = None
    if args.check_against is not None:
        with open(args.check_against) as fh:
            committed = {name: record
                         for name, record in json.load(fh)["rows"].items()
                         if name.split("/")[0] in suites}
    rows: Dict[str, Dict[str, Any]] = {}
    for suite in suites:
        for row in SUITES[suite]():
            rows[row.name] = measure(row)
            print(describe(row.name, rows[row.name]), flush=True)
    failures = [f"{name}: {record['failed']}"
                for name, record in rows.items() if "failed" in record]
    if committed is not None:
        regressed, notes = regressions(rows, committed)
        failures += regressed
        for note in notes:
            print(note)
        print(f"checked {len(rows)} row(s) against {args.check_against} "
              f"(tolerance {REGRESSION_TOLERANCE:g}x committed)")
    if args.json is not None:
        write_report(args.json, rows)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
