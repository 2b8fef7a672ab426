"""Benchmark the batched CSR delivery engine against the legacy dict engine.

Run from the repo root::

    PYTHONPATH=src python tools/bench_engine.py
    PYTHONPATH=src python tools/bench_engine.py --n 2000 --rounds 80
    PYTHONPATH=src python tools/bench_engine.py --observed
    PYTHONPATH=src python tools/bench_engine.py --json BENCH_engine.json
    PYTHONPATH=src python tools/bench_engine.py --smoke

``--observed`` measures the observability overhead on the CSR flood
workload: an idle bus (no subscribers), a structural
:class:`~repro.observe.events.JsonlTraceWriter` (the default trace mode),
and a full per-message writer, each reported as a ratio over the
unobserved run (acceptance: structural tracing within 1.5x; no
subscribers within measurement noise).

``--json PATH`` runs *both* sections (engine comparison and observer
overhead) and writes a machine-readable report — rounds/sec per
workload/engine, speedups, overhead ratios, and run metadata.  The
committed ``BENCH_engine.json`` at the repo root is produced this way.

``--kernels`` measures the vectorized kernel fast path
(:mod:`repro.congest.kernels`) against per-node dispatch on the same
batched engine — Israeli-Itai, Luby MIS, the counting pass and token
selection on 1000-node graphs of mean degree 16, each with numpy and on
the pure-python fallback.  Acceptance gates: >= 3x rounds/sec with numpy
and >= 1.2x pure-python on ``israeli_itai`` and ``luby_mis``.  The committed
``BENCH_kernels.json`` is produced with ``--kernels --json``;
``--check-against BENCH_kernels.json`` additionally fails when a current
*speedup ratio* regressed more than 20% below the committed one — ratios
(kernel vs node on the same machine) travel across runners, absolute
rounds/sec do not.

``--shards [K,K,...]`` measures the sharded-kernel tier
(:mod:`repro.congest.sharding`: shard workers running the vectorized
``RoundKernel`` fast path) against both in-process baselines on the same
workloads — the kernel path and the per-node path — with a persistent
worker pool per shard count (default 1,2,4), warmed before timing so
pool startup is excluded, exactly as a long experiment amortizes it.
The result is the ``sharded_kernel_rounds_per_sec`` column, gated at
>= 1.5x the *in-process kernel* baseline at the largest shard count,
held at the 10k-node scale the committed report uses (barrier cost
amortizes with per-round work, so tiny graphs overstate it).  The gate
is *cores-aware*: it only applies when the machine has at least
``gate_k`` cores and is recorded as skipped (with the reason) otherwise,
so a 1-core runner still produces an honest ``BENCH_shards.json``
without a vacuous failure.  ``--kernels`` is accepted beside
``--shards`` (the committed report is produced with ``--shards
--kernels``) and changes nothing there.  All other benchmark modes pin
``REPRO_SHARDS=0`` so auto-sharding on a big multi-core runner cannot
leak into their numbers.

``--smoke`` shrinks the workloads and disables the acceptance gates
(always exit 0): a CI-friendly "does the harness still run" check —
shared runners are far too noisy for timing gates.

Two workloads, both seeded and engine-independent in outcome:

* ``flood`` — every node broadcasts the running max id each round; this is
  pure delivery work (trivial node programs) and shows the engine's raw
  rounds/sec headline on a 1000-node random bipartite graph.
* ``israeli_itai`` — the maximal-matching baseline; node computation
  dominates here, so the speedup is smaller and bounds what full
  algorithms see end to end.

The numbers also serve as the PR acceptance gate: the flood workload is
expected to show a >= 3x rounds/sec advantage for the CSR engine.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import os
import tempfile

from repro.congest import (
    BROADCAST,
    CONGEST,
    LOCAL,
    PIPELINE,
    SHARDS_ENV,
    EventBus,
    ExecutionPlan,
    JsonlTraceWriter,
    Network,
    NodeAlgorithm,
    kernels,
)
from repro.dist.bipartite_counting import X_SIDE, Y_SIDE, run_counting
from repro.dist.israeli_itai import israeli_itai
from repro.dist.luby_mis import luby_mis
from repro.dist.token_mis import run_token_selection
from repro.graphs import gnp, random_bipartite


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


def _flood(execution: str, n_side: int, p: float, rounds: int,
           reps: int = 3, observe_factory=None):
    g = random_bipartite(n_side, n_side, p, rng=0)
    best, outputs, done = float("inf"), None, 0
    for _ in range(reps):  # best-of-reps damps scheduler noise
        observe = observe_factory() if observe_factory is not None else None
        net = Network(g, policy=LOCAL, seed=0, execution=execution,
                      observe=observe)
        t0 = time.perf_counter()
        res = net.run(FloodMax, shared={"rounds": rounds},
                      max_rounds=rounds + 2)
        best = min(best, time.perf_counter() - t0)
        outputs, done = res.outputs, res.rounds
        if observe is not None:
            for sub in observe.subscribers:
                if isinstance(sub, JsonlTraceWriter):
                    sub.close()
    return done / best, best, outputs


def _israeli(execution: str, n_side: int, p: float, seed: int = 0,
             reps: int = 3):
    g = random_bipartite(n_side, n_side, p, rng=0)
    best, edges, done = float("inf"), None, 0
    for _ in range(reps):
        net = Network(g, policy=LOCAL, seed=seed, execution=execution)
        t0 = time.perf_counter()
        matching = israeli_itai(net)
        best = min(best, time.perf_counter() - t0)
        edges, done = set(matching.edges()), net.metrics.total_rounds
    return done / best, best, edges


def _report(name: str, legacy, csr, record=None) -> float:
    (rs_legacy, t_legacy, out_legacy) = legacy
    (rs_csr, t_csr, out_csr) = csr
    assert out_csr == out_legacy, f"{name}: engines disagree on outputs!"
    speedup = rs_csr / rs_legacy
    print(f"{name:>14}: legacy {rs_legacy:8.1f} r/s ({t_legacy:.3f}s)   "
          f"csr {rs_csr:8.1f} r/s ({t_csr:.3f}s)   speedup {speedup:.2f}x")
    if record is not None:
        record[name] = {
            "legacy_rounds_per_sec": round(rs_legacy, 1),
            "csr_rounds_per_sec": round(rs_csr, 1),
            "legacy_seconds": round(t_legacy, 4),
            "csr_seconds": round(t_csr, 4),
            "speedup": round(speedup, 2),
        }
    return speedup


def _bench_observed(n_side: int, p: float, rounds: int, record=None) -> int:
    """Subscriber-overhead ratios on the CSR flood workload."""
    tmpdir = tempfile.mkdtemp(prefix="bench_observed_")

    def _bus(*observers):
        bus = EventBus()
        for observer in observers:
            bus.subscribe(observer)
        return bus

    modes = [
        ("unobserved", None),
        ("idle bus", lambda: _bus()),
        ("structural trace",
         lambda: _bus(JsonlTraceWriter(
             os.path.join(tmpdir, "structural.jsonl")))),
        ("full message trace",
         lambda: _bus(JsonlTraceWriter(
             os.path.join(tmpdir, "messages.jsonl"), messages=True))),
    ]
    baseline_rs = None
    worst_structural = 1.0
    print(f"observability overhead, csr flood "
          f"({2 * n_side} nodes, {rounds} rounds):")
    for name, factory in modes:
        rs, t, out = _flood("auto", n_side, p, rounds, reps=5,
                            observe_factory=factory)
        if baseline_rs is None:
            baseline_rs = rs
            baseline_out = out
            ratio = 1.0
        else:
            assert out == baseline_out, f"{name}: outputs changed!"
            ratio = baseline_rs / rs
        if name in ("idle bus", "structural trace"):
            worst_structural = max(worst_structural, ratio)
        if record is not None:
            record[name] = {
                "rounds_per_sec": round(rs, 1),
                "overhead_ratio": round(ratio, 2),
            }
        print(f"{name:>20}: {rs:8.1f} r/s ({t:.3f}s)   "
              f"overhead {ratio:.2f}x")
    print(f"headline: structural tracing costs {worst_structural:.2f}x "
          f"(target <= 1.5x; per-message capture is opt-in and unbounded)")
    if record is not None:
        record["worst_structural_ratio"] = round(worst_structural, 2)
    return 0 if worst_structural <= 1.5 else 1


# --- vectorized kernel fast path (--kernels) ---------------------------

KERNEL_DEG = 16            # mean degree of the 1000-node benchmark graphs
NUMPY_SPEEDUP_TARGET = 3.0
FALLBACK_SPEEDUP_TARGET = 1.2
GATED_WORKLOADS = ("israeli_itai", "luby_mis")
REGRESSION_TOLERANCE = 0.8  # current speedup must be >= 80% of committed


def _counting_instance(n: int):
    half = max(1, n // 2)
    g = random_bipartite(half, half, KERNEL_DEG / half, rng=7)
    side = {v: (X_SIDE if v < half else Y_SIDE) for v in sorted(g.nodes)}
    mate = {v: None for v in g.nodes}
    for u in sorted(g.nodes):  # deterministic greedy seed matching
        if side[u] != X_SIDE or mate[u] is not None:
            continue
        for v in sorted(g.neighbors(u)):
            if mate[v] is None:
                mate[u] = v
                mate[v] = u
                break
    return g, side, mate


def _kernel_workloads(n: int):
    """(name, build, go) triples: ``build(execution)`` makes a fresh
    Network, ``go(net)`` runs the protocol and returns a comparable
    result."""
    p = KERNEL_DEG / max(2, n - 1)

    def build_gnp(execution):
        return Network(gnp(n, p, rng=7), policy=CONGEST, seed=7,
                       execution=execution)

    counting_shared = {}

    def build_counting(execution):
        g, side, mate = _counting_instance(n)
        counting_shared["side"], counting_shared["mate"] = side, mate
        return Network(g, policy=PIPELINE, seed=7, execution=execution)

    def go_counting(net):
        outputs = run_counting(net, counting_shared["side"],
                               counting_shared["mate"], ell=6)
        return tuple((v, None if s is None else (s.t, s.total))
                     for v, s in sorted(outputs.items()))

    token_shared = {}

    def build_token(execution):
        # count states are inputs to selection, not part of the timed
        # protocol: compute them once on a throwaway network
        if not token_shared:
            g, side, mate = _counting_instance(n)
            ell = 6
            prep = Network(g, policy=PIPELINE, seed=7)
            states = run_counting(prep, side, mate, ell)
            n_bound = (max(2, g.num_nodes)
                       * max(2, g.max_degree) ** ((ell + 1) // 2))
            token_shared.update(g=g, side=side, mate=mate, ell=ell,
                                states=states, cap=n_bound ** 4)
        return Network(token_shared["g"], policy=PIPELINE, seed=7,
                       execution=execution)

    def go_token(net):
        ts = token_shared
        new_mate, applied = run_token_selection(
            net, ts["side"], ts["mate"], ts["ell"], ts["states"],
            ts["cap"])
        return tuple(sorted(new_mate.items())), applied

    return [
        ("israeli_itai", build_gnp,
         lambda net: frozenset(israeli_itai(net).edges())),
        ("luby_mis", build_gnp, lambda net: frozenset(luby_mis(net))),
        ("counting", build_counting, go_counting),
        ("token_mis", build_token, go_token),
    ]


def _time_kernel_workload(build, go, execution: str, reps: int):
    """Best-of-reps rounds/sec; graph + Network build stay outside timing."""
    best_rs, out, rounds = 0.0, None, 0
    for _ in range(reps):
        net = build(execution)
        t0 = time.perf_counter()
        result = go(net)
        dt = time.perf_counter() - t0
        out, rounds = result, net.metrics.rounds
        best_rs = max(best_rs, rounds / dt)
    return best_rs, rounds, out


def _bench_kernels(n: int, reps: int, record=None) -> int:
    """Kernel fast path vs per-node dispatch: numpy and the pure-python
    fallback."""
    status = 0
    modes = []
    if kernels._np is not None:
        modes.append(("numpy", True))
    else:
        print("numpy unavailable: skipping the numpy mode")
    modes.append(("fallback", False))
    print(f"kernel fast path vs per-node dispatch "
          f"({n} nodes, mean degree {KERNEL_DEG}):")
    for mode_name, use_numpy in modes:
        saved = kernels._np
        if not use_numpy:
            kernels._np = None
        try:
            for name, build, go in _kernel_workloads(n):
                k_rs, k_rounds, k_out = _time_kernel_workload(
                    build, go, "kernel", reps)
                n_rs, n_rounds, n_out = _time_kernel_workload(
                    build, go, "node", reps)
                assert k_out == n_out and k_rounds == n_rounds, (
                    f"{name}: kernel and per-node paths disagree!")
                speedup = k_rs / n_rs
                print(f"{name:>14} [{mode_name:8}]: node {n_rs:8.1f} r/s   "
                      f"kernel {k_rs:8.1f} r/s   speedup {speedup:.2f}x   "
                      f"({k_rounds} rounds)")
                if record is not None:
                    record.setdefault(name, {})[mode_name] = {
                        "node_rounds_per_sec": round(n_rs, 1),
                        "kernel_rounds_per_sec": round(k_rs, 1),
                        "rounds": k_rounds,
                        "speedup": round(speedup, 2),
                    }
                target = (NUMPY_SPEEDUP_TARGET if use_numpy
                          else FALLBACK_SPEEDUP_TARGET)
                if name in GATED_WORKLOADS and speedup < target:
                    print(f"{name:>14} [{mode_name}]: speedup {speedup:.2f}x "
                          f"below the {target:.1f}x gate")
                    status = 1
        finally:
            kernels._np = saved
    print(f"gates: {' and '.join(GATED_WORKLOADS)} need "
          f">= {NUMPY_SPEEDUP_TARGET:.1f}x with numpy, "
          f">= {FALLBACK_SPEEDUP_TARGET:.1f}x pure-python")
    return status


def _check_kernel_regression(record, committed_path: str) -> int:
    """Fail when a current speedup ratio regressed > 20% vs the committed
    report.  Ratios (kernel vs node on the same machine) are compared, not
    absolute rounds/sec, so the check is portable across runners."""
    with open(committed_path) as fh:
        committed = json.load(fh)
    status = 0
    for name, modes in committed.get("kernels", {}).items():
        for mode_name, entry in modes.items():
            base = entry.get("speedup")
            current = record.get(name, {}).get(mode_name, {}).get("speedup")
            if base is None or current is None:
                continue
            floor = base * REGRESSION_TOLERANCE
            if current < floor:
                print(f"REGRESSION {name} [{mode_name}]: speedup "
                      f"{current:.2f}x < {floor:.2f}x "
                      f"(80% of committed {base:.2f}x)")
                status = 1
    if status == 0:
        print(f"no kernel-path regression vs {committed_path} "
              f"(tolerance: within 20% of committed speedups)")
    return status


# --- sharded multi-core executor (--shards) ----------------------------

SHARD_SPEEDUP_TARGET = 1.5   # at the largest shard count, cores permitting


def _time_sharded_workload(g, go, execution, reps: int):
    """Best-of-reps rounds/sec on one persistent network.

    One warmup run builds the worker pool (and advances the run counter)
    before the clock starts — matching how a long experiment amortizes
    pool startup — so every measured rep reuses warm workers.  Returns
    the *warmup* outputs for cross-tier comparison: later reps see a
    different per-run rng stream, but rep ``i`` matches rep ``i`` of any
    other tier on the same network seed.
    """
    net = Network(g, policy=CONGEST, seed=7, execution=execution)
    try:
        warm_out = go(net)
        best_rs, rounds = 0.0, 0
        for _ in range(reps):
            r0 = net.metrics.rounds
            t0 = time.perf_counter()
            go(net)
            dt = time.perf_counter() - t0
            rounds = net.metrics.rounds - r0
            best_rs = max(best_rs, rounds / dt)
        return best_rs, rounds, warm_out
    finally:
        net.close()


def _bench_shards(n: int, shard_counts, reps: int, record=None) -> int:
    """The sharded-kernel tier vs both in-process baselines.

    Workers run the vectorized ``RoundKernel`` fast path over shard-local
    arrays, halos exchanged as zero-copy int64 views.  The gate is held
    against the in-process *kernel* baseline — the bar is beating the
    best single-core path — and is cores-aware.
    """
    cores = os.cpu_count() or 1
    p = KERNEL_DEG / max(2, n - 1)
    workloads = [
        ("israeli_itai", lambda net: frozenset(israeli_itai(net).edges())),
        ("luby_mis", lambda net: frozenset(luby_mis(net))),
    ]
    status = 0
    gate_k = max(shard_counts)
    # a single shard cannot speed anything up: the speedup gate only
    # means something for a real fan-out on a machine that can host it
    speedup_gated = gate_k >= 2 and cores >= gate_k
    print(f"sharded-kernel tier vs in-process engine "
          f"({n} nodes, mean degree {KERNEL_DEG}, {cores} core(s)):")
    for name, go in workloads:
        g = gnp(n, p, rng=7)
        kern_rs, base_rounds, base_out = _time_sharded_workload(
            g, go, "kernel", reps)
        node_rs, node_rounds, node_out = _time_sharded_workload(
            g, go, "node", reps)
        assert node_out == base_out and node_rounds == base_rounds, (
            f"{name}: kernel and per-node baselines disagree!")
        print(f"{name:>14} [kernel]:   {kern_rs:8.1f} r/s "
              f"({base_rounds} rounds)")
        print(f"{name:>14} [per-node]: {node_rs:8.1f} r/s")
        if record is not None:
            record.setdefault(name, {})["in_process"] = {
                "kernel_rounds_per_sec": round(kern_rs, 1),
                "node_rounds_per_sec": round(node_rs, 1),
                "rounds": base_rounds,
            }
        for k in shard_counts:
            sk_rs, sk_rounds, sk_out = _time_sharded_workload(
                g, go, ExecutionPlan(tier="sharded-kernel", shards=k), reps)
            assert sk_out == base_out and sk_rounds == base_rounds, (
                f"{name}: sharded-kernel ({k}) and in-process runs "
                f"disagree!")
            sk_speedup = sk_rs / kern_rs
            print(f"{name:>14} [{k} shard(s)]: {sk_rs:8.1f} r/s   "
                  f"{sk_speedup:.2f}x kernel   "
                  f"{sk_rs / node_rs:.2f}x per-node")
            if record is not None:
                record[name][f"shards_{k}"] = {
                    "sharded_kernel_rounds_per_sec": round(sk_rs, 1),
                    "sharded_kernel_speedup_vs_kernel": round(sk_speedup, 2),
                    "sharded_kernel_speedup_vs_node": round(
                        sk_rs / node_rs, 2),
                }
            if k == gate_k and speedup_gated and \
                    sk_speedup < SHARD_SPEEDUP_TARGET:
                print(f"{name:>14} [{k} shards]: speedup {sk_speedup:.2f}x "
                      f"below the {SHARD_SPEEDUP_TARGET:.1f}x gate")
                status = 1
    if speedup_gated:
        gate_note = f"enforced ({cores} cores >= {gate_k} shards)"
    elif gate_k < 2:
        gate_note = "skipped (a 1-shard pool has nothing to parallelize)"
    else:
        gate_note = (f"skipped ({cores} core(s) < {gate_k} shards: "
                     f"no parallel speedup is physically possible)")
    print(f"gate (vs the in-process kernel baseline): "
          f">= {SHARD_SPEEDUP_TARGET:.1f}x at {gate_k} shards {gate_note}")
    if record is not None:
        record["sharded_kernel_speedup_gate"] = gate_note
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="legacy vs CSR engine rounds/sec")
    parser.add_argument("--n", type=int, default=1000,
                        help="total node count of the bipartite graph "
                             "(default 1000)")
    parser.add_argument("--p", type=float, default=0.008,
                        help="edge probability (default 0.008)")
    parser.add_argument("--rounds", type=int, default=60,
                        help="flood workload round count (default 60)")
    parser.add_argument("--observed", action="store_true",
                        help="measure event-bus subscriber overhead on the "
                             "CSR flood workload instead")
    parser.add_argument("--kernels", action="store_true",
                        help="measure the vectorized kernel fast path "
                             "against per-node dispatch instead (no "
                             "effect beside --shards)")
    parser.add_argument("--shards", nargs="?", const="1,2,4", default=None,
                        metavar="K[,K...]",
                        help="measure the sharded-kernel tier at these "
                             "shard counts (default 1,2,4) against the "
                             "in-process kernel path instead")
    parser.add_argument("--reps", type=int, default=5,
                        help="best-of repetitions per measurement "
                             "(default 5)")
    parser.add_argument("--check-against", metavar="PATH", default=None,
                        help="with --kernels: also fail when a speedup "
                             "ratio regressed > 20%% vs this committed "
                             "report (BENCH_kernels.json)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="run both sections and write a machine-"
                             "readable report (BENCH_engine.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, no timing gates (CI)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n = min(args.n, 200)
        args.rounds = min(args.rounds, 10)
        args.p = max(args.p, 0.04)  # keep the tiny graph connected enough
    n_side = max(1, args.n // 2)

    if args.shards is not None:
        shard_counts = sorted({int(tok) for tok in args.shards.split(",")})
        if not shard_counts or shard_counts[0] < 1:
            parser.error("--shards wants positive counts, e.g. 1,2,4")
        reps = 2 if args.smoke else args.reps
        os.environ.pop(SHARDS_ENV, None)  # the env switch beats shards=
        shard_record = {}
        status = _bench_shards(args.n, shard_counts, reps,
                               record=shard_record)
        if args.json is not None:
            report = {
                "meta": {
                    "tool": ("tools/bench_engine.py --shards --kernels"
                             if args.kernels
                             else "tools/bench_engine.py --shards"),
                    "graph": f"gnp({args.n}, deg {KERNEL_DEG})",
                    "nodes": args.n,
                    "shard_counts": shard_counts,
                    "reps": reps,
                    "cores": os.cpu_count() or 1,
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "smoke": bool(args.smoke),
                },
                "shards": shard_record,
                "gates": {
                    "sharded_kernel_speedup_target": SHARD_SPEEDUP_TARGET,
                    "passed": status == 0,
                },
            }
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=False)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0 if args.smoke else status

    # every other mode benchmarks single-process engines: pin the kill
    # switch so auto-sharding on a big multi-core runner cannot leak in
    os.environ[SHARDS_ENV] = "0"

    if args.kernels:
        kernel_record = {}
        status = _bench_kernels(args.n, args.reps, record=kernel_record)
        if args.check_against is not None:
            if args.smoke:
                # smoke shrinks the workloads, so ratios are not
                # comparable with the full-scale committed report —
                # the in-run gates above were still evaluated
                print("smoke scale differs from the committed report; "
                      "regression comparison skipped")
            else:
                status = max(status,
                             _check_kernel_regression(kernel_record,
                                                      args.check_against))
        if args.json is not None:
            report = {
                "meta": {
                    "tool": "tools/bench_engine.py --kernels",
                    "graph": f"gnp({args.n}, deg {KERNEL_DEG}) / "
                             f"random_bipartite(deg {KERNEL_DEG})",
                    "nodes": args.n,
                    "reps": args.reps,
                    "numpy": kernels._np is not None,
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "smoke": bool(args.smoke),
                },
                "kernels": kernel_record,
                "gates": {
                    "numpy_speedup_target": NUMPY_SPEEDUP_TARGET,
                    "fallback_speedup_target": FALLBACK_SPEEDUP_TARGET,
                    "gated_workloads": list(GATED_WORKLOADS),
                    "regression_tolerance": REGRESSION_TOLERANCE,
                    "passed": status == 0,
                },
            }
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=False)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0 if args.smoke else status

    if args.observed and args.json is None:
        status = _bench_observed(n_side, args.p, args.rounds)
        return 0 if args.smoke else status

    print(f"graph: random_bipartite({n_side}, {n_side}, {args.p}), seed 0")
    engines = {}
    flood_speedup = _report(
        "flood",
        _flood("legacy", n_side, args.p, args.rounds),
        _flood("auto", n_side, args.p, args.rounds),
        record=engines)
    _report(
        "israeli_itai",
        _israeli("legacy", n_side, args.p),
        _israeli("auto", n_side, args.p),
        record=engines)
    print(f"headline: CSR engine delivers {flood_speedup:.2f}x rounds/sec "
          f"on the flood workload (target >= 3x)")
    status = 0 if flood_speedup >= 3.0 else 1

    if args.json is not None:
        observed = {}
        status = max(status,
                     _bench_observed(n_side, args.p, args.rounds,
                                     record=observed))
        report = {
            "meta": {
                "tool": "tools/bench_engine.py",
                "graph": f"random_bipartite({n_side}, {n_side}, {args.p})",
                "nodes": 2 * n_side,
                "flood_rounds": args.rounds,
                "python": platform.python_version(),
                "machine": platform.machine(),
                "smoke": bool(args.smoke),
            },
            "engines": engines,
            "observed_overhead": observed,
            "gates": {
                "flood_speedup_target": 3.0,
                "structural_overhead_target": 1.5,
                "passed": status == 0,
            },
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"wrote {args.json}")

    return 0 if args.smoke else status


if __name__ == "__main__":
    raise SystemExit(main())
