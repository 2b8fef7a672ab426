"""Command-line interface.

Usage::

    python -m repro experiments --list
    python -m repro experiments t01 t05      # run specific tables
    python -m repro experiments --all        # the full suite
    python -m repro experiments --all --jobs 8 --cache .repro-cache
    python -m repro experiments --all --jobs 2 --shards 4
    python -m repro experiments t01 --trace traces/ --profile
    python -m repro match edges.txt --eps 0.25 --seed 3
    python -m repro match edges.txt --weighted --eps 0.1
    python -m repro trace bipartite:20x20:0.2 --out run.jsonl --render
    python -m repro trace --load run.jsonl
    python -m repro trace --diff a.jsonl b.jsonl
    python -m repro profile gnp:60:0.1 --algorithm mcm
    python -m repro stream --ports 16 --cycles 500 --batch 32
    python -m repro stream --replay updates.jsonl --graph gnp:40:0.1
    python -m repro stream --cycles 200 --save updates.jsonl --profile

``match`` reads an edge-list file (see :mod:`repro.graphs.io`), runs the
appropriate paper algorithm, and prints the verified result.  ``trace``
and ``profile`` run an algorithm under the structured event bus
(:mod:`repro.observe.events`): ``trace`` streams/renders the JSONL event
timeline, ``profile`` prints the per-protocol/per-phase cost table.
``stream`` drives the dynamic :class:`~repro.stream.service.MatchingService`
over a switch-churn workload (or a recorded JSONL update stream via
``--replay``) and reports throughput, commit latency percentiles, and
approximation-ratio spot checks.  Graphs are given as an edge-list path
or a generator spec — ``bipartite:NLxNR:P`` or ``gnp:N:P``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .core.api import ALGORITHMS, approx_mcm, approx_mwm, run as run_algorithm
from .experiments.suite import ALL_EXPERIMENTS
from .graphs.graph import Graph
from .graphs.io import read_edge_list
from .models.base import CONGEST_MODEL, MPC_MODEL, ComputationModel
from .models.execution import MPC_TIERS, TIERS, ExecutionPlan

#: registry names ``trace``/``profile`` can run: the sequential references
#: take only the graph, and the stream entries report no rounds
OBSERVABLE_ALGORITHMS = tuple(sorted(
    set(ALGORITHMS) - {"exact_mcm", "exact_mwm", "stream",
                       "matching_service"}))


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line (``prog: error: ...``), exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _execution_error(tier: Optional[str],
                     model: ComputationModel) -> Optional[str]:
    """The one-line reason ``--execution tier`` cannot run on ``model``,
    or None when it can (or was not given)."""
    if tier is None:
        return None
    try:
        model.check_plan(ExecutionPlan(tier=tier))
    except ValueError as exc:
        return f"--execution: {exc}"
    return None


def _load_graph(spec: str, seed: int) -> Graph:
    """An edge-list path, ``bipartite:NLxNR:P``, or ``gnp:N:P``."""
    if spec.startswith("bipartite:") or spec.startswith("gnp:"):
        from .graphs.generators import gnp, random_bipartite

        kind, *rest = spec.split(":")
        try:
            if kind == "bipartite":
                size, p = rest
                nl, nr = size.lower().split("x")
                return random_bipartite(int(nl), int(nr), float(p), rng=seed)
            size, p = rest
            return gnp(int(size), float(p), rng=seed)
        except ValueError as exc:
            raise SystemExit(
                f"bad graph spec {spec!r} (want bipartite:NLxNR:P or gnp:N:P)"
            ) from exc
    return read_edge_list(spec)


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.shards is not None:
        if args.shards < 0:
            print("--shards wants a count >= 0 (0 disables sharding)",
                  file=sys.stderr)
            return 2
        # the environment switch reaches every Network the tier functions
        # build, and is inherited by --jobs worker processes; outputs are
        # bit-identical either way, so cached tables stay valid
        import os

        from .congest.sharding import SHARDS_ENV

        os.environ[SHARDS_ENV] = str(args.shards)
    if args.list:
        print("available experiments:")
        for name in sorted(ALL_EXPERIMENTS):
            fn = ALL_EXPERIMENTS[name]
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"  {name}: {doc[0] if doc else fn.__name__}")
        return 0
    names = sorted(ALL_EXPERIMENTS) if args.all else args.names
    if not names:
        print("nothing to run: pass experiment names, --all, or --list",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    observed = args.trace is not None or args.profile
    if observed and (args.jobs is not None or args.cache is not None):
        print("--trace/--profile are serial-only; drop --jobs/--cache",
              file=sys.stderr)
        return 2
    if args.report:
        from .experiments.report import write_report

        path = write_report(args.report, names,
                            jobs=args.jobs, cache_dir=args.cache,
                            trace_dir=args.trace, profile=args.profile)
        print(f"report written to {path}")
        return 0
    if args.jobs is not None or args.cache is not None:
        from .experiments.parallel import run_parallel

        report = run_parallel(names, jobs=args.jobs, cache_dir=args.cache)
        for table in report.tables:
            table.show()
        if args.cache is not None:
            print(f"cache: {len(report.hits)} hit(s), "
                  f"{len(report.computed)} computed", file=sys.stderr)
        return 0
    if observed:
        from .experiments.suite import run_all

        for table in run_all(names, trace_dir=args.trace,
                             profile=args.profile):
            table.show()
        if args.trace is not None:
            print(f"traces written under {args.trace}/", file=sys.stderr)
        return 0
    for name in names:
        ALL_EXPERIMENTS[name]().show()
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.path)
    print(f"loaded {graph.num_nodes} nodes, {graph.num_edges} edges "
          f"(max degree {graph.max_degree})")
    if args.weighted:
        result = approx_mwm(graph, eps=args.eps, seed=args.seed)
    else:
        result = approx_mcm(graph, eps=args.eps, seed=args.seed)
    cert = result.certificate
    print(f"algorithm : {result.algorithm}")
    print(f"size      : {result.size}")
    print(f"weight    : {cert.weight:.6g}")
    if cert.cardinality_ratio is not None and not args.weighted:
        print(f"ratio     : {cert.cardinality_ratio:.4f} (vs exact optimum)")
    if cert.weight_ratio is not None and args.weighted:
        print(f"ratio     : {cert.weight_ratio:.4f} (vs exact optimum)")
    if result.metrics is not None:
        print(f"rounds    : {result.metrics.total_rounds}")
        print(f"messages  : {result.metrics.messages} "
              f"({result.metrics.total_bits} bits, "
              f"max {result.metrics.max_message_bits} bits)")
    if args.output:
        for u, v in result.matching.edges():
            print(f"{u} {v}")
    return 0


def _algorithm_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {"seed": args.seed}
    if args.algorithm in ("mpc", "mpc_maximal"):
        # the MPC entry point's knob is the memory exponent, not eps
        kwargs["alpha"] = getattr(args, "alpha", 0.5)
    elif args.algorithm not in ("maximal", "maximal_matching",
                                "israeli_itai"):
        kwargs["eps"] = args.eps
    return kwargs


def _run_observed(args: argparse.Namespace, graph: Graph, **observe):
    """Run ``--algorithm`` with the observability keywords; None (after
    one stderr line) when the MPC memory guard trips."""
    from .mpc import MemoryExceeded

    try:
        return run_algorithm(args.algorithm, graph, **observe,
                             **_algorithm_kwargs(args))
    except MemoryExceeded as exc:
        print(f"memory guard tripped: {exc}", file=sys.stderr)
        return None


def _cmd_mpc(args: argparse.Namespace) -> int:
    from .core.api import mpc_maximal_matching
    from .mpc import MemoryExceeded

    error = _execution_error(args.execution, MPC_MODEL)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    graph = _load_graph(args.graph, args.seed)
    if args.explain:
        from .mpc import MPCCluster

        cluster = MPCCluster(graph, alpha=args.alpha, seed=args.seed,
                             execution=args.execution)
        print(cluster.explain_execution().explain())
        return 0
    try:
        result = mpc_maximal_matching(
            graph, alpha=args.alpha, seed=args.seed, trace=args.trace,
            profile=args.profile, execution=args.execution)
    except MemoryExceeded as exc:
        print(f"memory guard tripped: {exc}", file=sys.stderr)
        return 1
    cert = result.certificate
    metrics = result.metrics
    print(f"algorithm : {result.algorithm}")
    print(f"size      : {result.size} (valid={cert.valid}, "
          f"maximal={cert.maximal})")
    if cert.cardinality_ratio is not None:
        print(f"ratio     : {cert.cardinality_ratio:.4f} (vs exact optimum)")
    print(f"supersteps: {metrics.rounds}")
    print(f"machines  : {metrics.memory_machines} x "
          f"{metrics.memory_limit_words} words "
          f"(S = ceil(n^{args.alpha:g}))")
    print(f"peak mem  : {metrics.memory_peak_words} words "
          f"({metrics.memory_peak_words / metrics.memory_limit_words:.0%} "
          f"of the cap)")
    if args.profile:
        print()
        print(result.profile.table())
    if args.trace:
        print(f"trace written to {result.trace_path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observe.events import (
        JsonlTraceWriter, diff_traces, load_trace, render_timeline,
    )

    if args.diff:
        a, b = args.diff
        divergence = diff_traces(load_trace(a), load_trace(b))
        if divergence is None:
            print("traces are identical")
            return 0
        index, ev_a, ev_b = divergence
        print(f"traces diverge at event {index}:")
        print(f"  {a}: {ev_a!r}")
        print(f"  {b}: {ev_b!r}")
        return 1
    if args.load:
        print(render_timeline(load_trace(args.load)))
        return 0
    if args.graph is None:
        print("trace: pass a graph (path or spec), --load, or --diff",
              file=sys.stderr)
        return 2
    graph = _load_graph(args.graph, args.seed)
    out = args.out or "trace.jsonl"
    writer = JsonlTraceWriter(out, messages=args.messages,
                              sample=args.sample)
    result = _run_observed(args, graph, trace=writer)
    writer.close()
    if result is None:
        return 1
    print(f"{result.algorithm}: size={result.size} "
          f"rounds={result.rounds} -> {writer.count} event(s) in {out}")
    if args.render:
        print(render_timeline(load_trace(out)))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.seed)
    result = _run_observed(args, graph, profile=True)
    if result is None:
        return 1
    print(f"{result.algorithm}: size={result.size} rounds={result.rounds}")
    print()
    print(result.profile.table())
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .stream.replay import replay_events, replay_switch
    from .stream.service import MatchingService
    from .stream.workload import load_updates, save_updates

    error = _execution_error(args.execution, CONGEST_MODEL)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.replay:
        graph = (_load_graph(args.graph, args.seed)
                 if args.graph is not None else None)
    else:
        if args.graph is not None:
            print("--graph only applies to --replay (the switch workload "
                  "builds its own VOQ graph)", file=sys.stderr)
            return 2
        graph = None
    service = MatchingService(graph, k=args.k, eps=args.eps, seed=args.seed,
                              execution=args.execution, trace=args.trace,
                              profile=args.profile)
    if args.replay:
        report = replay_events(load_updates(args.replay), service=service,
                               batch=args.batch,
                               spot_checks=args.spot_checks)
        print(f"replayed {args.replay}:")
    else:
        record = [] if args.save else None
        report = replay_switch(ports=args.ports, cycles=args.cycles,
                               pattern=args.pattern, load=args.load,
                               seed=args.seed, batch=args.batch,
                               spot_checks=args.spot_checks, record=record,
                               service=service)
        print(f"switch workload ({args.pattern}, {args.ports} ports, "
              f"{args.cycles} cycles, load {args.load}):")
        if args.save:
            count = save_updates(args.save, record)
            print(f"recorded {count} update(s) to {args.save}")
    print(report.table())
    result = service.result()
    service.close()
    if args.profile:
        print()
        print(result.profile.table())
    if args.trace:
        print(f"trace written to {result.trace_path}")
    if any(not c["invariant"] for c in report.spot_checks):
        print("invariant VIOLATED at a spot check", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Distributed approximate matching (CONGEST) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiments",
                         help="run the T1-T18 experiment tables")
    exp.add_argument("names", nargs="*", help="experiment ids, e.g. t01 t05")
    exp.add_argument("--all", action="store_true", help="run the full suite")
    exp.add_argument("--list", action="store_true",
                     help="list available experiments")
    exp.add_argument("--report", metavar="PATH",
                     help="write a markdown report instead of printing")
    exp.add_argument("--jobs", type=int, metavar="N",
                     help="run experiments on N worker processes "
                          "(0 = all cores)")
    exp.add_argument("--cache", metavar="DIR",
                     help="memoize finished tables under DIR; unchanged "
                          "experiments are read back instead of re-run")
    exp.add_argument("--shards", type=int, metavar="K",
                     help="run each eligible protocol on K shard worker "
                          "processes (sets REPRO_SHARDS; 0 disables; "
                          "composes with --jobs — keep jobs*K within the "
                          "core count)")
    exp.add_argument("--trace", metavar="DIR",
                     help="stream each experiment's structured events to "
                          "DIR/<name>.jsonl (serial-only)")
    exp.add_argument("--profile", action="store_true",
                     help="attach a profiler per experiment and print its "
                          "per-protocol cost table (serial-only)")
    exp.set_defaults(func=_cmd_experiments)

    match = sub.add_parser("match", help="match a graph from an edge list")
    match.add_argument("path", help="edge-list file (u v [weight] per line)")
    match.add_argument("--eps", type=float, default=0.25,
                       help="approximation slack (default 0.25)")
    match.add_argument("--seed", type=int, default=0)
    match.add_argument("--weighted", action="store_true",
                       help="maximize weight instead of cardinality")
    match.add_argument("--output", action="store_true",
                       help="print the matched edges")
    match.set_defaults(func=_cmd_match)

    algo_names = ", ".join(OBSERVABLE_ALGORITHMS)
    trace = sub.add_parser(
        "trace", help="record or inspect a structured JSONL event trace")
    trace.add_argument("graph", nargs="?",
                       help="edge-list path, bipartite:NLxNR:P, or gnp:N:P")
    trace.add_argument("--algorithm", default="mcm",
                       choices=OBSERVABLE_ALGORITHMS, metavar="NAME",
                       help=f"registry name (default mcm; one of: {algo_names})")
    trace.add_argument("--eps", type=float, default=0.25)
    trace.add_argument("--alpha", type=float, default=0.5,
                       help="MPC memory exponent (mpc algorithms only)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", metavar="PATH",
                       help="trace file to write (default trace.jsonl)")
    trace.add_argument("--messages", action="store_true",
                       help="also capture the per-message stream")
    trace.add_argument("--sample", type=float, metavar="RATE",
                       help="deterministic per-edge sampling rate for the "
                            "message stream (implies capture)")
    trace.add_argument("--render", action="store_true",
                       help="print the timeline after recording")
    trace.add_argument("--load", metavar="PATH",
                       help="render an existing trace instead of running")
    trace.add_argument("--diff", nargs=2, metavar=("A", "B"),
                       help="compare two traces; exit 1 at first divergence")
    trace.set_defaults(func=_cmd_trace)

    prof = sub.add_parser(
        "profile", help="profile a run: wall-clock/messages per protocol")
    prof.add_argument("graph",
                      help="edge-list path, bipartite:NLxNR:P, or gnp:N:P")
    prof.add_argument("--algorithm", default="mcm",
                      choices=OBSERVABLE_ALGORITHMS, metavar="NAME",
                      help=f"registry name (default mcm; one of: {algo_names})")
    prof.add_argument("--eps", type=float, default=0.25)
    prof.add_argument("--alpha", type=float, default=0.5,
                      help="MPC memory exponent (mpc algorithms only)")
    prof.add_argument("--seed", type=int, default=0)
    prof.set_defaults(func=_cmd_profile)

    mpc = sub.add_parser(
        "mpc", help="maximal matching under the simulated MPC model")
    mpc.add_argument("graph",
                     help="edge-list path, bipartite:NLxNR:P, or gnp:N:P")
    mpc.add_argument("--alpha", type=float, default=0.5,
                     help="memory exponent: S = ceil(n^alpha) words per "
                          "machine (default 0.5)")
    mpc.add_argument("--seed", type=int, default=0)
    congest_only = [t for t in TIERS if t not in MPC_TIERS]
    mpc.add_argument("--execution", default=None, metavar="TIER",
                     help=f"execution plan tier: auto, "
                          f"{', '.join(MPC_TIERS)} (the "
                          f"{', '.join(congest_only)} tiers are "
                          f"CONGEST-only)")
    mpc.add_argument("--trace", metavar="PATH",
                     help="stream superstep/phase events to a JSONL trace")
    mpc.add_argument("--profile", action="store_true",
                     help="print the per-phase profiler table")
    mpc.add_argument("--explain", action="store_true",
                     help="print how the plan resolves on the MPC model "
                          "and exit")
    mpc.set_defaults(func=_cmd_mpc)

    stream = sub.add_parser(
        "stream",
        help="drive the dynamic matching service over an update stream")
    stream.add_argument("--replay", metavar="PATH",
                        help="replay a recorded JSONL update stream instead "
                             "of generating switch traffic")
    stream.add_argument("--graph", metavar="SPEC",
                        help="initial graph for --replay (edge-list path, "
                             "bipartite:NLxNR:P, or gnp:N:P; default empty)")
    stream.add_argument("--ports", type=int, default=16,
                        help="switch ports (default 16)")
    stream.add_argument("--cycles", type=int, default=1000,
                        help="switch cycles to simulate (default 1000)")
    stream.add_argument("--pattern", default="uniform",
                        help="traffic pattern: uniform, diagonal, hotspot, "
                             "bursty (default uniform)")
    stream.add_argument("--load", type=float, default=0.7,
                        help="offered load per input port (default 0.7)")
    stream.add_argument("--batch", type=int, default=64,
                        help="updates per committed batch (default 64)")
    stream.add_argument("--k", type=int, default=None,
                        help="invariant depth: no augmenting path <= 2k-1")
    stream.add_argument("--eps", type=float, default=None,
                        help="approximation slack (alternative to --k)")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--execution", default=None, metavar="TIER",
                        help=f"execution plan tier for recompute "
                             f"escalations: auto, {', '.join(TIERS)}")
    stream.add_argument("--spot-checks", type=int, default=4, metavar="N",
                        help="verify invariant + ratio N times (default 4; "
                             "0 disables)")
    stream.add_argument("--save", metavar="PATH",
                        help="record the generated update stream as JSONL")
    stream.add_argument("--trace", metavar="PATH",
                        help="stream batch/repair events to a JSONL trace")
    stream.add_argument("--profile", action="store_true",
                        help="print the per-batch profiler table")
    stream.set_defaults(func=_cmd_stream)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into a pager that quit early: not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
