"""Benchmark the streaming matching service on a heavy switch workload.

Run from the repo root::

    PYTHONPATH=src python tools/bench_stream.py
    PYTHONPATH=src python tools/bench_stream.py --events 1000000
    PYTHONPATH=src python tools/bench_stream.py --smoke
    PYTHONPATH=src python tools/bench_stream.py --json BENCH_stream.json
    PYTHONPATH=src python tools/bench_stream.py --smoke \\
        --check-against BENCH_stream.json

The workload is the paper's Figure 1 application, streamed: a closed-loop
input-queued switch (:class:`repro.switchsim.updates.SwitchUpdateStream`)
whose VOQ demand graph the service schedules from its own epoch
snapshots.  The harness replays ``--events`` update events (default one
million) through the batched :class:`repro.stream.service.MatchingService`
and reports updates/sec, commit-latency percentiles (p50/p95/p99), and
approximation-ratio spot checks (each also verifies the paper's invariant
exhaustively — the speed numbers only count if the matching stays a
certified (1 - 1/(k+1))-approximation).

The baseline is the pre-1.7 cost model: per-event repair, i.e. a
``MatchingService(repair="legacy")`` that commits after every update
(:func:`repro.stream.replay.replay_events_legacy`), replayed over a prefix
of the *same* recorded event stream (``--baseline-events``, default
50,000 — per-event repair is orders of magnitude slower, so the baseline
extrapolates from a prefix; graph evolution depends only on the events,
so the prefix replay is exact).

Acceptance gates:

* every spot check verifies the invariant and a ratio >= 1 - 1/(k+1);
* batched updates/sec >= 2x the per-event baseline (a *ratio* of two runs
  on the same machine, so it travels across runners — absolute
  updates/sec do not, and are recorded unaudited; the report notes that
  skip the way ``BENCH_shards.json`` records its cores-aware skips).

``--check-against BENCH_stream.json`` additionally fails if the current
speedup ratio regressed more than 20% below the committed one.  The
committed ``BENCH_stream.json`` is produced with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from repro.stream.replay import replay_events_legacy, replay_switch
from repro.stream.workload import EdgeUpdate

SPEEDUP_TARGET = 2.0
REGRESSION_TOLERANCE = 0.8  # current speedup may not drop below 80% of committed
ABSOLUTE_GATE_SKIP = (
    "skipped (absolute updates/sec are machine-dependent; the gate audits "
    "the batched-vs-per-event speedup ratio, which travels across runners)"
)


def run_bench(events: int, baseline_events: int, ports: int, load: float,
              pattern: str, batch: int, k: int, seed: int,
              spot_checks: int, smoke: bool) -> Dict[str, Any]:
    record: List[EdgeUpdate] = []
    print(f"[1/2] batched service: {events:,} events "
          f"({ports} ports, {pattern}, load {load}, batch {batch}, k={k})",
          file=sys.stderr)
    batched = replay_switch(
        ports=ports, cycles=10 ** 9, pattern=pattern, load=load, seed=seed,
        batch=batch, spot_checks=spot_checks, max_events=events,
        record=record, k=k)
    print(f"      {batched.updates_per_sec:,.0f} updates/sec, "
          f"p99 commit {1e3 * batched.latency_p99:.3f} ms",
          file=sys.stderr)
    baseline_events = min(baseline_events, len(record))
    print(f"[2/2] per-event legacy-repair baseline: first "
          f"{baseline_events:,} of the same events", file=sys.stderr)
    baseline = replay_events_legacy(record, k=k, limit=baseline_events)
    print(f"      {baseline.updates_per_sec:,.0f} updates/sec",
          file=sys.stderr)

    speedup = (batched.updates_per_sec / baseline.updates_per_sec
               if baseline.updates_per_sec else float("inf"))
    invariant_ok = all(c["invariant"] for c in batched.spot_checks)
    ratio_ok = all(c["ratio"] >= c["guarantee"] - 1e-9
                   for c in batched.spot_checks)
    gates = {
        "speedup_target": SPEEDUP_TARGET,
        "speedup": round(speedup, 2),
        "speedup_ok": speedup >= SPEEDUP_TARGET,
        "invariant_ok": invariant_ok,
        "ratio_ok": ratio_ok,
        "absolute_throughput_gate": ABSOLUTE_GATE_SKIP,
        "passed": bool(speedup >= SPEEDUP_TARGET and invariant_ok
                       and ratio_ok),
    }
    return {
        "meta": {
            "tool": "tools/bench_stream.py",
            "workload": f"switchsim closed loop ({pattern})",
            "events": batched.events,
            "baseline_events": baseline.events,
            "ports": ports,
            "load": load,
            "batch": batch,
            "k": k,
            "seed": seed,
            "cores": _cores(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "smoke": smoke,
        },
        "batched": _section(batched),
        "baseline": _section(baseline),
        "gates": gates,
    }


def _cores() -> int:
    import os

    return os.cpu_count() or 1


def _section(report) -> Dict[str, Any]:
    out = {
        "events": report.events,
        "batches": report.batches,
        "wall_s": round(report.seconds, 3),
        "updates_per_sec": round(report.updates_per_sec, 1),
        "latency_p50_ms": round(1e3 * report.latency_p50, 4),
        "latency_p95_ms": round(1e3 * report.latency_p95, 4),
        "latency_p99_ms": round(1e3 * report.latency_p99, 4),
        "size": report.size,
        "epochs": report.epochs,
        "augmentations": report.augmentations,
        "recomputes": report.recomputes,
    }
    if report.spot_checks:
        out["spot_checks"] = [
            {"epoch": c["epoch"], "size": c["size"],
             "ratio": round(c["ratio"], 4), "invariant": c["invariant"]}
            for c in report.spot_checks
        ]
    if report.extra:
        out["extra"] = report.extra
    return out


def check_against(result: Dict[str, Any], path: str) -> List[str]:
    """Ratio regression check against a committed report."""
    with open(path) as fh:
        committed = json.load(fh)
    failures = []
    old = committed["gates"]["speedup"]
    new = result["gates"]["speedup"]
    if new < REGRESSION_TOLERANCE * old:
        failures.append(
            f"speedup regressed: {new:.2f}x vs committed {old:.2f}x "
            f"(tolerance {REGRESSION_TOLERANCE:.0%})"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--events", type=int, default=1_000_000,
                    help="update events to stream (default 1,000,000)")
    ap.add_argument("--baseline-events", type=int, default=50_000,
                    help="prefix length for the per-event baseline "
                         "(default 50,000)")
    ap.add_argument("--ports", type=int, default=32)
    ap.add_argument("--load", type=float, default=0.7)
    ap.add_argument("--pattern", default="uniform")
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spot-checks", type=int, default=4)
    ap.add_argument("--smoke", action="store_true",
                    help="small CI run: 20k events, 2k baseline, 16 ports")
    ap.add_argument("--json", metavar="PATH",
                    help="write the machine-readable report to PATH")
    ap.add_argument("--check-against", metavar="PATH",
                    help="fail if the speedup ratio regressed >20%% below "
                         "the committed report")
    args = ap.parse_args(argv)

    events = args.events
    baseline_events = args.baseline_events
    ports = args.ports
    if args.smoke:
        events = min(events, 20_000)
        baseline_events = min(baseline_events, 2_000)
        ports = min(ports, 16)

    t0 = time.perf_counter()
    result = run_bench(events=events, baseline_events=baseline_events,
                       ports=ports, load=args.load, pattern=args.pattern,
                       batch=args.batch, k=args.k, seed=args.seed,
                       spot_checks=args.spot_checks, smoke=args.smoke)
    result["meta"]["bench_wall_s"] = round(time.perf_counter() - t0, 1)

    print(json.dumps(result, indent=1))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        print(f"report written to {args.json}", file=sys.stderr)

    failures = []
    gates = result["gates"]
    if not gates["speedup_ok"]:
        failures.append(
            f"speedup {gates['speedup']:.2f}x below the "
            f"{SPEEDUP_TARGET:.1f}x target")
    if not gates["invariant_ok"]:
        failures.append("invariant violated at a spot check")
    if not gates["ratio_ok"]:
        failures.append("approximation ratio below the guarantee "
                        "at a spot check")
    if args.check_against:
        failures.extend(check_against(result, args.check_against))
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("all gates passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
