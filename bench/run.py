"""End-to-end benchmark of the three user surfaces, one workload at a time.

Run from the repository root::

    PYTHONPATH=src python bench/run.py                  # all four workloads
    python3 bench/run.py --workload mpc_gnp --seed 3    # one workload
    python3 bench/run.py --trace                        # per-layer tables

Each workload runs in its own process (``bench/harness.py``), one after
another: the untraced run first takes ``SETUP_SAMPLES - 1`` extra set-up
samples in fresh processes, so ``setup_s`` is a median of cold starts.
The run prints every metric by name and unit, appends one JSON record
per workload to ``bench/out/runs.jsonl`` (or ``--json PATH``), and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or with
``--trace 1`` its ``per_layer`` metrics).  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: cold set-ups per untraced run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: wall budget of one workload, set-up samples included
WORKLOAD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def load_spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``harness.py args`` in its own session; return its JSON line.

    The harness and anything it forks share one process group, which is
    killed on timeout or interrupt and swept after a normal exit.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "harness.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise BenchError(f"harness {' '.join(args)} ran past its deadline")
    except BaseException:
        _kill_group(proc)
        raise
    _kill_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"harness {' '.join(args)} exited with "
                         f"{proc.returncode}")
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"harness {' '.join(args)} printed no result") \
            from exc


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    """One workload: set-up samples, then the measured run."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    base = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds)]
    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child(base + ["--phase", "setup"],
                                deadline)["setup_s"])
    out = child(base + ["--trace", str(int(trace))], deadline)
    setups.append(out["setup_s"])
    values = dict(out["metrics"])
    values["setup_s"] = statistics.median(setups)
    values.update(out.get("layers", {}))

    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        if metric["name"] not in values:
            raise BenchError(f"{name}: no value for {metric['name']}")
        metrics[metric["name"]] = {"value": values.pop(metric["name"]),
                                   "unit": metric["unit"]}
    values["setup_samples_s"] = setups
    values["lingering_workers"] = out["lingering_workers"]
    problems = []
    if out.get("trace_error"):
        problems.append(out["trace_error"])
    if out["lingering_workers"]:
        problems.append(f"{out['lingering_workers']} worker(s) outlived "
                        f"the run")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": out["failed"] == 0 and not problems,
        "attempted": out["attempted"], "failed": out["failed"],
        "problems": problems, "metrics": metrics, "extra": values,
        "host": host(),
    }


def host() -> Dict[str, Any]:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "machine": platform.machine()}


def print_table(record: Dict[str, Any]) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}): "
          f"{record['attempted']} ops, {record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")
    for name, value in record["extra"].items():
        if isinstance(value, (int, float)):
            print(f"  {name:<36} {value:>14.4f}")
        else:
            print(f"  {name:<36} {value}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1 (or bare --trace): report per-layer metrics")
    ap.add_argument("--json", type=Path, default=OUT / "runs.jsonl",
                    help="append one record per workload here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: no repro sources under src/", file=sys.stderr)
        return 2

    # a terminated run still kills the harness it started (see child())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        for name in names:
            print(f"bench: {name} ...", file=sys.stderr)
            records.append(run_workload(name, args.seed, seconds,
                                        bool(args.trace), spec))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    args.json.parent.mkdir(parents=True, exist_ok=True)
    with args.json.open("a") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    for record in records:
        print_table(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
