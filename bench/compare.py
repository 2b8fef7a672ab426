"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py A.jsonl B.jsonl

``A`` and ``B`` are run records appended by ``bench/run.py --json`` (one
line per workload run; use three or more runs per side).  For every
metric of ``BENCHMARK.json`` and every workload present on both sides it
prints each side's median and quartiles and a verdict on B against A:

* ``better`` -- every run of B reads better than every run of A;
* ``unresolved`` -- either side's quartile spread, as a share of its
  median, exceeds the metric's bound, so a difference that size could be
  noise;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``within bound`` -- otherwise.

Per-layer metrics have no bound; they get no verdict.  The exit code is 1
when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> the values of every run in ``path``."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str,
            bound: Optional[float]) -> str:
    if bound is None:
        return ""
    sign = 1.0 if better == "higher" else -1.0
    if min(sign * x for x in b) > max(sign * x for x in a):
        return "better"
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    if am and bm and max((a3 - a1) / abs(am), (b3 - b1) / abs(bm)) > bound:
        return "unresolved"
    worse_by = sign * (am - bm) / abs(am) if am else 0.0
    return "worse" if worse_by > bound else "within bound"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    a, b = load(args.a), load(args.b)
    workloads = sorted({w for w, _ in a} & {w for w, _ in b})
    print(f"{'workload':<22} {'metric':<34} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32}  verdict")
    worse = 0
    for workload in workloads:
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            v = verdict(a[key], b[key], metric["better"],
                        metric.get("bound"))
            worse += v == "worse"
            qa = "/".join(f"{x:.4g}" for x in quartiles(a[key]))
            qb = "/".join(f"{x:.4g}" for x in quartiles(b[key]))
            print(f"{workload:<22} {metric['name']:<34} {qa:>32} "
                  f"{qb:>32}  {v}")
    print(f"{worse} metric(s) worse than their bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
