"""MPC alpha-scaling benchmark: supersteps, peak memory and throughput.

Usage::

    PYTHONPATH=src python tools/bench_mpc.py                 # full matrix
    PYTHONPATH=src python tools/bench_mpc.py --json BENCH_mpc.json
    PYTHONPATH=src python tools/bench_mpc.py --smoke \
        --check-against BENCH_mpc.json                       # CI step

Runs :func:`repro.mpc.mpc_maximal` on G(n, p) across a ladder of
``alpha`` values (per-machine budget ``S = ceil(n**alpha)`` words) and
records, per alpha: machine count, supersteps, iterations, the
cluster-wide peak resident words, ``peak/S``, and the matching size.
Unlike the engine/shard benchmarks these numbers are *structural*, not
timings — the driver is deterministic in ``(graph, seed, alpha)`` — so
``--check-against BENCH_mpc.json`` demands exact equality with the
committed smoke section instead of a timing tolerance, and is safe on
noisy shared CI runners.

The ``throughput`` section is the one timing table: supersteps/sec on
the ``node`` rung vs the vectorized ``mpc_kernel`` rung (the two are
golden-equivalent, so the structural columns cannot move when the tier
does).  ``--check-against`` compares the *speedup ratio* against the
committed one (portable across runners; generous 50% tolerance, skipped
entirely when the committed speedup is under the 1.5x noise floor).

Gates (the structural ones stay enforced in smoke mode too):

``memory_guard``
    every run's peak resident words must stay <= S on every machine
    (the in-run guard raising :class:`~repro.mpc.cluster.MemoryExceeded`
    is the mechanism; the bench re-asserts the recorded peak).

``floor_trip``
    an alpha whose ``S = ceil(n**alpha)`` lands below the 16-word floor
    must raise ``MemoryExceeded`` at construction — the "provably trips
    on alpha too small" acceptance check.

``maximality``
    every matching must verify valid and maximal
    (:func:`repro.matching.verify.is_maximal`).

``vector_speedup``
    full mode, numpy hosts: the ``mpc_kernel`` rung must clear
    ``VECTOR_SPEEDUP_TARGET`` supersteps/sec vs ``node`` at n=10000.
    Skipped (with the reason recorded) in smoke mode — n=600 is noise —
    and on numpy-free hosts, where the rung itself is unavailable.

Alphas below the floor for the chosen ``n`` are recorded as
``"skipped (...)"`` strings with the reason, the same idiom the shard
bench uses for its cores-aware gates, so a small smoke ``n`` never
silently drops rows.
"""

import argparse
import json
import math
import platform
import sys
import time

from repro.graphs.generators import gnp
from repro.matching.verify import is_maximal, verify_matching
from repro.mpc import (
    MIN_MACHINE_WORDS,
    MemoryExceeded,
    MPCCluster,
    machine_words,
    mpc_maximal,
)
from repro.mpc.kernel import unavailable_reason

ALPHAS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

FULL_N, FULL_P = 10_000, 0.0008      # expected degree 8
SMOKE_N, SMOKE_P = 600, 0.012        # expected degree ~7, < 1 s total

SEEDS = (0, 1)

#: timing matrix: one representative alpha, both tiers
THROUGHPUT_ALPHA = 0.5
VECTOR_SPEEDUP_TARGET = 3.0   # mpc_kernel vs node, full mode, numpy hosts
REGRESSION_TOLERANCE = 0.5    # current speedup >= 50% of committed
NOISE_FLOOR = 1.5             # skip the ratio check below this speedup


def _run_matrix(n, p, seeds, record):
    """Fill ``record`` with one entry per alpha; return gate status."""
    status = 0
    graphs = [gnp(n, p, rng=s) for s in seeds]
    print(f"graph: gnp({n}, {p:g}), seeds {list(seeds)}")
    for alpha in ALPHAS:
        limit = machine_words(n, alpha)
        if limit < MIN_MACHINE_WORDS:
            note = (f"skipped (S={limit} < {MIN_MACHINE_WORDS}-word floor "
                    f"at n={n}: the guard trips at construction, by design)")
            record[f"alpha_{alpha:g}"] = note
            print(f"  alpha={alpha:g}: {note}")
            continue
        steps, iters, peaks, sizes = [], [], [], []
        machines = 0
        for seed, g in enumerate(graphs):
            cluster = MPCCluster(g, alpha=alpha, seed=seed)
            res = mpc_maximal(cluster)
            if res.peak_words > cluster.machine_words:
                print(f"  FAIL memory_guard: alpha={alpha:g} seed={seed} "
                      f"peak {res.peak_words} > S={cluster.machine_words}")
                status = 1
            try:
                verify_matching(g, res.matching)
                assert is_maximal(g, res.matching)
            except (AssertionError, ValueError) as exc:
                print(f"  FAIL maximality: alpha={alpha:g} seed={seed}: "
                      f"{exc}")
                status = 1
            steps.append(res.supersteps)
            iters.append(res.iterations)
            peaks.append(res.peak_words)
            sizes.append(res.matching.size)
            machines = cluster.num_machines
        entry = {
            "S_words": limit,
            "machines": machines,
            "supersteps": steps,
            "iterations": iters,
            "peak_words": peaks,
            "peak_over_S": round(max(peaks) / limit, 3),
            "matching_size": sizes,
            "maximal": True,
        }
        record[f"alpha_{alpha:g}"] = entry
        print(f"  alpha={alpha:g}: S={limit}w  machines={machines}  "
              f"supersteps={steps}  peak={peaks}  "
              f"peak/S={entry['peak_over_S']}")
    return status


def _time_tier(graphs, alpha, tier, reps=2):
    """Mean best-of-reps supersteps/sec across the seed graphs."""
    rates = []
    for seed, g in enumerate(graphs):
        best = 0.0
        for _ in range(reps):  # best-of-reps damps scheduler noise
            cluster = MPCCluster(g, alpha=alpha, seed=seed, execution=tier)
            t0 = time.perf_counter()
            res = mpc_maximal(cluster)
            dt = time.perf_counter() - t0
            best = max(best, res.supersteps / dt)
        rates.append(best)
    return sum(rates) / len(rates)


def _throughput(n, p, seeds, label):
    """node vs mpc_kernel supersteps/sec at THROUGHPUT_ALPHA.

    Returns ``(entry, speedup)``: a skip-reason string and None when the
    vectorized rung is unavailable (numpy-free hosts) — the node tier is
    then the only rung and there is nothing to compare.
    """
    why = unavailable_reason()
    if why is not None:
        note = f"skipped ({why})"
        print(f"throughput[{label}]: {note}")
        return note, None
    graphs = [gnp(n, p, rng=s) for s in seeds]
    node_rate = _time_tier(graphs, THROUGHPUT_ALPHA, "node")
    vector_rate = _time_tier(graphs, THROUGHPUT_ALPHA, "mpc_kernel")
    speedup = vector_rate / node_rate
    entry = {
        "graph": f"gnp({n}, {p:g})",
        "alpha": THROUGHPUT_ALPHA,
        "node_supersteps_per_s": round(node_rate, 1),
        "mpc_kernel_supersteps_per_s": round(vector_rate, 1),
        "speedup": round(speedup, 2),
    }
    print(f"throughput[{label}]: gnp({n}, {p:g}) alpha={THROUGHPUT_ALPHA}  "
          f"node {node_rate:8.1f} steps/s   mpc_kernel "
          f"{vector_rate:8.1f} steps/s   speedup {speedup:.2f}x")
    return entry, speedup


def _check_speedup_regression(current, committed):
    """Ratio-compare the throughput speedup with the committed report
    (the engine bench's portability idiom: ratios, not absolute rates)."""
    if not (isinstance(current, dict) and isinstance(committed, dict)):
        print("speedup regression: skipped (throughput unavailable on "
              "this or the committed host)")
        return 0
    base, now = committed.get("speedup"), current.get("speedup")
    if base is None or now is None:
        return 0
    if base < NOISE_FLOOR:
        print(f"speedup regression: skipped (committed speedup {base}x "
              f"is under the {NOISE_FLOOR}x noise floor)")
        return 0
    floor = base * REGRESSION_TOLERANCE
    if now < floor:
        print(f"REGRESSION throughput: speedup {now:.2f}x < {floor:.2f}x "
              f"(50% of committed {base:.2f}x)")
        return 1
    print(f"speedup regression: ok ({now:.2f}x vs committed {base:.2f}x, "
          f"tolerance 50%)")
    return 0


def _floor_trip(n):
    """The provable-trip gate: S below the floor must refuse to start."""
    alpha = 0.2
    limit = machine_words(n, alpha)
    if limit >= MIN_MACHINE_WORDS:  # pragma: no cover - n would be huge
        return f"skipped (S={limit} at alpha={alpha} is above the floor)"
    try:
        MPCCluster(gnp(64, 0.1, rng=0), alpha=alpha)
    except MemoryExceeded as exc:
        print(f"floor_trip: alpha={alpha} -> {exc}")
        return "enforced (MemoryExceeded raised at construction)"
    print(f"FAIL floor_trip: alpha={alpha} (S={limit}) did not raise")
    return "FAILED (no MemoryExceeded below the floor)"


def _check_against(record, path):
    """Exact structural comparison with the committed smoke section."""
    with open(path) as fh:
        committed = json.load(fh)
    want = committed.get("smoke")
    if want is None:
        print(f"{path} has no 'smoke' section; regenerate with --json")
        return 1
    if record == want:
        print(f"check-against {path}: smoke section matches exactly")
        return 0
    for key in sorted(set(want) | set(record)):
        if want.get(key) != record.get(key):
            print(f"MISMATCH {key}:\n  committed: {want.get(key)}\n"
                  f"  current:   {record.get(key)}")
    print(f"check-against {path}: the MPC driver's structural counts "
          f"changed — if intentional, regenerate with --json")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="MPC maximal matching: supersteps/memory vs alpha")
    parser.add_argument("--smoke", action="store_true",
                        help="small graph only (CI); gates stay enforced "
                             "— they are structural, not timings")
    parser.add_argument("--check-against", metavar="PATH", default=None,
                        help="fail unless the freshly computed smoke "
                             "section equals this committed report's "
                             "(exact: the driver is deterministic)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report "
                             "(BENCH_mpc.json)")
    args = parser.parse_args(argv)

    smoke_record = {}
    status = _run_matrix(SMOKE_N, SMOKE_P, SEEDS, smoke_record)
    full_record = {}
    if not args.smoke:
        status = max(status, _run_matrix(FULL_N, FULL_P, SEEDS, full_record))

    trip_note = _floor_trip(FULL_N)
    if trip_note.startswith("FAILED"):
        status = 1

    # -- the node vs mpc_kernel timing table -----------------------------
    throughput = {}
    throughput["smoke"], smoke_speedup = _throughput(SMOKE_N, SMOKE_P,
                                                     SEEDS, "smoke")
    if args.smoke:
        speedup_note = (f"skipped (smoke: n={SMOKE_N} is too small for a "
                        f"timing gate; full mode enforces >= "
                        f"{VECTOR_SPEEDUP_TARGET:g}x at n={FULL_N})")
        if smoke_speedup is None:
            speedup_note = throughput["smoke"]  # the unavailability reason
    else:
        throughput["full"], full_speedup = _throughput(FULL_N, FULL_P,
                                                       SEEDS, "full")
        if full_speedup is None:
            speedup_note = throughput["full"]  # the unavailability reason
        elif full_speedup >= VECTOR_SPEEDUP_TARGET:
            speedup_note = (f"met ({full_speedup:.2f}x >= "
                            f"{VECTOR_SPEEDUP_TARGET:g}x at n={FULL_N})")
        else:
            speedup_note = (f"FAILED ({full_speedup:.2f}x < "
                            f"{VECTOR_SPEEDUP_TARGET:g}x at n={FULL_N})")
            status = 1
    print(f"vector_speedup gate: {speedup_note}")

    if args.check_against is not None:
        status = max(status, _check_against(smoke_record,
                                            args.check_against))
        with open(args.check_against) as fh:
            committed = json.load(fh)
        status = max(status, _check_speedup_regression(
            throughput["smoke"],
            committed.get("throughput", {}).get("smoke")))

    if args.json is not None:
        report = {
            "meta": {
                "tool": "tools/bench_mpc.py",
                "alphas": list(ALPHAS),
                "seeds": list(SEEDS),
                "smoke_graph": f"gnp({SMOKE_N}, {SMOKE_P:g})",
                "full_graph": f"gnp({FULL_N}, {FULL_P:g})",
                "min_machine_words": MIN_MACHINE_WORDS,
                "python": platform.python_version(),
                "machine": platform.machine(),
                "smoke": bool(args.smoke),
            },
            "smoke": smoke_record,
            **({"full": full_record} if full_record else {}),
            "throughput": throughput,
            "gates": {
                "memory_guard": "enforced (peak <= S on every run)",
                "floor_trip": trip_note,
                "maximality": "enforced (valid + maximal on every run)",
                "vector_speedup": speedup_note,
                "passed": status == 0,
            },
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"wrote {args.json}")
    return status


if __name__ == "__main__":
    sys.exit(main())
