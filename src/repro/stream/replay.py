"""Replay harnesses: drive a service over recorded or generated streams.

Shared by ``python -m repro stream`` and ``tools/bench_ratios.py``:

* :func:`replay_events` — feed a recorded update stream (e.g. from
  :func:`~repro.stream.workload.load_updates`) into a
  :class:`~repro.stream.service.MatchingService` in fixed-size batches,
  timing every commit;
* :func:`replay_switch` — generate and serve a closed-loop switch workload
  (:class:`~repro.switchsim.updates.SwitchUpdateStream`): per cycle, the
  arrivals stream in, the service's latest epoch snapshot schedules the
  crossbar, and the served cells stream back as departures.

Each returns a :class:`ReplayReport` with throughput (updates/sec), commit
latency percentiles, and the approximation-ratio spot checks that keep the
speed numbers honest.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..graphs.graph import Graph
from .service import MatchingService
from .workload import EdgeUpdate, UpdateLike, as_update


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class ReplayReport:
    """Throughput, latency, and quality account of one replay."""

    events: int
    batches: int
    seconds: float
    updates_per_sec: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    size: int
    epochs: int
    augmentations: int
    recomputes: int = 0
    spot_checks: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def table(self) -> str:
        lines = [
            f"{'events':<18} {self.events}",
            f"{'batches':<18} {self.batches}",
            f"{'wall_s':<18} {self.seconds:.3f}",
            f"{'updates/sec':<18} {self.updates_per_sec:,.0f}",
            f"{'commit p50 (ms)':<18} {1e3 * self.latency_p50:.3f}",
            f"{'commit p95 (ms)':<18} {1e3 * self.latency_p95:.3f}",
            f"{'commit p99 (ms)':<18} {1e3 * self.latency_p99:.3f}",
            f"{'matching size':<18} {self.size}",
            f"{'epochs':<18} {self.epochs}",
            f"{'augmentations':<18} {self.augmentations}",
            f"{'recomputes':<18} {self.recomputes}",
        ]
        for check in self.spot_checks:
            lines.append(
                f"{'spot check':<18} epoch={check['epoch']} "
                f"ratio={check['ratio']:.3f} "
                f"invariant={'ok' if check['invariant'] else 'VIOLATED'}"
            )
        return "\n".join(lines)


def _spot_check(service: MatchingService) -> Dict[str, Any]:
    return {
        "epoch": service.epoch,
        "size": service.matching.size,
        "ratio": service.current_ratio(),
        "invariant": service.verify_invariant(),
        "guarantee": service.guarantee,
    }


def _report(service: MatchingService, events: int, wall: float,
            latencies: List[float],
            spot_checks: List[Dict[str, Any]],
            extra: Optional[Dict[str, Any]] = None) -> ReplayReport:
    return ReplayReport(
        events=events, batches=len(latencies), seconds=wall,
        updates_per_sec=(events / wall if wall > 0 else 0.0),
        latency_p50=percentile(latencies, 50.0),
        latency_p95=percentile(latencies, 95.0),
        latency_p99=percentile(latencies, 99.0),
        size=service.matching.size, epochs=service.epoch,
        augmentations=service.augmentations_total,
        recomputes=service.recomputes,
        spot_checks=spot_checks, extra=extra or {})


def replay_events(updates: Iterable[UpdateLike],
                  *,
                  service: Optional[MatchingService] = None,
                  graph: Optional[Graph] = None,
                  batch: int = 64,
                  spot_checks: int = 0,
                  clock: Callable[[], float] = time.perf_counter,
                  **service_kwargs: Any) -> ReplayReport:
    """Feed ``updates`` into a service in batches of ``batch``, timed.

    Builds a :class:`MatchingService` over ``graph`` (default: empty) with
    the remaining keywords unless an existing ``service`` is passed.
    ``spot_checks`` > 0 verifies the invariant and measures the ratio that
    many times, spread evenly across the run (plus once at the end).
    """
    if batch < 1:
        raise ValueError("batch must be a positive update count")
    if service is None:
        service = MatchingService(graph, **service_kwargs)
    updates = [as_update(u) for u in updates]
    check_every = (max(1, len(updates) // (batch * max(spot_checks, 1)))
                   if spot_checks else 0)
    latencies: List[float] = []
    checks: List[Dict[str, Any]] = []
    t_start = clock()
    for lo in range(0, len(updates), batch):
        service.apply(updates[lo:lo + batch])
        t0 = clock()
        service.commit()
        latencies.append(clock() - t0)
        if check_every and len(latencies) % check_every == 0 \
                and len(checks) < spot_checks - 1:
            checks.append(_spot_check(service))
    wall = clock() - t_start
    if spot_checks:
        checks.append(_spot_check(service))
    return _report(service, len(updates), wall, latencies, checks)


def replay_switch(ports: int = 32,
                  cycles: int = 1000,
                  pattern: str = "uniform",
                  load: float = 0.7,
                  seed: int = 0,
                  *,
                  batch: int = 64,
                  spot_checks: int = 4,
                  max_events: Optional[int] = None,
                  record: Optional[List[EdgeUpdate]] = None,
                  service: Optional[MatchingService] = None,
                  clock: Callable[[], float] = time.perf_counter,
                  **service_kwargs: Any) -> ReplayReport:
    """Closed-loop switch replay: schedule with the service's snapshots.

    Per cycle: arrivals enqueue, batches of ``batch`` updates commit (each
    commit timed), and the matching of the latest committed epoch serves
    one cell per matched VOQ, whose departures enqueue in turn.  Pass a
    ``record`` list to capture the exact event stream (for
    :func:`~repro.stream.workload.save_updates` or a baseline replay).
    ``max_events`` stops after the cycle that reaches that many update
    events (benchmarks size workloads in events, not cycles).
    """
    from ..switchsim.updates import SwitchUpdateStream

    if batch < 1:
        raise ValueError("batch must be a positive update count")
    stream = SwitchUpdateStream(ports, pattern=pattern, load=load, seed=seed)
    if service is None:
        service_kwargs.setdefault("seed", seed)
        service = MatchingService(**service_kwargs)
    latencies: List[float] = []
    checks: List[Dict[str, Any]] = []
    events = 0
    if not spot_checks:
        check_every = 0
    elif max_events is not None:
        check_every = max(1, max_events // spot_checks)
    else:
        check_every = max(1, cycles // spot_checks)
    next_check = check_every

    def pump(updates: List[EdgeUpdate]) -> None:
        nonlocal events
        events += len(updates)
        if record is not None:
            record.extend(updates)
        service.apply(updates)
        while service.pending >= batch:
            t0 = clock()
            service.commit()
            latencies.append(clock() - t0)

    t_start = clock()
    cycle = 0
    while cycle < cycles:
        pump(stream.arrivals(cycle))
        pump(stream.departures(service.snapshot().matching))
        cycle += 1
        progress = events if max_events is not None else cycle
        if check_every and progress >= next_check \
                and len(checks) < spot_checks - 1:
            checks.append(_spot_check(service))
            next_check += check_every
        if max_events is not None and events >= max_events:
            break
    if service.pending:
        t0 = clock()
        service.commit()
        latencies.append(clock() - t0)
    wall = clock() - t_start
    if spot_checks:
        checks.append(_spot_check(service))
    extra = {
        "ports": ports, "cycles": cycle, "pattern": pattern, "load": load,
        "cells_arrived": stream.cells_arrived,
        "cells_departed": stream.cells_departed,
        "backlog": stream.backlog,
    }
    return _report(service, events, wall, latencies, checks, extra)

