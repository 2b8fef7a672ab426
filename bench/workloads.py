"""The benchmark's own inputs: workload specs and seeded generators.

Nothing here imports :mod:`repro`.  The generators are deliberately
independent of ``repro.graphs.generators`` and ``repro.switchsim`` so that a
change to the program's generators can never change what the benchmark
feeds the program.

* :func:`gnp_edges` draws G(n, p) and :func:`bipartite_edges` draws
  G(n, n, p), both by geometric skipping (Batagelj and Brandes, 2005):
  O(n + m) ``random()`` calls instead of one per vertex pair.
* :class:`VOQSwitch` is a closed-loop input-queued switch: Bernoulli
  arrivals with a uniform destination per input port, one virtual output
  queue (VOQ) per (input, output) pair, and one cell served per matched
  VOQ per cycle.  It emits the demand-graph updates a
  ``MatchingService`` consumes, as plain tuples.

What ``--seed`` changes.  A static workload runs a fixed corpus of
``pool`` graphs, seeded by the workload's name, and ``--seed`` seeds the
algorithm of every op (:func:`op_seed`).  The corpus is fixed because the
exact oracle's cost differs up to 2.5x between G(n, p) draws of one size
(coefficient of variation ~0.5 over eight G(3000, 5/n) draws), so a
per-run draw of four graphs would make the latency of the oracle-bound
workloads a property of the draw, not of the program.  The stream
workload's traffic comes from ``--seed``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

Edge = Tuple[int, int]
Update = Tuple  # ("insert" | "weight" | "delete", u, v[, weight])


@dataclass(frozen=True)
class StaticWorkload:
    """Closed-loop ``repro.run`` calls over a fixed pool of random graphs."""

    name: str
    algorithm: str
    #: "gnp": G(n, avg_degree / n); "bipartite": G(n, n, avg_degree / n)
    family: str
    n: int
    avg_degree: float
    kwargs: Tuple[Tuple[str, object], ...]
    #: every op's matching must be maximal (the maximal-matching drivers)
    maximal: bool
    #: every op's |M| / |M*| must reach this
    min_ratio: float
    why: str
    pool: int = 4

    kind = "static"


@dataclass(frozen=True)
class StreamWorkload:
    """Closed-loop VOQ switch served by one ``MatchingService``."""

    name: str
    ports: int
    load: float
    k: int
    commit_every: int
    warmup_events: int
    check_every: int
    why: str

    kind = "stream"

    @property
    def min_ratio(self) -> float:
        return self.k / (self.k + 1)


WORKLOADS = {
    w.name: w for w in (
        StaticWorkload(
            name="mpc_gnp", algorithm="mpc_maximal", family="gnp", n=3000,
            avg_degree=5.0, kwargs=(("alpha", 0.5),), maximal=True,
            min_ratio=0.5,
            why="MPC maximal matching; the exact oracle is most of each op, "
                "so taking it off the hot path shows here"),
        StaticWorkload(
            name="congest_mcm_bipartite", algorithm="mcm",
            family="bipartite", n=1500, avg_degree=3.0, kwargs=(("k", 2),),
            maximal=False, min_ratio=2 / 3,
            why="the paper's CONGEST (1-eps)-MCM (Theorem 3.10); the round "
                "loop and its kernels dominate, the oracle is a minor share"),
        StaticWorkload(
            name="congest_sharded_gnp", algorithm="maximal", family="gnp",
            n=4800, avg_degree=3.0, kwargs=(), maximal=True, min_ratio=0.5,
            why="n >= 4096 on >= 2 cores makes execution='auto' spawn shard "
                "worker pools; the only workload that does"),
        StreamWorkload(
            name="stream_switch", ports=32, load=0.7, k=2, commit_every=64,
            warmup_events=20_000, check_every=10_000,
            why="MatchingService writes beside snapshot reads on a mutating "
                "switch demand graph; never calls the oracle"),
    )
}


def gnp_edges(n: int, p: float, rng: random.Random) -> List[Edge]:
    """The edges ``(u, v)``, ``u < v``, of one G(n, p) draw."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    edges: List[Edge] = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def bipartite_edges(n: int, p: float, rng: random.Random) -> List[Edge]:
    """The edges ``(u, n + v)`` of one G(n, n, p) draw, sides ``0..n-1``
    and ``n..2n-1``."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    edges: List[Edge] = []
    log_q = math.log(1.0 - p)
    pair = -1
    while True:
        pair += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if pair >= n * n:
            return edges
        edges.append((pair // n, n + pair % n))


def pool_edges(spec: StaticWorkload) -> List[List[Edge]]:
    """The workload's graph corpus, as edge lists.

    Graph ``j`` has its own string-seeded stream (``random`` hashes string
    seeds with SHA-512), independent of the other graphs.
    """
    draw = gnp_edges if spec.family == "gnp" else bipartite_edges
    p = spec.avg_degree / spec.n
    return [draw(spec.n, p, random.Random(f"{spec.name}/{j}"))
            for j in range(spec.pool)]


def op_seed(seed: int, i: int) -> int:
    """The algorithm seed of op ``i`` (``-1`` is the warm-up op)."""
    return seed * 1_000_000 + i + 1


class VOQSwitch:
    """An input-queued switch whose VOQ occupancy is the demand graph.

    Inputs are nodes ``0..ports-1`` and outputs ``ports..2*ports-1``; the
    edge ``(i, ports + j)`` exists exactly while VOQ ``(i, j)`` holds a
    cell, weighted by its length.  :attr:`queues` is therefore the
    benchmark's mirror of the graph the service should hold once every
    emitted update is committed.
    """

    def __init__(self, ports: int, load: float, seed: int) -> None:
        self.ports = ports
        self.load = load
        self.rng = random.Random(f"voq/{ports}/{load}/{seed}")
        self.queues: Dict[Edge, int] = {}

    def arrivals(self) -> List[Update]:
        """One cycle of Bernoulli-uniform arrivals, as updates."""
        out: List[Update] = []
        rng, ports, queues = self.rng, self.ports, self.queues
        for i in range(ports):
            if rng.random() < self.load:
                key = (i, ports + rng.randrange(ports))
                q = queues.get(key, 0) + 1
                queues[key] = q
                out.append(("insert", *key, 1.0) if q == 1
                           else ("weight", *key, float(q)))
        return out

    def departures(self, matched: Iterable[Edge]) -> List[Update]:
        """Serve one cell per matched VOQ, as updates.

        ``matched`` may be a stale snapshot: an edge whose queue already
        drained is skipped, as a real crossbar would idle that port.
        """
        out: List[Update] = []
        ports, queues = self.ports, self.queues
        for u, v in matched:
            key = (u, v) if u < ports else (v, u)
            q = queues.get(key, 0)
            if q <= 0:
                continue
            if q == 1:
                del queues[key]
                out.append(("delete", *key))
            else:
                queues[key] = q - 1
                out.append(("weight", *key, float(q - 1)))
        return out
