"""Strongly sublinear maximal matching on the simulated MPC cluster.

:func:`mpc_maximal` computes a maximal matching with ``S = n**alpha``
words per machine by sparsifying the alive edges and matching the mutual
minima of the sample — the sampling step of the Ghaffari–Uitto line of
work, without its multi-hop ball gathering.  It runs four phases per
iteration (each a :class:`~repro.runtime.driver.PhaseDriver` phase, so
traces and profiles show the structure); every phase decides something
the next one reads, and an iteration costs five supersteps:

``sparsify`` (1 superstep)
    Every machine narrows its resident alive edges to a working sample
    of at most ``q = working_budget // 8`` edges — the ones with the
    lowest deterministic priorities ``h(iteration, u, v)`` (a
    :func:`~repro.dist.random_tools.spawn_seed` splitmix64 hash, so runs
    are reproducible and machine-order independent).  Sampling is what
    keeps every later working set within the per-machine cap.

``best`` (1 superstep)
    Each sampled vertex learns its minimum-priority incident sample
    edge.

``local_mis`` (1 superstep)
    An independent set in the line graph of the sample: edge ``(u, v)``
    joins iff it is the ``best`` edge at **both** endpoints.  Such mutual
    minima are pairwise non-adjacent by construction, and the sample's
    globally minimum edge is always one of them — so every iteration
    matches at least one edge and the loop terminates.

``integrate`` (2 supersteps)
    Accepted edges become matched: endpoint owners mark both vertices
    dead, every machine drops its now-dead resident edges (releasing
    their words), and the working sets are freed.

One more superstep distributes the input, so a run of ``i`` iterations
takes ``1 + 5 * i`` supersteps.

The phase *bodies* come in two golden-equivalent implementations behind
one interface: :class:`_NodePasses` (the per-machine python loops — the
``node`` tier and the reference semantics) and
:class:`~repro.mpc.kernel.VectorPasses` (whole-cluster numpy array
passes — the ``mpc_kernel`` tier).  The driver resolves the cluster's
:class:`~repro.models.execution.ExecutionPlan` through the MPC model's
ladder and everything observable — matching, supersteps, Metrics, the
memory account, phase details and structural events — is identical on
both rungs (pinned by ``tests/test_mpc_kernel.py``).

Every allocation along the way goes through
:meth:`~repro.mpc.cluster.MPCMachine.charge` (or its budget-exact array
ledger mirror), so the hard memory guard is enforced *during* the run,
not audited after it.

Per iteration the phases also emit two peeling counters, cheap on both
tiers: ``delta_est`` (the maximum degree of the alive subgraph at the
start of the iteration) on ``sparsify`` and ``decay_ratio`` (the
fraction of alive edges eliminated) on ``integrate`` — visible in
traces, Profiler counter rows and :attr:`MPCMatchingResult.delta_est` /
:attr:`MPCMatchingResult.edge_decay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..dist.random_tools import spawn_seed
from ..matching.core import Matching
from ..runtime.driver import PhaseDriver, ProtocolResult
from .cluster import MPCCluster

__all__ = ["MPCMatchingResult", "mpc_maximal"]


@dataclass
class MPCMatchingResult(ProtocolResult):
    """Result of :func:`mpc_maximal`.

    ``network`` carries the :class:`~repro.mpc.cluster.MPCCluster` (it
    satisfies the same ``.metrics`` surface), so the inherited
    ``metrics``/``rounds_total`` properties report supersteps and the
    memory account; ``supersteps == 1 + 5 * iterations``.  ``tier``
    records which rung of the MPC ladder the run resolved to
    (``"mpc_kernel"`` or ``"node"``); the two are golden-equivalent in
    everything else this result carries.
    """

    alpha: float = 0.0
    iterations: int = 0
    supersteps: int = 0
    peak_words: int = 0
    machine_words: int = 0
    num_machines: int = 0
    #: the resolved execution rung this run used
    tier: str = "node"
    #: per-iteration (sampled edges, matched edges) pairs
    iteration_stats: List[Tuple[int, int]] = field(default_factory=list)
    #: per-iteration maximum degree of the alive subgraph (Δ_est)
    delta_est: List[int] = field(default_factory=list)
    #: per-iteration alive-edge decay (edges eliminated by integrate)
    edge_decay: List[int] = field(default_factory=list)


def _priority(seed: int, iteration: int, u: int, v: int) -> int:
    """Deterministic per-iteration edge priority (splitmix64 stream)."""
    a, b = (u, v) if u <= v else (v, u)
    return spawn_seed(seed, "mpc", iteration, a, b)


class _NodePasses:
    """The per-machine python phase passes (the ``node`` tier).

    This is the reference semantics: every record charged one
    :meth:`~repro.mpc.cluster.MPCMachine.charge` at a time, dictionaries
    and python sorts throughout.  The vectorized
    :class:`~repro.mpc.kernel.VectorPasses` implements the identical
    interface and must return the identical counts.
    """

    def __init__(self, cluster: MPCCluster, graph: Any) -> None:
        self.cluster = cluster
        self.M = cluster.num_machines
        # per-machine sample cap: each sampled edge costs its home
        # machine 2 (record) + 1 (acceptance word) working words.  The
        # divisor picks the sample, hence the matching, so it stays at
        # 8; a larger cap (working_budget // 3) saved one iteration in
        # 2 of 9 runs on gnp(10000, 0.0008) and none in the other 7
        self.q = max(1, cluster.working_budget // 8)
        self.nodes = list(graph.nodes)  # sorted ids; determinism matters
        self.node_index = {v: i for i, v in enumerate(self.nodes)}
        self.num_nodes = len(self.nodes)
        self.edges: List[Tuple[Any, Any]] = [(u, v)
                                             for u, v, _ in graph.edges()]
        self.num_edges = len(self.edges)
        self.alive = [True] * self.num_edges
        self.alive_count = self.num_edges
        self.incident: Dict[Any, List[int]] = {}
        # working[home] tracks one iteration's transient words so
        # integrate can release exactly what the phases charged
        self.working: Dict[int, int] = {}
        self.sample: List[Tuple[int, int]] = []
        self.best_at: Dict[Any, Tuple[int, int]] = {}

    def _edge_home(self, idx: int) -> int:
        return idx % self.M

    def _owner(self, v: Any) -> int:
        return self.node_index[v] % self.M

    def _charge_working(self, home: int, words: int, phase: str) -> None:
        self.cluster.machines[home].charge(words, phase)
        self.working[home] = self.working.get(home, 0) + words

    def distribute(self) -> None:
        """Distribute the input (charges resident ledgers; guard live)."""
        for idx, (u, v) in enumerate(self.edges):
            self.cluster.machines[self._edge_home(idx)].charge(
                2, "input distribution")
            self.incident.setdefault(u, []).append(idx)
            self.incident.setdefault(v, []).append(idx)
        for v in self.nodes:
            self.cluster.machines[self._owner(v)].charge(
                2, "input distribution")

    def sparsify(self, iteration: int) -> Tuple[int, int]:
        """Per-machine lowest-priority working sample; returns
        ``(sample_size, delta_est)``, where ``delta_est`` is the alive
        subgraph's maximum degree."""
        self.working = {}
        per_machine: Dict[int, List[Tuple[int, int]]] = {}
        degree: Dict[Any, int] = {}
        for idx in range(self.num_edges):
            if self.alive[idx]:
                u, v = self.edges[idx]
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
                pri = _priority(self.cluster.seed, iteration, u, v)
                per_machine.setdefault(self._edge_home(idx), []).append(
                    (pri, idx))
        sample: List[Tuple[int, int]] = []
        for home, cand in per_machine.items():
            cand.sort()
            take = cand[:self.q]
            self._charge_working(home, 2 * len(take), "sparsify")
            sample.extend(take)
        sample.sort()
        self.sample = sample
        return len(sample), max(degree.values())

    def best(self) -> int:
        """Each sampled vertex's minimum-priority sample edge; returns
        the number of sampled vertices."""
        # the sample is in (pri, idx) order, so a vertex's first sample
        # edge is its minimum
        best_at: Dict[Any, Tuple[int, int]] = {}
        for pri, idx in self.sample:
            for w in self.edges[idx]:
                best_at.setdefault(w, (pri, idx))
        self.best_at = best_at
        return len(best_at)

    def local_mis(self) -> List[int]:
        """Mutual minima of the sample (accepted global edge indices)."""
        accepted: List[int] = []
        for pri, idx in self.sample:
            u, v = self.edges[idx]
            if self.best_at[u] == self.best_at[v] == (pri, idx):
                accepted.append(idx)
        # one word of mutual-minimum agreement per accepted edge,
        # recorded on the edge's home machine
        for idx in accepted:
            self._charge_working(self._edge_home(idx), 1, "local_mis")
        return accepted

    def integrate(self, accepted: List[int]) -> int:
        """Apply the matching, drop dead edges, free the working sets."""
        dropped = 0
        for idx in accepted:
            for w in self.edges[idx]:
                for inc in self.incident[w]:
                    if self.alive[inc]:
                        self.alive[inc] = False
                        self.alive_count -= 1
                        dropped += 1
                        self.cluster.machines[self._edge_home(inc)].release(2)
        # free the working sets (samples and agreement words)
        for home, words in self.working.items():
            self.cluster.machines[home].release(words)
        return dropped

    def finish(self) -> None:
        """Nothing to sync: the node tier charges machines directly."""


def mpc_maximal(cluster: MPCCluster) -> MPCMatchingResult:
    """Compute a maximal matching on ``cluster``'s graph.

    Runs sparsify → best → local-MIS → integrate iterations (five
    supersteps each, after one for input distribution) until no alive
    edge remains; since every removed edge has a matched endpoint, the
    result is maximal by construction (and
    :func:`repro.matching.verify.certify` re-checks it independently).
    The cluster's execution plan resolves through the MPC ladder
    (``mpc_kernel`` → ``node``); both rungs are golden-equivalent, so
    the choice only affects wall-clock.
    """
    graph = cluster.graph
    protocol = "mpc_maximal"
    driver = PhaseDriver(cluster, protocol)
    matching = Matching()

    decision = cluster.model.resolve(cluster)
    if decision.tier == "mpc_kernel":
        from .kernel import VectorPasses

        passes: Any = VectorPasses(cluster, graph)
    else:
        passes = _NodePasses(cluster, graph)

    m, n = passes.num_edges, passes.num_nodes

    passes.distribute()
    cluster.superstep(protocol, count=1, messages=m + n,
                      words=2 * m + 2 * n)

    # every iteration matches an edge, so this trips only if the progress
    # invariant breaks; unlike the assert below, it holds under python -O
    max_iterations = 4 * max(1, m).bit_length() + n + 8

    iteration = 0
    stats: List[Tuple[int, int]] = []
    delta_series: List[int] = []
    decay_series: List[int] = []
    while passes.alive_count > 0:
        iteration += 1
        if iteration > max_iterations:  # pragma: no cover - safety net
            raise RuntimeError(
                f"mpc_maximal exceeded {max_iterations} iterations with "
                f"{passes.alive_count} alive edge(s); progress invariant "
                f"broken")
        alive_before = passes.alive_count

        # -- sparsify: per-machine lowest-priority working sample -------
        with driver.phase(f"sparsify[{iteration}]") as ph:
            sampled, delta_est = passes.sparsify(iteration)
            cluster.superstep(protocol, count=1, messages=sampled,
                              words=2 * sampled)
            ph.set_detail(alive=alive_before, sampled=sampled,
                          per_machine_cap=passes.q, delta_est=delta_est)

        # -- best: each sampled vertex's minimum sample edge ------------
        with driver.phase(f"best[{iteration}]") as ph:
            sampled_vertices = passes.best()
            cluster.superstep(protocol, count=1, messages=sampled_vertices,
                              words=sampled_vertices)
            ph.set_detail(sampled_vertices=sampled_vertices)

        # -- local MIS on the line graph: mutual minima -----------------
        with driver.phase(f"local_mis[{iteration}]") as ph:
            accepted = passes.local_mis()
            cluster.superstep(protocol, count=1,
                              messages=2 * len(accepted),
                              words=2 * len(accepted))
            ph.set_detail(accepted=len(accepted))
        assert accepted, "a nonempty sample always has a mutual minimum"

        # -- integrate: apply the matching, drop dead edges -------------
        with driver.phase(f"integrate[{iteration}]") as ph:
            for idx in accepted:
                u, v = passes.edges[idx]
                matching.add(u, v)
            dropped = passes.integrate(accepted)
            cluster.superstep(protocol, count=2,
                              messages=2 * len(accepted),
                              words=2 * len(accepted))
            ph.set_detail(matched=len(accepted), dropped_edges=dropped,
                          alive=passes.alive_count,
                          decay_ratio=round(dropped / alive_before, 4))

        stats.append((sampled, len(accepted)))
        delta_series.append(delta_est)
        decay_series.append(dropped)
        driver.emit_augmentation(f"integrate[{iteration}]",
                                 paths=len(accepted),
                                 size=float(matching.size))

    passes.finish()
    cluster.record_peaks()
    return MPCMatchingResult(
        matching=matching,
        network=cluster,
        alpha=cluster.alpha,
        iterations=iteration,
        supersteps=cluster.metrics.rounds,
        peak_words=cluster.peak_words,
        machine_words=cluster.machine_words,
        num_machines=cluster.num_machines,
        tier=decision.tier,
        iteration_stats=stats,
        delta_est=delta_series,
        edge_decay=decay_series,
    )
