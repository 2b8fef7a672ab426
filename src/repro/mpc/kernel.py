"""Vectorized MPC execution tier: whole-cluster array supersteps.

The ``mpc_kernel`` rung of the MPC model's ladder packs the cluster's
per-machine state — the resident/working word ledgers, the alive-edge
set, the sampled-edge working sets and the ball-growing pointer arrays —
into flat numpy arrays and executes each phase of the Ghaffari–Uitto
driver (:mod:`repro.mpc.matching`) as whole-cluster array operations:

* **priorities** — the deterministic splitmix64 chain of
  :func:`repro.dist.random_tools.spawn_seed` replayed bit-for-bit over
  ``uint64`` arrays (:func:`vec_splitmix64`), so the vectorized sample
  is the *same* sample the per-machine python loops pick;
* **sparsify** — per-machine lowest-``q`` selection via one lexsort and
  a grouped rank, instead of a python sort per machine;
* **ball growing** — pointer jumping as repeated fancy indexing over a
  compacted parent array;
* **local MIS** — the mutual-minima test as two array lookups;
* **integrate** — dead-edge elimination as a boolean mask reduction.

The memory guard stays **budget-exact**: :class:`VectorLedger` charges
and releases the *identical* word counts per machine per superstep that
the node tier's per-record :meth:`~repro.mpc.cluster.MPCMachine.charge`
calls make.  Because every charge within one phase is monotone (releases
only happen in ``integrate``), per-phase aggregation preserves both the
cluster peak and the guard condition; when an aggregate charge would
cross the cap, the ledger replays that phase's charges in node order so
:class:`~repro.mpc.cluster.MemoryExceeded` carries the bit-identical
``(machine, needed, limit, phase)`` at the same superstep.

numpy is optional at the package level: :func:`unavailable_reason`
reports why the tier cannot run (no numpy, non-integer node ids) and
:meth:`~repro.models.base.MPCModel.resolve` surfaces that reason before
falling through to the ``node`` rung.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from ..dist.random_tools import _MASK64, _fold, _splitmix64
from .cluster import MemoryExceeded, MPCCluster

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-free host
    _np = None

__all__ = [
    "VectorLedger",
    "VectorPasses",
    "unavailable_reason",
    "vec_splitmix64",
]


def unavailable_reason(graph: Any = None) -> Optional[str]:
    """Why the ``mpc_kernel`` rung cannot run (None when it can).

    The numpy probe first, then the input-shape gate (vectorized
    priorities hash machine integers; exotic node ids fall through to
    the python loops, which hash anything).
    """
    if _np is None:
        return ("numpy is not importable — the packed-array cluster "
                "passes need it; supersteps fall through to the "
                "per-machine python loops")
    if graph is not None:
        for v in graph.nodes:
            if not isinstance(v, int):
                return (f"node ids are not all machine integers (found "
                        f"{type(v).__name__}); vectorized splitmix64 "
                        f"priorities need uint64-packable ids")
    return None


def vec_splitmix64(x: "Any") -> "Any":
    """One splitmix64 finalization step over a ``uint64`` array.

    Bit-identical to :func:`repro.dist.random_tools._splitmix64` (uint64
    wraparound is the point of the arithmetic; overflow warnings are
    suppressed for hosts running under ``-W error``).
    """
    np = _np
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


class VectorLedger:
    """The cluster's machine ledgers as flat arrays, budget-exact.

    ``resident``/``peak``/``limit`` mirror the
    :class:`~repro.mpc.cluster.MPCMachine` fields one row per machine.
    :meth:`charge_grouped` applies one phase's aggregated charges; when
    any machine would cross its cap it replays the phase's individual
    charge events in node order (``events`` — lazily generated, the
    error path only) so the raised :class:`MemoryExceeded` is
    bit-identical to the node tier's.  :meth:`sync` writes the arrays
    back into the cluster's machine objects, so ``peak_words`` /
    ``record_peaks`` and post-mortem inspection see one truth.
    """

    __slots__ = ("cluster", "resident", "peak", "limit")

    def __init__(self, cluster: MPCCluster) -> None:
        np = _np
        self.cluster = cluster
        self.resident = np.array([m.resident for m in cluster.machines],
                                 dtype=np.int64)
        self.peak = np.array([m.peak for m in cluster.machines],
                             dtype=np.int64)
        self.limit = np.array([m.limit for m in cluster.machines],
                              dtype=np.int64)

    def charge_grouped(self, counts: "Any", phase: str,
                       events: Callable[[], Iterable[Tuple[int, int]]],
                       ) -> None:
        """Charge ``counts`` (words per machine, len ``M``) for one phase.

        Within a phase every node-tier charge is an allocation (monotone
        resident), so the aggregate preserves the guard and the peak; on
        overflow the node-order ``events`` replay pinpoints the exact
        failing charge.
        """
        np = _np
        idx = np.nonzero(counts)[0]
        if idx.size == 0:
            return
        new = self.resident[idx] + counts[idx]
        if bool((new > self.limit[idx]).any()):
            for mach, words in events():
                cur = int(self.resident[mach]) + int(words)
                limit = int(self.limit[mach])
                if cur > limit:
                    self.sync()
                    raise MemoryExceeded(mach, cur, limit, phase)
                self.resident[mach] = cur
                if cur > self.peak[mach]:
                    self.peak[mach] = cur
            raise AssertionError(  # pragma: no cover - defensive
                "aggregate overflow not reproduced by the event replay")
        self.resident[idx] = new
        self.peak[idx] = np.maximum(self.peak[idx], new)

    def release_grouped(self, counts: "Any") -> None:
        """Free ``counts`` words per machine (clamped at zero, like
        :meth:`MPCMachine.release`; clamping commutes with aggregation
        because releases are non-negative)."""
        np = _np
        self.resident = np.maximum(self.resident - counts, 0)

    def sync(self) -> None:
        """Write the array ledgers back into the cluster's machines."""
        resident = self.resident.tolist()
        peak = self.peak.tolist()
        for machine, res, pk in zip(self.cluster.machines, resident, peak):
            machine.resident = res
            machine.peak = pk


class VectorPasses:
    """Array-native implementations of the driver's five phase passes.

    One instance per run; the interface (and every count it returns) is
    identical to ``repro.mpc.matching._NodePasses`` — the shared driver
    in :func:`repro.mpc.matching.mpc_maximal` consumes either
    implementation and emits the same supersteps, events, details and
    metrics.  All returned values are python ints (details are JSON
    traced; numpy scalars must not leak into the event stream).
    """

    def __init__(self, cluster: MPCCluster, graph: Any) -> None:
        np = _np
        self.cluster = cluster
        self.ledger = VectorLedger(cluster)
        M = cluster.num_machines
        self.M = M
        self.q = max(1, cluster.working_budget // 8)

        nodes = list(graph.nodes)  # sorted ids; determinism matters
        node_index = {v: i for i, v in enumerate(nodes)}
        self.num_nodes = len(nodes)
        #: original-orientation edge list (``matching.add`` order source)
        self.edges: List[Tuple[Any, Any]] = [(u, v)
                                             for u, v, _ in graph.edges()]
        m = len(self.edges)
        self.num_edges = m
        self.alive_count = m

        # packed topology: endpoint *indices* for structure, sorted
        # endpoint *ids* (uint64) for the splitmix64 priority chain
        self.eu = np.fromiter((node_index[u] for u, _ in self.edges),
                              dtype=np.int64, count=m)
        self.ev = np.fromiter((node_index[v] for _, v in self.edges),
                              dtype=np.int64, count=m)
        self.pa = np.fromiter(
            ((u if u <= v else v) & _MASK64 for u, v in self.edges),
            dtype=np.uint64, count=m)
        self.pb = np.fromiter(
            ((v if u <= v else u) & _MASK64 for u, v in self.edges),
            dtype=np.uint64, count=m)
        self.home = np.arange(m, dtype=np.int64) % M
        self.owner = np.arange(self.num_nodes, dtype=np.int64) % M
        self.alive = np.ones(m, dtype=bool)
        self.dead_node = np.zeros(self.num_nodes, dtype=bool)

        #: seed chain prefix: splitmix64(seed) folded with "mpc" — the
        #: per-iteration fold and the two id folds happen vectorized
        self._prefix = _fold(_splitmix64(cluster.seed & _MASK64), "mpc")

        # per-iteration working sets (reset by sparsify)
        self.working = np.zeros(M, dtype=np.int64)
        self.sample_idx = self.sample_home = None
        self.su = self.sv = None
        self.verts = self.best_s = None
        self._accepted_s = None

    # -- shared charge plumbing -----------------------------------------
    def _charge_working(self, counts: "Any", phase: str,
                        events: Callable[[], Iterable[Tuple[int, int]]],
                        ) -> None:
        self.ledger.charge_grouped(counts, phase, events)
        self.working += counts

    # -- input distribution ---------------------------------------------
    def distribute(self) -> None:
        """Charge the round-robin input shares (2 words per record)."""
        np = _np
        counts = (np.bincount(self.home, minlength=self.M)
                  + np.bincount(self.owner, minlength=self.M)) * 2

        def events() -> Iterator[Tuple[int, int]]:
            for idx in range(self.num_edges):
                yield int(self.home[idx]), 2
            for i in range(self.num_nodes):
                yield int(self.owner[i]), 2

        self.ledger.charge_grouped(counts, "input distribution", events)

    # -- sparsify --------------------------------------------------------
    def sparsify(self, iteration: int) -> Tuple[int, int]:
        """Per-machine lowest-``q`` working sample; returns
        ``(sample_size, delta_est)``."""
        np = _np
        self.working[:] = 0
        alive_idx = np.nonzero(self.alive)[0]
        it_state = np.uint64(_fold(self._prefix, iteration))
        pri = vec_splitmix64(
            vec_splitmix64(it_state ^ self.pa[alive_idx]) ^ self.pb[alive_idx])
        home = self.home[alive_idx]
        # sort by (home, pri, idx): within each machine the first q rows
        # are exactly the node tier's `cand.sort(); cand[:q]` selection
        order = np.lexsort((alive_idx, pri, home))
        sorted_home = home[order]
        boundary = np.empty(order.size, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_home[1:], sorted_home[:-1], out=boundary[1:])
        starts = np.nonzero(boundary)[0]
        rank = np.arange(order.size) - np.repeat(
            starts, np.diff(np.r_[starts, order.size]))
        sel = order[rank < self.q]
        sidx, spri = alive_idx[sel], pri[sel]
        final = np.lexsort((sidx, spri))  # global (pri, idx) sample order
        self.sample_idx = sidx[final]
        self.sample_home = self.home[self.sample_idx]
        self.su = self.eu[self.sample_idx]
        self.sv = self.ev[self.sample_idx]

        counts = 2 * np.bincount(self.sample_home, minlength=self.M)

        def events() -> Iterator[Tuple[int, int]]:
            # node order: machines by first alive edge index, one grouped
            # charge of 2 * take words each
            first = {}
            for idx in alive_idx.tolist():
                first.setdefault(idx % self.M, None)
            for mach in first:
                yield mach, int(counts[mach])

        self._charge_working(counts, "sparsify", events)

        # Δ_est peeling counter: residual-degree estimate from the
        # working sample (max sampled edges at any endpoint)
        if self.sample_idx.size:
            delta_est = int(np.bincount(
                np.concatenate((self.su, self.sv))).max())
        else:
            delta_est = 0
        return int(self.sample_idx.size), delta_est

    # -- ball growing ----------------------------------------------------
    def ball_growing(self) -> Tuple[int, int, int]:
        """Pointer-jump the sampled forest; returns
        ``(sampled_vertices, jumps, components)``."""
        np = _np
        k = int(self.sample_idx.size)
        counts = 4 * np.bincount(self.sample_home, minlength=self.M)
        sample_home = self.sample_home

        def events() -> Iterator[Tuple[int, int]]:
            for h in sample_home.tolist():
                yield h, 4

        self._charge_working(counts, "ball_growing", events)

        # best sample per endpoint: the sample is in (pri, idx) order, so
        # "minimum (pri, idx)" is "minimum sample position s"
        ends = np.column_stack((self.su, self.sv)).ravel()
        s2 = np.repeat(np.arange(k, dtype=np.int64), 2)
        order = np.argsort(ends, kind="stable")
        se, ss = ends[order], s2[order]
        first = np.empty(se.size, dtype=bool)
        if se.size:
            first[0] = True
            np.not_equal(se[1:], se[:-1], out=first[1:])
        verts = se[first]       # sampled vertices, ascending node index
        best_s = ss[first]      # their minimum-priority incident sample
        self.verts, self.best_s = verts, best_s

        # parent pointer: the other endpoint of the best edge
        bu, bv = self.su[best_s], self.sv[best_s]
        parent = np.searchsorted(verts, np.where(bu == verts, bv, bu))
        jumps = max(1, math.ceil(math.log2(max(2, int(verts.size)))))
        for _ in range(jumps):
            parent = parent[parent]
        self_idx = np.arange(verts.size, dtype=np.int64)
        # leaders are 2-cycles of the jumped forest (mutual minima)
        label = np.where(parent[parent] == self_idx,
                         np.minimum(self_idx, parent), parent)
        components = int(np.unique(label).size)
        return int(verts.size), jumps, components

    # -- local MIS -------------------------------------------------------
    def local_mis(self) -> List[int]:
        """Mutual minima of the sample, as global edge indices in the
        node tier's acceptance order (ascending sample position)."""
        np = _np
        best_at = np.full(self.num_nodes, -1, dtype=np.int64)
        best_at[self.verts] = self.best_s
        s = np.arange(self.sample_idx.size, dtype=np.int64)
        accepted_s = np.nonzero((best_at[self.su] == s)
                                & (best_at[self.sv] == s))[0]
        self._accepted_s = accepted_s
        acc_home = self.sample_home[accepted_s]
        counts = np.bincount(acc_home, minlength=self.M)

        def events() -> Iterator[Tuple[int, int]]:
            for h in acc_home.tolist():
                yield h, 1

        self._charge_working(counts, "local_mis", events)
        return [int(i) for i in self.sample_idx[accepted_s]]

    # -- integrate -------------------------------------------------------
    def integrate(self, accepted: List[int]) -> int:
        """Kill every edge with a matched endpoint; free the working
        sets; returns the dropped-edge count."""
        np = _np
        acc = np.asarray(accepted, dtype=np.int64)
        self.dead_node[self.eu[acc]] = True
        self.dead_node[self.ev[acc]] = True
        kill = self.alive & (self.dead_node[self.eu]
                             | self.dead_node[self.ev])
        dropped = int(np.count_nonzero(kill))
        self.ledger.release_grouped(
            2 * np.bincount(self.home[kill], minlength=self.M))
        self.alive[kill] = False
        self.alive_count -= dropped
        self.ledger.release_grouped(self.working)
        self.working[:] = 0
        return dropped

    # -- lifecycle -------------------------------------------------------
    def finish(self) -> None:
        """Write the array ledgers back into the cluster's machines."""
        self.ledger.sync()
