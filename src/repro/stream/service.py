"""A streaming matching service: batched dynamic maintenance of the invariant.

:class:`MatchingService` is the dynamic counterpart of the static entry
points in :mod:`repro.core.api`.  It accepts a *stream* of edge insertions,
deletions and weight updates (plus node arrivals/departures), coalesces them
into per-superstep batches, and after each batch restores the paper's
invariant — **no augmenting path of length <= 2k-1** — so by Lemma 3.3 the
maintained matching is a (1 - 1/(k+1))-approximation at every committed
epoch.

Why batching wins (and stays correct).  If the invariant held before the
batch, any *new* short augmenting path must pass through a node the batch
touched: an edge insertion can only create paths through its endpoints, and
a deletion can only hurt by freeing the endpoints of a matched edge
(removing an unmatched edge never creates an augmenting path).  So one
worklist repair seeded at the batch's *net* touched nodes restores the
invariant for the whole batch:

* updates to the same edge coalesce — an insert+delete pair is a no-op and
  seeds nothing;
* pure weight updates (the bulk of a switch-scheduling stream, where queue
  lengths change every cycle) seed **nothing**, because the cardinality
  invariant does not see weights;
* a matched edge that the batch breaks seeds its endpoints even when the
  edge is re-inserted later in the same batch (the matching lost an edge
  even though the topology did not).

Repair runs a worklist: pop a seed, look for a short augmenting path whose
free endpoint lies within ``2k-1`` hops of it, augment, and requeue the
path's nodes (augmenting along P only creates new short paths that
intersect P).  Each augmentation grows the matching, so repair terminates.
When a batch touches a large fraction of the graph the service *escalates*:
instead of local repair it recomputes from scratch with the static CONGEST
drivers on a :class:`~repro.congest.network.Network` built with the
service's :class:`~repro.models.execution.ExecutionPlan` — so huge repair
regions ride the same kernel tiers as static runs — and then
certifies the invariant with a free-node-seeded repair pass.

Observability mirrors the static API: ``observe=``/``trace=``/``profile=``
resolve through :class:`~repro.observe.profiling.ObservabilityScope`, every
batch emits :class:`~repro.observe.events.BatchStart` /
:class:`~repro.observe.events.Repair` /
:class:`~repro.observe.events.BatchEnd` (wrapped in a constant
``phase="batch"`` pair so profilers aggregate all batches into one row),
and :meth:`MatchingService.snapshot` returns an immutable per-epoch view
that stays valid while further updates stream in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..observe.events import (
    BatchEnd,
    BatchStart,
    EventBus,
    PhaseEnd,
    PhaseStart,
    Repair,
    ambient_bus,
)
from ..models.base import CONGEST_MODEL
from ..models.execution import as_plan
from ..observe.profiling import ObservabilityScope
from ..runtime import ProtocolResult
from ..dist.random_tools import spawn_seed
from ..graphs.graph import Graph, GraphError, edge_key
from ..matching.core import Matching
from ..matching.paths import enumerate_augmenting_paths
from .workload import EdgeUpdate, UpdateLike, as_update


@dataclass
class BatchStats:
    """What one committed batch did.

    ``updates`` is the raw update count; ``seeds`` the worklist seeds left
    after coalescing; ``mode`` is ``"local"`` (worklist repair),
    ``"recompute"`` (escalated to a from-scratch static run), or ``"init"``
    (the constructor's invariant-establishing pass).
    """

    epoch: int
    operation: str
    updates: int
    seeds: int
    augmentations: int
    nodes_explored: int
    mode: str
    size: int


@dataclass(frozen=True)
class MatchingSnapshot:
    """An immutable view of the matching at a committed epoch.

    Snapshots are readable mid-stream: enqueued-but-uncommitted updates do
    not affect them, and the service caches one per epoch so repeated
    :meth:`MatchingService.snapshot` calls between commits return the same
    object.  ``matching`` is a private copy — safe to keep, not shared with
    the service.
    """

    epoch: int
    matching: Matching
    size: int
    num_nodes: int
    num_edges: int
    k: int
    guarantee: float

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self.matching.edges())


@dataclass
class StreamResult(ProtocolResult):
    """Result of a streaming run; the dynamic face of ``ProtocolResult``.

    ``matching`` is the final maintained matching, ``history`` the
    per-batch account, ``epochs``/``updates``/``augmentations`` the stream
    totals.  ``network`` stays ``None`` unless the run escalated to a
    recompute (then it is the *last* recompute network's account);
    ``certificate``/``profile``/``trace_path`` mirror
    :class:`repro.core.results.MatchingResult`.
    """

    algorithm: str = "matching_service"
    k: int = 2
    epochs: int = 0
    updates: int = 0
    augmentations: int = 0
    recomputes: int = 0
    history: List[BatchStats] = field(default_factory=list)
    certificate: Any = None
    profile: Any = None
    trace_path: Optional[Path] = None

    @property
    def size(self) -> int:
        return self.matching.size

    @property
    def guarantee(self) -> float:
        return 1 - 1 / (self.k + 1)

    def __repr__(self) -> str:
        return (
            f"<StreamResult {self.algorithm}: size={self.size} "
            f"epochs={self.epochs} updates={self.updates}>"
        )


class MatchingService:
    """Maintain a (1 - 1/(k+1))-approximate matching under streamed updates.

    Construction mirrors the static entry points::

        svc = MatchingService(graph, eps=0.25, seed=0, execution="auto",
                              trace="stream.jsonl", profile=True)

    Updates enqueue (:meth:`insert_edge`, :meth:`delete_edge`,
    :meth:`set_weight`, :meth:`insert_node`, :meth:`delete_node`, or bulk
    :meth:`apply`) and take effect at :meth:`commit`, which coalesces the
    pending batch, repairs the invariant, bumps ``epoch`` and returns a
    :class:`BatchStats`.  ``batch=n`` auto-commits every ``n`` updates.
    Enqueue calls validate against the *virtual* state (graph plus pending
    updates), so a bad update fails fast instead of poisoning a later
    commit.

    ``repair="fast"`` (default) uses the coalescing worklist repair with
    recompute escalation; ``repair="legacy"`` is the per-event baseline
    the batched repair is measured against (experiment t15,
    :func:`~repro.stream.replay.replay_events_legacy`): per-operation
    seeding, ball-subgraph path enumeration, no escalation.  Drive it with
    one :meth:`commit` per update to reproduce per-event repair.
    """

    def __init__(self, graph: Optional[Graph] = None, *,
                 matching: Optional[Matching] = None,
                 k: Optional[int] = None,
                 eps: Optional[float] = None,
                 seed: int = 0,
                 execution: Any = None,
                 observe: Any = None,
                 trace: Any = None,
                 profile: Any = None,
                 batch: Optional[int] = None,
                 max_rounds: Optional[int] = None,
                 recompute_fraction: float = 0.5,
                 recompute_min_seeds: int = 256,
                 repair: str = "fast",
                 name: str = "matching_service") -> None:
        if k is not None and eps is not None:
            raise ValueError("pass k or eps, not both")
        if k is None:
            if eps is not None:
                from ..core.api import eps_to_k

                k = eps_to_k(eps)
            else:
                k = 2
        if k < 1:
            raise ValueError("k must be at least 1")
        if repair not in ("fast", "legacy"):
            raise ValueError(f"repair must be 'fast' or 'legacy', got {repair!r}")
        if batch is not None and batch < 1:
            raise ValueError("batch must be a positive update count")
        # recompute escalations run on CONGEST networks: reject a foreign
        # or unknown tier now, not after a batch is half applied
        plan = as_plan(execution)
        CONGEST_MODEL.check_plan(plan)
        self.k = k
        self.seed = seed
        self.name = name
        self.batch = batch
        self.execution = plan
        self.max_rounds = max_rounds
        self.recompute_fraction = recompute_fraction
        self.recompute_min_seeds = recompute_min_seeds
        self.repair_mode = repair
        self.graph: Graph = graph.copy() if graph is not None else Graph()
        self.matching: Matching = (matching.copy() if matching is not None
                                   else Matching())
        self.history: List[BatchStats] = []
        self.epoch = 0
        self.updates_applied = 0
        self.augmentations_total = 0
        self.recomputes = 0
        self._closed = False
        self._last_network: Any = None
        self._snapshot: Optional[MatchingSnapshot] = None
        self._pending: List[EdgeUpdate] = []
        # overlay of the pending batch over the committed graph, for
        # enqueue-time validation: edge_key/node -> virtually present?
        self._ov_edges: Dict[Tuple[int, int], bool] = {}
        self._ov_nodes: Dict[int, bool] = {}
        self._obs = ObservabilityScope(observe, trace, profile)
        resolved = self._obs.observe
        if isinstance(resolved, EventBus):
            self.bus: EventBus = resolved
        elif resolved:
            self.bus = EventBus()
            for observer in resolved:
                self.bus.subscribe(observer)
        else:
            self.bus = ambient_bus() or EventBus()
        # establish the invariant on the initial graph (epoch 0)
        if self.repair_mode == "legacy":
            augmentations, explored = self._repair_legacy(
                set(self.graph.nodes))
        else:
            augmentations, explored = self._repair_fast(
                {v for v in self.graph.nodes if self.matching.is_free(v)})
        self.bus.emit(Repair(service=self.name, epoch=0, mode="init",
                             seeds=self.graph.num_nodes,
                             augmentations=augmentations,
                             nodes_explored=explored))
        self.augmentations_total += augmentations
        self.history.append(BatchStats(
            epoch=0, operation="init", updates=0,
            seeds=self.graph.num_nodes, augmentations=augmentations,
            nodes_explored=explored, mode="init", size=self.matching.size))

    # ------------------------------------------------------------------
    # guarantees
    # ------------------------------------------------------------------
    @property
    def max_path_length(self) -> int:
        return 2 * self.k - 1

    @property
    def guarantee(self) -> float:
        return 1 - 1 / (self.k + 1)

    @property
    def pending(self) -> int:
        """How many updates are enqueued but not yet committed."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # virtual (graph + pending batch) state, for enqueue-time validation
    # ------------------------------------------------------------------
    def _v_has_node(self, v: int) -> bool:
        got = self._ov_nodes.get(v)
        return got if got is not None else self.graph.has_node(v)

    def _v_has_edge(self, u: int, v: int) -> bool:
        got = self._ov_edges.get(edge_key(u, v))
        if got is not None:
            return got
        return (self._v_has_node(u) and self._v_has_node(v)
                and self.graph.has_edge(u, v))

    # ------------------------------------------------------------------
    # the update surface (enqueue; takes effect at commit)
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int,
                    weight: float = 1.0) -> "MatchingService":
        """Enqueue edge ``{u, v}`` (endpoints auto-created, heavier weight
        wins on an existing edge, mirroring :meth:`Graph.add_edge`)."""
        self._check_open()
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        self._ov_nodes[u] = True
        self._ov_nodes[v] = True
        self._ov_edges[edge_key(u, v)] = True
        return self._enqueue(EdgeUpdate("insert", u, v, weight))

    def delete_edge(self, u: int, v: int) -> "MatchingService":
        self._check_open()
        if not self._v_has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
        self._ov_edges[edge_key(u, v)] = False
        return self._enqueue(EdgeUpdate("delete", u, v))

    def set_weight(self, u: int, v: int, weight: float) -> "MatchingService":
        """Enqueue an exact weight overwrite of an existing edge."""
        self._check_open()
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        if not self._v_has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
        return self._enqueue(EdgeUpdate("weight", u, v, weight))

    def insert_node(self, v: int) -> "MatchingService":
        self._check_open()
        if not isinstance(v, int):
            raise GraphError(f"node ids must be integers, got {v!r}")
        self._ov_nodes[v] = True
        return self._enqueue(EdgeUpdate("insert_node", v))

    def delete_node(self, v: int) -> "MatchingService":
        self._check_open()
        if not self._v_has_node(v):
            raise GraphError(f"node {v} not in graph")
        if self.graph.has_node(v):
            for x in self.graph._adj[v]:
                self._ov_edges[edge_key(v, x)] = False
        for key, present in self._ov_edges.items():
            if present and v in key:
                self._ov_edges[key] = False
        self._ov_nodes[v] = False
        return self._enqueue(EdgeUpdate("delete_node", v))

    def apply(self, updates: Iterable[UpdateLike]) -> "MatchingService":
        """Enqueue a whole stream of updates (``EdgeUpdate`` or tuples)."""
        for update in updates:
            up = as_update(update)
            if up.op == "insert":
                self.insert_edge(up.u, up.v, up.weight)
            elif up.op == "delete":
                self.delete_edge(up.u, up.v)
            elif up.op == "weight":
                self.set_weight(up.u, up.v, up.weight)
            elif up.op == "insert_node":
                self.insert_node(up.u)
            else:
                self.delete_node(up.u)
        return self

    def _enqueue(self, update: EdgeUpdate) -> "MatchingService":
        self._pending.append(update)
        if self.batch is not None and len(self._pending) >= self.batch:
            self.commit()
        return self

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("MatchingService is closed")

    # ------------------------------------------------------------------
    # commit: coalesce, repair, publish
    # ------------------------------------------------------------------
    def commit(self, operation: str = "batch") -> BatchStats:
        """Apply the pending batch and restore the invariant.

        No-op (no epoch, no events) when nothing is pending.  Returns the
        committed batch's :class:`BatchStats`.
        """
        updates = self._pending
        if not updates:
            return BatchStats(epoch=self.epoch, operation=operation,
                              updates=0, seeds=0, augmentations=0,
                              nodes_explored=0, mode="local",
                              size=self.matching.size)
        self._pending = []
        self._ov_edges.clear()
        self._ov_nodes.clear()
        epoch = self.epoch + 1
        self.bus.emit(BatchStart(service=self.name, epoch=epoch,
                                 updates=len(updates)))
        self.bus.emit(PhaseStart(algorithm=self.name, phase="batch"))
        seeds = self._apply_batch(updates)
        mode = "local"
        if self._should_recompute(seeds):
            mode = "recompute"
            augmentations, explored = self._recompute(epoch)
        elif self.repair_mode == "legacy":
            augmentations, explored = self._repair_legacy(seeds)
        else:
            augmentations, explored = self._repair_fast(seeds)
        self.bus.emit(Repair(service=self.name, epoch=epoch, mode=mode,
                             seeds=len(seeds), augmentations=augmentations,
                             nodes_explored=explored))
        self.bus.emit(PhaseEnd(algorithm=self.name, phase="batch",
                               detail={"epoch": epoch,
                                       "updates": len(updates),
                                       "seeds": len(seeds),
                                       "augmentations": augmentations}))
        self.bus.emit(BatchEnd(service=self.name, epoch=epoch,
                               updates=len(updates), seeds=len(seeds),
                               augmentations=augmentations,
                               size=self.matching.size))
        self.epoch = epoch
        self.updates_applied += len(updates)
        self.augmentations_total += augmentations
        self._snapshot = None
        stats = BatchStats(epoch=epoch, operation=operation,
                           updates=len(updates), seeds=len(seeds),
                           augmentations=augmentations,
                           nodes_explored=explored, mode=mode,
                           size=self.matching.size)
        self.history.append(stats)
        return stats

    def _apply_batch(self, updates: List[EdgeUpdate]) -> Set[int]:
        """Mutate graph+matching; return the coalesced repair seed set."""
        graph, matching = self.graph, self.matching
        legacy = self.repair_mode == "legacy"
        seeds: Set[int] = set()
        pre_edges: Dict[Tuple[int, int], bool] = {}
        for up in updates:
            if up.op == "insert":
                key = edge_key(up.u, up.v)
                if key not in pre_edges:
                    pre_edges[key] = graph.has_edge(up.u, up.v)
                graph.add_edge(up.u, up.v, up.weight)
                if legacy:
                    seeds.update(key)
            elif up.op == "delete":
                key = edge_key(up.u, up.v)
                if key not in pre_edges:
                    pre_edges[key] = graph.has_edge(up.u, up.v)
                if matching.contains_edge(up.u, up.v):
                    matching.remove(up.u, up.v)
                    seeds.update(key)
                graph.remove_edge(up.u, up.v)
                if legacy:
                    seeds.update(key)
            elif up.op == "weight":
                graph.set_weight(up.u, up.v, up.weight)
            elif up.op == "insert_node":
                graph.add_node(up.u)
            else:  # delete_node
                if legacy:
                    seeds.update(graph.neighbors(up.u))
                mate = matching.mate(up.u)
                if mate is not None:
                    matching.remove(up.u, mate)
                    seeds.add(mate)
                graph.remove_node(up.u)
        if not legacy:
            # net topology inserts seed their endpoints; an unmatched net
            # delete cannot create an augmenting path and seeds nothing
            for (a, b), was_present in pre_edges.items():
                if graph.has_edge(a, b) and not was_present:
                    seeds.add(a)
                    seeds.add(b)
        return seeds

    # ------------------------------------------------------------------
    # repair engines
    # ------------------------------------------------------------------
    def _repair_fast(self, seeds: Set[int]) -> Tuple[int, int]:
        """Coalescing worklist repair; returns (augmentations, explored).

        Per seed ``s``: any augmenting path of length <= 2k-1 through ``s``
        has a free endpoint within 2k-1 hops of ``s``, so scan the free
        nodes of ``ball(s, 2k-1)`` and run a depth-bounded alternating DFS
        from each; augment the first path found (deterministic: sorted
        neighbors, first hit) and requeue its nodes.  A seed retires only
        when no free node in its ball starts any short augmenting path.
        """
        graph, matching = self.graph, self.matching
        limit = self.max_path_length
        queue: Deque[int] = deque(sorted(
            s for s in seeds if graph.has_node(s)))
        queued: Set[int] = set(queue)
        augmentations = 0
        explored = 0
        while queue:
            seed = queue.popleft()
            queued.discard(seed)
            if not graph.has_node(seed):
                continue
            applied = True
            while applied:
                applied = False
                ball = graph.ball(seed, limit)
                explored += len(ball)
                for f in sorted(v for v in ball if matching.is_free(v)):
                    path = self._find_augmenting_from(f, limit)
                    if path is None:
                        continue
                    matching.augment(path)
                    augmentations += 1
                    applied = True
                    for node in path:
                        if node not in queued:
                            queue.append(node)
                            queued.add(node)
                    break  # ball changed; recompute before scanning on
        return augmentations, explored

    def _find_augmenting_from(self, start: int,
                              limit: int) -> Optional[List[int]]:
        """First (sorted-DFS order) augmenting path of <= ``limit`` edges
        starting at the free node ``start``, or ``None``."""
        adj = self.graph._adj
        matching = self.matching
        path = [start]
        on_path = {start}

        def extend(tail: int, used: int) -> Optional[List[int]]:
            # next edge is unmatched; it may close the path at a free node
            if used + 1 > limit:
                return None
            for nxt in sorted(adj[tail]):
                if nxt in on_path or matching.contains_edge(tail, nxt):
                    continue
                if matching.is_free(nxt):
                    return path + [nxt]
                # continue through nxt's matched edge (needs 2 more edges
                # plus a final unmatched one)
                if used + 3 > limit:
                    continue
                mate = matching.mate(nxt)
                if mate is None or mate in on_path or mate not in adj[nxt]:
                    continue
                path.append(nxt)
                path.append(mate)
                on_path.add(nxt)
                on_path.add(mate)
                found = extend(mate, used + 2)
                if found is not None:
                    return found
                path.pop()
                path.pop()
                on_path.discard(nxt)
                on_path.discard(mate)
            return None

        return extend(start, 0)

    def _repair_legacy(self, seeds: Set[int]) -> Tuple[int, int]:
        """The per-event baseline repair: ball -> subgraph -> full path
        enumeration -> first path containing the seed."""
        graph, matching = self.graph, self.matching
        queue: Deque[int] = deque(sorted(
            s for s in seeds if graph.has_node(s)))
        queued: Set[int] = set(queue)
        augmentations = 0
        explored = 0
        while queue:
            seed = queue.popleft()
            queued.discard(seed)
            if not graph.has_node(seed):
                continue
            applied = True
            while applied:
                applied = False
                ball = graph.ball(seed, self.max_path_length)
                explored += len(ball)
                local = graph.subgraph(ball)
                for path in enumerate_augmenting_paths(
                        local, matching, self.max_path_length):
                    if seed not in path:
                        continue
                    if not matching.is_augmenting_path(path):
                        continue
                    matching.augment(path)
                    augmentations += 1
                    applied = True
                    for node in path:
                        if node not in queued:
                            queue.append(node)
                            queued.add(node)
                    break  # re-enumerate: the matching changed
        return augmentations, explored

    # ------------------------------------------------------------------
    # recompute escalation
    # ------------------------------------------------------------------
    def _should_recompute(self, seeds: Set[int]) -> bool:
        if self.repair_mode == "legacy" or not seeds:
            return False
        n = self.graph.num_nodes
        return (len(seeds) >= self.recompute_min_seeds
                and len(seeds) >= self.recompute_fraction * max(n, 1))

    def _recompute(self, epoch: int) -> Tuple[int, int]:
        """From-scratch static run on the service's execution plan.

        Replaces the matching with the output of the paper's CONGEST
        drivers (bipartite Theorem 3.10 / general Theorem 3.15) at the
        service's ``k``, then certifies the invariant with a free-node
        repair pass (returned as the augmentation/exploration account).
        The recompute network publishes onto the service's bus, so traces
        and profiles show the escalation inline.
        """
        from ..congest.network import Network
        from ..congest.policies import PIPELINE
        from ..dist.bipartite_mcm import bipartite_mcm
        from ..dist.general_mcm import general_mcm

        graph = self.graph
        self.recomputes += 1
        if graph.num_nodes == 0:
            self.matching = Matching()
            return 0, 0
        run_seed = spawn_seed(self.seed, "stream", "recompute", epoch)
        net = Network(graph, policy=PIPELINE, seed=run_seed,
                      max_rounds=self.max_rounds, observe=self.bus,
                      execution=self.execution)
        try:
            if graph.bipartition() is not None:
                res = bipartite_mcm(graph, k=self.k, seed=run_seed,
                                    network=net)
            else:
                res = general_mcm(graph, k=self.k, seed=run_seed,
                                  stopping="exact", network=net)
            self.matching = res.matching.copy()
        finally:
            self._last_network = net
            net.close()
        return self._repair_fast(
            {v for v in graph.nodes if self.matching.is_free(v)})

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def snapshot(self) -> MatchingSnapshot:
        """The matching as of the last committed epoch (cached per epoch)."""
        if self._snapshot is None or self._snapshot.epoch != self.epoch:
            self._snapshot = MatchingSnapshot(
                epoch=self.epoch, matching=self.matching.copy(),
                size=self.matching.size, num_nodes=self.graph.num_nodes,
                num_edges=self.graph.num_edges, k=self.k,
                guarantee=self.guarantee)
        return self._snapshot

    def verify_invariant(self) -> bool:
        """Exhaustively check that no short augmenting path survives."""
        from ..matching.paths import shortest_augmenting_path_length

        return shortest_augmenting_path_length(
            self.graph, self.matching, max_len=self.max_path_length) is None

    def current_ratio(self) -> float:
        """Measured ratio against the exact optimum (test/diagnostic aid)."""
        from ..matching.sequential.blossom import max_cardinality

        optimum = max_cardinality(self.graph).size
        return self.matching.size / optimum if optimum else 1.0

    def result(self, certify_result: bool = False) -> StreamResult:
        """The stream's cumulative result (commits any pending updates)."""
        self.commit()
        result = StreamResult(
            matching=self.matching.copy(), network=self._last_network,
            algorithm=self.name, k=self.k, epochs=self.epoch,
            updates=self.updates_applied,
            augmentations=self.augmentations_total,
            recomputes=self.recomputes, history=list(self.history))
        if certify_result:
            from ..matching.sequential.blossom import max_cardinality
            from ..matching.verify import certify

            result.certificate = certify(
                self.graph, self.matching,
                optimum_size=max_cardinality(self.graph).size)
        return self._obs.stamp(result)

    def close(self) -> None:
        """Commit pending updates and release owned observability sinks."""
        if not self._closed:
            self.commit()
            self._obs.close()
            self._closed = True

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<MatchingService {self.name}: k={self.k} "
            f"epoch={self.epoch} size={self.matching.size} "
            f"pending={len(self._pending)}>"
        )
