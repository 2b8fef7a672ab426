"""Core graph data structures for the matching library.

The simulator and every algorithm in :mod:`repro` operate on the
:class:`Graph` and :class:`BipartiteGraph` types defined here.  Nodes are
integers (the paper assumes ``O(log n)``-bit unique identifiers); edges are
undirected and may carry positive weights.  Graphs are simple: parallel edges
are collapsed (keeping the heavier weight) and self-loops are rejected, which
is without loss of generality for matching problems.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]


@dataclass(frozen=True)
class CSRAdjacency:
    """A flat compressed-sparse-row view of a graph's adjacency.

    Node *indices* are positions in ``order`` (the sorted node-id list);
    directed edge *slots* are positions in ``indices``.  Row ``i`` of the
    structure — the out-edges of ``order[i]`` — occupies the slot range
    ``indptr[i]:indptr[i+1]``, sorted by neighbor id.  ``weights[e]`` is the
    weight of slot ``e`` and ``rev[e]`` is the slot of the reverse edge, so
    engines can address both directions of an edge in O(1) without dict
    lookups.  The view is a snapshot: mutating the graph afterwards does not
    update it.
    """

    order: Tuple[int, ...]          # index -> node id (sorted)
    index: Dict[int, int]           # node id -> index
    indptr: array                   # len n+1; row i is indptr[i]:indptr[i+1]
    indices: array                  # neighbor *index* per slot
    weights: array                  # edge weight per slot
    rev: array                      # slot of the reverse directed edge

    @property
    def num_slots(self) -> int:
        return len(self.indices)

    def degree_of(self, i: int) -> int:
        return self.indptr[i + 1] - self.indptr[i]


def edge_key(u: int, v: int) -> Edge:
    """Return the canonical (sorted) representation of the edge ``{u, v}``."""
    return (u, v) if u <= v else (v, u)


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class Graph:
    """A simple undirected graph with optional positive edge weights.

    The adjacency structure is a dict-of-dicts mapping each node to a mapping
    from neighbor to edge weight.  Unweighted graphs simply carry the implicit
    weight ``1.0`` on every edge, matching the paper's convention.
    """

    def __init__(self) -> None:
        self._adj: Dict[int, Dict[int, float]] = {}
        # CSR snapshot cache, keyed by the mutation version: every mutator
        # bumps ``_version``, so a cached snapshot is valid exactly while
        # the adjacency content is unchanged (repeated ``Network``
        # constructions over one graph stop rebuilding the packed arrays)
        self._version = 0
        self._csr_cache: Optional[CSRAdjacency] = None
        self._csr_cache_version = -1
        self.csr_cache_hits = 0
        self.csr_cache_misses = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, v: int) -> None:
        """Add an isolated node (no-op if already present)."""
        if not isinstance(v, int):
            raise GraphError(f"node ids must be integers, got {v!r}")
        if v not in self._adj:
            self._version += 1
            self._adj[v] = {}

    def add_nodes(self, nodes: Iterable[int]) -> None:
        for v in nodes:
            self.add_node(v)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with the given positive weight.

        Adding an edge that already exists keeps the larger weight (the
        library treats graphs as simple; the heavier parallel edge dominates
        any matching).
        """
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        self.add_node(u)
        self.add_node(v)
        existing = self._adj[u].get(v)
        if existing is None or weight > existing:
            self._version += 1
            self._adj[u][v] = weight
            self._adj[v][u] = weight

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the weight of an existing edge (may also decrease it).

        Unlike :meth:`add_edge` — which keeps the heavier of two parallel
        edges — this sets the weight exactly; the streaming update path
        (queue lengths shrinking as cells drain) needs true decreases.
        """
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
        if self._adj[u][v] != weight:
            self._version += 1
            self._adj[u][v] = weight
            self._adj[v][u] = weight

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
        self._version += 1
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, v: int) -> None:
        if v not in self._adj:
            raise GraphError(f"node {v} not in graph")
        self._version += 1
        for u in list(self._adj[v]):
            del self._adj[u][v]
        del self._adj[v]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[int]:
        """All node ids in sorted order (determinism matters downstream)."""
        return sorted(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> List[int]:
        """Neighbors of ``v`` in sorted order."""
        if v not in self._adj:
            raise GraphError(f"node {v} not in graph")
        return sorted(self._adj[v])

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise GraphError(f"node {v} not in graph")
        return len(self._adj[v])

    @property
    def max_degree(self) -> int:
        """The maximum degree Delta (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def weight(self, u: int, v: int) -> float:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
        return self._adj[u][v]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` with ``u < v``, sorted."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v, self._adj[u][v])

    def edge_set(self) -> Set[Edge]:
        return {edge_key(u, v) for u, v, _ in self.edges()}

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    def is_unweighted(self) -> bool:
        return all(w == 1.0 for _, _, w in self.edges())

    def to_csr(self) -> CSRAdjacency:
        """Build a :class:`CSRAdjacency` snapshot of the adjacency.

        Rows follow :attr:`nodes` order (sorted ids) and each row lists
        neighbors in sorted-id order, so iteration over the CSR reproduces
        exactly the deterministic order the rest of the library relies on.

        Snapshots are cached per mutation version: repeated calls on an
        unmodified graph (every ``Network`` construction, each shard worker
        of a sharded run) return the same immutable snapshot instead of
        rebuilding the packed arrays.  ``csr_cache_hits``/``csr_cache_misses``
        count reuse; :class:`~repro.congest.network.Network` folds them
        into its :class:`~repro.runtime.metrics.Metrics`.
        """
        if (self._csr_cache is not None
                and self._csr_cache_version == self._version):
            self.csr_cache_hits += 1
            return self._csr_cache
        self.csr_cache_misses += 1
        order = tuple(self.nodes)
        index = {v: i for i, v in enumerate(order)}
        indptr = array("q", [0] * (len(order) + 1))
        indices = array("q")
        weights = array("d")
        for i, v in enumerate(order):
            nbrs = self._adj[v]
            for u in sorted(nbrs):
                indices.append(index[u])
                weights.append(nbrs[u])
            indptr[i + 1] = len(indices)
        # reverse-edge slots: slot e carries i -> j; rev[e] carries j -> i
        rev = array("q", [0] * len(indices))
        slot_of: List[Dict[int, int]] = [{} for _ in order]
        for i in range(len(order)):
            for e in range(indptr[i], indptr[i + 1]):
                slot_of[indices[e]][i] = e
        for i in range(len(order)):
            row = slot_of[i]
            for e in range(indptr[i], indptr[i + 1]):
                rev[row[indices[e]]] = e
        csr = CSRAdjacency(order=order, index=index, indptr=indptr,
                           indices=indices, weights=weights, rev=rev)
        self._csr_cache = csr
        self._csr_cache_version = self._version
        return csr

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        g = Graph()
        g.add_nodes(self._adj)
        for u, v, w in self.edges():
            g.add_edge(u, v, w)
        return g

    def subgraph(self, nodes: Iterable[int]) -> "Graph":
        """The induced subgraph on ``nodes`` (missing ids are ignored)."""
        keep = {v for v in nodes if v in self._adj}
        g = Graph()
        g.add_nodes(keep)
        for u in keep:
            for v, w in self._adj[u].items():
                if v in keep and u < v:
                    g.add_edge(u, v, w)
        return g

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """The subgraph with exactly the given edges (and their endpoints)."""
        g = Graph()
        for u, v in edges:
            g.add_edge(u, v, self.weight(u, v))
        return g

    def connected_components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for root in self.nodes:
            if root in seen:
                continue
            comp = {root}
            frontier = [root]
            while frontier:
                u = frontier.pop()
                for v in self._adj[u]:
                    if v not in comp:
                        comp.add(v)
                        frontier.append(v)
            seen |= comp
            components.append(comp)
        return components

    def bfs_distances(self, source: int, limit: Optional[int] = None) -> Dict[int, int]:
        """Hop distances from ``source``; optionally truncated at ``limit``."""
        if source not in self._adj:
            raise GraphError(f"node {source} not in graph")
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and (limit is None or d < limit):
            d += 1
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    def diameter(self) -> int:
        """Exact diameter of the (connected) graph; raises if disconnected."""
        worst = 0
        for v in self.nodes:
            dist = self.bfs_distances(v)
            if len(dist) != self.num_nodes:
                raise GraphError("diameter undefined: graph is disconnected")
            worst = max(worst, max(dist.values()))
        return worst

    def ball(self, center: int, radius: int) -> Set[int]:
        """All nodes within ``radius`` hops of ``center`` (inclusive)."""
        return set(self.bfs_distances(center, limit=radius))

    def bipartition(self) -> Optional[Tuple[Set[int], Set[int]]]:
        """Return a 2-coloring ``(left, right)`` if bipartite, else ``None``.

        Isolated nodes are placed on the left side.
        """
        color: Dict[int, int] = {}
        for root in self.nodes:
            if root in color:
                continue
            color[root] = 0
            frontier = [root]
            while frontier:
                u = frontier.pop()
                for v in self._adj[u]:
                    if v not in color:
                        color[v] = 1 - color[u]
                        frontier.append(v)
                    elif color[v] == color[u]:
                        return None
        left = {v for v, c in color.items() if c == 0}
        right = {v for v, c in color.items() if c == 1}
        return left, right

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __repr__(self) -> str:
        return f"<Graph n={self.num_nodes} m={self.num_edges}>"


class BipartiteGraph(Graph):
    """An undirected bipartite graph with an explicit ``(left, right)`` split.

    Edges must cross the bipartition; the split is fixed at construction and
    new nodes must be registered on a side before edges touch them.
    """

    def __init__(self, left: Iterable[int] = (), right: Iterable[int] = ()) -> None:
        super().__init__()
        self._left: Set[int] = set()
        self._right: Set[int] = set()
        for v in left:
            self.add_left(v)
        for v in right:
            self.add_right(v)

    def add_left(self, v: int) -> None:
        if v in self._right:
            raise GraphError(f"node {v} is already on the right side")
        self._left.add(v)
        self.add_node(v)

    def add_right(self, v: int) -> None:
        if v in self._left:
            raise GraphError(f"node {v} is already on the left side")
        self._right.add(v)
        self.add_node(v)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        if u in self._left and v in self._left:
            raise GraphError(f"edge ({u}, {v}) has both endpoints on the left")
        if u in self._right and v in self._right:
            raise GraphError(f"edge ({u}, {v}) has both endpoints on the right")
        # auto-register unseen endpoints on the side forced by the other one
        if u not in self._left and u not in self._right:
            if v in self._left:
                self.add_right(u)
            elif v in self._right:
                self.add_left(u)
            else:
                raise GraphError(
                    f"cannot orient edge ({u}, {v}): neither endpoint has a side"
                )
        if v not in self._left and v not in self._right:
            if u in self._left:
                self.add_right(v)
            else:
                self.add_left(v)
        super().add_edge(u, v, weight)

    @property
    def left(self) -> List[int]:
        return sorted(self._left)

    @property
    def right(self) -> List[int]:
        return sorted(self._right)

    def side(self, v: int) -> str:
        if v in self._left:
            return "left"
        if v in self._right:
            return "right"
        raise GraphError(f"node {v} not in graph")

    def is_left(self, v: int) -> bool:
        return v in self._left

    def bipartition(self) -> Tuple[Set[int], Set[int]]:
        """The declared ``(left, right)`` split (never re-colored)."""
        return set(self._left), set(self._right)

    def remove_node(self, v: int) -> None:
        super().remove_node(v)
        self._left.discard(v)
        self._right.discard(v)

    def copy(self) -> "BipartiteGraph":
        g = BipartiteGraph(self._left, self._right)
        for u, v, w in self.edges():
            g.add_edge(u, v, w)
        return g

    def __repr__(self) -> str:
        return (
            f"<BipartiteGraph |L|={len(self._left)} |R|={len(self._right)} "
            f"m={self.num_edges}>"
        )
