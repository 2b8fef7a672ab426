"""Augmenting-path utilities shared by algorithms, tests, and verifiers.

These routines enumerate alternating/augmenting paths explicitly.  Their cost
grows with ``Delta^ell`` — exactly the price the paper's generic (LOCAL-model)
algorithm pays — so they are used for the LOCAL algorithms, for small
reference computations, and for test oracles, while the CONGEST algorithms
use the counting/token machinery instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..graphs.graph import Graph
from .core import Matching

Path = Tuple[int, ...]


def canonical_path(path: Sequence[int]) -> Path:
    """Canonical orientation: the endpoint with smaller id comes first."""
    p = tuple(path)
    return p if p[0] <= p[-1] else tuple(reversed(p))


def enumerate_augmenting_paths(graph: Graph, matching: Matching,
                               max_len: int,
                               nodes: Optional[Iterable[int]] = None) -> List[Path]:
    """All simple augmenting paths with at most ``max_len`` edges.

    Each path is reported once, in canonical orientation.  ``nodes``
    restricts the search to paths fully contained in the given node set
    (used for local views); by default the whole graph is searched.
    """
    if max_len < 1:
        return []
    allowed: Optional[Set[int]] = set(nodes) if nodes is not None else None

    def ok(v: int) -> bool:
        return allowed is None or v in allowed

    found: Set[Path] = set()
    free = [v for v in graph.nodes if matching.is_free(v) and ok(v)]

    def extend(path: List[int], need_matched: bool) -> None:
        """DFS over alternating continuations of ``path``."""
        tail = path[-1]
        if need_matched:
            nxt = matching.mate(tail)
            if nxt is None or nxt in path or not ok(nxt):
                return
            if not graph.has_edge(tail, nxt):
                return
            path.append(nxt)
            extend(path, need_matched=False)
            path.pop()
        else:
            if len(path) + 1 > max_len + 1:
                return
            for nxt in graph.neighbors(tail):
                if nxt in path or not ok(nxt) or matching.contains_edge(tail, nxt):
                    continue
                path.append(nxt)
                if matching.is_free(nxt):
                    found.add(canonical_path(path))
                    # a free endpoint terminates the path; do not extend past it
                else:
                    if len(path) <= max_len:
                        extend(path, need_matched=True)
                path.pop()

    for s in free:
        extend([s], need_matched=False)
    return sorted(found)


def shortest_augmenting_path_length(graph: Graph, matching: Matching,
                                    max_len: Optional[int] = None) -> Optional[int]:
    """Length (in edges) of the shortest augmenting path, or ``None``.

    Uses iterative deepening over :func:`enumerate_augmenting_paths`; sound
    for general graphs (unlike naive alternating BFS, which blossoms break).
    """
    limit = max_len if max_len is not None else max(graph.num_nodes - 1, 1)
    for ell in range(1, limit + 1, 2):
        if enumerate_augmenting_paths(graph, matching, ell):
            return ell
    return None


def alternating_bfs(graph: Graph, matching: Matching, left: Iterable[int],
                    max_len: Optional[int] = None
                    ) -> Tuple[Set[int], Optional[int]]:
    """Layered alternating BFS from the free vertices of ``left``.

    ``left`` is one side of a bipartition of ``graph``.  The search leaves
    left vertices by unmatched edges and right vertices by matched ones
    (the search phase of Hopcroft-Karp), one layer of two edges at a time.
    It stops at the first free right vertex, which ends a shortest
    augmenting path, or once paths would exceed ``max_len`` edges.
    Returns ``(reached, length)``: the vertices reached, and the edge count
    of the shortest augmenting path (``None`` if none was found).  O(n + m).
    """
    frontier = [u for u in left if matching.is_free(u)]
    reached = set(frontier)
    length = 1
    while frontier and (max_len is None or length <= max_len):
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v in reached:
                    continue
                reached.add(v)
                mate = matching.mate(v)
                if mate is None:
                    return reached, length
                reached.add(mate)
                nxt.append(mate)
        frontier = nxt
        length += 2
    return reached, None


def paths_conflict(p: Sequence[int], q: Sequence[int]) -> bool:
    """Two augmenting paths conflict iff they share a node (Definition 3.1)."""
    return not set(p).isdisjoint(q)


def maximal_disjoint_paths(paths: Sequence[Path],
                           order: Optional[Sequence[int]] = None) -> List[Path]:
    """A maximal set of pairwise node-disjoint paths, greedily.

    ``order`` optionally permutes the scan order (used to emulate random
    MIS choices in reference computations); by default paths are scanned in
    sorted order, which is deterministic.
    """
    indices = list(order) if order is not None else list(range(len(paths)))
    used: Set[int] = set()
    chosen: List[Path] = []
    for i in indices:
        p = paths[i]
        if used.isdisjoint(p):
            chosen.append(p)
            used.update(p)
    return chosen


def augment_all(matching: Matching, paths: Iterable[Sequence[int]]) -> int:
    """Augment ``matching`` along each (disjoint) path; returns how many."""
    count = 0
    for p in paths:
        matching.augment(p)
        count += 1
    return count


def enumerate_alternating_cycles(graph: Graph, matching: Matching,
                                 max_len: int) -> List[Path]:
    """All simple alternating cycles with at most ``max_len`` edges.

    A cycle is reported as a node tuple whose first node is its minimum and
    whose second node is the smaller of its two neighbors on the cycle
    (canonical form).  Cycles alternate matched / unmatched edges, so their
    length is even.  Used by the Hougardy-Vinkemeier weighted augmentation
    (Remark in Section 4), where swapping along a cycle can raise the weight.
    """
    cycles: Set[Path] = set()
    for start in graph.nodes:
        mate = matching.mate(start)
        if mate is None:
            continue

        # walk: start -[matched]- mate - ... - back to start via unmatched edge
        def walk(path: List[int], need_matched: bool) -> None:
            tail = path[-1]
            if need_matched:
                nxt = matching.mate(tail)
                if nxt is None or not graph.has_edge(tail, nxt):
                    return
                if nxt == path[0]:
                    return  # would close on a matched edge: not alternating
                if nxt in path:
                    return
                path.append(nxt)
                walk(path, need_matched=False)
                path.pop()
            else:
                for nxt in graph.neighbors(tail):
                    if matching.contains_edge(tail, nxt):
                        continue
                    if nxt == path[0] and len(path) >= 4 and len(path) <= max_len:
                        cyc = _canonical_cycle(path)
                        cycles.add(cyc)
                        continue
                    if nxt in path:
                        continue
                    if len(path) + 1 > max_len:
                        continue
                    path.append(nxt)
                    walk(path, need_matched=True)
                    path.pop()

        walk([start, mate], need_matched=False)
    return sorted(cycles)


def augmentation_gain(graph: Graph, matching: Matching,
                      edges: Iterable[Tuple[int, int]]) -> float:
    """w(M (+) S) - w(M) for an edge set S: unmatched weights in, matched out."""
    total = 0.0
    for u, v in edges:
        w = graph.weight(u, v)
        total += -w if matching.contains_edge(u, v) else w
    return total


def _path_edges(path: Sequence[int]) -> List[Tuple[int, int]]:
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


def _valid_weighted_path(matching: Matching, path: Sequence[int]) -> bool:
    """Flipping an alternating path yields a matching iff each *unmatched*
    end edge has a free outer endpoint (matched end edges may simply drop)."""
    if len(path) < 2:
        return False
    first_matched = matching.contains_edge(path[0], path[1])
    last_matched = matching.contains_edge(path[-2], path[-1])
    if not first_matched and matching.is_matched(path[0]):
        return False
    if not last_matched and matching.is_matched(path[-1]):
        return False
    return True


def enumerate_weighted_augmentations(graph: Graph, matching: Matching,
                                     max_edges: int) -> List[Tuple[Path, str, float]]:
    """All positive-gain alternating paths and cycles with <= ``max_edges``.

    Returns ``(nodes, kind, gain)`` triples, ``kind`` in {"path", "cycle"},
    deduplicated in canonical form.  This is the augmentation family of the
    Hougardy-Vinkemeier (1-eps)-MWM adaptation sketched in the paper's
    Section 4 Remark; like the generic algorithm, its enumeration cost is
    exponential in ``max_edges`` (a LOCAL-model construct).
    """
    results: Dict[Tuple[Path, str], float] = {}

    # --- alternating paths -------------------------------------------------
    def extend(path: List[int], next_matched: bool) -> None:
        tail = path[-1]
        if next_matched:
            candidates = []
            mate = matching.mate(tail)
            if mate is not None and mate not in path and graph.has_edge(tail, mate):
                candidates = [mate]
        else:
            candidates = [u for u in graph.neighbors(tail)
                          if u not in path and not matching.contains_edge(tail, u)]
        for nxt in candidates:
            path.append(nxt)
            if _valid_weighted_path(matching, path):
                g = augmentation_gain(graph, matching, _path_edges(path))
                if g > 1e-12:
                    results.setdefault((canonical_path(path), "path"), g)
            if len(path) <= max_edges:
                extend(path, not next_matched)
            path.pop()

    for start in graph.nodes:
        # paths may begin with an unmatched or a matched edge
        extend([start], next_matched=False)
        mate = matching.mate(start)
        if mate is not None:
            extend([start], next_matched=True)

    # --- alternating cycles -------------------------------------------------
    for cyc in enumerate_alternating_cycles(graph, matching, max_edges):
        edges = list(zip(cyc, cyc[1:])) + [(cyc[-1], cyc[0])]
        g = augmentation_gain(graph, matching, edges)
        if g > 1e-12:
            results.setdefault((cyc, "cycle"), g)

    return sorted(
        ((nodes, kind, g) for (nodes, kind), g in results.items()),
        key=lambda item: (-item[2], item[0]),
    )


def augmentation_edge_set(nodes: Path, kind: str) -> List[Tuple[int, int]]:
    """The edge set of an enumerated weighted augmentation."""
    edges = [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
    if kind == "cycle":
        edges.append((nodes[-1], nodes[0]))
    return edges


def _canonical_cycle(nodes: Sequence[int]) -> Path:
    """Rotate/reflect a cycle's node list into a canonical tuple."""
    n = len(nodes)
    best: Optional[Tuple[int, ...]] = None
    doubled = list(nodes) + list(nodes)
    for i in range(n):
        fwd = tuple(doubled[i:i + n])
        rev = tuple(reversed(fwd))
        for cand in (fwd, rev):
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best
