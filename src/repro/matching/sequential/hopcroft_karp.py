"""Hopcroft-Karp exact maximum-cardinality matching for bipartite graphs.

This is the sequential algorithm whose phase structure (Lemmas 3.2/3.3 of the
paper) underlies the distributed algorithms: each phase finds a maximal set
of vertex-disjoint *shortest* augmenting paths, and after phase ``k`` the
matching is a ``(1 - 1/(k+1))``-approximation.  The implementation exposes a
per-phase trace so experiments T7 can compare the distributed phase behaviour
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...graphs.graph import Graph, GraphError
from ..core import Matching

_INF = float("inf")


@dataclass
class PhaseTrace:
    """Size of the matching and shortest-path length after each HK phase."""

    path_length: int
    paths_found: int
    matching_size: int


@dataclass
class HopcroftKarpResult:
    matching: Matching
    phases: List[PhaseTrace] = field(default_factory=list)


def hopcroft_karp(graph: Graph) -> HopcroftKarpResult:
    """Maximum-cardinality matching via Hopcroft-Karp, with a phase trace."""
    split = graph.bipartition()
    if split is None:
        raise GraphError("Hopcroft-Karp requires a bipartite graph")
    left, right = sorted(split[0]), sorted(split[1])
    mate: Dict[int, Optional[int]] = {v: None for v in left + right}
    phases: List[PhaseTrace] = []
    size = 0

    dist: Dict[int, float] = {}

    def bfs() -> bool:
        """Layer free-left nodes; returns True iff an augmenting path exists."""
        queue: List[int] = []
        for u in left:
            if mate[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = _INF
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if dist[u] >= found:
                continue
            for v in graph.neighbors(u):
                w = mate[v]
                if w is None:
                    found = min(found, dist[u] + 1)
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        dist["_target"] = found
        return found != _INF

    def dfs(u: int) -> bool:
        for v in graph.neighbors(u):
            w = mate[v]
            if w is None:
                if dist[u] + 1 == dist["_target"]:
                    mate[u] = v
                    mate[v] = u
                    return True
            elif dist[w] == dist[u] + 1:
                if dfs(w):
                    mate[u] = v
                    mate[v] = u
                    return True
        dist[u] = _INF
        return False

    while bfs():
        found_this_phase = 0
        for u in left:
            if mate[u] is None and dfs(u):
                found_this_phase += 1
        size += found_this_phase
        # the shortest augmenting path this phase has 2*target - 1 edges,
        # where target is the BFS depth at which a free right node appeared
        # (left nodes at depth 0, so target = matched-hops + 1).
        phases.append(PhaseTrace(
            path_length=int(2 * dist["_target"] - 1),
            paths_found=found_this_phase,
            matching_size=size,
        ))

    m = Matching()
    for u in left:
        if mate[u] is not None:
            m.add(u, mate[u])
    return HopcroftKarpResult(matching=m, phases=phases)


def max_cardinality_bipartite(graph: Graph) -> Matching:
    """Convenience wrapper returning only the matching."""
    return hopcroft_karp(graph).matching
