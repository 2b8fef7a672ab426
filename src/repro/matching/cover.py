"""Vertex covers: independent witnesses for maximum-cardinality matchings.

König's theorem makes bipartite optimality *checkable*: a vertex cover of
size |M| proves M is maximum without trusting the matcher that produced it.
:func:`koenig_cover` constructs the minimum cover from a maximum matching
(the alternating-reachability construction); :func:`is_vertex_cover`
checks any cover.  For general graphs a vertex cover still gives the
weak-duality bound |M*| <= |C|, so any valid cover certifies the
cardinality floor ``|M| / |C|`` — a verification tool the test suite uses
to double-check the exact matchers against an independent witness.  A
cover bounds the *cardinality* optimum only, which is why it is not a
:class:`~repro.matching.verify.Certificate` dual bound: that floor divides
a matching's *weight*.
"""

from __future__ import annotations

from typing import Set

from ..graphs.graph import Graph, GraphError
from .core import Matching
from .paths import alternating_bfs


def is_vertex_cover(graph: Graph, cover: Set[int]) -> bool:
    """True iff every edge has at least one endpoint in ``cover``."""
    return all(u in cover or v in cover for u, v, _ in graph.edges())


def koenig_cover(graph: Graph, matching: Matching) -> Set[int]:
    """The König vertex cover derived from a *maximum* bipartite matching.

    Construction: let Z be the nodes reachable from free left nodes by
    alternating paths (unmatched edges left-to-right, matched edges
    right-to-left, :func:`~repro.matching.paths.alternating_bfs`); the
    cover is (L \\ Z) ∪ (R ∩ Z).  If ``matching`` is maximum, the result is
    a vertex cover with exactly ``matching.size`` nodes; if not, the search
    stops at an augmenting path and the result does not prove optimality
    (callers can use that as a maximality test).
    """
    split = graph.bipartition()
    if split is None:
        raise GraphError("König covers require a bipartite graph")
    left, right = split
    reachable, _ = alternating_bfs(graph, matching, left)
    return (left - reachable) | (right & reachable)


def greedy_vertex_cover(graph: Graph) -> Set[int]:
    """2-approximate cover (take both endpoints of a maximal matching).

    Works on general graphs; used to bound ratios where König does not
    apply.
    """
    cover: Set[int] = set()
    for u, v, _ in graph.edges():
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover
