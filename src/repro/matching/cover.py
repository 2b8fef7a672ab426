"""Vertex covers and LP-duality certificates for matchings.

König's theorem makes bipartite optimality *checkable*: a vertex cover of
size |M| proves M is maximum without trusting the matcher that produced it.
:func:`koenig_cover` constructs the minimum cover from a maximum matching
(the alternating-reachability construction), and :func:`duality_certificate`
packages the check.  For general graphs a vertex cover still gives the
weak-duality bound |M*| <= |C|, so any cover certifies a ratio floor
``|M| / |C|`` — a verification tool the test suite uses to double-check the
exact matchers against an independent witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..graphs.graph import BipartiteGraph, Graph, GraphError
from .core import Matching
from .paths import alternating_bfs


def is_vertex_cover(graph: Graph, cover: Set[int]) -> bool:
    """True iff every edge has at least one endpoint in ``cover``."""
    return all(u in cover or v in cover for u, v, _ in graph.edges())


def _sides(graph: Graph) -> Tuple[Set[int], Set[int]]:
    if isinstance(graph, BipartiteGraph):
        return set(graph.left), set(graph.right)
    split = graph.bipartition()
    if split is None:
        raise GraphError("König covers require a bipartite graph")
    return split


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
    left, right = _sides(graph)
    reachable, _ = alternating_bfs(graph, matching, left)
    return (left - reachable) | (right & reachable)


@dataclass(frozen=True)
class DualityCertificate:
    """A matching/cover pair witnessing optimality or a ratio floor."""

    matching_size: int
    cover_size: int
    cover_valid: bool

    @property
    def proves_optimal(self) -> bool:
        """|M| = |C| with a valid cover: M is maximum, C is minimum."""
        return self.cover_valid and self.matching_size == self.cover_size

    @property
    def ratio_floor(self) -> Optional[float]:
        """|M| / |C| <= |M| / |M*|: a certified approximation floor."""
        if not self.cover_valid or self.cover_size == 0:
            return 1.0 if self.cover_valid else None
        return self.matching_size / self.cover_size


def duality_certificate(graph: Graph, matching: Matching,
                        cover: Optional[Set[int]] = None) -> DualityCertificate:
    """Certify a matching against a vertex cover (König's by default).

    With the default König cover this proves bipartite maximum matchings
    optimal; with any externally supplied cover it still certifies the
    ``|M| / |C|`` ratio floor by weak duality.
    """
    if cover is None:
        cover = koenig_cover(graph, matching)
    return DualityCertificate(
        matching_size=matching.size,
        cover_size=len(cover),
        cover_valid=is_vertex_cover(graph, cover),
    )


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
