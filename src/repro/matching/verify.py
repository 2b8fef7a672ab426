"""Verification and certification of matchings.

Every algorithm result in the library can be checked against these
verifiers; the high-level API runs them automatically and attaches a
:class:`Certificate` to each result.

A certificate bounds the approximation ratio without knowing the optimum
(:attr:`Certificate.ratio_floor`):

* **Lemma 3.3** — if no augmenting path has at most 2k-1 edges, then
  ``|M| >= k/(k+1) |M*|``.  For k = 1 this is maximality; on bipartite
  graphs one layered alternating BFS checks any k in O(n + m)
  (:func:`~repro.matching.paths.alternating_bfs`); elsewhere
  :func:`~repro.matching.paths.shortest_augmenting_path_length`
  enumerates the paths of up to 2k-1 edges.
* **Weak LP duality** — any y >= 0 with ``y_u + y_v >= w_uv`` on every
  edge bounds ``w(M*) <= sum(y)``, so ``w(M) / sum(y)`` is a floor on the
  weight ratio on any graph; :func:`lp_dual` builds such a y with one
  sort and one pass over the edges.

The exact optimum (``optimum_size``/``optimum_weight``, hence
``cardinality_ratio``/``weight_ratio``) is a test-mode number: the entry
points never compute it (only ``exact_mcm``/``exact_mwm`` and a caller's
``approx_mwm(reference=...)`` fill it in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..graphs.graph import Graph
from .core import Matching, MatchingError
from .paths import alternating_bfs, shortest_augmenting_path_length


@dataclass(frozen=True)
class Certificate:
    """What was verified about a matching, and the measured quality.

    ``certified_k`` is the largest j <= the run's claimed k for which no
    augmenting path with <= 2j-1 edges exists; ``dual_bound`` is
    ``sum(y)`` of a feasible LP dual, an upper bound on ``w(M*)``.  Either
    one yields :attr:`ratio_floor`.
    """

    valid: bool
    maximal: bool
    size: int
    weight: float
    optimum_size: Optional[int] = None
    optimum_weight: Optional[float] = None
    certified_k: Optional[int] = None
    dual_bound: Optional[float] = None

    @property
    def cardinality_ratio(self) -> Optional[float]:
        if self.optimum_size in (None, 0):
            return None if self.optimum_size is None else 1.0
        return self.size / self.optimum_size

    @property
    def weight_ratio(self) -> Optional[float]:
        if self.optimum_weight is None:
            return None
        if self.optimum_weight == 0:
            return 1.0
        return self.weight / self.optimum_weight

    @property
    def ratio_floor(self) -> Optional[float]:
        """A certified lower bound on the ratio, found without the optimum.

        It bounds :attr:`weight_ratio` when ``dual_bound`` is set and
        :attr:`cardinality_ratio` otherwise; ``None`` when nothing was
        certified.
        """
        if self.dual_bound is not None:
            return self.weight / self.dual_bound if self.dual_bound else 1.0
        if self.certified_k is not None:
            return self.certified_k / (self.certified_k + 1)
        return None

    @property
    def floor_basis(self) -> Optional[str]:
        """What proves :attr:`ratio_floor`, in words."""
        if self.dual_bound is not None:
            return f"LP dual, w(M*) <= {self.dual_bound:.6g}"
        if self.certified_k is None:
            return None
        if self.certified_k == 0:
            return "matching is not maximal"
        return f"no augmenting path <= {2 * self.certified_k - 1}"


def verify_matching(graph: Graph, matching: Matching) -> None:
    """Raise :class:`MatchingError` unless ``matching`` is valid in ``graph``.

    Validity: every matched edge exists in the graph and no node is used
    twice (the latter is structural in :class:`Matching`, but we re-check
    defensively since distributed runs assemble matchings from node-local
    registers).
    """
    seen = set()
    for u, v in matching.edges():
        if not graph.has_edge(u, v):
            raise MatchingError(f"matched edge ({u}, {v}) is not a graph edge")
        if u in seen or v in seen:
            raise MatchingError(f"node reused by matched edge ({u}, {v})")
        seen.add(u)
        seen.add(v)


def is_maximal(graph: Graph, matching: Matching) -> bool:
    """True iff no graph edge has both endpoints free."""
    for v in graph.nodes:
        if matching.is_free(v):
            for u in graph.neighbors(v):
                if matching.is_free(u):
                    return False
    return True


def has_augmenting_path_shorter_than(graph: Graph, matching: Matching,
                                     ell: int) -> bool:
    """True iff an augmenting path of length < ``ell`` exists."""
    shortest = shortest_augmenting_path_length(graph, matching, max_len=ell - 1)
    return shortest is not None


def lp_dual(graph: Graph, matching: Matching) -> Dict[int, float]:
    """A feasible dual of the fractional matching LP, built from ``matching``.

    ``y_v`` starts at ``w(M(v))`` (0 for a free vertex).  One pass over the
    edges, heaviest first, raises on each edge with ``y_u + y_v < w_uv`` the
    endpoint with the larger ``y`` (the smaller id on a tie) by the
    shortfall.  Raises only grow ``y``, so an edge stays covered once
    passed and the result is feasible: ``y >= 0`` and
    ``y_u + y_v >= w_uv`` everywhere.  By weak duality
    ``w(M*) <= sum(y)`` on any graph (the general matching polytope only
    adds odd-set constraints to this LP).
    """
    y = {v: 0.0 for v in graph.nodes}
    for u, v in matching.edges():
        y[u] = y[v] = graph.weight(u, v)
    for u, v, w in sorted(graph.edges(), key=lambda e: -e[2]):
        short = w - y[u] - y[v]
        if short > 0:
            y[v if y[v] > y[u] else u] += short
    return y


def certify(graph: Graph, matching: Matching,
            optimum_size: Optional[int] = None,
            optimum_weight: Optional[float] = None, *,
            k: Optional[int] = None,
            bipartition: Optional[Tuple[Iterable[int], Iterable[int]]] = None,
            proven: bool = False,
            dual: bool = False) -> Certificate:
    """Verify and measure a matching; raises if it is invalid.

    ``k`` asks for Lemma 3.3's floor at the run's claim, recorded as
    ``certified_k``: ``k=1`` reads maximality; otherwise a
    ``bipartition`` selects the O(n + m) BFS of :func:`alternating_bfs`,
    and without one the path enumeration of
    :func:`shortest_augmenting_path_length` runs.
    ``proven=True`` records ``k`` without searching, for a run whose own
    stopping rule already checked it (Algorithm 4's exact stopping).
    ``dual=True`` records the LP-dual weight bound of :func:`lp_dual`.
    A floor below a run's claim is recorded, never raised.
    """
    verify_matching(graph, matching)
    maximal = is_maximal(graph, matching)
    certified_k = None
    if k is not None:
        if proven:
            certified_k = k
        elif k == 1:
            certified_k = int(maximal)
        else:
            if bipartition is not None:
                _, shortest = alternating_bfs(
                    graph, matching, bipartition[0], 2 * k - 1)
            else:
                shortest = shortest_augmenting_path_length(
                    graph, matching, max_len=2 * k - 1)
            certified_k = k if shortest is None else (shortest - 1) // 2
    return Certificate(
        valid=True,
        maximal=maximal,
        size=matching.size,
        weight=matching.weight(graph),
        optimum_size=optimum_size,
        optimum_weight=optimum_weight,
        certified_k=certified_k,
        dual_bound=sum(lp_dual(graph, matching).values()) if dual else None,
    )
