"""Theorem 3.10: (1 - 1/(k+1))-approximate MCM in bipartite graphs (CONGEST).

The driver runs the Hopcroft-Karp phase schedule of Algorithm 1 with the
CONGEST implementation of Sections 3.1-3.2: for ell = 1, 3, ..., 2k-1 it
alternates counting passes (Algorithm 3) and token-selection iterations
until the counting pass certifies that no augmenting path of length ell
remains.  By Lemmas 3.2/3.3 the final matching has no augmenting path of
length < 2k+1 and is therefore a (1 - 1/(k+1))-approximation — the paper
states the guarantee as (1 - 1/k) by choosing k one larger; both phrasings
are exposed via ``phases``.

Termination is Las Vegas: every selection iteration applies at least one
augmenting path (the globally largest token always survives every
collision), so each phase finishes after at most |M*| iterations and after
O(log N) iterations w.h.p., N = n * Delta^{(ell+1)/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..observe.events import Augmentation
from ..congest.network import Network
from ..congest.policies import PIPELINE, BandwidthPolicy
from ..runtime import PhaseDriver, ProtocolResult
from ..graphs.graph import Edge, Graph, GraphError
from ..matching.core import Matching
from .bipartite_counting import X_SIDE, Y_SIDE, leaders_of, run_counting
from .token_mis import run_token_selection

SideMap = Dict[int, Optional[int]]
MateMap = Dict[int, Optional[int]]


@dataclass
class PhaseStats:
    """One ell-phase of the augmentation schedule."""

    ell: int
    iterations: int
    paths_applied: int
    matching_size: int


@dataclass
class AugmentationStats:
    """Cost/trace of one full augment-to-level run."""

    phases: List[PhaseStats] = field(default_factory=list)

    @property
    def total_paths(self) -> int:
        return sum(p.paths_applied for p in self.phases)


def _value_cap(n: int, max_degree: int, ell: int) -> int:
    """N^4 with N = n * Delta^{(ell+1)/2}, the conflict-graph size bound."""
    n_bound = max(2, n) * max(2, max_degree) ** ((ell + 1) // 2)
    return n_bound ** 4


def augment_to_level(network: Network, side: SideMap, mate: MateMap,
                     max_ell: int,
                     allowed: Optional[Set[Edge]] = None,
                     label: str = "bipartite_mcm") -> Tuple[MateMap, AugmentationStats]:
    """Eliminate all augmenting paths of length <= ``max_ell`` (ascending).

    This is the subroutine Aug(G-hat, M, ell) of Algorithm 4, and the main
    loop of the bipartite algorithm when run on the whole graph.  ``side``
    assigns X/Y (or None for non-participants); ``allowed`` optionally
    restricts usable edges.  Returns the new mate map and per-phase stats.
    ``label`` names the algorithm on the observability event stream
    (``general_mcm`` reuses this loop under its own name).
    """
    n = network.graph.num_nodes
    max_degree = network.graph.max_degree
    stats = AugmentationStats()
    mate = dict(mate)
    driver = PhaseDriver(network, label)
    for ell in range(1, max_ell + 1, 2):
        phase = f"ell={ell}"
        with driver.phase(phase) as ph:
            cap = _value_cap(n, max_degree, ell)
            iterations = 0
            applied_total = 0
            while True:
                outputs = run_counting(network, side, mate, ell, allowed)
                network.global_check()
                leaders = leaders_of(outputs, side, mate, ell)
                if not leaders:
                    break
                iterations += 1
                mate, applied = run_token_selection(
                    network, side, mate, ell, outputs, cap
                )
                if applied == 0:
                    raise RuntimeError(
                        "token selection made no progress despite live "
                        "leaders (protocol invariant violated)"
                    )
                applied_total += applied
                if driver.wants(Augmentation):
                    size = sum(1 for m in mate.values() if m is not None) // 2
                    driver.emit_augmentation(phase=phase, paths=applied,
                                             size=size)
            matched = sum(1 for v, m in mate.items() if m is not None)
            stats.phases.append(PhaseStats(
                ell=ell,
                iterations=iterations,
                paths_applied=applied_total,
                matching_size=matched // 2,
            ))
            ph.set_detail(iterations=iterations,
                          paths_applied=applied_total,
                          matching_size=matched // 2)
    return mate, stats


@dataclass
class BipartiteMCMResult(ProtocolResult):
    """Result of Theorem 3.10's driver: matching plus the phase schedule."""

    stats: AugmentationStats = field(default_factory=AugmentationStats)


def side_map_of(graph: Graph) -> SideMap:
    """X/Y side assignment for a bipartite graph (left = X, right = Y)."""
    split = graph.bipartition()
    if split is None:
        raise GraphError("graph is not bipartite; use general_mcm instead")
    left = split[0]
    side: SideMap = {}
    for v in graph.nodes:
        side[v] = X_SIDE if v in left else Y_SIDE
    return side


def bipartite_mcm(graph: Graph, k: int, seed: int = 0,
                  policy: BandwidthPolicy = PIPELINE,
                  initial: Optional[Matching] = None,
                  network: Optional[Network] = None) -> BipartiteMCMResult:
    """(1 - 1/(k+1))-approximate maximum matching in a bipartite graph.

    ``k`` is the number of odd phases (ell up to 2k-1); larger k means a
    tighter approximation and more rounds — Theorem 3.10's trade-off.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    net = network if network is not None else Network(graph, policy=policy, seed=seed)
    side = side_map_of(graph)
    initial = initial if initial is not None else Matching()
    mate: MateMap = {v: initial.mate(v) for v in graph.nodes}
    mate, stats = augment_to_level(net, side, mate, 2 * k - 1)
    matching = Matching.from_mate_map(mate)
    return BipartiteMCMResult(matching=matching, stats=stats, network=net)
