"""Algorithm 1 / Theorem 3.7: the generic (1 - eps)-MCM in the LOCAL model.

The paper's three-step recipe, implemented faithfully:

1. *Conflict-graph construction* (Algorithm 2): nodes flood their local
   views for 2 ell rounds (:mod:`repro.dist.local_views`); every free node
   then enumerates, entirely from its own view, the augmenting paths it
   leads (it is the endpoint with the smaller id — Algorithm 2, step 3).
   The union of the leaders' path sets is exactly C_M(ell).
2. *MIS* (Luby): the conflict graph is itself a distributed network —
   Lemma 3.5 emulates any algorithm on it with an O(ell) slowdown.  We run
   :class:`LubyMISNode` on the conflict graph as a
   :class:`~repro.runtime.driver.Subnetwork` of the physical network and
   charge ``mis_rounds * ell`` physical rounds plus the exchanged traffic.
3. *Augmentation*: the selected (independent → vertex-disjoint) paths are
   applied; leaders notify along their paths (ell rounds charged).

Phases ell = 1, 3, ..., 2k-1 give a matching with no augmenting path
shorter than 2k+1 and hence a (1 - 1/(k+1))-approximation (Lemmas 3.2/3.3)
— with certainty, because the Las Vegas Luby MIS is always maximal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..congest.network import Network
from ..congest.policies import LOCAL
from ..runtime import PhaseDriver, ProtocolResult
from ..graphs.graph import Graph
from ..matching.conflict import ConflictGraph
from ..matching.core import Matching
from ..matching.paths import Path, enumerate_augmenting_paths
from .local_views import flood_views, view_to_graph
from .luby_mis import luby_mis


@dataclass
class GenericPhase:
    ell: int
    conflict_nodes: int
    mis_size: int
    mis_rounds: int
    matching_size: int


@dataclass
class GenericMCMResult(ProtocolResult):
    """Result of Algorithm 1: the matching plus per-phase MIS traces."""

    phases: List[GenericPhase] = field(default_factory=list)


def _paths_from_views(views, graph_nodes, mate, ell) -> List[Path]:
    """Each free node enumerates the paths it leads, from its own view."""
    all_paths: Set[Path] = set()
    for v in graph_nodes:
        if mate.get(v) is not None:
            continue  # leaders are free endpoints
        view = views[v]
        if not view:
            continue
        local_graph, local_mate = view_to_graph(view)
        if not local_graph.has_node(v):
            continue
        local_matching = Matching.from_mate_map(local_mate)
        for p in enumerate_augmenting_paths(local_graph, local_matching, ell):
            if min(p[0], p[-1]) == v:  # v is this path's leader
                all_paths.add(p)
    return sorted(all_paths)


def _conflict_from_paths(paths: List[Path], ell: int) -> ConflictGraph:
    by_phys: Dict[int, List[int]] = {}
    for i, p in enumerate(paths):
        for node in p:
            by_phys.setdefault(node, []).append(i)
    adjacency: List[Set[int]] = [set() for _ in paths]
    for members in by_phys.values():
        for a in members:
            for b in members:
                if a != b:
                    adjacency[a].add(b)
    return ConflictGraph(
        ell=ell,
        paths=paths,
        adjacency=[sorted(s) for s in adjacency],
        leader=[min(p[0], p[-1]) for p in paths],
        _by_phys_node=by_phys,
    )


def _run_mis(driver: PhaseDriver, conflict: ConflictGraph, ell: int):
    """Luby MIS on the conflict graph; returns (mis, mis_rounds).

    The MIS runs as a :class:`~repro.runtime.driver.Subnetwork`: seeds
    spawn from the parent stream, faults and the event bus carry over, and
    the Lemma 3.5 emulation charge plus the leader-to-leader traffic are
    folded on exit.
    """
    # Lemma 3.5: each conflict-graph round costs O(ell) physical rounds;
    # traffic between leaders is carried by the real network (fold_traffic)
    with driver.subnetwork(conflict.as_graph(), label="conflict",
                           phase=f"conflict ell={ell}",
                           policy=LOCAL, seed_path=(ell,),
                           emulation_factor=ell, fold_traffic=True,
                           charge_label="mis_emulation") as sub:
        mis = luby_mis(sub, context=f"conflict ell={ell}")
        mis_rounds = sub.rounds
    return mis, mis_rounds


def generic_mcm(graph: Graph, k: int, seed: int = 0,
                network: Optional[Network] = None) -> GenericMCMResult:
    """Run Algorithm 1 with k phases (eps = 1/(k+1))."""
    if k < 1:
        raise ValueError("k must be at least 1")
    net = network if network is not None else Network(graph, policy=LOCAL, seed=seed)
    matching = Matching()
    result = GenericMCMResult(matching=matching, network=net)

    driver = PhaseDriver(net, "generic_mcm")
    for ell in range(1, 2 * k, 2):
        with driver.phase(f"ell={ell}") as ph:
            mate = {v: matching.mate(v) for v in graph.nodes}
            views = flood_views(net, mate, rounds=2 * ell)
            paths = _paths_from_views(views, graph.nodes, mate, ell)
            conflict = _conflict_from_paths(paths, ell)

            mis_rounds = 0
            selected: List[Path] = []
            if conflict.num_nodes:
                mis, mis_rounds = _run_mis(driver, conflict, ell)
                selected = [conflict.paths[i] for i in sorted(mis)]
                assert conflict.independent(sorted(mis))
                for p in selected:
                    matching.augment(p)
                net.metrics.charge_rounds("augmentation", ell)
                if selected:
                    driver.emit_augmentation(phase=f"ell={ell}",
                                             paths=len(selected),
                                             size=matching.size)

            result.phases.append(GenericPhase(
                ell=ell,
                conflict_nodes=conflict.num_nodes,
                mis_size=len(selected),
                mis_rounds=mis_rounds,
                matching_size=matching.size,
            ))
            ph.set_detail(conflict_nodes=conflict.num_nodes,
                          mis_size=len(selected),
                          matching_size=matching.size)

    result.matching = matching
    return result
