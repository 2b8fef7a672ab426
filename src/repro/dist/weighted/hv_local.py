"""The Section 4 Remark: (1 - eps)-MWM in the LOCAL model.

The paper sketches an adaptation of the Hougardy-Vinkemeier PRAM algorithm:
enumerate all augmentations of length O(1/eps) via Algorithm 2's flooding,
compute each augmentation's gain, partition augmentations into gain classes
(class i holds gains in [2^{i-1}, 2^i)), and sweep the top O(log n) classes
heaviest-first, running an MIS on the conflict graph restricted to the
current class and discarding selected nodes plus their neighbors.  Repeating
the sweep O(1/eps) times yields a (1 - eps)-MWM in O(eps^-4 log^2 n) time
with linear-size messages.

Augmentations here are positive-gain alternating paths *and cycles*
(weighted matchings need cycle swaps, unlike the cardinality case); the
conflict relation is node-sharing, exactly as in Definition 3.1.

The per-class MIS runs as a :class:`~repro.runtime.driver.Subnetwork` of
the physical network, so its rounds/messages land in the parent's
subnetwork account (``rounds_total``), faults reach the MIS nodes, and the
class sweeps show up as nested phases on any attached event bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...congest.network import Network
from ...congest.policies import LOCAL
from ...runtime import PhaseDriver, ProtocolResult
from ...graphs.graph import Graph
from ...matching.core import Matching
from ...matching.paths import (
    augmentation_edge_set,
    enumerate_weighted_augmentations,
)
from ..local_views import flood_views
from ..luby_mis import luby_mis


@dataclass
class HVSweep:
    iteration: int
    augmentations: int
    classes_swept: int
    applied: int
    matching_weight: float


@dataclass
class HVResult(ProtocolResult):
    """Result of the HV-style sweep: the matching plus per-sweep traces."""

    sweeps: List[HVSweep] = field(default_factory=list)


def _class_mis(driver: PhaseDriver, sub: Graph, it: int, c: int,
               max_edges: int) -> Set[int]:
    """MIS on one gain class's conflict subgraph; Lemma 3.5 charge."""
    # Lemma 3.5 emulation charge: conflict rounds x augmentation radius
    with driver.subnetwork(sub, label="class_mis",
                           phase=f"class={c} sweep={it}",
                           policy=LOCAL, seed_path=(it, c),
                           emulation_factor=max_edges,
                           charge_label="hv_mis_emulation") as subnet:
        return luby_mis(subnet, context=f"class={c} sweep={it}")


def hv_mwm(graph: Graph, eps: float = 0.25, seed: int = 0,
           sweeps: Optional[int] = None,
           network: Optional[Network] = None) -> HVResult:
    """Run the Remark's (1 - eps)-MWM; LOCAL model, small graphs only.

    ``sweeps`` defaults to ceil(1/eps) repetitions of the class-sweep.
    The enumeration radius is max_edges = 2 * ceil(1/eps) + 1.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    net = network if network is not None else Network(graph, policy=LOCAL, seed=seed)
    max_edges = 2 * math.ceil(1.0 / eps) + 1
    repetitions = sweeps if sweeps is not None else math.ceil(1.0 / eps)
    top_classes = max(1, math.ceil(math.log2(max(2, graph.num_nodes))))

    matching = Matching()
    result = HVResult(matching=matching, network=net)

    driver = PhaseDriver(net, "hv_mwm")
    for it in range(1, repetitions + 1):
        with driver.phase(f"sweep={it}") as ph:
            mate = {v: matching.mate(v) for v in graph.nodes}
            flood_views(net, mate, rounds=2 * max_edges)  # Algorithm 2's cost
            augs = enumerate_weighted_augmentations(graph, matching, max_edges)
            if not augs:
                weight = matching.weight(graph)
                result.sweeps.append(HVSweep(it, 0, 0, 0, weight))
                ph.set_detail(augmentations=0, applied=0,
                              matching_weight=weight)
                break

            # gain classes: class(g) = floor(log2 g) + 1 (gain in [2^{i-1}, 2^i))
            by_class: Dict[int, List[int]] = {}
            for idx, (_, _, g) in enumerate(augs):
                by_class.setdefault(math.floor(math.log2(g)) + 1, []).append(idx)
            classes = sorted(by_class, reverse=True)[:top_classes]

            # conflict adjacency over all enumerated augmentations
            node_members: Dict[int, List[int]] = {}
            for idx, (nodes, _, _) in enumerate(augs):
                for v in nodes:
                    node_members.setdefault(v, []).append(idx)
            adjacency: List[Set[int]] = [set() for _ in augs]
            for members in node_members.values():
                for a in members:
                    for b in members:
                        if a != b:
                            adjacency[a].add(b)

            removed: Set[int] = set()
            selected: List[int] = []
            swept = 0
            for c in classes:
                live = [i for i in by_class[c] if i not in removed]
                if not live:
                    continue
                swept += 1
                sub = Graph()
                sub.add_nodes(live)
                live_set = set(live)
                for i in live:
                    for j in adjacency[i]:
                        if j in live_set and i < j:
                            sub.add_edge(i, j)
                mis = _class_mis(driver, sub, it, c, max_edges)
                for i in sorted(mis):
                    selected.append(i)
                    removed.add(i)
                    removed.update(adjacency[i])

            applied = 0
            gained = matching.weight(graph)
            for i in selected:
                nodes, kind, _ = augs[i]
                edges = augmentation_edge_set(nodes, kind)
                matching = matching.symmetric_difference(edges)
                applied += 1
            net.metrics.charge_rounds("hv_apply", max_edges)
            weight = matching.weight(graph)
            if applied:
                driver.emit_augmentation(phase=f"sweep={it}", paths=applied,
                                         size=weight, gain=weight - gained)

            result.sweeps.append(HVSweep(
                iteration=it,
                augmentations=len(augs),
                classes_swept=swept,
                applied=applied,
                matching_weight=weight,
            ))
            ph.set_detail(augmentations=len(augs), classes_swept=swept,
                          applied=applied, matching_weight=weight)

    result.matching = matching
    return result
