"""Algorithm 5 / Theorem 4.5: (1/2 - eps)-approximate MWM (CONGEST).

Reduces (1/2 - eps)-MWM to any constant-factor delta-MWM black box: each of
the ceil((3 / 2 delta) ln(2 / eps)) iterations recomputes the residual
weights w_M (one round of mate-weight exchange lets both endpoints of every
edge evaluate their gain locally), runs the black box on the positive-gain
subgraph, and augments along the wraps of the returned matching M'
(Lemma 4.1 guarantees the result is a matching of weight at least
w(M) + w_M(M')).  Lemma 4.3 gives the convergence
w(M_i) >= 1/2 (1 - e^{-2 delta i / 3}) w(M*), which experiment T6 traces.

Black boxes:

* ``class_greedy`` (default) — the Lemma 4.4 substitute, delta = 1/5;
* ``local_greedy`` — Preis-style 1/2-MWM, delta = 1/2 (fewer iterations, no
  worst-case round bound);
* any callable ``box(graph, seed, network=...) -> (Matching, Network)`` —
  called with the parent's :class:`~repro.runtime.driver.Subnetwork`
  network (faults, bus and accounting inherited); a ``**kwargs`` catch-all
  receives it just as a named ``network`` parameter does.

The black box runs over the same physical network, so its cost is absorbed
verbatim into the parent metrics (``fold="absorb"``); the per-iteration
sub-seed keeps the historical ``seed * 7919 + i`` derivation (golden-pinned
by the experiment suite) and is passed explicitly to the subnetwork.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ...congest.network import Network
from ...congest.policies import CONGEST, BandwidthPolicy
from ...runtime import PhaseDriver, ProtocolResult
from ...congest.utilities import exchange_tokens
from ...graphs.graph import Graph
from ...matching.core import Matching
from .class_greedy import class_greedy_mwm
from .gain import apply_wraps, residual_graph
from .local_greedy import local_greedy_mwm

BlackBox = Callable[..., Tuple[Matching, Network]]

BLACK_BOX_DELTA = {
    "class_greedy": 1.0 / 5.0,
    "local_greedy": 1.0 / 2.0,
}


@dataclass
class WeightedIteration:
    iteration: int
    residual_edges: int
    selected_edges: int
    gain_applied: float
    matching_weight: float


@dataclass
class MWMResult(ProtocolResult):
    """Result of Algorithm 5: the matching plus the per-iteration trace."""

    iterations: List[WeightedIteration] = field(default_factory=list)
    delta: float = 0.0

    @property
    def iterations_used(self) -> int:
        return len(self.iterations)


def default_iterations(delta: float, eps: float) -> int:
    """Line 2 of Algorithm 5: ceil((3 / 2 delta) ln(2 / eps))."""
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    return math.ceil((3.0 / (2.0 * delta)) * math.log(2.0 / eps))


def _resolve_black_box(black_box) -> Tuple[BlackBox, float]:
    """Returns (runner, delta); every runner takes ``network=``."""
    if callable(black_box):
        return black_box, BLACK_BOX_DELTA["class_greedy"]
    if black_box == "class_greedy":
        return (lambda g, s, network: class_greedy_mwm(g, seed=s,
                                                       network=network),
                BLACK_BOX_DELTA["class_greedy"])
    if black_box == "local_greedy":
        return (lambda g, s, network: local_greedy_mwm(g, seed=s,
                                                       network=network),
                BLACK_BOX_DELTA["local_greedy"])
    raise ValueError(f"unknown black box {black_box!r}")


def _run_black_box(driver: PhaseDriver, box: BlackBox, gprime: Graph,
                   sub_seed: int, i: int) -> Matching:
    """One black-box invocation; cost is absorbed into the parent."""
    with driver.subnetwork(gprime, label="black_box",
                           phase=f"black_box i={i}",
                           seed=sub_seed, fold="absorb") as sub:
        selected, _ = box(gprime, sub_seed, network=sub.network)
    return selected


def approximate_mwm(graph: Graph, eps: float = 0.1, seed: int = 0,
                    black_box="class_greedy",
                    policy: BandwidthPolicy = CONGEST,
                    iterations: Optional[int] = None,
                    network: Optional[Network] = None) -> MWMResult:
    """Run Algorithm 5; returns the matching with a per-iteration trace."""
    box, delta = _resolve_black_box(black_box)
    if iterations is None:
        iterations = default_iterations(delta, eps)
    net = network if network is not None else Network(graph, policy=policy, seed=seed)

    matching = Matching()
    result = MWMResult(matching=matching, network=net, delta=delta)

    driver = PhaseDriver(net, "algorithm5")
    for i in range(1, iterations + 1):
        with driver.phase(f"iteration={i}") as ph:
            # one round in which every node announces the weight of its
            # matched edge; afterwards both endpoints of each edge can
            # evaluate w_M
            mate_weights = {
                v: (graph.weight(v, matching.mate(v))
                    if matching.mate(v) is not None else 0.0)
                for v in graph.nodes
            }
            exchange_tokens(net, mate_weights)

            gprime = residual_graph(graph, matching)
            if gprime.num_edges == 0:
                ph.set_detail(residual_edges=0)
                break
            selected = _run_black_box(driver, box, gprime,
                                      seed * 7919 + i, i)

            before = matching.weight(graph)
            matching = apply_wraps(graph, matching, selected.edges())
            after = matching.weight(graph)
            # wrap application is a constant-round local step (Theorem 4.5)
            net.metrics.charge_rounds("wrap_apply", 2)

            result.iterations.append(WeightedIteration(
                iteration=i,
                residual_edges=gprime.num_edges,
                selected_edges=selected.size,
                gain_applied=after - before,
                matching_weight=after,
            ))
            if selected.size:
                driver.emit_augmentation(phase=f"iteration={i}",
                                         paths=selected.size,
                                         size=after, gain=after - before)
            ph.set_detail(residual_edges=gprime.num_edges,
                          selected_edges=selected.size,
                          matching_weight=after)

    result.matching = matching
    return result
