"""Fault injection: what happens when the paper's assumptions break.

The paper assumes reliable synchronous communication (footnote 2: "we do
not consider faults").  This module makes that assumption *testable*: pass
``faults=FaultSpec(loss=0.05)`` to :class:`~repro.congest.network.Network`
and each delivered message is dropped independently with probability
``loss``, so one can observe the algorithms mis-behave — and, crucially,
watch the distributed self-checkers of :mod:`repro.dist.checkers` catch
the damage.  Fault injection composes with either delivery engine and with
any observer; it exists for experiments and tests, not as a recommended
execution mode.

:class:`FaultSpec` actually lives in :mod:`repro.congest.network` (the
constructor needs it); it is re-exported here for discoverability.  The
historical :class:`LossyNetwork` subclass remains as a thin deprecated
alias over ``Network(..., faults=FaultSpec(loss=...))`` — same drop
pattern, same ``loss``/``dropped`` attributes.
"""

from __future__ import annotations

from typing import Any, Optional

from .._compat import warn_deprecated
from ..graphs.graph import Graph
from .network import FaultSpec, Network
from .policies import CONGEST, BandwidthPolicy
from ..observe.tracing import Tracer

__all__ = ["FaultSpec", "LossyNetwork"]


class LossyNetwork(Network):
    """Deprecated alias for ``Network(..., faults=FaultSpec(loss=loss))``.

    Kept for one release so existing experiment scripts keep running; the
    drop stream, iteration order and ``dropped`` accounting are identical
    to the historical subclass (golden-tested).
    """

    def __init__(self, graph: Graph, loss: float,
                 policy: BandwidthPolicy = CONGEST, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 execution: Any = None) -> None:
        warn_deprecated("lossy_network", stacklevel=2)
        super().__init__(graph, policy=policy, seed=seed, tracer=tracer,
                         execution=execution, faults=FaultSpec(loss=loss))

    @property
    def loss(self) -> float:
        return self.faults.loss if self.faults is not None else 0.0
