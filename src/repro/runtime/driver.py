"""Composable protocol runtime: virtual subnetworks and driver scaffolds.

Every headline algorithm in the paper is a *composition*: Algorithm 1 runs
Luby MIS as a sub-protocol on the conflict graph, Algorithm 4 reduces
general graphs to sampled bipartite instances, Algorithm 5 invokes a
delta-MWM black box on residual-weight subgraphs.  This module makes that
composition a first-class runtime concern instead of eleven hand-rolled
loops:

* :class:`Subnetwork` — run a child protocol over a *derived* graph
  (conflict graph, induced subgraph, sampled bipartition) **inside** a
  parent :class:`~repro.congest.network.Network`.  The child inherits the
  parent's seed stream (via :func:`repro.dist.random_tools.spawn_seed`),
  :class:`~repro.congest.network.FaultSpec`, event bus (child events are
  nested under a scoped ``PhaseStart``/``PhaseEnd`` pair, so any
  :class:`~repro.observe.profiling.Profiler` on the bus sees them),
  execution plan and bandwidth policy, and its cost is folded back into
  the parent :class:`~repro.runtime.metrics.Metrics` on exit.

* :class:`PhaseDriver` — the shared phase-loop scaffold (scoped phase
  events, augmentation events, subnetwork spawning) that the distributed
  drivers are built on.

* :class:`ProtocolResult` — the common result base every per-driver result
  dataclass extends; it is what feeds
  :class:`repro.core.results.MatchingResult`.

Cost folding comes in three modes (``fold=``):

``"emulate"``
    The child run is a *virtual* emulation whose physical cost is a
    documented charge on the parent (Lemma 3.5: ``ell`` physical rounds
    simulate one conflict-graph round).  On exit the parent is charged
    ``child_rounds * emulation_factor`` under ``charge_label`` and the
    child's raw cost goes to the parent's subnetwork account
    (``sub_rounds``/``sub_messages``/``sub_bits`` → ``rounds_total``).
    ``fold_traffic=True`` additionally folds the child's message/bit
    counts into the parent's physical account (Algorithm 1's historical
    accounting).

``"absorb"``
    The child runs over the same physical network, so its metrics are
    absorbed verbatim into the parent's physical account
    (:meth:`~repro.runtime.metrics.Metrics.absorb`) — Algorithm 5's black
    boxes.  Only the per-label breakdown is recorded in the subnetwork
    account (no double count in ``rounds_total``).

``"none"``
    Book-keeping only: the run is recorded in the subnetwork account but
    no physical charge is made (measurement / what-if harnesses).

Dropped-message counts always fold into ``parent.dropped``, so fault
injection is visible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from typing import TYPE_CHECKING

from ..matching.core import Matching
from ..observe.events import AUGMENTATION, PHASE_START, Augmentation, PhaseEnd, PhaseStart
from .metrics import Metrics

if TYPE_CHECKING:  # model-specific types; imported lazily at runtime
    from ..congest.network import Network, RunResult
    from ..congest.policies import BandwidthPolicy

__all__ = [
    "Subnetwork",
    "PhaseDriver",
    "PhaseScope",
    "ProtocolResult",
    "as_network",
    "register_map",
]

FOLD_MODES = ("emulate", "absorb", "none")


def as_network(net: Union[Network, "Subnetwork"]) -> Network:
    """Accept either a :class:`Network` or a :class:`Subnetwork`.

    Sub-protocol entry points (``luby_mis``, ``israeli_itai``) take this,
    so ``luby_mis(sub)`` works directly inside a ``with`` block.
    """
    return net.network if isinstance(net, Subnetwork) else net


class Subnetwork:
    """A child network derived from (and accounted to) a parent network.

    Use as a context manager::

        with parent.subnetwork(conflict_graph, label="conflict",
                               seed_path=(ell,), policy=LOCAL,
                               emulation_factor=ell,
                               charge_label="mis_emulation") as sub:
            in_mis = luby_mis(sub.network)

    On entry a scoped :class:`PhaseStart` is emitted (when observed); every
    event the child network emits lands between it and the closing
    :class:`PhaseEnd`, which carries the child's cost summary.  On exit the
    child's cost is folded into the parent per ``fold`` (see module
    docstring) and the child's ``dropped`` count is added to the parent's.

    ``seed`` overrides the spawned seed (drivers with historical,
    golden-pinned derivations pass it explicitly); otherwise the child seed
    is ``spawn_seed(parent.seed, label, *seed_path)``.
    """

    def __init__(self, parent: Network, graph: Any, *, label: str,
                 algorithm: Optional[str] = None,
                 phase: Optional[str] = None,
                 policy: Optional[BandwidthPolicy] = None,
                 seed: Optional[int] = None,
                 seed_path: Tuple[Union[int, str], ...] = (),
                 execution: Any = None,
                 fold: str = "emulate",
                 emulation_factor: int = 1,
                 fold_traffic: bool = False,
                 charge_label: Optional[str] = None,
                 max_rounds: Optional[int] = None) -> None:
        if fold not in FOLD_MODES:
            raise ValueError(f"unknown fold mode {fold!r}; use one of "
                             f"{FOLD_MODES}")
        if seed is None:
            # deferred import: repro.dist pulls in every driver, and the
            # drivers import this module (cycle at import time, not at call
            # time)
            from ..dist.random_tools import spawn_seed

            seed = spawn_seed(parent.seed, label, *seed_path)
        self.parent = parent
        self.label = label
        self.algorithm = algorithm if algorithm is not None else label
        self.phase = phase if phase is not None else f"subnet:{label}"
        self.fold = fold
        self.emulation_factor = emulation_factor
        self.fold_traffic = fold_traffic
        self.charge_label = (charge_label if charge_label is not None
                             else f"{label}_emulation")
        from ..congest.network import Network
        self.network = Network(
            graph,
            policy=policy if policy is not None else parent.policy,
            seed=seed,
            max_rounds=(max_rounds if max_rounds is not None
                        else parent.default_max_rounds),
            observe=parent.bus,
            faults=parent.faults,
            # the parent's full plan (tier and shard count) unless
            # overridden, so one Network(execution=...) choice steers
            # every derived subnetwork
            execution=(execution if execution is not None
                        else parent.execution_plan),
        )
        self._closed = False
        self._observed = parent.wants(PHASE_START)

    # -- conveniences ---------------------------------------------------
    @property
    def seed(self) -> int:
        return self.network.seed

    @property
    def rounds(self) -> int:
        """Synchronous rounds executed on the child so far."""
        return self.network.metrics.rounds

    @property
    def metrics(self) -> Metrics:
        return self.network.metrics

    def run(self, factory: Callable, protocol: str = "protocol",
            shared: Optional[Dict[str, Any]] = None,
            max_rounds: Optional[int] = None) -> RunResult:
        """Run a protocol on the child network (thin delegation)."""
        return self.network.run(factory, protocol=protocol, shared=shared,
                                max_rounds=max_rounds)

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Subnetwork":
        if self._observed:
            self.parent.emit(PhaseStart(algorithm=self.algorithm,
                                        phase=self.phase))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(failed=exc_type is not None)

    def close(self, failed: bool = False) -> None:
        """Fold the child's cost into the parent and emit the closing event.

        Idempotent; called automatically when the ``with`` block exits.  On
        failure (an exception escaping the block) the phase is still closed
        for event-stream balance, but no cost is folded.
        """
        if self._closed:
            return
        self._closed = True
        child = self.network.metrics
        if self._observed:
            detail = {
                "rounds": child.rounds,
                "messages": child.messages,
                "bits": child.total_bits,
                "fold": self.fold,
            }
            if self.fold == "emulate":
                # the physical rounds the parent is charged for this
                # emulated run (offline tools cannot recover the factor)
                detail["charge"] = child.rounds * self.emulation_factor
            if self.network.dropped:
                detail["dropped"] = self.network.dropped
            if failed:
                detail["failed"] = True
            self.parent.emit(PhaseEnd(algorithm=self.algorithm,
                                      phase=self.phase, detail=detail))
        if failed:
            return
        parent = self.parent.metrics
        if self.fold == "emulate":
            parent.charge_rounds(self.charge_label,
                                 child.rounds * self.emulation_factor)
            if self.fold_traffic:
                parent.messages += child.messages
                parent.total_bits += child.total_bits
                parent.max_message_bits = max(parent.max_message_bits,
                                              child.max_message_bits)
            parent.record_subnetwork(self.label, child,
                                     traffic=not self.fold_traffic)
        elif self.fold == "absorb":
            parent.absorb(child)
            parent.record_subnetwork(self.label, child, physical=True)
        else:  # "none"
            parent.record_subnetwork(self.label, child)
        self.parent.dropped += self.network.dropped


class PhaseScope:
    """Handle yielded by :meth:`PhaseDriver.phase`; collects the detail
    dict the closing :class:`PhaseEnd` will carry."""

    __slots__ = ("label", "detail")

    def __init__(self, label: str) -> None:
        self.label = label
        self.detail: Dict[str, Any] = {}

    def set_detail(self, **kv: Any) -> None:
        self.detail.update(kv)


class _PhaseContext:
    __slots__ = ("_driver", "_scope")

    def __init__(self, driver: "PhaseDriver", scope: PhaseScope) -> None:
        self._driver = driver
        self._scope = scope

    def __enter__(self) -> PhaseScope:
        driver, scope = self._driver, self._scope
        if driver.observed:
            driver.network.emit(PhaseStart(algorithm=driver.algorithm,
                                           phase=scope.label))
        return scope

    def __exit__(self, exc_type, exc, tb) -> None:
        driver, scope = self._driver, self._scope
        if driver.observed:
            driver.network.emit(PhaseEnd(algorithm=driver.algorithm,
                                         phase=scope.label,
                                         detail=scope.detail))


class PhaseDriver:
    """Scaffold shared by the phase-structured distributed drivers.

    Holds the network, the algorithm label used on every emitted event, and
    the once-computed "is anyone watching phases" flag; provides the phase
    context manager, the augmentation-event helper, and subnetwork
    spawning.  Drivers keep their algorithm-specific loop bodies and layer
    them over this scaffold::

        driver = PhaseDriver(net, "generic_mcm")
        for ell in odd_lengths:
            with driver.phase(f"ell={ell}") as ph:
                ...
                with driver.subnetwork(conflict, label="conflict",
                                       seed_path=(ell,), ...) as sub:
                    mis = luby_mis(sub)
                ...
                ph.set_detail(matching_size=matching.size)
    """

    __slots__ = ("network", "algorithm", "observed")

    def __init__(self, network: Network, algorithm: str) -> None:
        self.network = network
        self.algorithm = algorithm
        self.observed = network.wants(PHASE_START)

    def phase(self, label: str) -> _PhaseContext:
        """Scoped ``PhaseStart``/``PhaseEnd`` pair around a driver phase."""
        return _PhaseContext(self, PhaseScope(label))

    def wants(self, kind: Any) -> bool:
        """Interest check for expensive event construction (delegates)."""
        return self.network.wants(kind)

    def emit_augmentation(self, phase: str, paths: int, size: float,
                          gain: float = 0.0) -> None:
        """Emit an :class:`Augmentation` event when anyone is listening."""
        if self.network.wants(AUGMENTATION):
            self.network.emit(Augmentation(algorithm=self.algorithm,
                                           phase=phase, paths=paths,
                                           size=size, gain=gain))

    def subnetwork(self, graph: Any, *, label: str, **kwargs: Any) -> Subnetwork:
        """Spawn a :class:`Subnetwork` tagged with this driver's algorithm."""
        kwargs.setdefault("algorithm", self.algorithm)
        return Subnetwork(self.network, graph, label=label, **kwargs)


@dataclass
class ProtocolResult:
    """Common result shape of every distributed driver.

    Carries the matching and the network it was computed on; per-driver
    subclasses add their algorithm-specific trace fields (phase stats,
    sweeps, iteration counts).  :class:`repro.core.results.MatchingResult`
    consumes exactly this surface.
    """

    matching: Matching = field(default_factory=Matching)
    network: Optional[Network] = None

    @property
    def metrics(self) -> Optional[Metrics]:
        """The network's cumulative cost account (None without a network)."""
        return self.network.metrics if self.network is not None else None

    @property
    def rounds_total(self) -> Optional[int]:
        """End-to-end rounds including emulated subnetwork rounds."""
        metrics = self.metrics
        return metrics.rounds_total if metrics is not None else None


def register_map(outputs: Dict[int, Any], key: str = "mate",
                 fallback: Optional[Dict[int, Any]] = None,
                 default: Any = None) -> Dict[int, Any]:
    """Assemble a per-node register from a run's output dicts.

    The one-protocol drivers all end with the same shape: every node
    outputs a record dict and the driver wants one field of it per node
    (``{v: out[key]}``), with ``fallback[v]`` (or ``default``) for nodes
    that produced no output — e.g. halted carriers of an existing matching.
    """
    result: Dict[int, Any] = {}
    for v, out in outputs.items():
        if out is not None:
            result[v] = out[key]
        elif fallback is not None:
            result[v] = fallback.get(v, default)
        else:
            result[v] = default
    return result
