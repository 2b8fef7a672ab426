"""Simulated MPC cluster: machines as word ledgers with a hard cap.

The Massively Parallel Computation model gives each of ``M`` machines
``S = ceil(n**alpha)`` words of memory; per superstep every machine does
unbounded local computation and then exchanges messages, subject to its
words-in and words-out both fitting in ``S``.  This module simulates
exactly the *resource envelope* of that model — which machine holds
which words, and how many — while the algorithm's logic runs in-process
(the same way :class:`~repro.congest.network.Network` simulates CONGEST
rounds without real sockets).

:class:`MPCMachine` is a resident/peak word ledger.  Every allocation
goes through :meth:`MPCMachine.charge`, which raises
:class:`MemoryExceeded` the moment resident words would pass ``S`` — a
hard guard, not an after-the-fact report.  The cluster-wide high-water
mark lands in the :class:`~repro.runtime.metrics.Metrics` memory account
(``memory_peak_words`` / ``memory_limit_words`` / ``memory_machines``)
so ``repro.run("mpc_maximal", ...)`` surfaces it like any other cost.

:class:`MPCCluster` exposes the same executor surface
(``wants``/``emit``/``metrics``/``explain_execution``) the shared
:class:`~repro.runtime.driver.PhaseDriver` needs — its ``observe=``
resolution and ``wants``/``emit`` are :func:`~repro.observe.events.
resolve_bus` and :class:`~repro.observe.events.Observable`, the ones
``Network`` uses — so MPC drivers reuse the phase/trace/profile
machinery unchanged.  Supersteps are charged through
:meth:`MPCCluster.superstep` and land in ``Metrics.rounds``, so
cross-model round/superstep tables line up.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..models.base import MPC_MODEL, ModelExecutionError
from ..models.execution import ExecutionDecision, as_plan
from ..observe.events import (
    ROUND_END,
    ROUND_START,
    Observable,
    RoundEnd,
    RoundStart,
    resolve_bus,
)
from ..runtime.metrics import Metrics

__all__ = [
    "BASE_WORDS",
    "MIN_MACHINE_WORDS",
    "MemoryExceeded",
    "MPCCluster",
    "MPCMachine",
    "machine_words",
]

#: Per-machine bookkeeping state (program counter, superstep counter):
#: resident on every machine before any graph data arrives.
BASE_WORDS = 2

#: The smallest cap any cluster can run with: two 8-word halves.  The
#: resident half needs base state plus one edge and one vertex record (2
#: words each); the working half is ``working_budget``'s 8-word floor, the
#: least that makes the sample cap ``working_budget // 8`` one sampled edge
#: (2 words plus a 1-word acceptance).  A plan with ``S = ceil(n**alpha) <
#: MIN_MACHINE_WORDS`` *provably* trips the guard: the construction-time
#: distribution of input words cannot fit even at one record per machine.
MIN_MACHINE_WORDS = 16


def machine_words(n: int, alpha: float) -> int:
    """The per-machine budget ``S = ceil(n**alpha)`` words."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    return max(1, math.ceil(max(n, 1) ** alpha))


class MemoryExceeded(RuntimeError):
    """A simulated machine needed more than its ``S``-word budget.

    Carries the offending machine, the words it would have held, the cap,
    and the phase that allocated — so the failure is diagnosable and the
    α-floor is testable.
    """

    def __init__(self, machine: int, needed: int, limit: int,
                 phase: str) -> None:
        self.machine = machine
        self.needed = needed
        self.limit = limit
        self.phase = phase
        super().__init__(
            f"machine {machine} needs {needed} words during '{phase}' but "
            f"the MPC cap is S={limit} words/machine; raise alpha (or use "
            f"a model without sublinear memory)")


class MPCMachine:
    """One simulated machine: a resident-word ledger with a hard cap."""

    __slots__ = ("index", "limit", "resident", "peak")

    def __init__(self, index: int, limit: int) -> None:
        self.index = index
        self.limit = limit
        self.resident = 0
        self.peak = 0

    def charge(self, words: int, phase: str) -> None:
        """Allocate ``words`` on this machine; raise when over budget."""
        new = self.resident + words
        if new > self.limit:
            raise MemoryExceeded(self.index, new, self.limit, phase)
        self.resident = new
        if new > self.peak:
            self.peak = new

    def release(self, words: int) -> None:
        """Free ``words`` (peaks are sticky; resident never goes negative)."""
        self.resident = max(0, self.resident - words)


class MPCCluster(Observable):
    """A fleet of :class:`MPCMachine` ledgers plus the executor surface
    (``wants``/``emit``/``metrics``) the shared runtime drivers need.

    ``alpha`` sets the per-machine budget ``S = ceil(n**alpha)`` words;
    the constructor distributes the input (2 words per edge record,
    2 words per vertex record, round-robin) across the fewest machines
    that keep every resident ledger within its *resident half* of ``S``
    — the other half stays free as working headroom for the driver's
    per-superstep allocations.  Distribution itself goes through
    :meth:`MPCMachine.charge`, so an ``alpha`` below the floor trips
    :class:`MemoryExceeded` at construction, provably.

    ``observe=`` takes the same shapes as ``Network(observe=...)`` (a
    bus, one observer, or a list) and falls back to the ambient
    ``observing(...)`` bus.  ``execution=`` accepts an
    :class:`~repro.models.execution.ExecutionPlan` or tier name and is
    validated against the MPC model's own ladder (``mpc_kernel`` >
    ``node``); the kernel/shard tiers are CONGEST engine rungs and raise
    :class:`~repro.models.base.ModelExecutionError`.
    """

    def __init__(self, graph: Any, alpha: float = 0.5, seed: int = 0,
                 observe: Any = None, execution: Any = None) -> None:
        self.graph = graph
        self.alpha = alpha
        self.seed = seed
        self.model = MPC_MODEL
        self.metrics = Metrics()

        plan = as_plan(execution)
        self.model.check_plan(plan)  # fail fast on foreign (CONGEST) rungs
        self.execution_plan = plan

        # observability mirrors Network: explicit observe= wins, else the
        # ambient bus of an enclosing `observing(...)` context
        self.bus = resolve_bus(observe)

        n = graph.num_nodes
        self.machine_words = machine_words(n, alpha)
        if self.machine_words < MIN_MACHINE_WORDS:
            # the floor is not an arbitrary cutoff: distributing even one
            # edge + one vertex record with working headroom needs this
            # many words, so report it as the guard violation it is
            raise MemoryExceeded(0, MIN_MACHINE_WORDS, self.machine_words,
                                 "input distribution")
        #: working headroom reserved on every machine for per-superstep
        #: allocations (sampled edges and their acceptance words); the
        #: driver budgets its per-iteration working sets against this
        self.working_budget = max(8, self.machine_words // 4)
        resident_budget = self.machine_words - self.working_budget

        # fewest machines whose round-robin input shares fit the resident
        # budget (2 words per edge record, 2 per vertex record, half the
        # post-base budget for each kind)
        m = graph.num_edges
        per = max(6, resident_budget - BASE_WORDS)
        self.num_machines = max(
            2,
            math.ceil(2 * m / (per / 2)) if m else 2,
            math.ceil(2 * n / (per / 2)) if n else 2,
        )
        cap = 4 * (n + m) + 8
        while (BASE_WORDS + 2 * math.ceil(m / self.num_machines)
               + 2 * math.ceil(n / self.num_machines)) > resident_budget:
            self.num_machines *= 2  # pragma: no cover - sizing slack
            if self.num_machines > cap:  # pragma: no cover - unreachable
                raise MemoryExceeded(0, BASE_WORDS + 4,
                                     self.machine_words,
                                     "input distribution")

        self.machines: List[MPCMachine] = [
            MPCMachine(i, self.machine_words)
            for i in range(self.num_machines)
        ]
        for mach in self.machines:
            mach.charge(BASE_WORDS, "base state")

        #: bits per machine word in message accounting: enough for one
        #: vertex id (ids are the only payload the drivers ship)
        self.word_bits = max(1, (max(n, 2) - 1).bit_length())
        self._superstep_counter = 0

    def explain_execution(self, factory: Any = None,
                          shared: Optional[Dict[str, Any]] = None,
                          ) -> ExecutionDecision:
        """How this cluster's plan resolves on the MPC ladder
        (``mpc_kernel`` > ``node``); the reason chain names the model
        and only MPC rungs, mirroring ``Network.explain_execution``."""
        return self.model.resolve(self, factory, shared, collect=True)

    # -- superstep/memory accounting ------------------------------------
    def superstep(self, protocol: str, count: int = 1,
                  messages: int = 0, words: int = 0) -> None:
        """Charge ``count`` supersteps (and the traffic they carried).

        Supersteps land in ``Metrics.rounds`` — the MPC model's loop
        unit — so cross-model round/superstep tables line up; traffic is
        priced at :attr:`word_bits` bits per word.
        """
        observed = self.wants(ROUND_START) or self.wants(ROUND_END)
        total_bits = words * self.word_bits
        if messages:
            self.metrics.record_message_batch(messages, total_bits,
                                              self.word_bits)
        for step in range(count):
            self._superstep_counter += 1
            if observed:
                self.emit(RoundStart(protocol=protocol,
                                     round=self._superstep_counter))
            self.metrics.record_round(protocol)
            if observed:
                # a multi-step charge carries its traffic on step one
                self.emit(RoundEnd(protocol=protocol,
                                   round=self._superstep_counter,
                                   messages=messages if step == 0 else 0,
                                   bits=total_bits if step == 0 else 0))

    def record_peaks(self) -> None:
        """Fold the cluster-wide peak into the Metrics memory account."""
        peak = max((mach.peak for mach in self.machines), default=0)
        self.metrics.record_memory(peak, self.machine_words,
                                   self.num_machines)

    @property
    def peak_words(self) -> int:
        """Cluster-wide high-water mark of resident words on any machine."""
        return max((mach.peak for mach in self.machines), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MPCCluster n={self.graph.num_nodes} "
                f"alpha={self.alpha:g} S={self.machine_words}w "
                f"machines={self.num_machines}>")
