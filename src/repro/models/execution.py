"""Execution plans: one inspectable config for how a Network runs.

The CONGEST engine runs every protocol on one of three rungs — vectorized
kernels inside shard workers, in-process kernels, per-node dispatch —
plus the legacy dict engine kept as the golden reference.  One frozen
config object, :class:`ExecutionPlan`, chooses among them; it is accepted
as ``Network(execution=...)`` and ``repro.run(execution=...)``:

>>> net = Network(g, execution=ExecutionPlan(tier="sharded-kernel", shards=4))
>>> net = Network(g, execution="node")            # tier name shorthand

``tier`` names the highest rung the run may use; resolution walks *down*
the ladder when a rung is ineligible.  The CONGEST rungs, fastest first::

    sharded-kernel   RoundKernel array fast path inside shard workers
                     (only kernels declaring ``shard_words > 0``)
    kernel           RoundKernel fast path, single process
    node             per-node dispatch, single process (the reference)
    legacy           the original per-message dict engine (pinned only)

``tier="auto"`` (the default) runs a protocol's registered kernel
in-process whatever the network's size; sharding — for a kernel audited
for it — runs only when the plan asks for it.  ``shards=None`` leaves the
count to the tier (``"sharded-kernel"`` uses the default count, every
other tier none), ``shards=k`` forces ``k`` workers.

:func:`resolve_execution` is the single resolution routine used by both
``Network.run`` and ``Network.explain_execution``; the latter collects a
human-readable reason chain explaining why each faster tier was or was
not selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..observe.events import MESSAGE_DELIVERED

#: CONGEST's resolved tier names, fastest first (``"auto"`` is a plan
#: input, never a resolution result).  Plans are validated against
#: :data:`ALL_TIERS`, which also covers the rungs of other computation
#: models.
TIERS = ("sharded-kernel", "kernel", "node", "legacy")

#: The MPC model's ladder, fastest first: whole-cluster array passes
#: over packed machine ledgers, then the per-machine reference path.
#: (``"node"`` is shared vocabulary: on every model it names the
#: single-process pure-python reference rung.)
MPC_TIERS = ("mpc_kernel", "node")

#: Every tier name any registered computation model can resolve to.  A
#: plan may name any of these; *which* of them a concrete run accepts is
#: the model's call (:meth:`~repro.models.base.ComputationModel.check_plan`).
ALL_TIERS = ("sharded-kernel", "kernel", "mpc_kernel", "node", "legacy")

#: The rungs each CONGEST plan tier may resolve to, in preference order.
#: A tier is a *ceiling with a sensible floor*: explicitly asking for the
#: kernel tier never silently spawns worker processes.
_LADDER: Dict[str, Tuple[str, ...]] = {
    "auto": ("sharded-kernel", "kernel", "node"),
    "sharded-kernel": ("sharded-kernel", "kernel", "node"),
    "kernel": ("kernel", "node"),
    "node": ("node",),
    "legacy": ("legacy",),
}

#: The per-model ladder walked by :meth:`MPCModel.resolve` (the MPC
#: analogue of :data:`_LADDER`; ``"auto"`` prefers the vectorized rung).
MPC_LADDER: Dict[str, Tuple[str, ...]] = {
    "auto": ("mpc_kernel", "node"),
    "mpc_kernel": ("mpc_kernel", "node"),
    "node": ("node",),
}


@dataclass(frozen=True)
class ExecutionPlan:
    """Frozen description of how protocols on a network should execute.

    ``tier`` — ``"auto"`` or one of :data:`ALL_TIERS`: the highest rung
    this plan allows (resolution falls down the ladder when a rung is
    ineligible for a given run).  ``shards`` — None leaves the count to
    the tier (``"sharded-kernel"`` uses the default count, ``"auto"``
    none), ``k >= 1`` forces ``k`` workers.
    """

    tier: str = "auto"
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tier != "auto" and self.tier not in ALL_TIERS:
            raise ValueError(
                f"unknown execution tier {self.tier!r}; use 'auto' or one "
                f"of {', '.join(ALL_TIERS)}")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be None or >= 1")
        if self.shards and self.tier not in ("auto", "sharded-kernel"):
            raise ValueError(
                f"tier {self.tier!r} never shards; drop shards= or pick "
                f"'auto' or 'sharded-kernel'")


def as_plan(execution: Any) -> ExecutionPlan:
    """Normalize an ``execution=`` argument: None (the default plan), a
    tier name, or an :class:`ExecutionPlan`."""
    if execution is None:
        return ExecutionPlan()
    if isinstance(execution, str):
        return ExecutionPlan(tier=execution)
    if isinstance(execution, ExecutionPlan):
        return execution
    raise TypeError(f"execution= wants an ExecutionPlan or a tier name, "
                    f"got {type(execution).__name__}")


@dataclass
class ExecutionDecision:
    """The outcome of resolving a plan for one concrete run.

    ``tier`` is the selected rung; ``shards`` is the worker count for the
    sharded tier (None otherwise); ``reasons`` is the human-readable chain
    (populated by ``explain_execution``, empty on hot-path resolutions).
    ``kernel_cls`` names the selected kernel class for the kernel tiers;
    ``Network.run`` constructs it (resolution itself builds nothing).
    """

    tier: str
    shards: Optional[int] = None
    reasons: Tuple[str, ...] = ()
    kernel_cls: Any = field(default=None, repr=False, compare=False)

    def explain(self) -> str:
        """The reason chain as one printable block."""
        lines = [f"resolved tier: {self.tier}"
                 + (f" ({self.shards} shard(s))" if self.shards else "")]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def resolve_execution(net: Any, factory: Any = None,
                      shared: Optional[Dict[str, Any]] = None,
                      collect: bool = False) -> ExecutionDecision:
    """Resolve ``net``'s plan for one run of ``factory``.

    The single source of truth behind ``Network.run``'s dispatch and
    ``Network.explain_execution``'s report.  ``collect=True`` records a
    reason per considered rung.
    """
    plan: ExecutionPlan = net.execution_plan
    reasons: List[str] = []

    def say(msg: str) -> None:
        if collect:
            reasons.append(msg)

    model_name = getattr(getattr(net, "model", None), "name", "congest")
    say(f"model '{model_name}': resolving plan tier '{plan.tier}' on the "
        f"CONGEST execution ladder ({' > '.join(TIERS)})")

    def done(tier: str, shards: Optional[int] = None,
             kernel_cls: Any = None) -> ExecutionDecision:
        return ExecutionDecision(tier=tier, shards=shards,
                                 reasons=tuple(reasons),
                                 kernel_cls=kernel_cls)

    if plan.tier == "legacy":
        say("tier 'legacy': selected — pinned by the plan")
        return done("legacy")
    if plan.tier == "node":
        say("tier 'node': selected — pinned by the plan (batched delivery, "
            "per-node dispatch)")
        return done("node")

    from ..congest import kernels as _kernels
    from ..congest.policies import BandwidthPolicy

    # The numpy probe decides which branch every kernel tier runs; report
    # it up front so a fallthrough is diagnosable without running.
    if _kernels._np is not None:
        say("numpy probe: available — eligible kernels run their "
            "vectorized branch")
    else:
        say("numpy probe: unavailable — eligible kernels run the "
            "pure-python fallback")

    kernel_cls = _kernels.kernel_for(factory) if factory is not None else None

    # -- kernel gates (shared by both fast tiers) -----------------------
    kernel_why = None
    if net._fault_rng is not None:
        kernel_why = "fault injection needs real per-node inboxes"
    elif type(net.policy) is not BandwidthPolicy:
        kernel_why = ("the bandwidth policy is a subclass and may price "
                      "per edge")
    elif net.bus is not None and net.bus.wants(MESSAGE_DELIVERED):
        kernel_why = "a per-message observer is subscribed"
    elif factory is None:
        kernel_why = "no node factory was given to look up a kernel for"
    elif kernel_cls is None:
        name = getattr(factory, "__name__", None) or repr(factory)
        kernel_why = (f"no RoundKernel is registered for {name} "
                      f"(exact class match required)")

    # -- shard eligibility (sits on top of the kernel gates) ------------
    ladder = _LADDER[plan.tier]
    k = None
    shard_why = kernel_why
    if shard_why is None and "sharded-kernel" in ladder:
        from ..congest import sharding as _sharding

        k = _sharding.resolve_shards(net)
        n = net.graph.num_nodes
        if k is None:
            shard_why = ("no shard count resolved (the plan asks for "
                         "none: only shards=k or tier 'sharded-kernel' "
                         "spawns shard workers)")
        elif not kernel_cls.shard_words:
            shard_why = (f"{kernel_cls.__name__} declares no shard hooks "
                         f"(shard_words == 0: it is not audited for "
                         f"multi-process execution)")
        elif shared and any(callable(v) for v in shared.values()):
            shard_why = ("shared values include callables, which cannot "
                         "cross process boundaries")
        elif n == 0:
            shard_why = "the graph is empty"
        k = None if shard_why is not None else min(k, n)

    # -- walk the ladder ------------------------------------------------
    for rung in ladder:
        if rung == "sharded-kernel":
            if k is not None:
                say(f"tier 'sharded-kernel': selected — "
                    f"{kernel_cls.__name__} runs inside {k} shard "
                    f"worker(s)")
                return done("sharded-kernel", shards=k,
                            kernel_cls=kernel_cls)
            say(f"tier 'sharded-kernel': skipped — {shard_why}")
        elif rung == "kernel":
            if kernel_why is None:
                say(f"tier 'kernel': selected — {kernel_cls.__name__} "
                    f"runs in-process")
                return done("kernel", kernel_cls=kernel_cls)
            say(f"tier 'kernel': skipped — {kernel_why}")
    # "node" ends every fast ladder
    say("tier 'node': selected — the per-node reference path")
    return done("node")
