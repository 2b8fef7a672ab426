"""The computation-model seam: what a model contributes to the runtime.

The shared runtime (:mod:`repro.runtime`, :mod:`repro.observe`) is
model-agnostic: :class:`~repro.runtime.driver.PhaseDriver` only needs an
executor with ``.wants`` / ``.emit`` / ``.metrics`` (the
:class:`~repro.observe.events.Observable` surface plus a ledger), and
:class:`~repro.runtime.metrics.Metrics` ledgers costs without caring
whether a "round" is a CONGEST message round or an MPC superstep — both
land in ``Metrics.rounds``, so cross-model tables stay comparable.  What
*does* differ between models is captured here, per
:class:`ComputationModel`:

* which **execution tiers** of :mod:`repro.models.execution` the model
  can run on — each model owns its *own* ladder (CONGEST
  ``sharded-kernel`` > ``kernel`` > ``node`` plus the pinned ``legacy``
  reference, MPC ``mpc_kernel`` > ``node``) and rejects
  foreign rungs outright instead of silently demoting them, and
* how a plan **resolves** for one run (:meth:`ComputationModel.resolve`),
  which is what ``explain_execution()`` reports — reason chains always
  open by naming the model.

There are two models, :data:`CONGEST_MODEL` and :data:`MPC_MODEL`; each
executor holds its own as ``executor.model``, and the CLI imports them
directly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .execution import (
    ExecutionDecision,
    ExecutionPlan,
    MPC_LADDER,
    MPC_TIERS,
    TIERS,
    resolve_execution,
)

__all__ = [
    "ComputationModel",
    "CongestModel",
    "MPCModel",
    "ModelExecutionError",
    "CONGEST_MODEL",
    "MPC_MODEL",
]


class ModelExecutionError(ValueError):
    """A plan asked a computation model for a tier it cannot execute."""


class ComputationModel:
    """One computation model's contract with the shared runtime.

    ``name`` identifies the model in reason chains; ``tiers`` lists the
    execution rungs the model can resolve to (``"auto"`` is always
    accepted as a plan input).
    """

    name: str = "abstract"
    tiers: Tuple[str, ...] = ()

    def check_plan(self, plan: ExecutionPlan) -> None:
        """Raise :class:`ModelExecutionError` if ``plan`` names a tier
        this model cannot execute.  ``tier="auto"`` always passes."""
        if plan.tier != "auto" and plan.tier not in self.tiers:
            raise ModelExecutionError(
                f"model '{self.name}' cannot execute tier '{plan.tier}': "
                f"{self._reject_reason(plan.tier)}")

    def _reject_reason(self, tier: str) -> str:
        return f"this model only runs on {', '.join(self.tiers)}"

    def resolve(self, executor: Any, factory: Any = None,
                shared: Optional[Dict[str, Any]] = None,
                collect: bool = False) -> ExecutionDecision:
        """Resolve ``executor``'s plan for one run (model-specific)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ComputationModel {self.name!r}>"


class CongestModel(ComputationModel):
    """Synchronous CONGEST message passing on the engine ladder."""

    name = "congest"
    tiers = TIERS  # every rung, "sharded-kernel" down to "legacy"

    def resolve(self, executor: Any, factory: Any = None,
                shared: Optional[Dict[str, Any]] = None,
                collect: bool = False) -> ExecutionDecision:
        return resolve_execution(executor, factory, shared, collect=collect)


class MPCModel(ComputationModel):
    """Simulated Massively Parallel Computation: supersteps over machines
    with ``S = ceil(n**alpha)`` words each.

    MPC owns a two-rung ladder of its own: ``mpc_kernel`` (whole-cluster
    array passes over packed machine ledgers, numpy-backed) falling
    through to ``node`` (the per-machine pure-python reference).  The
    kernel/shard rungs are CONGEST engine internals (vectorized round
    kernels, forked shard workers); asking an MPC run for one of those
    raises :class:`ModelExecutionError` instead of silently falling down
    a foreign ladder.
    """

    name = "mpc"
    tiers = MPC_TIERS

    def _reject_reason(self, tier: str) -> str:
        return ("the kernel and shard tiers are CONGEST engine rungs "
                "(vectorized round kernels, forked shard workers); MPC "
                "supersteps execute on simulated machines with "
                "per-machine memory caps — use execution='auto', "
                "'mpc_kernel' or 'node'")

    def resolve(self, executor: Any, factory: Any = None,
                shared: Optional[Dict[str, Any]] = None,
                collect: bool = False) -> ExecutionDecision:
        plan: ExecutionPlan = executor.execution_plan
        self.check_plan(plan)
        from ..mpc import kernel as _mpc_kernel

        reasons: list = []

        def say(msg: str) -> None:
            if collect:
                reasons.append(msg)

        say(f"model 'mpc': resolving plan tier '{plan.tier}' on the MPC "
            f"execution ladder ({' > '.join(MPC_TIERS)})")
        vector_why = _mpc_kernel.unavailable_reason(
            getattr(executor, "graph", None))
        for rung in MPC_LADDER[plan.tier]:
            if rung == "mpc_kernel":
                if vector_why is None:
                    say("tier 'mpc_kernel': selected — supersteps run as "
                        "whole-cluster array passes over packed machine "
                        "ledgers (numpy), budget-exact against the node "
                        "tier")
                    return ExecutionDecision(tier="mpc_kernel",
                                             reasons=tuple(reasons))
                say(f"tier 'mpc_kernel': skipped — {vector_why}")
            else:  # node ends every MPC ladder
                say("tier 'node': selected — supersteps execute in-process "
                    "on simulated machines (per-machine memory guard "
                    f"S = {getattr(executor, 'machine_words', '?')} words, "
                    f"{getattr(executor, 'num_machines', '?')} machine(s))")
                return ExecutionDecision(tier="node", reasons=tuple(reasons))
        raise AssertionError("unreachable: 'node' ends every MPC ladder")


CONGEST_MODEL = CongestModel()
MPC_MODEL = MPCModel()
