"""Computation models and execution-plan resolution.

:mod:`repro.models.execution` holds the model-agnostic plan objects
(:class:`ExecutionPlan`, :class:`ExecutionDecision`, the tier ladder).
:mod:`repro.models.base` defines the :class:`ComputationModel` seam and the
two registered models: ``congest`` (synchronous message passing on the
engine ladder) and ``mpc`` (simulated machines with per-machine memory
caps).
"""

from .base import (
    CONGEST_MODEL,
    MODELS,
    MPC_MODEL,
    ComputationModel,
    CongestModel,
    ModelExecutionError,
    MPCModel,
    get_model,
)
from .execution import (
    ALL_TIERS,
    MPC_TIERS,
    TIERS,
    ExecutionDecision,
    ExecutionPlan,
    resolve_execution,
)

__all__ = [
    "ALL_TIERS",
    "CONGEST_MODEL",
    "MODELS",
    "MPC_MODEL",
    "MPC_TIERS",
    "ComputationModel",
    "CongestModel",
    "ExecutionDecision",
    "ExecutionPlan",
    "MPCModel",
    "ModelExecutionError",
    "TIERS",
    "get_model",
    "resolve_execution",
]
