"""Simulated MPC computation model: sublinear memory per machine.

The second computation model on the :mod:`repro.models` seam: machines
with a hard ``S = ceil(n**alpha)``-word budget (:class:`MPCCluster`,
:class:`MemoryExceeded`) and a sample-and-match maximal matching driver
(:func:`mpc_maximal`, five supersteps per iteration) built on the shared
:class:`~repro.runtime.driver.PhaseDriver`, so ``observe=``/``trace=``/
``profile=`` work exactly as they do for CONGEST runs.  Entry points:
``repro.run("mpc_maximal", g, alpha=0.5)`` and ``python -m repro mpc``.

The model owns a two-rung execution ladder: :mod:`repro.mpc.kernel`
(the ``mpc_kernel`` tier — whole-cluster numpy array passes with a
budget-exact array ledger) falling through to the per-machine python
loops (the ``node`` tier).  Both rungs are golden-equivalent.
"""

from . import kernel
from .cluster import (
    BASE_WORDS,
    MIN_MACHINE_WORDS,
    MemoryExceeded,
    MPCCluster,
    MPCMachine,
    machine_words,
)
from .matching import MPCMatchingResult, mpc_maximal

__all__ = [
    "BASE_WORDS",
    "MIN_MACHINE_WORDS",
    "kernel",
    "MPCCluster",
    "MPCMachine",
    "MPCMatchingResult",
    "MemoryExceeded",
    "machine_words",
    "mpc_maximal",
]
