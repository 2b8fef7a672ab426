"""Model-agnostic protocol runtime: metrics, phase driver, subnetworks.

The machinery here is shared by every computation model:

* :class:`Metrics` — dual-account cost ledger (physical + subnetwork
  rounds/messages/bits, shard and cache gauges, and the MPC ``memory``
  account: peak resident words per simulated machine).
* :class:`PhaseDriver` / :class:`PhaseScope` — the scoped phase-event
  scaffold every distributed driver (and the MPC matching driver) is
  built on.  A driver only needs an executor exposing ``.wants`` /
  ``.emit`` / ``.metrics``, so a CONGEST :class:`~repro.congest.network.
  Network` and an :class:`~repro.mpc.cluster.MPCCluster` both qualify.
* :class:`Subnetwork` — run a child protocol on a derived graph inside a
  parent CONGEST network, folding cost back on exit.
* :class:`ProtocolResult` — the common result base.
"""

from .driver import (
    PhaseDriver,
    PhaseScope,
    ProtocolResult,
    Subnetwork,
    as_network,
    register_map,
)
from .metrics import Metrics

__all__ = [
    "Metrics",
    "PhaseDriver",
    "PhaseScope",
    "ProtocolResult",
    "Subnetwork",
    "as_network",
    "register_map",
]
