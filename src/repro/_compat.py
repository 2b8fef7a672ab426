"""One home for every deprecation shim's warning.

Every ``DeprecationWarning`` the package emits is registered here by
shim name, with its exact user-facing text (a ``str.format`` template
when the message names the call site).  The emitting modules call
:func:`warn_deprecated` instead of ``warnings.warn`` directly, which
buys two things:

* the warning texts are golden-pinned in one place
  (``tests/test_compat.py`` asserts each registered shim's text and
  its delegation target), so a reworded shim is a deliberate,
  reviewable change rather than drive-by drift; and
* an inventory: ``SHIM_MESSAGES`` *is* the list of compatibility
  surfaces still alive, which is what a future major release deletes.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict

__all__ = ["SHIM_MESSAGES", "warn_deprecated"]

#: shim name -> exact warning text (``str.format`` template).  Golden:
#: ``tests/test_compat.py`` asserts these strings verbatim.
SHIM_MESSAGES: Dict[str, str] = {
    # congest/network.py — pre-1.2 tracer= keyword
    "network_tracer": (
        "Network(tracer=...) is deprecated; pass observe=[tracer] "
        "(the Tracer is an event-bus subscriber now)"),
    # congest/faults.py — pre-FaultSpec loss wrapper
    "lossy_network": (
        "LossyNetwork is deprecated; use "
        "Network(..., faults=FaultSpec(loss=...)) instead"),
    # runtime/driver.py — detached sub-Networks
    "nested_network": (
        "nested_network()/detached sub-Networks are deprecated; use "
        "Network.subnetwork() (repro.congest.runtime.Subnetwork), which "
        "inherits faults, observability, and accounting from the parent"),
    # core/api.py — pre-1.1 positional arguments beyond the graph
    "positional_args": (
        "positional arguments to {func}() beyond the graph are "
        "deprecated; call {func}(graph, {shown}) with keywords instead"),
    # dynamic/maintainer.py — per-event maintainer
    "dynamic_matcher": (
        "DynamicMatcher is deprecated; use "
        "repro.stream.MatchingService (or repro.run('stream', ...)), "
        "which batches and coalesces updates"),
    # dist/weighted/algorithm5.py — (graph, seed) black boxes
    "black_box_detached": (
        "black-box callables (graph, seed) -> (Matching, Network) build "
        "a detached Network and are deprecated; accept a network= "
        "keyword to run on the parent's Subnetwork instead"),
    # dist/weighted/hv_local.py — standalone MIS sub-Networks
    "hv_detached": (
        "hv_mwm(subnetworks='detached') reproduces the deprecated "
        "standalone MIS sub-Network (no fault/bus inheritance, ad-hoc "
        "seeds); use the default subnetworks='inherit'"),
    # dist/generic_mcm.py — standalone MIS sub-Networks
    "generic_detached": (
        "generic_mcm(subnetworks='detached') reproduces the deprecated "
        "standalone MIS sub-Network (no fault/bus inheritance, ad-hoc "
        "seeds); use the default subnetworks='inherit'"),
}


def warn_deprecated(shim: str, *, stacklevel: int = 2,
                    **fmt: Any) -> None:
    """Emit the registered shim's :class:`DeprecationWarning`.

    ``stacklevel`` counts from the *caller* exactly as it would for a
    direct ``warnings.warn`` there (this helper adds its own frame), so
    call sites keep the stacklevel they always had and the warning still
    points at user code.
    """
    warnings.warn(SHIM_MESSAGES[shim].format(**fmt), DeprecationWarning,
                  stacklevel=stacklevel + 1)
