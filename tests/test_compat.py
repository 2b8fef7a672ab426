"""Golden pins for the consolidated deprecation shims (repro._compat).

Every ``DeprecationWarning`` the package emits is registered in
``repro._compat.SHIM_MESSAGES``.  This module is the single place the
shim surface is pinned: each shim's *exact* warning text (asserted
verbatim, not by substring) and its delegation target — what the
deprecated spelling actually runs.
"""

import random
import re
import warnings

import pytest

from repro._compat import SHIM_MESSAGES, warn_deprecated
from repro.congest import (
    LOCAL,
    FaultSpec,
    LossyNetwork,
    Network,
    Tracer,
    nested_network,
)
from repro.core import approx_mcm
from repro.dist.weighted import approximate_mwm, class_greedy_mwm
from repro.dist.weighted.hv_local import hv_mwm
from repro.dist.generic_mcm import generic_mcm
from repro.dynamic import DynamicMatcher
from repro.graphs import gnp, path_graph, uniform_weights


def _warns_exactly(shim, **fmt):
    """pytest.warns matcher for the registered text, matched verbatim."""
    return pytest.warns(DeprecationWarning,
                        match=re.escape(SHIM_MESSAGES[shim].format(**fmt)))


class TestRegistry:
    def test_every_shim_is_registered(self):
        assert set(SHIM_MESSAGES) == {
            "network_tracer", "lossy_network", "nested_network",
            "positional_args", "dynamic_matcher", "black_box_detached",
            "hv_detached", "generic_detached",
        }

    def test_no_stray_warn_calls_outside_compat(self):
        # the consolidation is total: repro._compat owns every
        # DeprecationWarning the package raises
        import pathlib

        import repro
        pkg = pathlib.Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(pkg))
            for path in pkg.rglob("*.py")
            if path.name != "_compat.py"
            and "DeprecationWarning" in path.read_text()
            and "warnings.warn" in path.read_text()
        ]
        # stream/replay.py *filters* the warning (baseline measurement),
        # it does not raise one
        assert offenders == []

    def test_helper_formats_and_warns(self):
        with pytest.warns(DeprecationWarning) as rec:
            warn_deprecated("positional_args", func="f", shown="eps=...")
        assert str(rec[0].message) == SHIM_MESSAGES[
            "positional_args"].format(func="f", shown="eps=...")


class TestWarningTextAndDelegation:
    """Each shim: exact text, and the deprecated spelling's target."""

    def test_network_tracer(self):
        tracer = Tracer()
        with _warns_exactly("network_tracer"):
            net = Network(path_graph(4), seed=0, tracer=tracer)
        # delegation: the tracer rides the event bus as a subscriber now
        assert net.bus is not None
        from repro.dist.israeli_itai import israeli_itai
        israeli_itai(net)
        assert len(tracer) > 0

    def test_lossy_network(self):
        with _warns_exactly("lossy_network"):
            net = LossyNetwork(path_graph(4), loss=0.25, seed=1)
        # delegation: a plain Network carrying FaultSpec(loss=...)
        assert isinstance(net, Network)
        assert net.faults == FaultSpec(loss=0.25)

    def test_nested_network(self):
        parent = Network(path_graph(5), policy=LOCAL, seed=7)
        with _warns_exactly("nested_network"):
            child = nested_network(parent, path_graph(3))
        # delegation: a detached Network inheriting seed and policy
        assert isinstance(child, Network)
        assert child.seed == 7 and child.policy is LOCAL

    def test_positional_args(self):
        g = gnp(12, 0.3, rng=random.Random(0))
        with _warns_exactly("positional_args", func="approx_mcm",
                            shown="eps=..."):
            old = approx_mcm(g, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = approx_mcm(g, eps=0.25)
        # delegation: positional forms merge into the keyword call
        assert sorted(old.matching.edges()) == sorted(new.matching.edges())

    def test_dynamic_matcher(self):
        with _warns_exactly("dynamic_matcher"):
            matcher = DynamicMatcher(k=2)
        # the replacement named by the warning exists and is importable
        from repro.stream import MatchingService
        assert matcher.k == 2 and MatchingService is not None

    def test_black_box_detached(self):
        g = gnp(14, 0.3, rng=random.Random(3), weight_fn=uniform_weights())

        def legacy_box(graph, seed):  # historical 2-arg contract
            return class_greedy_mwm(graph, seed=seed)

        with _warns_exactly("black_box_detached"):
            old = approximate_mwm(g, eps=0.2, seed=3, black_box=legacy_box)
        # delegation: same matching as the composable subnetwork path
        new = approximate_mwm(g, eps=0.2, seed=3, black_box="class_greedy")
        assert sorted(old.matching.edges()) == sorted(new.matching.edges())

    def test_hv_detached(self):
        g = gnp(10, 0.35, rng=random.Random(1), weight_fn=uniform_weights())
        with _warns_exactly("hv_detached"):
            result = hv_mwm(g, eps=0.25, seed=1, subnetworks="detached")
        assert result.matching.size > 0

    def test_generic_detached(self):
        g = gnp(12, 0.3, rng=random.Random(0))
        with _warns_exactly("generic_detached"):
            result = generic_mcm(g, k=2, seed=0, subnetworks="detached")
        assert result.matching.size > 0

