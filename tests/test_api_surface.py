"""Tests for the unified API surface: shared keywords, run() facade."""

import pathlib
import re

import pytest

import repro
from repro import ALGORITHMS, run
from repro.congest import CONGEST, LOCAL, PIPELINE, Tracer
from repro.core.api import approx_mcm, approx_mwm, maximal_matching
from repro.graphs import exponential_weights, gnp, random_bipartite


@pytest.fixture
def bip():
    return random_bipartite(10, 10, 0.25, rng=1)


@pytest.fixture
def weighted():
    return gnp(14, 0.25, rng=2, weight_fn=exponential_weights(8))


class TestSharedKeywords:
    def test_policy_keyword(self, bip):
        res = approx_mcm(bip, eps=0.4, seed=0, policy=LOCAL)
        assert res.certificate.valid

    def test_tracer_keyword(self, bip):
        tracer = Tracer()
        res = approx_mcm(bip, eps=0.4, seed=0, observe=[tracer])
        assert res.certificate.valid
        assert tracer.events

    def test_tracer_everywhere(self, weighted):
        for call in (
            lambda t: approx_mwm(weighted, eps=0.2, seed=0, observe=[t]),
            lambda t: maximal_matching(weighted, seed=0, observe=[t]),
        ):
            tracer = Tracer()
            assert call(tracer).certificate.valid
            assert tracer.events

    def test_max_rounds_keyword(self, bip):
        from repro.congest import ProtocolError

        # the limit becomes the network default and trips the livelock guard
        with pytest.raises(ProtocolError, match="exceeded 1 rounds"):
            maximal_matching(bip, seed=0, max_rounds=1)
        assert maximal_matching(bip, seed=0,
                                max_rounds=10_000).certificate.valid

    def test_k_overrides_eps(self, bip):
        res = approx_mcm(bip, eps=0.9, k=3, seed=0)  # eps alone would give k=1
        assert len(res.detail.stats.phases) == 3

    def test_k_validation(self, bip):
        with pytest.raises(ValueError):
            approx_mcm(bip, k=0)

    def test_network_metrics_alias(self, bip):
        res = approx_mcm(bip, eps=0.4, seed=0)
        assert res.network_metrics is res.metrics
        assert res.network_metrics.total_rounds == res.rounds


class TestNoCompatibilityLayer:
    def test_positional_arguments_rejected(self, bip):
        for call in (lambda: approx_mcm(bip, 0.4, 3),
                     lambda: approx_mwm(bip, 0.2, 1),
                     lambda: maximal_matching(bip, 5, CONGEST)):
            with pytest.raises(TypeError, match="positional"):
                call()

    def test_no_module_raises_a_deprecation_warning(self):
        # the compatibility layer is gone: nothing in the package warns
        pkg = pathlib.Path(repro.__file__).parent
        offenders = [str(path.relative_to(pkg)) for path in pkg.rglob("*.py")
                     if "DeprecationWarning" in path.read_text()]
        assert offenders == []

    def test_no_module_reads_the_environment(self):
        # every knob is a keyword or a CLI flag, never an environment variable
        pkg = pathlib.Path(repro.__file__).parent
        offenders = [str(path.relative_to(pkg)) for path in pkg.rglob("*.py")
                     if re.search(r"os\.environ|getenv", path.read_text())]
        assert offenders == []


class TestRunFacade:
    def test_by_name(self, bip):
        res = run("mcm", bip, eps=0.4, seed=0)
        assert res.algorithm == "bipartite_mcm"
        assert res.certificate.valid

    def test_name_case_insensitive(self, bip):
        assert run("MCM", bip, eps=0.4).algorithm == "bipartite_mcm"

    def test_aliases_cover_families(self, bip, weighted):
        assert run("maximal", bip).algorithm == "israeli_itai"
        assert run("mwm", weighted, eps=0.2).algorithm.startswith("algorithm5")
        assert run("exact_mcm", bip).algorithm == "exact_mcm"

    def test_callable_passthrough(self, bip):
        res = run(approx_mcm, bip, eps=0.4, seed=0)
        assert res.certificate.valid

    def test_unknown_name(self, bip):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run("simplex", bip)

    def test_exported_at_top_level(self):
        assert repro.run is run
        assert "mcm" in repro.ALGORITHMS
        assert set(ALGORITHMS) >= {"approx_mcm", "approx_mwm",
                                   "maximal_matching", "exact_mcm",
                                   "exact_mwm"}
