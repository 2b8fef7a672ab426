"""Tests for the high-level public API."""

import pytest

import repro
from repro import (
    Matching,
    approx_mcm,
    approx_mwm,
    eps_to_k,
    exact_mcm,
    exact_mwm,
    maximal_matching,
)
from repro.graphs import (
    cycle_graph,
    gnp,
    random_bipartite,
    uniform_weights,
)
from repro.matching.sequential import max_cardinality, max_weight_bipartite


def _ratio(res, graph):
    """The measured |M| / |M*| (no entry point computes the optimum)."""
    return res.size / max_cardinality(graph).size


class TestEpsToK:
    def test_mapping(self):
        assert eps_to_k(0.5) == 1
        assert eps_to_k(1 / 3) == 2
        assert eps_to_k(0.25) == 3
        assert eps_to_k(0.1) == 9

    def test_guarantee_holds(self):
        for eps in (0.5, 0.34, 0.25, 0.2):
            k = eps_to_k(eps)
            assert 1 - 1 / (k + 1) >= 1 - eps - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            eps_to_k(0.0)
        with pytest.raises(ValueError):
            eps_to_k(1.0)


class TestApproxMCM:
    def test_bipartite_dispatch(self):
        g = random_bipartite(12, 12, 0.2, rng=0)
        res = approx_mcm(g, eps=0.34, seed=0)
        assert res.algorithm == "bipartite_mcm"
        assert _ratio(res, g) >= 1 - 0.34 - 1e-9
        assert res.rounds is not None and res.rounds > 0

    def test_general_dispatch(self):
        g = cycle_graph(9)
        res = approx_mcm(g, eps=0.34, seed=0)
        assert res.algorithm == "general_mcm"
        assert _ratio(res, g) >= 1 - 0.34 - 1e-9

    def test_local_model(self):
        g = gnp(14, 0.2, rng=1)
        res = approx_mcm(g, eps=0.34, seed=1, model="local")
        assert "local" in res.algorithm
        assert _ratio(res, g) >= 1 - 0.34 - 1e-9

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            approx_mcm(cycle_graph(4), model="quantum")

    def test_certificate_fields(self):
        g = random_bipartite(8, 8, 0.3, rng=2)
        res = approx_mcm(g, eps=0.5, seed=2)
        assert res.certificate.valid
        assert res.certificate.optimum_size is None
        assert res.certificate.ratio_floor == 0.5
        assert res.size == res.certificate.size


class TestApproxMWM:
    def test_congest(self):
        g = gnp(20, 0.25, rng=0, weight_fn=uniform_weights())
        res = approx_mwm(g, eps=0.1, seed=0)
        assert "algorithm5" in res.algorithm
        assert res.weight > 0

    def test_bipartite_gets_reference(self):
        g = random_bipartite(8, 8, 0.4, rng=1, weight_fn=uniform_weights())
        res = approx_mwm(g, eps=0.1, seed=1,
                         reference=max_weight_bipartite(g).weight(g))
        ratio = res.certificate.weight_ratio
        assert ratio is not None
        assert ratio >= 0.4 - 1e-9

    def test_explicit_reference(self):
        g = gnp(14, 0.3, rng=2, weight_fn=uniform_weights())
        res = approx_mwm(g, eps=0.2, seed=2, reference=100.0)
        assert res.certificate.weight_ratio == pytest.approx(
            res.weight / 100.0)

    def test_local_model(self):
        g = gnp(12, 0.3, rng=3, weight_fn=uniform_weights())
        res = approx_mwm(g, eps=0.25, seed=3, model="local")
        assert "hv" in res.algorithm

    def test_black_box_selection(self):
        g = gnp(14, 0.3, rng=4, weight_fn=uniform_weights())
        res = approx_mwm(g, eps=0.2, seed=4, black_box="local_greedy")
        assert "local_greedy" in res.algorithm

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            approx_mwm(cycle_graph(4), model="nope")


class TestMaximalMatching:
    def test_baseline(self):
        g = gnp(30, 0.15, rng=0)
        res = maximal_matching(g, seed=0)
        assert res.certificate.maximal
        assert _ratio(res, g) >= 0.5 - 1e-9


class TestExact:
    def test_exact_mcm(self):
        g = cycle_graph(7)
        res = exact_mcm(g)
        assert res.size == 3
        assert res.certificate.cardinality_ratio == 1.0
        assert res.rounds is None

    def test_exact_mwm(self):
        g = random_bipartite(6, 6, 0.5, rng=1, weight_fn=uniform_weights())
        res = exact_mwm(g)
        assert res.certificate.weight_ratio == 1.0


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_result_repr(self):
        g = cycle_graph(6)
        res = exact_mcm(g)
        assert "exact_mcm" in repr(res)
        dres = maximal_matching(g, seed=1)
        assert "rounds=" in repr(dres)


class TestAuctionModel:
    def test_auction_dispatch(self):
        from repro.graphs import random_bipartite, uniform_weights

        g = random_bipartite(10, 10, 0.3, rng=4, weight_fn=uniform_weights())
        res = approx_mwm(g, eps=0.1, seed=4, model="auction",
                         reference=max_weight_bipartite(g).weight(g))
        assert res.algorithm == "auction"
        assert res.certificate.weight_ratio >= 1 - 0.1 - 1e-9

    def test_auction_rejects_general_graphs(self):
        from repro.graphs.graph import GraphError

        with pytest.raises(GraphError):
            approx_mwm(cycle_graph(5), model="auction")
