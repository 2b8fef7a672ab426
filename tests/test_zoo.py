"""Integration zoo: every algorithm family across every graph family.

A cross-product safety net: whatever special structure a generator produces
(odd cycles, crowns, grids, power-law hubs, forests), each public algorithm
must return a verified matching meeting its guarantee.
"""

import pytest

from repro import approx_mcm, approx_mwm, maximal_matching
from repro.graphs import (
    blossom_gadget,
    complete_graph,
    crown_graph,
    cycle_graph,
    gnp,
    grid_graph,
    power_law_graph,
    random_bipartite,
    random_regular,
    random_tree,
    uniform_weights,
)
from repro.matching.sequential import max_cardinality

FAMILIES = [
    ("gnp_sparse", lambda: gnp(26, 0.08, rng=11)),
    ("gnp_dense", lambda: gnp(18, 0.4, rng=12)),
    ("bipartite", lambda: random_bipartite(12, 14, 0.2, rng=13)),
    ("crown", lambda: crown_graph(6)),
    ("even_cycle", lambda: cycle_graph(18)),
    ("odd_cycle", lambda: cycle_graph(17)),
    ("grid", lambda: grid_graph(4, 5)),
    ("tree", lambda: random_tree(22, rng=14)),
    ("regular", lambda: random_regular(20, 3, rng=15)),
    ("power_law", lambda: power_law_graph(40, rng=16)),
    ("blossoms", lambda: blossom_gadget(3)),
    ("complete", lambda: complete_graph(9)),
]

WEIGHTED_FAMILIES = [
    ("w_gnp", lambda: gnp(20, 0.25, rng=21, weight_fn=uniform_weights())),
    ("w_bipartite", lambda: random_bipartite(10, 10, 0.3, rng=22,
                                             weight_fn=uniform_weights())),
    ("w_tree", lambda: random_tree(18, rng=23,
                                   weight_fn=uniform_weights())),
    ("w_regular", lambda: random_regular(16, 3, rng=24,
                                         weight_fn=uniform_weights())),
]


@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
class TestCardinalityZoo:
    def test_congest_mcm_meets_guarantee(self, name, make):
        g = make()
        eps = 1 / 3
        res = approx_mcm(g, eps=eps, seed=42)
        assert res.certificate.valid
        assert res.size / max_cardinality(g).size >= 1 - eps - 1e-9

    def test_maximal_matching_half(self, name, make):
        g = make()
        res = maximal_matching(g, seed=42)
        assert res.certificate.maximal
        assert res.size / max_cardinality(g).size >= 0.5 - 1e-9


@pytest.mark.parametrize("name,make", WEIGHTED_FAMILIES,
                         ids=[f[0] for f in WEIGHTED_FAMILIES])
class TestWeightedZoo:
    def test_algorithm5_meets_guarantee(self, name, make):
        from repro.experiments.suite import exact_mwm_weight

        g = make()
        eps = 0.1
        opt = exact_mwm_weight(g)
        res = approx_mwm(g, eps=eps, seed=42, reference=opt)
        assert res.certificate.valid
        assert res.weight >= (0.5 - eps) * opt - 1e-9

    def test_local_model_meets_guarantee(self, name, make):
        from repro.experiments.suite import exact_mwm_weight

        g = make()
        opt = exact_mwm_weight(g)
        res = approx_mwm(g, eps=0.25, seed=42, model="local", reference=opt)
        assert res.weight >= 0.75 * opt - 1e-9


class TestLocalModelZoo:
    @pytest.mark.parametrize("name,make", FAMILIES[:8],
                             ids=[f[0] for f in FAMILIES[:8]])
    def test_generic_local_mcm(self, name, make):
        g = make()
        res = approx_mcm(g, eps=0.5, seed=7, model="local")
        opt = max_cardinality(g).size
        assert res.size >= 0.5 * opt - 1e-9
