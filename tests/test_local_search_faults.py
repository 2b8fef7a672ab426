"""Tests for sequential local-search MWM and the fault-injection harness."""

import networkx as nx
import pytest

from repro.congest import FaultSpec, Network
from repro.dist import israeli_itai
from repro.dist.checkers import check_matching, check_maximality
from repro.graphs import gnp, path_graph, uniform_weights
from repro.graphs.interop import to_networkx
from repro.matching import Matching, verify_matching
from repro.matching.sequential import (
    brute_force_mwm,
    greedy_mwm,
    guarantee_of,
    local_search_mwm,
)


def exact_weight(g):
    m = nx.max_weight_matching(to_networkx(g))
    return sum(g.weight(u, v) for u, v in m)


class TestLocalSearchMWM:
    def test_guarantee_of(self):
        assert guarantee_of(1) == pytest.approx(1 / 2)
        assert guarantee_of(2) == pytest.approx(2 / 3)
        assert guarantee_of(4) == pytest.approx(4 / 5)
        with pytest.raises(ValueError):
            guarantee_of(0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_meets_lemma42_corollary(self, k, seed):
        g = gnp(14, 0.3, rng=seed, weight_fn=uniform_weights())
        m, applied = local_search_mwm(g, k=k)
        verify_matching(g, m)
        assert m.weight(g) >= guarantee_of(k) * exact_weight(g) - 1e-9

    def test_improves_on_greedy_start(self):
        g = gnp(12, 0.4, rng=3, weight_fn=uniform_weights())
        greedy = greedy_mwm(g)
        improved, applied = local_search_mwm(g, k=3, initial=greedy)
        assert improved.weight(g) >= greedy.weight(g) - 1e-9

    def test_exact_on_small_graphs_with_large_k(self):
        g = gnp(8, 0.5, rng=4, weight_fn=uniform_weights())
        if g.num_edges > 20:
            pytest.skip("brute force limit")
        m, _ = local_search_mwm(g, k=4)
        opt = brute_force_mwm(g).weight(g)
        assert m.weight(g) >= (4 / 5) * opt - 1e-9

    def test_max_augmentations_respected(self):
        g = gnp(12, 0.4, rng=5, weight_fn=uniform_weights())
        _, applied = local_search_mwm(g, k=2, max_augmentations=3)
        assert applied <= 3

    def test_k_validation(self):
        with pytest.raises(ValueError):
            local_search_mwm(path_graph(3), k=0)


class TestLossyNetwork:
    def test_loss_validation(self):
        with pytest.raises(ValueError):
            Network(path_graph(2), faults=FaultSpec(loss=1.0))

    def test_zero_loss_is_identical(self):
        g = gnp(20, 0.2, rng=1)
        m_ref = israeli_itai(Network(g, seed=5))
        m_lossy = israeli_itai(Network(g, seed=5,
                                       faults=FaultSpec(loss=0.0)))
        assert m_ref == m_lossy

    def test_drops_are_counted(self):
        from repro.congest import ProtocolError

        g = gnp(20, 0.2, rng=2)
        net = Network(g, seed=2, faults=FaultSpec(loss=0.3))
        try:
            israeli_itai(net, max_rounds=200)
        except ProtocolError:
            pass  # loss-induced livelock is itself a failure mode
        assert net.dropped > 0

    def test_checkers_catch_loss_induced_damage(self):
        """The paper's no-faults assumption, demonstrated: under message
        loss Israeli-Itai livelocks (a finished node's MATCHED announcement
        is lost, so a neighbor proposes to it forever) or leaves damaged
        registers, and the O(1)-round distributed checkers notice."""
        from repro.congest import ProtocolError
        from repro.dist.israeli_itai import IsraeliItaiNode

        damage_found = False
        for seed in range(12):
            g = gnp(24, 0.2, rng=seed)
            net = Network(g, seed=seed, faults=FaultSpec(loss=0.35))
            shared = {"initial_mate": {v: None for v in g.nodes}}
            try:
                raw = net.run(IsraeliItaiNode, shared=shared, max_rounds=300)
            except ProtocolError:
                damage_found = True  # livelock: the run never terminates
                break
            mate = {v: (out or {}).get("mate")
                    for v, out in raw.outputs.items()}
            clean = Network(g, seed=seed)
            if check_matching(clean, mate) or check_maximality(clean, mate):
                damage_found = True
                break
        assert damage_found, "message loss never caused observable damage"
