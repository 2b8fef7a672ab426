"""Tests for Section 4: gain machinery, black boxes, Algorithm 5, HV."""

import math
import warnings

import networkx as nx
import pytest

from repro.congest import CONGEST, Network, PhaseStart
from repro.dist.weighted import (
    BLACK_BOX_DELTA,
    apply_wraps,
    approximate_mwm,
    class_greedy_mwm,
    default_iterations,
    gain,
    local_greedy_mwm,
    residual_graph,
    residual_weights,
    weight_class,
    wrap_path,
)
from repro.dist.weighted.hv_local import hv_mwm
from repro.graphs import (
    Graph,
    exponential_weights,
    gnp,
    path_graph,
    polarized_weights,
    power_of_two_weights,
    random_bipartite,
    uniform_weights,
)
from repro.graphs.interop import to_networkx
from repro.matching import Matching, verify_matching
from repro.matching.sequential import greedy_mwm, max_weight_bipartite


def exact_weight(g):
    m = nx.max_weight_matching(to_networkx(g))
    return sum(g.weight(u, v) for u, v in m)


def three_path():
    """The paper's own worst case: three unit edges in series."""
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(2, 3, 1.0)
    return g


class TestWrapGain:
    def test_wrap_free_endpoints(self):
        g = path_graph(2)
        assert wrap_path(g, Matching(), 0, 1) == [(0, 1)]

    def test_wrap_with_mates(self):
        g = three_path()
        m = Matching([(0, 1), (2, 3)])
        assert wrap_path(g, m, 1, 2) == [(0, 1), (1, 2), (2, 3)]

    def test_wrap_on_matching_edge_rejected(self):
        g = path_graph(2)
        m = Matching([(0, 1)])
        with pytest.raises(ValueError):
            wrap_path(g, m, 0, 1)

    def test_gain_definition(self):
        g = Graph()
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 7.0)
        g.add_edge(2, 3, 3.0)
        m = Matching([(0, 1), (2, 3)])
        assert gain(g, m, 1, 2) == 7.0 - 2.0 - 3.0

    def test_papers_series_worst_case(self):
        # gain of the middle-edge matching is 0 everywhere: Algorithm 5
        # cannot beat 1/2 here (the paper's closing remark)
        g = three_path()
        m = Matching([(1, 2)])
        assert residual_weights(g, m) == {}
        res = approximate_mwm(g, eps=0.05, seed=0)
        assert res.matching.weight(g) >= 1.0

    def test_residual_weights_positive_only(self):
        g = three_path()
        m = Matching([(0, 1)])
        rw = residual_weights(g, m)
        assert (2, 3) in rw and rw[(2, 3)] == 1.0
        assert (0, 1) not in rw  # matching edge
        assert (1, 2) not in rw  # zero gain

    def test_residual_graph_structure(self):
        g = three_path()
        gp = residual_graph(g, Matching([(0, 1)]))
        assert gp.edge_set() == {(2, 3)}

    def test_apply_wraps_lemma41(self):
        # Lemma 4.1: w(M'') >= w(M) + w_M(M') and M'' is a matching
        for seed in range(4):
            g = gnp(14, 0.3, rng=seed, weight_fn=uniform_weights())
            m = greedy_mwm(g)
            gp = residual_graph(g, m)
            if gp.num_edges == 0:
                continue
            mprime = greedy_mwm(gp)  # any matching in G'
            m2 = apply_wraps(g, m, mprime.edges())
            verify_matching(g, m2)
            assert m2.weight(g) >= m.weight(g) + mprime.weight(gp) - 1e-9

    def test_apply_wraps_rejects_matching_edges(self):
        g = path_graph(2)
        m = Matching([(0, 1)])
        with pytest.raises(ValueError):
            apply_wraps(g, m, [(0, 1)])


class TestWeightClass:
    def test_values(self):
        assert weight_class(1.0) == 0
        assert weight_class(2.0) == 1
        assert weight_class(3.9) == 1
        assert weight_class(0.5) == -1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            weight_class(0.0)


class TestClassGreedy:
    @pytest.mark.parametrize("seed", range(3))
    def test_quarter_guarantee(self, seed):
        g = gnp(30, 0.15, rng=seed, weight_fn=exponential_weights())
        m, net = class_greedy_mwm(g, seed=seed, eps=0.2)
        verify_matching(g, m)
        assert m.weight(g) >= 0.25 * (1 - 0.2) * exact_weight(g) - 1e-9

    def test_power_of_two_weights_exact_classes(self):
        g = gnp(20, 0.3, rng=1, weight_fn=power_of_two_weights(6))
        m, _ = class_greedy_mwm(g, seed=1)
        verify_matching(g, m)
        assert m.weight(g) >= 0.25 * exact_weight(g) - 1e-9

    def test_polarized_weights(self):
        g = gnp(30, 0.2, rng=2, weight_fn=polarized_weights())
        m, _ = class_greedy_mwm(g, seed=2)
        assert m.weight(g) >= 0.2 * exact_weight(g) - 1e-9

    def test_empty_graph(self):
        g = Graph()
        g.add_nodes(range(4))
        m, _ = class_greedy_mwm(g, seed=0)
        assert m.size == 0

    def test_flooded_max_variant(self):
        g = gnp(16, 0.25, rng=3, weight_fn=uniform_weights())
        m1, _ = class_greedy_mwm(g, seed=3, known_max=True)
        m2, net2 = class_greedy_mwm(g, seed=3, known_max=False)
        verify_matching(g, m2)
        assert "flood_max" in net2.metrics.protocol_rounds

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            class_greedy_mwm(path_graph(2), eps=1.5)

    def test_congest_compliant(self):
        g = gnp(24, 0.2, rng=4, weight_fn=uniform_weights())
        m, net = class_greedy_mwm(g, seed=4, policy=CONGEST)
        assert net.metrics.max_message_bits <= CONGEST.budget_bits(24)


class TestLocalGreedy:
    @pytest.mark.parametrize("seed", range(3))
    def test_half_guarantee(self, seed):
        g = gnp(26, 0.2, rng=seed + 30, weight_fn=uniform_weights())
        m, _ = local_greedy_mwm(g, seed=seed)
        verify_matching(g, m)
        assert m.weight(g) >= 0.5 * exact_weight(g) - 1e-9

    def test_decreasing_chain_serializes_but_correct(self):
        g = Graph()
        for i in range(10):
            g.add_edge(i, i + 1, 100.0 - i)
        m, net = local_greedy_mwm(g, seed=0)
        # greedy by decreasing weight picks every other edge
        assert m.contains_edge(0, 1)
        assert m.contains_edge(2, 3)
        assert net.metrics.rounds >= 6  # the chain forces sequential matching

    def test_initial_and_filter(self):
        g = path_graph(4)
        m, _ = local_greedy_mwm(g, seed=0, initial=Matching([(1, 2)]))
        assert m.contains_edge(1, 2) and m.size == 1
        m2, _ = local_greedy_mwm(g, seed=0, allowed_edges=[(2, 3)])
        assert m2.edge_set() == frozenset({(2, 3)})


class TestAlgorithm5:
    def test_default_iterations(self):
        assert default_iterations(0.5, 0.1) == math.ceil(3.0 * math.log(20))
        with pytest.raises(ValueError):
            default_iterations(0.0, 0.1)
        with pytest.raises(ValueError):
            default_iterations(0.5, 1.0)

    @pytest.mark.parametrize("box", ["class_greedy", "local_greedy"])
    def test_half_minus_eps(self, box):
        eps = 0.1
        for seed in range(3):
            g = gnp(26, 0.2, rng=seed, weight_fn=exponential_weights())
            res = approximate_mwm(g, eps=eps, seed=seed, black_box=box)
            verify_matching(g, res.matching)
            assert res.matching.weight(g) >= (0.5 - eps) * exact_weight(g) - 1e-9

    def test_improves_on_black_box(self):
        # Algorithm 5 must never end below its own black box's first shot
        g = gnp(30, 0.2, rng=7, weight_fn=exponential_weights())
        bb, _ = class_greedy_mwm(g, seed=7 * 7919 + 1)
        res = approximate_mwm(g, eps=0.05, seed=7)
        assert res.matching.weight(g) >= bb.weight(g) - 1e-9

    def test_weights_monotone_across_iterations(self):
        g = gnp(24, 0.25, rng=2, weight_fn=uniform_weights())
        res = approximate_mwm(g, eps=0.05, seed=2)
        weights = [it.matching_weight for it in res.iterations]
        assert weights == sorted(weights)
        assert all(it.gain_applied >= -1e-9 for it in res.iterations)

    def test_lemma_43_convergence_bound(self):
        g = gnp(24, 0.25, rng=3, weight_fn=uniform_weights())
        opt = exact_weight(g)
        res = approximate_mwm(g, eps=0.02, seed=3)
        for it in res.iterations:
            bound = 0.5 * (1 - math.exp(-2 * res.delta * it.iteration / 3))
            assert it.matching_weight / opt >= bound - 1e-9

    def test_custom_black_box_callable(self):
        calls = []

        def box(g, seed, network):
            calls.append(seed)
            return local_greedy_mwm(g, seed=seed, network=network)

        def kw_box(g, seed, **kw):  # network= arrives through **kw
            return box(g, seed, **kw)

        g = gnp(14, 0.3, rng=4, weight_fn=uniform_weights())
        runs = []
        for black_box in (box, kw_box):
            events = []
            net = Network(g, seed=4, observe=[events.append])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = approximate_mwm(g, eps=0.3, seed=4, black_box=black_box,
                                      network=net)
            verify_matching(g, res.matching)
            runs.append((sorted(res.matching.edges()), events))
        assert calls
        (named_edges, named_events), (kw_edges, kw_events) = runs
        assert kw_edges == named_edges
        assert kw_events == named_events
        # both forms run on the parent's subnetwork, so their black_box
        # phases reach the parent's bus
        assert any(isinstance(e, PhaseStart) and e.phase.startswith("black_box")
                   for e in kw_events)

    def test_unknown_black_box(self):
        with pytest.raises(ValueError):
            approximate_mwm(path_graph(2), black_box="nope")

    def test_early_exit_when_residual_empty(self):
        g = path_graph(2)  # one edge: first iteration matches it, then done
        res = approximate_mwm(g, eps=0.01, seed=0)
        assert res.matching.size == 1
        assert res.iterations_used < default_iterations(res.delta, 0.01)

    def test_unweighted_graph(self):
        g = gnp(20, 0.2, rng=5)
        res = approximate_mwm(g, eps=0.1, seed=5)
        verify_matching(g, res.matching)
        assert res.matching.size >= 1


class TestHVLocal:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_minus_eps(self, seed):
        g = gnp(14, 0.3, rng=seed, weight_fn=uniform_weights())
        res = hv_mwm(g, eps=0.25, seed=seed)
        verify_matching(g, res.matching)
        assert res.matching.weight(g) >= 0.75 * exact_weight(g) - 1e-9

    def test_beats_algorithm5_on_bipartite(self):
        g = random_bipartite(8, 8, 0.4, rng=1, weight_fn=uniform_weights())
        opt = max_weight_bipartite(g).weight(g)
        hv = hv_mwm(g, eps=0.2, seed=1).matching.weight(g)
        assert hv >= 0.8 * opt - 1e-9

    def test_sweep_trace(self):
        g = gnp(12, 0.3, rng=2, weight_fn=uniform_weights())
        res = hv_mwm(g, eps=0.34, seed=2)
        weights = [s.matching_weight for s in res.sweeps]
        assert weights == sorted(weights)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            hv_mwm(path_graph(2), eps=0.0)
