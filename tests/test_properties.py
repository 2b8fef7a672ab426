"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.message import int_bits, payload_bits, payload_bits_fast
from repro.dist.random_tools import sample_max_uniform, weighted_choice
from repro.dist.weighted.gain import apply_wraps, residual_graph, residual_weights
from repro.graphs import Graph, edge_key, gnp
from repro.matching import (
    Matching,
    build_conflict_graph,
    enumerate_augmenting_paths,
    is_maximal,
    maximal_disjoint_paths,
    verify_matching,
)
from repro.matching.sequential import (
    brute_force_mcm,
    brute_force_mwm,
    greedy_mwm,
    max_cardinality_general,
    max_weight_bipartite,
)

# -- strategies ---------------------------------------------------------

settings.register_profile(
    "repro", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@st.composite
def small_graphs(draw, max_nodes=9, weighted=False):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    included = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16))
    g = Graph()
    g.add_nodes(range(n))
    for u, v in included:
        w = draw(st.floats(min_value=0.5, max_value=50.0,
                           allow_nan=False)) if weighted else 1.0
        g.add_edge(u, v, w)
    return g


@st.composite
def graphs_with_matchings(draw, weighted=False):
    g = draw(small_graphs(weighted=weighted))
    m = Matching()
    order = draw(st.permutations(sorted(g.edge_set())))
    for u, v in order:
        if m.is_free(u) and m.is_free(v) and draw(st.booleans()):
            m.add(u, v)
    return g, m


# -- matching invariants -------------------------------------------------

@given(graphs_with_matchings())
def test_matching_always_valid(gm):
    g, m = gm
    verify_matching(g, m)
    assert 2 * m.size == len(m.matched_nodes())


@given(graphs_with_matchings())
def test_augmenting_all_enumerated_paths_individually(gm):
    g, m = gm
    for p in enumerate_augmenting_paths(g, m, 5):
        m2 = m.copy()
        m2.augment(p)
        verify_matching(g, m2)
        assert m2.size == m.size + 1


@given(graphs_with_matchings())
def test_maximal_disjoint_selection_is_disjoint_and_maximal(gm):
    g, m = gm
    paths = enumerate_augmenting_paths(g, m, 3)
    chosen = maximal_disjoint_paths(paths)
    used = set()
    for p in chosen:
        assert used.isdisjoint(p)
        used.update(p)
    for p in paths:
        assert not used.isdisjoint(p) or p in chosen


@given(graphs_with_matchings())
def test_symmetric_difference_of_disjoint_paths(gm):
    g, m = gm
    paths = enumerate_augmenting_paths(g, m, 3)
    chosen = maximal_disjoint_paths(paths)
    flip = [e for p in chosen for e in zip(p, p[1:])]
    m2 = m.symmetric_difference(flip)
    verify_matching(g, m2)
    assert m2.size == m.size + len(chosen)


@given(graphs_with_matchings())
def test_conflict_graph_edges_iff_shared_node(gm):
    g, m = gm
    cg = build_conflict_graph(g, m, 3)
    for i, p in enumerate(cg.paths):
        for j, q in enumerate(cg.paths):
            if i == j:
                continue
            conflict = not set(p).isdisjoint(q)
            assert (j in cg.adjacency[i]) == conflict


# -- exactness cross-checks ----------------------------------------------

@given(small_graphs())
def test_blossom_matches_brute_force(g):
    if g.num_edges > 20:
        return
    assert max_cardinality_general(g).size == brute_force_mcm(g).size


@given(small_graphs(weighted=True))
def test_greedy_is_half_of_brute_force(g):
    if g.num_edges == 0 or g.num_edges > 20:
        return
    greedy = greedy_mwm(g).weight(g)
    opt = brute_force_mwm(g).weight(g)
    assert greedy >= 0.5 * opt - 1e-6


@given(small_graphs(weighted=True))
def test_hungarian_matches_brute_force_on_bipartite(g):
    if g.num_edges == 0 or g.num_edges > 18:
        return
    if g.bipartition() is None:
        return
    ours = max_weight_bipartite(g).weight(g)
    opt = brute_force_mwm(g).weight(g)
    assert abs(ours - opt) < 1e-6


# -- weighted gain machinery ----------------------------------------------

@given(graphs_with_matchings(weighted=True))
def test_residual_weights_are_gains(gm):
    g, m = gm
    for (u, v), w in residual_weights(g, m).items():
        m2 = apply_wraps(g, m, [(u, v)])
        assert abs((m2.weight(g) - m.weight(g)) - w) < 1e-6


@given(graphs_with_matchings(weighted=True))
def test_apply_wraps_never_loses_weight(gm):
    g, m = gm
    gp = residual_graph(g, m)
    if gp.num_edges == 0:
        return
    mp = greedy_mwm(gp)
    m2 = apply_wraps(g, m, mp.edges())
    verify_matching(g, m2)
    assert m2.weight(g) >= m.weight(g) + mp.weight(gp) - 1e-6


# -- message pricing -------------------------------------------------------

@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12))
def test_int_bits_monotone_in_magnitude(x):
    assert int_bits(x) == int_bits(-x)
    assert int_bits(x) >= int_bits(0) or x == 0


@given(st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=10,
))
def test_payload_bits_positive_and_superadditive(payload):
    bits = payload_bits(payload)
    assert bits >= 1
    assert payload_bits_fast(payload) == bits
    if isinstance(payload, tuple):
        assert bits >= sum(payload_bits(x) for x in payload)


# -- randomness helpers -----------------------------------------------------

@given(st.integers(0, 2 ** 32), st.integers(1, 10 ** 6), st.integers(1, 10 ** 9))
def test_sample_max_uniform_in_range(seed, count, cap):
    rng = random.Random(seed)
    v = sample_max_uniform(rng, count, cap)
    assert 1 <= v <= cap


@given(st.integers(0, 2 ** 32),
       st.dictionaries(st.integers(0, 20), st.integers(1, 50),
                       min_size=1, max_size=6))
def test_weighted_choice_returns_a_key(seed, weights):
    rng = random.Random(seed)
    assert weighted_choice(rng, weights) in weights


# -- end-to-end on tiny random instances -----------------------------------

@given(st.integers(0, 1000))
def test_israeli_itai_maximal_property(seed):
    from repro.congest import Network
    from repro.dist import israeli_itai

    g = gnp(12, 0.3, rng=seed)
    m = israeli_itai(Network(g, seed=seed))
    verify_matching(g, m)
    assert is_maximal(g, m)


@given(st.integers(0, 300))
def test_bipartite_mcm_never_below_two_thirds(seed):
    from repro.dist import bipartite_mcm
    from repro.graphs import random_bipartite
    from repro.matching.sequential import max_cardinality_bipartite

    g = random_bipartite(8, 8, 0.3, rng=seed)
    opt = max_cardinality_bipartite(g).size
    res = bipartite_mcm(g, k=2, seed=seed)
    verify_matching(g, res.matching)
    assert res.matching.size >= (2 / 3) * opt - 1e-9


# -- extensions: auction, b-matching, covers -------------------------------

@given(st.integers(0, 200))
def test_auction_one_minus_eps_property(seed):
    from repro.dist import auction_mwm
    from repro.graphs import random_bipartite, uniform_weights
    from repro.matching.sequential import max_weight_bipartite

    g = random_bipartite(7, 7, 0.4, rng=seed, weight_fn=uniform_weights())
    m, _ = auction_mwm(g, eps=0.1, seed=seed)
    verify_matching(g, m)
    opt = max_weight_bipartite(g).weight(g)
    assert m.weight(g) >= 0.9 * opt - 1e-9


@given(st.integers(0, 200), st.integers(1, 3))
def test_b_matching_half_property(seed, cap):
    from repro.dist.b_matching import b_matching_weight, distributed_b_matching
    from repro.graphs import gnp, uniform_weights
    from repro.matching.sequential.brute import brute_force_mwbm

    g = gnp(8, 0.4, rng=seed, weight_fn=uniform_weights())
    if g.num_edges == 0 or g.num_edges > 20:
        return
    caps = {v: cap for v in g.nodes}
    edges, _ = distributed_b_matching(g, caps, seed=seed)
    opt = b_matching_weight(g, brute_force_mwbm(g, caps))
    assert b_matching_weight(g, edges) >= 0.5 * opt - 1e-9


@given(st.integers(0, 300))
def test_koenig_certifies_hopcroft_karp(seed):
    from repro.graphs import random_bipartite
    from repro.matching import is_vertex_cover, koenig_cover
    from repro.matching.sequential import max_cardinality_bipartite

    g = random_bipartite(7, 8, 0.3, rng=seed)
    m = max_cardinality_bipartite(g)
    cover = koenig_cover(g, m)
    assert is_vertex_cover(g, cover)
    assert len(cover) == m.size


@given(st.integers(0, 100))
def test_async_equivalence_property(seed):
    from repro.congest import AsyncNetwork, Network, UniformDelay
    from repro.dist.israeli_itai import IsraeliItaiNode

    g = gnp(10, 0.35, rng=seed)
    shared = {"initial_mate": {v: None for v in g.nodes}}
    sync = Network(g, seed=seed).run(IsraeliItaiNode, shared=shared)
    rep = AsyncNetwork(g, UniformDelay(0.2, 2.5), seed=seed).run(
        IsraeliItaiNode, shared=shared)
    assert rep.outputs == sync.outputs


@given(st.integers(0, 100), st.integers(1, 3))
def test_local_search_meets_guarantee_property(seed, k):
    from repro.graphs import uniform_weights
    from repro.matching.sequential import guarantee_of, local_search_mwm
    from repro.matching.sequential.brute import brute_force_mwm

    g = gnp(8, 0.4, rng=seed, weight_fn=uniform_weights())
    if g.num_edges == 0 or g.num_edges > 20:
        return
    m, _ = local_search_mwm(g, k=k)
    opt = brute_force_mwm(g).weight(g)
    assert m.weight(g) >= guarantee_of(k) * opt - 1e-9
