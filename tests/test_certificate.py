"""Certificates without the optimum: Lemma 3.3 and the LP-dual floor.

Every static entry point and the stream certify a ratio floor and never
compute the exact optimum.  The floors must never exceed the true ratio,
which these tests measure against the exact matchers themselves.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.api as api
import repro.matching.sequential.blossom as blossom
import repro.matching.verify as verify_mod
from repro import (
    approx_mcm,
    approx_mwm,
    maximal_matching,
    mpc_maximal_matching,
    stream_matching,
)
from repro.graphs import (
    Graph,
    cycle_graph,
    gnp,
    path_graph,
    random_bipartite,
    uniform_weights,
)
from repro.matching import (
    Matching,
    alternating_bfs,
    shortest_augmenting_path_length,
)
from repro.matching.sequential import (
    brute_force_mwm,
    max_cardinality,
    max_weight_bipartite,
)
from repro.matching.verify import certify, lp_dual
from repro.stream import MatchingService, random_churn

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _weighted_bipartite():
    return random_bipartite(8, 8, 0.4, rng=1, weight_fn=uniform_weights())


def _stream():
    g = gnp(14, 0.2, rng=2)
    return stream_matching(g, k=2, updates=random_churn(g, 40, seed=1))


#: (id, call) for every entry point and every model
ENTRY_POINTS = [
    ("mcm_bipartite",
     lambda: approx_mcm(random_bipartite(12, 12, 0.2, rng=0), k=2)),
    ("mcm_general", lambda: approx_mcm(cycle_graph(9), k=2)),
    ("mcm_local",
     lambda: approx_mcm(gnp(14, 0.2, rng=1), k=2, model="local")),
    ("mwm_congest",
     lambda: approx_mwm(gnp(20, 0.25, rng=0, weight_fn=uniform_weights()))),
    ("mwm_bipartite", lambda: approx_mwm(_weighted_bipartite())),
    ("mwm_local",
     lambda: approx_mwm(gnp(12, 0.3, rng=3, weight_fn=uniform_weights()),
                        eps=0.25, model="local")),
    ("mwm_auction",
     lambda: approx_mwm(_weighted_bipartite(), model="auction")),
    ("maximal", lambda: maximal_matching(gnp(30, 0.15, rng=0))),
    ("mpc", lambda: mpc_maximal_matching(gnp(120, 0.05, rng=2), alpha=0.8)),
    ("stream", _stream),
]


@pytest.fixture
def no_oracle(monkeypatch):
    """Make every exact oracle an entry point can reach raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("an entry point ran the exact oracle")

    monkeypatch.setattr(api, "max_cardinality", refuse)
    monkeypatch.setattr(api, "max_weight_bipartite", refuse)
    monkeypatch.setattr(blossom, "max_cardinality", refuse)


class TestEntryPointsCertify:
    @pytest.mark.parametrize("name,call", ENTRY_POINTS,
                             ids=[e[0] for e in ENTRY_POINTS])
    def test_floor_without_the_oracle(self, no_oracle, name, call):
        cert = call().certificate
        assert cert.valid
        assert cert.optimum_size is None
        assert cert.ratio_floor is not None and cert.floor_basis
        if cert.dual_bound is None:
            assert cert.cardinality_ratio is None
            assert cert.ratio_floor in (0.5, 2 / 3)
        else:
            assert 0 < cert.ratio_floor <= 0.5 + 1e-12

    def test_cardinality_floors_at_the_claim(self, no_oracle):
        assert approx_mcm(random_bipartite(12, 12, 0.2, rng=0),
                          k=3).certificate.certified_k == 3
        cert = maximal_matching(gnp(30, 0.15, rng=0)).certificate
        assert (cert.certified_k, cert.ratio_floor) == (1, 0.5)
        assert cert.floor_basis == "no augmenting path <= 1"

    def test_no_path_enumeration_where_a_cheaper_proof_exists(
            self, monkeypatch):
        # bipartite inputs take the BFS in both models, and Algorithm 4's
        # exact stopping rule already proved the claim on general ones
        def refuse(*args, **kwargs):
            raise AssertionError("certify enumerated augmenting paths")

        monkeypatch.setattr(verify_mod, "shortest_augmenting_path_length",
                            refuse)
        bipartite = random_bipartite(12, 12, 0.2, rng=0)
        for graph, model in ((bipartite, "congest"), (bipartite, "local"),
                             (cycle_graph(9), "congest"),
                             (gnp(16, 0.25, rng=5), "congest")):
            cert = approx_mcm(graph, k=2, model=model).certificate
            assert cert.certified_k == 2

    def test_service_result_certifies_its_k(self):
        g = gnp(14, 0.2, rng=2)
        svc = MatchingService(g, k=3, seed=3)
        svc.apply(random_churn(g, 30, seed=4))
        cert = svc.result().certificate
        assert cert.certified_k == 3 and cert.optimum_size is None
        assert cert.ratio_floor == 0.75 <= svc.current_ratio()

    def test_reference_sits_beside_the_dual_floor(self):
        wg = _weighted_bipartite()
        optimum = max_weight_bipartite(wg).weight(wg)
        cert = approx_mwm(wg, reference=optimum).certificate
        assert cert.optimum_weight == optimum
        assert cert.ratio_floor <= cert.weight_ratio + 1e-9


# -- Lemma 3.3 ----------------------------------------------------------

def _planted(edges: int):
    """A path with ``edges`` edges whose interior edges are matched: its
    only augmenting path is the whole path."""
    return path_graph(edges + 1), Matching(
        (i, i + 1) for i in range(1, edges - 1, 2))


class TestPlantedPaths:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["bfs", "bfs_swapped", "enumeration"])
    def test_path_of_2k_minus_1_edges_removes_the_floor(self, k, mode):
        for edges, expected in ((2 * k - 1, k - 1), (2 * k + 1, k)):
            g, m = _planted(edges)
            split = g.bipartition()
            bipartition = {"bfs": split, "bfs_swapped": split[::-1],
                           "enumeration": None}[mode]
            cert = certify(g, m, k=k, bipartition=bipartition)
            assert cert.certified_k == expected
            assert cert.ratio_floor == expected / (expected + 1)

    def test_planted_path_inside_a_larger_graph(self):
        # a perfect matching on 20 disjoint edges plus one planted path
        g, m = _planted(5)
        for i in range(100, 140, 2):
            g.add_edge(i, i + 1)
            m.add(i, i + 1)
        for k, expected in ((2, 2), (3, 2), (4, 2)):
            cert = certify(g, m, k=k, bipartition=g.bipartition())
            assert cert.certified_k == expected
            assert cert.floor_basis == "no augmenting path <= 3"

    def test_non_maximal_matching_floors_at_zero(self):
        g, m = _planted(1)
        cert = certify(g, m, k=2, bipartition=g.bipartition())
        assert (cert.certified_k, cert.ratio_floor) == (0, 0.0)
        assert cert.floor_basis == "matching is not maximal"

    def test_proven_skips_the_search(self):
        g, m = _planted(3)
        assert certify(g, m, k=2, proven=True).certified_k == 2
        assert certify(g, m, k=2).certified_k == 1


@st.composite
def graphs_with_matchings(draw, bipartite=False, max_nodes=10):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    if bipartite:
        half = n // 2 or 1
        pairs = [(u, v) for u in range(half) for v in range(half, n)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=18)) if pairs else []
    g = Graph()
    g.add_nodes(range(n))
    for u, v in chosen:
        g.add_edge(u, v)
    m = Matching()
    for u, v in draw(st.permutations(chosen)):
        if m.is_free(u) and m.is_free(v) and draw(st.booleans()):
            m.add(u, v)
    return g, m


@PROPERTY
@given(graphs_with_matchings(bipartite=True),
       st.sampled_from([1, 3, 5, 7]))
def test_bipartite_bfs_agrees_with_enumeration(gm, max_len):
    g, m = gm
    left, _ = g.bipartition()
    _, length = alternating_bfs(g, m, left, max_len)
    assert length == shortest_augmenting_path_length(g, m, max_len=max_len)


@PROPERTY
@given(st.one_of(graphs_with_matchings(bipartite=True),
                 graphs_with_matchings()),
       st.sampled_from([1, 2, 3]))
def test_floor_never_exceeds_the_ratio_of_any_matching(gm, k):
    g, m = gm
    optimum = max_cardinality(g).size
    ratio = m.size / optimum if optimum else 1.0
    split = g.bipartition()
    for bipartition in [None] + ([split] if split is not None else []):
        cert = certify(g, m, k=k, bipartition=bipartition)
        assert cert.ratio_floor <= ratio + 1e-12


@PROPERTY
@given(st.one_of(graphs_with_matchings(bipartite=True, max_nodes=12),
                 graphs_with_matchings(max_nodes=12)),
       st.sampled_from([1, 2, 3]), st.integers(0, 3))
def test_entry_point_floor_below_cardinality_ratio(gm, k, seed):
    g, _ = gm
    optimum = max_cardinality(g).size
    for result in (approx_mcm(g, k=k, seed=seed),
                   approx_mcm(g, k=k, seed=seed, model="local"),
                   maximal_matching(g, seed=seed)):
        ratio = result.size / optimum if optimum else 1.0
        assert result.certificate.ratio_floor <= ratio + 1e-12


# -- the LP-dual weight floor ------------------------------------------

@st.composite
def weighted_graphs_with_matchings(draw, bipartite=False):
    g, m = draw(graphs_with_matchings(bipartite=bipartite, max_nodes=9))
    weighted = Graph()
    weighted.add_nodes(g.nodes)
    for u, v, _ in g.edges():
        weighted.add_edge(u, v, draw(st.floats(min_value=0.5,
                                               max_value=50.0)))
    return weighted, m


@PROPERTY
@given(st.one_of(weighted_graphs_with_matchings(),
                 weighted_graphs_with_matchings(bipartite=True)))
def test_lp_dual_is_feasible_and_bounds_the_optimum(gm):
    g, m = gm
    y = lp_dual(g, m)
    assert all(value >= 0 for value in y.values())
    for u, v, w in g.edges():
        assert y[u] + y[v] >= w - 1e-9
    optimum = brute_force_mwm(g).weight(g)
    assert sum(y.values()) >= optimum - 1e-9
    assert sum(y.values()) >= 2 * m.weight(g) - 1e-9
    cert = certify(g, m, optimum_weight=optimum, dual=True)
    assert cert.ratio_floor <= cert.weight_ratio + 1e-9
    # an edgeless graph's empty matching is optimal, and certified as such
    assert cert.ratio_floor <= (0.5 + 1e-12 if g.num_edges else 1.0)


@PROPERTY
@given(weighted_graphs_with_matchings(bipartite=True), st.integers(0, 3),
       st.sampled_from(["congest", "local", "auction"]))
def test_mwm_floor_below_hungarian_ratio(gm, seed, model):
    g, _ = gm
    if not g.num_edges:
        return
    cert = approx_mwm(g, eps=0.25, seed=seed, model=model,
                      reference=max_weight_bipartite(g).weight(g)
                      ).certificate
    assert cert.ratio_floor <= cert.weight_ratio + 1e-9


@PROPERTY
@given(weighted_graphs_with_matchings(), st.integers(0, 3))
def test_mwm_floor_below_brute_force_ratio(gm, seed):
    g, _ = gm
    cert = approx_mwm(g, eps=0.1, seed=seed,
                      reference=brute_force_mwm(g).weight(g)).certificate
    assert cert.ratio_floor <= cert.weight_ratio + 1e-9


def test_dual_floor_is_half_when_no_edge_needs_a_raise():
    # matched edges of weight 3 and 4 dominate the edges between them
    g = Graph()
    for u, v, w in ((0, 1, 3.0), (2, 3, 4.0), (1, 2, 6.0), (0, 3, 1.0)):
        g.add_edge(u, v, w)
    m = Matching([(0, 1), (2, 3)])
    assert lp_dual(g, m) == {0: 3.0, 1: 3.0, 2: 4.0, 3: 4.0}
    assert certify(g, m, dual=True).ratio_floor == 0.5


def test_dual_raises_the_heavier_endpoint():
    # a star whose center is matched lightly: raising the center once
    # covers every heavier spoke
    # (the center has the largest id, so it is never the first endpoint)
    g = Graph()
    g.add_edge(5, 9, 1.0)
    for leaf in range(5):
        g.add_edge(leaf, 9, 1.5)
    m = Matching([(5, 9)])
    y = lp_dual(g, m)
    assert y[9] == 1.5 and all(y[leaf] == 0 for leaf in range(5))
    cert = certify(g, m, dual=True)
    assert cert.dual_bound == 2.5
    assert cert.floor_basis == "LP dual, w(M*) <= 2.5"


# -- CLI -----------------------------------------------------------------

def test_cli_prints_the_certified_floor(tmp_path, capsys):
    from repro.__main__ import main
    from repro.graphs.io import write_edge_list

    path = tmp_path / "g.txt"
    write_edge_list(random_bipartite(10, 10, 0.3, rng=1), path)
    assert main(["match", str(path), "--eps", "0.34"]) == 0
    out = capsys.readouterr().out
    assert "ratio     : >= 0.6667 (certified: no augmenting path <= 3)" in out
    assert main(["mpc", "gnp:200:0.03", "--alpha", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "ratio     : >= 0.5000 (certified: no augmenting path <= 1)" in out
    assert main(["stream", "--ports", "6", "--cycles", "60", "--k", "2",
                 "--spot-checks", "0"]) == 0
    out = capsys.readouterr().out
    assert "ratio     : >= 0.6667 (certified: no augmenting path <= 3)" in out
