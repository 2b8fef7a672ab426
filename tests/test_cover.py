"""Tests for vertex covers as duality witnesses."""

import pytest

from repro.graphs import (
    complete_bipartite,
    crown_graph,
    cycle_graph,
    gnp,
    path_graph,
    random_bipartite,
)
from repro.graphs.graph import GraphError
from repro.matching import (
    Matching,
    greedy_vertex_cover,
    is_vertex_cover,
    koenig_cover,
)
from repro.matching.sequential import (
    greedy_mcm,
    max_cardinality,
    max_cardinality_bipartite,
)


class TestIsVertexCover:
    def test_full_node_set_covers(self):
        g = cycle_graph(5)
        assert is_vertex_cover(g, set(g.nodes))

    def test_empty_cover_fails(self):
        g = path_graph(2)
        assert not is_vertex_cover(g, set())
        assert is_vertex_cover(g, {0})


class TestKoenig:
    @pytest.mark.parametrize("seed", range(5))
    def test_cover_size_equals_maximum_matching(self, seed):
        g = random_bipartite(12, 14, 0.2, rng=seed)
        m = max_cardinality_bipartite(g)
        cover = koenig_cover(g, m)
        assert is_vertex_cover(g, cover)
        assert len(cover) == m.size  # König's theorem

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 5)
        m = max_cardinality_bipartite(g)
        cover = koenig_cover(g, m)
        assert is_vertex_cover(g, cover)
        assert len(cover) == 3

    def test_crown(self):
        g = crown_graph(4)
        m = max_cardinality_bipartite(g)
        cover = koenig_cover(g, m)
        assert is_vertex_cover(g, cover)
        assert len(cover) == m.size

    def test_non_maximum_matching_detected(self):
        # a maximal-but-not-maximum matching: König construction fails to
        # cover with |M| nodes, so it does not prove optimality
        g = path_graph(4)
        m = Matching([(1, 2)])
        cover = koenig_cover(g, m)
        assert not (is_vertex_cover(g, cover) and len(cover) == m.size)

    def test_rejects_non_bipartite(self):
        with pytest.raises(GraphError):
            koenig_cover(cycle_graph(5), Matching())


class TestDualityCertificate:
    """Any valid vertex cover is a weak-duality witness: |M*| <= |C|."""

    def test_ratio_floor_with_external_cover(self):
        g = gnp(20, 0.2, rng=1)
        m = greedy_mcm(g, rng=2)
        cover = greedy_vertex_cover(g)
        assert is_vertex_cover(g, cover)
        true_ratio = m.size / max_cardinality(g).size
        # the floor |M| / |C| never overclaims
        assert m.size / len(cover) <= true_ratio + 1e-9

    def test_invalid_cover_rejected(self):
        g = path_graph(3)
        assert not is_vertex_cover(g, {2})

    def test_empty_graph(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_nodes(range(3))
        # the empty cover is valid and tight: |C| = |M*| = 0
        assert is_vertex_cover(g, set())
        assert max_cardinality(g).size == 0


class TestGreedyCover:
    @pytest.mark.parametrize("seed", range(3))
    def test_always_valid_and_2_approx(self, seed):
        g = gnp(18, 0.2, rng=seed)
        cover = greedy_vertex_cover(g)
        assert is_vertex_cover(g, cover)
        # |cover| = 2 |maximal matching| <= 2 |M*| <= 2 |min cover| ... and
        # also >= min cover; sanity: within 2x of matching-based bound
        opt_m = max_cardinality(g).size
        assert len(cover) <= 2 * opt_m
