"""Tests for the Graph and BipartiteGraph data structures."""

import pytest

from repro.graphs import BipartiteGraph, Graph, GraphError, edge_key


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_equal_endpoints_allowed_by_key(self):
        assert edge_key(2, 2) == (2, 2)


class TestGraphConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_add_nodes_and_edges(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2, weight=2.5)
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.weight(1, 2) == 2.5
        assert g.weight(0, 1) == 1.0

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(5)
        g.add_node(5)
        assert g.nodes == [5]

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_nonpositive_weight_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(0, 1, weight=0.0)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, weight=-2.0)

    def test_non_integer_node_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node("a")

    def test_parallel_edge_keeps_heavier(self):
        g = Graph()
        g.add_edge(0, 1, weight=3.0)
        g.add_edge(1, 0, weight=1.0)
        assert g.weight(0, 1) == 3.0
        g.add_edge(0, 1, weight=7.0)
        assert g.weight(0, 1) == 7.0
        assert g.num_edges == 1


class TestGraphQueries:
    @pytest.fixture
    def triangle(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(0, 2, 3.0)
        return g

    def test_neighbors_sorted(self, triangle):
        assert triangle.neighbors(1) == [0, 2]

    def test_degree(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.max_degree == 2

    def test_edges_iteration_canonical(self, triangle):
        edges = list(triangle.edges())
        assert edges == [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]

    def test_total_weight(self, triangle):
        assert triangle.total_weight() == 6.0

    def test_has_edge(self, triangle):
        assert triangle.has_edge(2, 0)
        assert not triangle.has_edge(0, 5)

    def test_contains(self, triangle):
        assert 0 in triangle
        assert 9 not in triangle

    def test_missing_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.neighbors(9)
        with pytest.raises(GraphError):
            triangle.degree(9)
        with pytest.raises(GraphError):
            triangle.weight(0, 9)

    def test_is_unweighted(self, triangle):
        assert not triangle.is_unweighted()
        g = Graph()
        g.add_edge(0, 1)
        assert g.is_unweighted()


class TestGraphMutation:
    def test_remove_edge(self):
        g = Graph()
        g.add_edge(0, 1)
        g.remove_edge(1, 0)
        assert g.num_edges == 0
        assert g.num_nodes == 2
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_remove_node(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_node(1)
        assert g.num_nodes == 2
        assert g.num_edges == 0
        with pytest.raises(GraphError):
            g.remove_node(1)

    def test_copy_is_independent(self):
        g = Graph()
        g.add_edge(0, 1, 2.0)
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2
        assert h.weight(0, 1) == 2.0


class TestDerivedGraphs:
    def test_subgraph_induced(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub = g.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.edge_set() == {(0, 1), (1, 2)}

    def test_subgraph_ignores_missing(self):
        g = Graph()
        g.add_edge(0, 1)
        sub = g.subgraph([0, 1, 99])
        assert sub.num_nodes == 2

    def test_edge_subgraph(self):
        g = Graph()
        g.add_edge(0, 1, 5.0)
        g.add_edge(1, 2)
        sub = g.edge_subgraph([(0, 1)])
        assert sub.edge_set() == {(0, 1)}
        assert sub.weight(0, 1) == 5.0

    def test_connected_components(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_node(4)
        comps = sorted(map(sorted, g.connected_components()))
        assert comps == [[0, 1], [2, 3], [4]]


class TestTraversal:
    def test_bfs_distances(self):
        g = Graph()
        for i in range(4):
            g.add_edge(i, i + 1)
        dist = g.bfs_distances(0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_limit(self):
        g = Graph()
        for i in range(4):
            g.add_edge(i, i + 1)
        dist = g.bfs_distances(0, limit=2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_diameter_path(self):
        g = Graph()
        for i in range(5):
            g.add_edge(i, i + 1)
        assert g.diameter() == 5

    def test_diameter_disconnected_raises(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(GraphError):
            g.diameter()

    def test_ball(self):
        g = Graph()
        for i in range(5):
            g.add_edge(i, i + 1)
        assert g.ball(2, 1) == {1, 2, 3}


class TestBipartition:
    def test_even_cycle_bipartite(self):
        g = Graph()
        for i in range(4):
            g.add_edge(i, (i + 1) % 4)
        split = g.bipartition()
        assert split is not None
        left, right = split
        assert left | right == {0, 1, 2, 3}
        for u, v, _ in g.edges():
            assert (u in left) != (v in left)

    def test_odd_cycle_not_bipartite(self):
        g = Graph()
        for i in range(5):
            g.add_edge(i, (i + 1) % 5)
        assert g.bipartition() is None

    def test_mutation_between_calls_invalidates_the_cached_coloring(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert g.bipartition() == ({0, 2}, {1})
        g.add_edge(0, 2)  # a triangle: no longer 2-colorable
        assert g.bipartition() is None
        g.remove_edge(0, 2)
        assert g.bipartition() == ({0, 2}, {1})
        g.add_node(7)  # isolated nodes go left
        assert g.bipartition() == ({0, 2, 7}, {1})
        g.remove_node(1)
        assert g.bipartition() == ({0, 2, 7}, set())

    def test_each_call_returns_fresh_sets(self):
        g = Graph()
        g.add_edge(0, 1)
        left, right = g.bipartition()
        left.add(99)
        right.clear()
        assert g.bipartition() == ({0}, {1})


class TestBipartiteGraph:
    def test_sides(self):
        g = BipartiteGraph([0, 1], [2, 3])
        g.add_edge(0, 2)
        assert g.side(0) == "left"
        assert g.side(2) == "right"
        assert g.is_left(1)
        assert not g.is_left(3)

    def test_same_side_edge_rejected(self):
        g = BipartiteGraph([0, 1], [2, 3])
        with pytest.raises(GraphError):
            g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_edge(2, 3)

    def test_auto_side_registration(self):
        g = BipartiteGraph([0], [])
        g.add_edge(0, 5)
        assert g.side(5) == "right"
        g.add_edge(5, 6)
        assert g.side(6) == "left"

    def test_orphan_edge_rejected(self):
        g = BipartiteGraph([0], [1])
        with pytest.raises(GraphError):
            g.add_edge(7, 8)

    def test_node_cannot_switch_sides(self):
        g = BipartiteGraph([0], [1])
        with pytest.raises(GraphError):
            g.add_right(0)

    def test_copy_preserves_sides(self):
        g = BipartiteGraph([0], [1])
        g.add_edge(0, 1, 4.0)
        h = g.copy()
        assert h.side(0) == "left"
        assert h.weight(0, 1) == 4.0

    def test_missing_side_raises(self):
        g = BipartiteGraph([0], [1])
        with pytest.raises(GraphError):
            g.side(9)

    def test_bipartition_is_the_declared_split(self):
        # a 2-coloring would put node 0 on the left; the declared split wins
        g = BipartiteGraph(left=[1], right=[0])
        g.add_edge(0, 1)
        assert g.bipartition() == ({1}, {0})

    def test_removed_node_leaves_its_side(self):
        # a MatchingService over a BipartiteGraph deletes nodes, then
        # certifies against bipartition(): a stale side would crash it
        g = BipartiteGraph([0, 1], [2])
        g.add_edge(0, 2)
        g.remove_node(1)
        assert g.bipartition() == ({0}, {2})


class TestCSRAdjacency:
    """Structural properties of the flat CSR snapshot (the engines' world).

    Checked over a batch of random graphs plus the degenerate shapes
    (empty, isolated nodes, non-contiguous ids) — property-style, since
    every delivery engine assumes these invariants without rechecking.
    """

    def graphs(self):
        import random

        from repro.graphs import gnp, path_graph, star_graph, uniform_weights

        yield Graph()
        lonely = Graph()
        lonely.add_nodes([3, 11, 7])
        yield lonely
        sparse = Graph()
        sparse.add_edge(100, 5, 2.5)
        sparse.add_edge(5, 42, 0.5)
        sparse.add_node(9)
        yield sparse
        yield path_graph(6)
        yield star_graph(5)
        for trial in range(6):
            yield gnp(14, 0.3, rng=random.Random(trial),
                      weight_fn=uniform_weights())

    def test_order_sorted_and_index_inverse(self):
        for g in self.graphs():
            csr = g.to_csr()
            assert list(csr.order) == sorted(g.nodes)
            assert all(csr.order[csr.index[v]] == v for v in csr.order)

    def test_indptr_monotone_and_covers_all_slots(self):
        for g in self.graphs():
            csr = g.to_csr()
            assert len(csr.indptr) == len(csr.order) + 1
            assert csr.indptr[0] == 0
            assert all(csr.indptr[i] <= csr.indptr[i + 1]
                       for i in range(len(csr.order)))
            assert csr.indptr[-1] == csr.num_slots == 2 * g.num_edges
            assert all(csr.degree_of(i) == g.degree(v)
                       for i, v in enumerate(csr.order))

    def test_rows_sorted_by_neighbor_id(self):
        for g in self.graphs():
            csr = g.to_csr()
            for i in range(len(csr.order)):
                row = [csr.order[csr.indices[e]]
                       for e in range(csr.indptr[i], csr.indptr[i + 1])]
                assert row == sorted(row)

    def test_rev_is_a_slot_involution(self):
        for g in self.graphs():
            csr = g.to_csr()
            for i in range(len(csr.order)):
                for e in range(csr.indptr[i], csr.indptr[i + 1]):
                    r = csr.rev[e]
                    assert csr.rev[r] == e  # involution
                    j = csr.indices[e]
                    # rev[e] really is the j -> i directed slot
                    assert csr.indptr[j] <= r < csr.indptr[j + 1]
                    assert csr.indices[r] == i

    def test_weights_match_dict_adjacency(self):
        for g in self.graphs():
            csr = g.to_csr()
            seen = set()
            for i, v in enumerate(csr.order):
                for e in range(csr.indptr[i], csr.indptr[i + 1]):
                    u = csr.order[csr.indices[e]]
                    assert csr.weights[e] == g.weight(v, u)
                    assert csr.weights[csr.rev[e]] == csr.weights[e]
                    seen.add(edge_key(v, u))
            assert seen == {edge_key(u, v) for u, v, _ in g.edges()}

    def test_snapshot_does_not_track_mutation(self):
        g = Graph()
        g.add_edge(0, 1)
        csr = g.to_csr()
        g.add_edge(1, 2)
        assert csr.num_slots == 2
        assert len(g.to_csr().indices) == 4
