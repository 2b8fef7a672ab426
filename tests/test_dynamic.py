"""Tests for per-event dynamic matching maintenance.

Per-event repair is a ``MatchingService(repair="legacy")`` that commits
after every update: each update is seeded, repaired and recorded on its
own, the baseline the batched repair is measured against.
"""

import random

import pytest

from repro.graphs import gnp, path_graph
from repro.graphs.graph import GraphError
from repro.matching.verify import verify_matching
from repro.stream import MatchingService


def per_event(graph=None, k=2):
    return MatchingService(graph, k=k, repair="legacy")


def update(svc, operation, *args):
    """Enqueue one update and commit it alone; returns its BatchStats."""
    getattr(svc, operation)(*args)
    return svc.commit(operation=operation)


class TestBasics:
    def test_empty_start(self):
        svc = per_event()
        assert svc.matching.size == 0
        assert svc.guarantee == pytest.approx(2 / 3)

    def test_init_establishes_invariant(self):
        svc = per_event(gnp(20, 0.2, rng=1))
        assert svc.verify_invariant()
        assert svc.current_ratio() >= svc.guarantee - 1e-9

    def test_k_validation(self):
        with pytest.raises(ValueError):
            per_event(k=0)

    def test_graph_is_copied(self):
        g = path_graph(4)
        svc = per_event(g, k=1)
        update(svc, "insert_edge", 0, 3)
        assert not g.has_edge(0, 3)


class TestSingleUpdates:
    def test_insert_edge_matches_it(self):
        svc = per_event(k=1)
        update(svc, "insert_node", 0)
        update(svc, "insert_node", 1)
        stats = update(svc, "insert_edge", 0, 1)
        assert svc.matching.contains_edge(0, 1)
        assert stats.augmentations == 1

    def test_delete_matched_edge_repairs(self):
        # path 0-1-2-3: optimal matching {(0,1),(2,3)}
        svc = per_event(path_graph(4))
        assert svc.matching.size == 2
        # delete a matched edge; the survivor should re-augment
        matched = list(svc.matching.edges())[0]
        update(svc, "delete_edge", *matched)
        assert svc.verify_invariant()

    def test_delete_unmatched_edge_is_cheap(self):
        svc = per_event(path_graph(4))
        # (1,2) is never matched in the optimal path matching
        if not svc.matching.contains_edge(1, 2):
            stats = update(svc, "delete_edge", 1, 2)
            assert stats.augmentations == 0

    def test_delete_node(self):
        svc = per_event(path_graph(5))
        update(svc, "delete_node", 2)
        assert svc.verify_invariant()
        verify_matching(svc.graph, svc.matching)

    def test_delete_missing_node_raises(self):
        svc = per_event()
        with pytest.raises(GraphError):
            svc.delete_node(5)


class TestRandomUpdateSequences:
    @pytest.mark.parametrize("seed", range(3))
    def test_invariant_and_ratio_throughout(self, seed):
        rng = random.Random(seed)
        svc = per_event(gnp(14, 0.2, rng=seed))
        for step in range(30):
            u, v = rng.sample(range(14), 2)
            if svc.graph.has_edge(u, v):
                update(svc, "delete_edge", u, v)
            else:
                update(svc, "insert_edge", u, v)
            verify_matching(svc.graph, svc.matching)
            if step % 10 == 9:
                assert svc.verify_invariant()
                assert svc.current_ratio() >= svc.guarantee - 1e-9

    def test_node_churn(self):
        rng = random.Random(7)
        svc = per_event(gnp(12, 0.3, rng=3))
        alive = set(range(12))
        next_id = 12
        for _ in range(15):
            if alive and rng.random() < 0.4:
                victim = rng.choice(sorted(alive))
                update(svc, "delete_node", victim)
                alive.discard(victim)
            else:
                update(svc, "insert_node", next_id)
                targets = rng.sample(sorted(alive), min(2, len(alive)))
                alive.add(next_id)
                for t in targets:
                    update(svc, "insert_edge", next_id, t)
                next_id += 1
            verify_matching(svc.graph, svc.matching)
        assert svc.verify_invariant()

    def test_history_recorded(self):
        svc = per_event(path_graph(3), k=1)
        before = len(svc.history)
        update(svc, "insert_edge", 0, 2)
        assert len(svc.history) == before + 1
        assert svc.history[-1].operation == "insert_edge"


class TestLocality:
    def test_work_does_not_scale_with_n(self):
        # an edge deletion far from everything touches a bounded region
        explored = []
        for n in (40, 160):
            svc = per_event(path_graph(n))
            matched = next(e for e in svc.matching.edges() if e[0] > 4)
            stats = update(svc, "delete_edge", *matched)
            explored.append(stats.nodes_explored)
        # ball sizes on a path are O(k); allow generous slack
        assert max(explored) <= 40
        assert abs(explored[0] - explored[1]) <= 20
