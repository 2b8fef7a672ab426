"""Tests for the streaming matching service (repro.stream)."""

import json
import random

import pytest

import repro
from repro import run
from repro.observe.events import (
    ALL_KINDS,
    STRUCTURAL_KINDS,
    BatchEnd,
    BatchStart,
    JsonlTraceWriter,
    Repair,
    diff_traces,
    load_trace,
    render_timeline,
)
from repro.core.api import ALGORITHMS, stream_matching
from repro.graphs import Graph, gnp, path_graph
from repro.graphs.graph import GraphError
from repro.matching.sequential.blossom import max_cardinality
from repro.matching.verify import verify_matching
from repro.stream import (
    EdgeUpdate,
    MatchingService,
    as_update,
    load_updates,
    percentile,
    random_churn,
    replay_events,
    replay_events_legacy,
    replay_switch,
    save_updates,
)
from repro.switchsim import SwitchUpdateStream


# ---------------------------------------------------------------------------
# workload: EdgeUpdate, JSONL persistence, churn generator
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_update_validation(self):
        with pytest.raises(ValueError):
            EdgeUpdate("frobnicate", 0, 1)
        with pytest.raises(ValueError):
            EdgeUpdate("insert", 0)  # missing endpoint
        with pytest.raises(ValueError):
            EdgeUpdate("insert_node", 0, 1)  # node op with two endpoints

    def test_as_update_tuples(self):
        assert as_update(("insert", 1, 2, 3.0)) == EdgeUpdate("insert", 1, 2, 3.0)
        assert as_update(("delete", 1, 2)) == EdgeUpdate("delete", 1, 2)
        assert as_update(("insert_node", 7)) == EdgeUpdate("insert_node", 7)

    def test_jsonl_round_trip(self, tmp_path):
        updates = [EdgeUpdate("insert", 0, 1, 2.5),
                   EdgeUpdate("weight", 0, 1, 4.0),
                   EdgeUpdate("insert_node", 9),
                   EdgeUpdate("delete", 0, 1),
                   EdgeUpdate("delete_node", 9)]
        path = tmp_path / "ups.jsonl"
        assert save_updates(path, updates) == len(updates)
        assert list(load_updates(path)) == updates

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "insert", "u": 1}\n')
        with pytest.raises(ValueError):
            list(load_updates(path))

    def test_random_churn_is_replayable(self):
        g = gnp(12, 0.2, rng=5)
        updates = random_churn(g, 80, seed=1, weight_fraction=0.25)
        svc = MatchingService(g)
        svc.apply(updates)
        svc.commit()
        assert svc.verify_invariant()

    def test_percentile(self):
        assert percentile([], 99) == 0.0
        assert percentile([1.0], 50) == 1.0
        assert percentile(list(range(1, 101)), 50) == 50
        assert percentile(list(range(1, 101)), 95) == 96
        assert percentile(list(range(1, 101)), 100) == 100


# ---------------------------------------------------------------------------
# service basics: construction, validation, snapshots
# ---------------------------------------------------------------------------


class TestServiceBasics:
    def test_init_establishes_invariant(self):
        g = gnp(20, 0.2, rng=1)
        svc = MatchingService(g, k=2)
        assert svc.verify_invariant()
        assert svc.current_ratio() >= svc.guarantee - 1e-9
        assert svc.history[0].mode == "init"

    def test_eps_resolves_to_k(self):
        assert MatchingService(eps=0.25).k == 3
        assert MatchingService(k=4).k == 4
        with pytest.raises(ValueError):
            MatchingService(k=2, eps=0.1)
        with pytest.raises(ValueError):
            MatchingService(k=0)

    @pytest.mark.parametrize("tier", ["mpc_kernel", "turbo"])
    def test_bad_execution_rejected_at_construction(self, tier):
        # recompute escalations run on CONGEST networks: a foreign or
        # unknown tier must fail here, not inside a later commit() after
        # the batch was applied
        with pytest.raises(ValueError, match=f"'{tier}'"):
            MatchingService(gnp(20, 0.2, rng=1), k=2, execution=tier)

    def test_graph_is_copied(self):
        g = path_graph(4)
        svc = MatchingService(g, k=1)
        svc.insert_edge(0, 3)
        svc.commit()
        assert not g.has_edge(0, 3)

    def test_enqueue_validates_against_virtual_state(self):
        svc = MatchingService(path_graph(3))
        with pytest.raises(GraphError):
            svc.delete_edge(0, 2)  # never existed
        svc.delete_edge(0, 1)
        with pytest.raises(GraphError):
            svc.delete_edge(0, 1)  # already pending-deleted
        svc.insert_edge(0, 1)
        svc.delete_edge(0, 1)  # pending re-insert makes it deletable again
        with pytest.raises(GraphError):
            svc.insert_edge(5, 5)
        with pytest.raises(GraphError):
            svc.insert_edge(0, 2, weight=-1)
        with pytest.raises(GraphError):
            svc.set_weight(7, 8, 2.0)

    def test_delete_node_invalidates_pending_incident_edges(self):
        svc = MatchingService(path_graph(4))
        svc.delete_node(1)
        with pytest.raises(GraphError):
            svc.delete_edge(0, 1)  # died with the node
        with pytest.raises(GraphError):
            svc.set_weight(1, 2, 5.0)
        svc.insert_node(1)
        with pytest.raises(GraphError):
            svc.delete_edge(1, 2)  # re-inserted node comes back bare
        svc.commit()
        assert svc.graph.has_node(1)
        assert not svc.graph.has_edge(0, 1)
        assert svc.verify_invariant()

    def test_commit_is_noop_when_nothing_pending(self):
        svc = MatchingService(path_graph(4))
        stats = svc.commit()
        assert stats.updates == 0
        assert svc.epoch == 0

    def test_weight_only_batch_seeds_nothing(self):
        svc = MatchingService(path_graph(6))
        for _ in range(3):
            svc.set_weight(0, 1, 5.0)
            svc.set_weight(2, 3, 7.0)
        stats = svc.commit()
        assert stats.updates == 6
        assert stats.seeds == 0
        assert stats.nodes_explored == 0
        assert svc.graph.weight(0, 1) == 5.0

    def test_insert_delete_pair_coalesces_to_nothing(self):
        svc = MatchingService(path_graph(6))
        svc.insert_edge(0, 5)
        svc.delete_edge(0, 5)
        stats = svc.commit()
        assert stats.seeds == 0
        assert not svc.graph.has_edge(0, 5)

    def test_broken_matched_edge_seeds_despite_reinsert(self):
        svc = MatchingService(path_graph(2))  # single edge, matched
        assert svc.matching.size == 1
        svc.delete_edge(0, 1)
        svc.insert_edge(0, 1)
        stats = svc.commit()
        assert stats.seeds == 2  # net topology unchanged, matching broke
        assert svc.matching.size == 1  # repair re-matched it
        assert svc.verify_invariant()

    def test_snapshot_epoch_semantics(self):
        svc = MatchingService(path_graph(4))
        snap0 = svc.snapshot()
        assert snap0.epoch == 0
        assert svc.snapshot() is snap0  # cached per epoch
        svc.insert_edge(0, 3)
        assert svc.snapshot() is snap0  # pending updates don't leak
        svc.commit()
        snap1 = svc.snapshot()
        assert snap1.epoch == 1
        assert snap1.matching is not svc.matching
        # the snapshot's matching is a private copy
        assert snap1.size == svc.matching.size

    def test_auto_commit_batches(self):
        svc = MatchingService(batch=4)
        for i in range(8):
            svc.insert_node(i)
        assert svc.epoch == 2
        assert svc.pending == 0

    def test_context_manager_commits_and_closes(self):
        with MatchingService(path_graph(4)) as svc:
            svc.insert_edge(0, 3)
        assert svc.epoch == 1
        with pytest.raises(RuntimeError):
            svc.insert_edge(0, 2)

    def test_result_totals(self):
        g = gnp(14, 0.2, rng=2)
        svc = MatchingService(g, k=2, seed=3)
        svc.apply(random_churn(g, 50, seed=4))
        result = svc.result(certify_result=True)
        assert result.epochs == svc.epoch
        assert result.updates == 50
        assert result.k == 2
        assert result.guarantee == pytest.approx(2 / 3)
        assert result.certificate.valid
        assert "StreamResult" in repr(result)


class TestGraphSetWeight:
    def test_set_weight_decreases(self):
        g = path_graph(3)
        g.set_weight(0, 1, 9.0)
        assert g.weight(0, 1) == 9.0
        g.set_weight(0, 1, 0.5)  # add_edge would refuse to go down
        assert g.weight(0, 1) == 0.5

    def test_set_weight_validation(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.set_weight(0, 2, 1.0)
        with pytest.raises(GraphError):
            g.set_weight(0, 1, 0.0)


# ---------------------------------------------------------------------------
# golden matrix: batched maintenance vs from-scratch recompute
# ---------------------------------------------------------------------------


class TestBatchedVsFromScratch:
    """Batched repair must be invariant-equivalent to recomputing."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("batch", [1, 7, 50])
    @pytest.mark.parametrize("insert_fraction", [0.35, 0.65])
    def test_matrix(self, seed, batch, insert_fraction):
        g = gnp(14, 0.2, rng=seed)
        updates = random_churn(g, 50, seed=seed + 10,
                               insert_fraction=insert_fraction,
                               weight_fraction=0.2)
        svc = MatchingService(g, k=2, seed=seed, batch=batch)
        svc.apply(updates)
        svc.commit()
        # checker-verified: the maintained matching is valid and satisfies
        # the invariant, hence is a (1 - 1/(k+1))-approximation (Lemma 3.3)
        verify_matching(svc.graph, svc.matching)
        assert svc.verify_invariant()
        # invariant-equivalence to a from-scratch recompute on the final
        # graph: both sides satisfy the same invariant, so both clear the
        # same ratio bar against the exact optimum
        scratch = MatchingService(svc.graph, k=2, seed=seed)
        assert scratch.verify_invariant()
        optimum = max_cardinality(svc.graph).size
        bar = svc.guarantee * optimum - 1e-9
        assert svc.matching.size >= bar
        assert scratch.matching.size >= bar

    def test_node_churn_stream(self):
        g = gnp(12, 0.3, rng=3)
        svc = MatchingService(g, k=2, batch=5)
        next_id = 12
        import random as _random

        rng = _random.Random(7)
        alive = set(range(12))
        for _ in range(20):
            if alive and rng.random() < 0.4:
                victim = rng.choice(sorted(alive))
                svc.delete_node(victim)
                alive.discard(victim)
            else:
                svc.insert_node(next_id)
                for t in rng.sample(sorted(alive), min(2, len(alive))):
                    svc.insert_edge(next_id, t)
                alive.add(next_id)
                next_id += 1
        svc.commit()
        verify_matching(svc.graph, svc.matching)
        assert svc.verify_invariant()


# ---------------------------------------------------------------------------
# per-event legacy repair: golden-pinned, bit-identical
# ---------------------------------------------------------------------------

# Captured from the pre-1.7 per-event DynamicMatcher (commit 6e4dccb) with
# the driver in _drive_legacy below.  A repair="legacy" service committing
# after every update must reproduce these bit for bit.
SHIM_GOLDENS = {
    0: {
        "edges": [(0, 5), (3, 12), (4, 11), (7, 9), (8, 19)],
        "size": 5, "graph_nodes": 15, "graph_edges": 22,
        "history": [
            ("init", 4, 114), ("insert_edge", 1, 8), ("delete_edge", 0, 12),
            ("insert_edge", 0, 14), ("delete_edge", 0, 5),
            ("insert_edge", 0, 19), ("insert_node", 0, 0),
            ("insert_edge", 0, 13), ("insert_edge", 0, 15),
            ("delete_node", 0, 8), ("insert_edge", 0, 18),
            ("insert_edge", 1, 22), ("insert_edge", 1, 54),
            ("insert_edge", 0, 17), ("insert_edge", 0, 20),
            ("insert_node", 0, 0), ("insert_edge", 0, 25),
            ("insert_edge", 0, 23), ("insert_edge", 0, 22),
            ("insert_edge", 0, 23), ("delete_node", 1, 70),
            ("insert_edge", 0, 24), ("insert_edge", 0, 24),
            ("delete_node", 0, 0), ("insert_edge", 0, 24),
            ("delete_node", 0, 29), ("insert_edge", 0, 22),
            ("insert_edge", 0, 22), ("insert_edge", 0, 22),
            ("delete_node", 0, 11), ("insert_edge", 0, 22),
            ("insert_edge", 0, 22), ("insert_edge", 0, 22),
            ("insert_edge", 0, 22), ("delete_edge", 0, 22),
            ("insert_node", 0, 0), ("delete_node", 1, 60),
            ("insert_node", 0, 0), ("insert_edge", 0, 22),
            ("insert_edge", 0, 22), ("insert_node", 0, 0),
        ],
    },
    1: {
        "edges": [(0, 3), (1, 2), (5, 9), (6, 8), (12, 13)],
        "size": 5, "graph_nodes": 13, "graph_edges": 20,
        "history": [
            ("init", 5, 198), ("insert_edge", 1, 23), ("insert_edge", 0, 25),
            ("delete_node", 0, 0), ("delete_edge", 1, 80),
            ("insert_edge", 0, 19), ("insert_node", 0, 0),
            ("insert_edge", 0, 24), ("insert_edge", 0, 27),
            ("insert_edge", 0, 23), ("insert_edge", 0, 26),
            ("insert_edge", 0, 25), ("delete_edge", 0, 27),
            ("insert_edge", 0, 28), ("delete_edge", 1, 68),
            ("insert_edge", 0, 26), ("delete_edge", 0, 30),
            ("insert_edge", 0, 30), ("delete_edge", 1, 71),
            ("insert_edge", 1, 90), ("delete_node", 0, 14),
            ("insert_edge", 0, 26), ("insert_node", 0, 0),
            ("insert_edge", 0, 28), ("insert_edge", 0, 28),
            ("insert_edge", 0, 28), ("insert_edge", 0, 28),
            ("insert_edge", 0, 28), ("insert_edge", 0, 28),
            ("insert_edge", 0, 28), ("delete_edge", 0, 28),
            ("insert_edge", 0, 28), ("insert_edge", 0, 28),
            ("insert_node", 0, 0), ("insert_edge", 0, 28),
            ("delete_node", 1, 143), ("insert_edge", 0, 26),
            ("delete_node", 1, 96), ("insert_edge", 0, 24),
            ("insert_edge", 0, 24), ("delete_node", 0, 33),
        ],
    },
    2: {
        "edges": [(0, 4), (1, 10), (2, 13), (3, 7), (5, 11), (6, 9),
                  (12, 25)],
        "size": 7, "graph_nodes": 15, "graph_edges": 27,
        "history": [
            ("init", 5, 172), ("insert_edge", 0, 23), ("insert_edge", 0, 23),
            ("insert_edge", 0, 26), ("insert_node", 0, 0),
            ("insert_edge", 0, 24), ("insert_edge", 0, 28),
            ("insert_edge", 1, 72), ("delete_node", 0, 0),
            ("insert_edge", 0, 27), ("insert_edge", 0, 28),
            ("insert_edge", 0, 28), ("insert_node", 0, 0),
            ("insert_edge", 0, 28), ("delete_edge", 0, 27),
            ("insert_edge", 0, 28), ("insert_edge", 0, 26),
            ("insert_edge", 0, 28), ("insert_edge", 0, 25),
            ("delete_edge", 0, 29), ("insert_edge", 0, 26),
            ("delete_edge", 0, 27), ("insert_edge", 0, 23),
            ("insert_edge", 1, 71), ("insert_edge", 0, 30),
            ("delete_node", 0, 42), ("insert_edge", 0, 24),
            ("insert_edge", 0, 28), ("insert_edge", 0, 28),
            ("insert_edge", 0, 28), ("insert_edge", 0, 24),
            ("delete_edge", 0, 26), ("insert_edge", 1, 89),
            ("insert_edge", 0, 30), ("insert_edge", 0, 30),
            ("insert_node", 0, 0), ("insert_edge", 0, 30),
            ("delete_node", 1, 120), ("insert_edge", 0, 28),
            ("delete_edge", 0, 28), ("delete_edge", 0, 28),
        ],
    },
}


def _drive_legacy(seed, n=14, steps=40, k=2):
    rng = random.Random(seed)
    svc = MatchingService(gnp(n, 0.2, rng=seed), k=k, repair="legacy")

    def update(operation, *args, **kwargs):  # one commit per update
        getattr(svc, operation)(*args, **kwargs)
        svc.commit(operation=operation)

    for step in range(steps):
        roll = rng.random()
        if roll < 0.45:
            u, v = rng.sample(range(n), 2)
            if svc.graph.has_edge(u, v):
                update("delete_edge", u, v)
            else:
                update("insert_edge", u, v, weight=1.0 + rng.randrange(4))
        elif roll < 0.55 and svc.graph.num_nodes > 4:
            update("delete_node", rng.choice(sorted(svc.graph.nodes)))
        elif roll < 0.65:
            update("insert_node", n + step)
        else:
            u, v = rng.sample(sorted(svc.graph.nodes), 2)
            if not svc.graph.has_edge(u, v):
                update("insert_edge", u, v)
            else:
                update("delete_edge", u, v)
    return svc


class TestShimGoldens:
    @pytest.mark.parametrize("seed", sorted(SHIM_GOLDENS))
    def test_bit_identical_to_pre_shim_behavior(self, seed):
        golden = SHIM_GOLDENS[seed]
        svc = _drive_legacy(seed)
        hist = [(h.operation, h.augmentations, h.nodes_explored)
                for h in svc.history]
        assert sorted(svc.matching.edges()) == golden["edges"]
        assert svc.matching.size == golden["size"]
        assert svc.graph.num_nodes == golden["graph_nodes"]
        assert svc.graph.num_edges == golden["graph_edges"]
        assert hist == golden["history"]

    def test_fast_mode_is_invariant_equivalent_to_legacy(self):
        g = gnp(12, 0.25, rng=4)
        updates = random_churn(g, 30, seed=5)
        legacy = MatchingService(g, k=2, repair="legacy")
        for up in updates:  # per-event: one commit per update
            legacy.apply([up]).commit()
        svc = MatchingService(g, k=2)
        svc.apply(updates)
        svc.commit()
        assert svc.verify_invariant() and legacy.verify_invariant()
        optimum = max_cardinality(svc.graph).size
        assert svc.matching.size >= svc.guarantee * optimum - 1e-9
        assert legacy.matching.size >= legacy.guarantee * optimum - 1e-9


# ---------------------------------------------------------------------------
# events: batch lifecycle on the bus, traces, rendering
# ---------------------------------------------------------------------------


class TestStreamEvents:
    def test_new_kinds_are_structural(self):
        for kind in ("batch_start", "batch_end", "repair"):
            assert kind in ALL_KINDS
            assert kind in STRUCTURAL_KINDS

    def test_batch_lifecycle_events(self):
        events = []
        svc = MatchingService(path_graph(4), observe=events.append,
                              name="svc")
        svc.insert_edge(0, 3)
        svc.delete_edge(1, 2)
        svc.commit()
        starts = [e for e in events if isinstance(e, BatchStart)]
        ends = [e for e in events if isinstance(e, BatchEnd)]
        repairs = [e for e in events if isinstance(e, Repair)]
        assert [e.epoch for e in starts] == [1]
        assert starts[0].updates == 2 and starts[0].service == "svc"
        assert ends[0].epoch == 1 and ends[0].size == svc.matching.size
        # one init repair (epoch 0) + one batch repair (epoch 1)
        assert [(r.epoch, r.mode) for r in repairs] == [(0, "init"),
                                                        (1, "local")]

    def test_trace_round_trip_and_equality(self, tmp_path):
        def drive(path):
            g = gnp(10, 0.3, rng=1)
            svc = MatchingService(g, k=2, seed=2, trace=path, batch=4)
            svc.apply(random_churn(g, 20, seed=3))
            svc.close()

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        drive(a)
        drive(b)
        trace = load_trace(a)
        assert any(e.kind == "batch_end" for e in trace)
        assert any(e.kind == "repair" for e in trace)
        # bit-identical run to run (no wall-clock in the stream)
        assert diff_traces(trace, load_trace(b)) is None
        timeline = render_timeline(trace)
        assert "batch" in timeline and "repair" in timeline

    def test_profiler_aggregates_batches_into_one_row(self):
        g = gnp(10, 0.3, rng=1)
        svc = MatchingService(g, k=2, profile=True, batch=4)
        svc.apply(random_churn(g, 20, seed=3))
        result = svc.result()
        svc.close()
        rows = [p for p in result.profile.phases if p.phase == "batch"]
        assert len(rows) == 1
        assert rows[0].entries == svc.epoch


# ---------------------------------------------------------------------------
# unified API: run("stream", ...), registry, JSONL input
# ---------------------------------------------------------------------------


class TestUnifiedAPI:
    def test_registry_entries(self):
        assert ALGORITHMS["stream"] is stream_matching
        assert ALGORITHMS["matching_service"] is stream_matching

    def test_run_stream(self):
        g = gnp(14, 0.2, rng=2)
        result = run("stream", g, updates=random_churn(g, 40, seed=1),
                     eps=0.25, seed=1)
        assert result.algorithm == "matching_service"
        assert result.updates == 40
        assert result.certificate.valid
        assert result.certificate.cardinality_ratio >= result.guarantee - 1e-9

    def test_run_stream_from_trace_file(self, tmp_path):
        g = gnp(10, 0.25, rng=3)
        path = tmp_path / "ups.jsonl"
        save_updates(path, random_churn(g, 25, seed=2))
        result = stream_matching(g, updates=path, k=2)
        assert result.updates == 25

    def test_top_level_exports(self):
        assert repro.MatchingService is MatchingService
        assert repro.stream_matching is stream_matching
        assert repro.EdgeUpdate is EdgeUpdate


# ---------------------------------------------------------------------------
# recompute escalation
# ---------------------------------------------------------------------------


class TestRecomputeEscalation:
    def test_large_batch_escalates(self):
        g = gnp(24, 0.15, rng=6)
        svc = MatchingService(g, k=2, seed=5,
                              recompute_min_seeds=4, recompute_fraction=0.2)
        # churn enough edges that the coalesced seed set crosses the bar
        updates = random_churn(g, 60, seed=7, insert_fraction=0.8)
        svc.apply(updates)
        stats = svc.commit()
        assert stats.mode == "recompute"
        assert svc.recomputes == 1
        assert svc.verify_invariant()
        verify_matching(svc.graph, svc.matching)
        optimum = max_cardinality(svc.graph).size
        assert svc.matching.size >= svc.guarantee * optimum - 1e-9

    def test_recompute_events_flow_to_service_bus(self):
        events = []
        g = gnp(20, 0.2, rng=8)
        svc = MatchingService(g, k=2, observe=events.append,
                              recompute_min_seeds=2, recompute_fraction=0.1)
        svc.apply(random_churn(g, 40, seed=9, insert_fraction=0.8))
        svc.commit()
        repairs = [e for e in events if isinstance(e, Repair)]
        assert any(r.mode == "recompute" for r in repairs)
        # the nested static run published its rounds onto the same bus
        assert any(e.kind == "round_end" for e in events)

    def test_small_batches_stay_local(self):
        g = gnp(20, 0.2, rng=8)
        svc = MatchingService(g, k=2)  # default thresholds: 256 seeds
        svc.insert_edge(0, 19)
        stats = svc.commit()
        assert stats.mode == "local"
        assert svc.recomputes == 0


# ---------------------------------------------------------------------------
# switch workload + replay harnesses
# ---------------------------------------------------------------------------


class TestSwitchUpdateStream:
    def test_occupancy_transitions(self):
        stream = SwitchUpdateStream(4, pattern="uniform", load=1.0, seed=0)
        first = stream.arrivals(0)
        assert all(u.op == "insert" and u.weight == 1.0 for u in first)
        # same VOQs hit again -> weight updates, never duplicate inserts
        seen = {(u.u, u.v) for u in first}
        second = [u for u in stream.arrivals(1) if (u.u, u.v) in seen]
        assert all(u.op == "weight" for u in second)

    def test_departures_drain_to_delete(self):
        from repro.matching.core import Matching

        stream = SwitchUpdateStream(4, load=0.0, seed=0)
        stream.queues[(0, 1)] = 2
        served = Matching([(0, stream.output_node(1))])
        ups = stream.departures(served)
        assert [u.op for u in ups] == ["weight"]
        ups = stream.departures(served)
        assert [u.op for u in ups] == ["delete"]
        assert stream.backlog == 0
        assert stream.departures(served) == []  # drained: no-op

    def test_closed_loop_replay(self):
        report = replay_switch(ports=6, cycles=120, load=0.6, seed=1,
                               batch=16, spot_checks=2)
        assert report.events > 0
        assert report.epochs == report.batches
        assert all(c["invariant"] for c in report.spot_checks)
        assert report.extra["cells_departed"] > 0

    def test_max_events_stops_early(self):
        report = replay_switch(ports=6, cycles=10 ** 6, load=0.6, seed=1,
                               batch=16, spot_checks=0, max_events=100)
        assert 100 <= report.events <= 120  # stops at the cycle boundary

    def test_recorded_stream_rebuilds_the_same_graph(self):
        record = []
        live_svc = MatchingService(k=2, seed=2)
        live = replay_switch(ports=6, cycles=100, load=0.6, seed=2,
                             batch=16, spot_checks=0, record=record,
                             service=live_svc)
        replay_svc = MatchingService(k=2, seed=2)
        replayed = replay_events(record, batch=16, service=replay_svc)
        # graph evolution depends only on the events, so the recorded
        # stream rebuilds the exact demand graph (batch boundaries differ,
        # so the matching trajectory may not — the invariant must hold on
        # both)
        assert replayed.events == live.events
        assert replay_svc.graph.edge_set() == live_svc.graph.edge_set()
        assert live_svc.verify_invariant()
        assert replay_svc.verify_invariant()

    def test_legacy_baseline_replay(self):
        record = []
        replay_switch(ports=4, cycles=40, load=0.5, seed=3, batch=8,
                      spot_checks=0, record=record)
        report = replay_events_legacy(record, k=2, limit=50)
        assert report.events == min(50, len(record))
        assert report.updates_per_sec > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestStreamCLI:
    def test_switch_workload_with_save_and_profile(self, tmp_path, capsys):
        from repro.__main__ import main

        saved = tmp_path / "ups.jsonl"
        trace = tmp_path / "stream.jsonl"
        rc = main(["stream", "--ports", "6", "--cycles", "60",
                   "--batch", "16", "--spot-checks", "1",
                   "--save", str(saved), "--trace", str(trace),
                   "--profile"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "updates/sec" in out
        assert "batch (matching_service)" in out
        assert saved.exists() and trace.exists()
        assert any(e.kind == "batch_end" for e in load_trace(trace))

    def test_replay_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        g = gnp(10, 0.25, rng=1)
        path = tmp_path / "ups.jsonl"
        save_updates(path, random_churn(g, 30, seed=2))
        rc = main(["stream", "--replay", str(path), "--graph", "gnp:10:0.25",
                   "--seed", "1", "--batch", "8", "--spot-checks", "1"])
        assert rc == 0
        assert "replayed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["stream", "--cycles", "5", "--execution", "mpc_kernel"],
        ["stream", "--cycles", "5", "--execution", "turbo"],
        ["mpc", "gnp:200:0.05", "--execution", "kernel"],
        ["mpc", "gnp:200:0.05", "--execution", "turbo"],
    ], ids=["stream-foreign", "stream-unknown", "mpc-foreign",
            "mpc-unknown"])
    def test_bad_execution_is_a_one_line_usage_error(self, argv, capsys):
        from repro.__main__ import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("--execution: ")
        assert f"'{argv[-1]}'" in lines[0]

    def test_execution_help_names_each_models_tiers(self, capsys,
                                                     monkeypatch):
        from repro.__main__ import build_parser
        from repro.models.execution import MPC_TIERS, TIERS

        monkeypatch.setenv("COLUMNS", "300")  # no wrapping inside names
        parser = build_parser()
        for command, tiers in (("mpc", MPC_TIERS), ("stream", TIERS)):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            text = capsys.readouterr().out
            assert all(tier in text for tier in tiers), (command, text)
            # the deleted per-node "sharded" rung is offered nowhere
            assert "sharded," not in text, (command, text)
