"""Tests for the CONGEST simulator: messages, policies, metrics, engine."""

import pytest

from repro.congest import (
    BROADCAST,
    BandwidthExceeded,
    BandwidthPolicy,
    CONGEST,
    LOCAL,
    Metrics,
    MessageError,
    Mode,
    Network,
    NodeAlgorithm,
    PIPELINE,
    ProtocolError,
    congest,
    exchange_tokens,
    flood_max,
    int_bits,
    log2n,
    payload_bits,
    pipeline,
)
from repro.graphs import cycle_graph, gnp, path_graph, star_graph


class TestPayloadBits:
    def test_none_and_bool(self):
        assert payload_bits(None) == 1
        assert payload_bits(True) == 1
        assert payload_bits(False) == 1

    def test_int_scaling(self):
        assert payload_bits(0) == int_bits(0)
        assert payload_bits(1) < payload_bits(10 ** 9)
        assert payload_bits(-5) == payload_bits(5)

    def test_float(self):
        assert payload_bits(3.14) == 64

    def test_str(self):
        assert payload_bits("ab") > payload_bits("a")

    def test_containers(self):
        assert payload_bits((1, 2)) > payload_bits(1) + payload_bits(2)
        assert payload_bits({"a": 1}) > payload_bits("a") + payload_bits(1)
        assert payload_bits([1]) == payload_bits((1,))

    def test_unknown_type_raises(self):
        with pytest.raises(MessageError):
            payload_bits(object())

    def test_log2n(self):
        assert log2n(2) == 1
        assert log2n(1024) == 10
        assert log2n(1) == 1  # clamped


class TestPolicies:
    def test_local_never_charges(self):
        assert LOCAL.charge(10 ** 6, 16, 0, 1) == 0

    def test_congest_raises_over_budget(self):
        policy = congest(multiplier=1)
        with pytest.raises(BandwidthExceeded):
            policy.charge(policy.budget_bits(16) + 1, 16, 0, 1)

    def test_congest_allows_within_budget(self):
        assert CONGEST.charge(8, 16, 0, 1) == 0

    def test_pipeline_charges_chunks(self):
        policy = pipeline(multiplier=1)
        budget = policy.budget_bits(16)
        assert policy.charge(budget, 16, 0, 1) == 0
        assert policy.charge(budget + 1, 16, 0, 1) == 1
        assert policy.charge(3 * budget, 16, 0, 1) == 2

    def test_budget_scales_with_n(self):
        assert CONGEST.budget_bits(1 << 20) == 16 * 20


class TestMetrics:
    def test_round_and_message_recording(self):
        m = Metrics()
        m.record_round("p")
        m.record_message(10)
        m.record_message(30)
        assert m.rounds == 1
        assert m.messages == 2
        assert m.total_bits == 40
        assert m.max_message_bits == 30
        assert m.protocol_rounds == {"p": 1}

    def test_pipelined_rounds(self):
        m = Metrics()
        m.record_round("p", extra_pipeline_rounds=3)
        assert m.total_rounds == 4

    def test_snapshot_delta(self):
        m = Metrics()
        m.record_round("a")
        snap = m.snapshot()
        m.record_round("a")
        m.record_message(5)
        delta = m.delta_since(snap)
        assert delta.rounds == 1
        assert delta.messages == 1

    def test_absorb(self):
        a = Metrics()
        a.record_round("x")
        b = Metrics()
        b.record_round("y", 1)
        b.record_message(99)
        a.absorb(b)
        assert a.total_rounds == 3
        assert a.max_message_bits == 99
        assert a.protocol_rounds == {"x": 1, "y": 2}

    def test_charge_rounds(self):
        m = Metrics()
        m.charge_rounds("wrap", 2)
        assert m.rounds == 2
        assert m.protocol_rounds["wrap"] == 2

    def test_str(self):
        assert "rounds=" in str(Metrics())


class _PingNode(NodeAlgorithm):
    """Sends its id once; records what it hears; halts."""

    def start(self):
        return {BROADCAST: self.node_id}

    def on_round(self, inbox):
        return self.halt(sorted(inbox.values()))


class _ChattyNode(NodeAlgorithm):
    """Passive node that never halts or resends — must quiesce."""

    passive = True

    def start(self):
        return {BROADCAST: 1}

    def on_round(self, inbox):
        return {}


class _LivelockNode(NodeAlgorithm):
    def start(self):
        return {BROADCAST: 0}

    def on_round(self, inbox):
        return {BROADCAST: 0}


class _BadTargetNode(NodeAlgorithm):
    def start(self):
        return {999: 1}

    def on_round(self, inbox):
        return {}


class TestNetwork:
    def test_broadcast_delivery(self):
        g = star_graph(3)
        net = Network(g, seed=0)
        result = net.run(_PingNode, protocol="ping")
        assert result.output_of(0) == [1, 2, 3]
        assert result.output_of(1) == [0]
        assert result.all_finished

    def test_metrics_accumulate_across_runs(self):
        g = path_graph(3)
        net = Network(g, seed=0)
        net.run(_PingNode)
        r1 = net.metrics.rounds
        net.run(_PingNode)
        assert net.metrics.rounds > r1

    def test_quiescence_detection(self):
        g = path_graph(3)
        net = Network(g, seed=0)
        result = net.run(_ChattyNode, protocol="chatty")
        assert not result.all_finished
        assert result.rounds <= 3

    def test_livelock_guard(self):
        g = path_graph(2)
        net = Network(g, seed=0)
        with pytest.raises(ProtocolError):
            net.run(_LivelockNode, max_rounds=10)

    def test_bad_target_rejected(self):
        g = path_graph(2)
        net = Network(g, seed=0)
        with pytest.raises(ProtocolError):
            net.run(_BadTargetNode)

    def test_round_that_raises_is_not_counted(self):
        # every tier records a round only after its computation returns:
        # the round-2 traffic was delivered (and is paid for), but the
        # round itself never completed
        class CrashAtRoundTwo(NodeAlgorithm):
            def start(self):
                self.rounds = 0
                return {BROADCAST: 0}

            def on_round(self, inbox):
                self.rounds += 1
                if self.rounds == 2:
                    raise RuntimeError("node crashed")
                return {BROADCAST: self.rounds}

        net = Network(path_graph(4), policy=LOCAL, seed=0)
        with pytest.raises(RuntimeError, match="node crashed"):
            net.run(CrashAtRoundTwo, protocol="crash")
        assert net.metrics.rounds == 1
        assert net.metrics.protocol_rounds == {"crash": 1}
        assert net.metrics.messages == 12

    def test_node_rng_deterministic(self):
        g = path_graph(2)
        a = Network(g, seed=42).node_rng(0).random()
        b = Network(g, seed=42).node_rng(0).random()
        assert a == b
        c = Network(g, seed=43).node_rng(0).random()
        assert a != c

    def test_node_rng_differs_per_node(self):
        net = Network(path_graph(2), seed=1)
        assert net.node_rng(0).random() != net.node_rng(1).random()

    def test_congest_enforcement_in_engine(self):
        class BigTalker(NodeAlgorithm):
            def start(self):
                return {BROADCAST: tuple(range(500))}

            def on_round(self, inbox):
                return self.halt()

        net = Network(path_graph(2), policy=CONGEST, seed=0)
        with pytest.raises(BandwidthExceeded):
            net.run(BigTalker)

    def test_pipeline_charges_in_engine(self):
        class BigTalker(NodeAlgorithm):
            def start(self):
                return {BROADCAST: tuple(range(500))}

            def on_round(self, inbox):
                return self.halt()

        net = Network(path_graph(2), policy=PIPELINE, seed=0)
        net.run(BigTalker)
        assert net.metrics.pipelined_extra_rounds > 0

    def test_global_check_counter(self):
        net = Network(path_graph(2), seed=0)
        net.global_check()
        assert net.metrics.global_checks == 1


class TestUtilities:
    def test_flood_max_reaches_everyone(self):
        g = path_graph(6)
        net = Network(g, seed=0)
        values = {v: v * 10 for v in g.nodes}
        result = flood_max(net, values, rounds=g.diameter())
        assert all(v == 50 for v in result.values())

    def test_flood_max_partial_with_few_rounds(self):
        g = path_graph(6)
        net = Network(g, seed=0)
        values = {v: v for v in g.nodes}
        result = flood_max(net, values, rounds=1)
        assert result[0] == 1  # only the neighbor's value arrived

    def test_exchange_tokens(self):
        g = cycle_graph(4)
        net = Network(g, seed=0)
        outputs = exchange_tokens(net, {v: v + 100 for v in g.nodes})
        own, nbrs = outputs[0]
        assert own == 100
        assert nbrs == {1: 101, 3: 103}

    def test_exchange_isolated_node(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_node(0)
        g.add_edge(1, 2)
        net = Network(g, seed=0)
        outputs = exchange_tokens(net, {0: 5, 1: 6, 2: 7})
        assert outputs[0] == (5, {})
