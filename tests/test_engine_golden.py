"""Golden equivalence of the batched CSR engine against the legacy engine.

The CSR engine must be *bit-identical* to the dict reference: same matching,
same round counts, same message/bit accounting, same per-node rng streams.
The matrix below runs each paper algorithm under both engines and both
bandwidth models and compares everything observable.  The dict engine is
reachable only as ``execution="legacy"``; every other plan delivers on the
CSR engine (``"auto"`` below, the default plan).
"""

import pytest

from repro.congest import (
    BROADCAST,
    CONGEST,
    LOCAL,
    PIPELINE,
    ExecutionPlan,
    Network,
    NodeAlgorithm,
    Tracer,
)
from repro.congest.faults import LossyNetwork
from repro.dist.bipartite_mcm import bipartite_mcm
from repro.dist.general_mcm import general_mcm
from repro.dist.israeli_itai import israeli_itai
from repro.dist.weighted.algorithm5 import approximate_mwm
from repro.graphs import exponential_weights, gnp, path_graph, random_bipartite


def _metrics_tuple(m):
    return (m.total_rounds, m.messages, m.total_bits, m.max_message_bits)


def _run_bipartite(execution, policy):
    g = random_bipartite(14, 14, 0.2, rng=7)
    net = Network(g, policy=policy, seed=3, execution=execution)
    res = bipartite_mcm(g, k=2, seed=3, network=net)
    return set(res.matching.edges()), _metrics_tuple(net.metrics)


def _run_general(execution, policy):
    g = gnp(22, 0.15, rng=5)
    net = Network(g, policy=policy, seed=1, execution=execution)
    res = general_mcm(g, k=2, seed=1, network=net)
    return set(res.matching.edges()), _metrics_tuple(net.metrics)


def _run_algorithm5(execution, policy):
    g = gnp(20, 0.2, rng=2, weight_fn=exponential_weights(8))
    net = Network(g, policy=policy, seed=4, execution=execution)
    res = approximate_mwm(g, eps=0.1, seed=4, network=net)
    return set(res.matching.edges()), _metrics_tuple(net.metrics)


RUNNERS = {
    "bipartite_mcm": (_run_bipartite, [PIPELINE, LOCAL]),
    "general_mcm": (_run_general, [PIPELINE, LOCAL]),
    "algorithm5": (_run_algorithm5, [CONGEST, LOCAL]),
}

MATRIX = [(name, policy)
          for name, (_, policies) in sorted(RUNNERS.items())
          for policy in policies]

#: the dict engine and the CSR engine, as plans (ids name the engines)
ENGINES = ["legacy", "auto"]
ENGINE_IDS = ["legacy", "csr"]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name,policy", MATRIX,
                             ids=[f"{n}-{p.mode.name}" for n, p in MATRIX])
    def test_legacy_and_csr_agree(self, name, policy):
        runner, _ = RUNNERS[name]
        edges_legacy, metrics_legacy = runner("legacy", policy)
        edges_csr, metrics_csr = runner("auto", policy)
        assert edges_csr == edges_legacy
        assert metrics_csr == metrics_legacy

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Network(path_graph(3), execution="simd")


class EchoNode(NodeAlgorithm):
    """Broadcasts its id once and records the inbox it saw."""

    def start(self):
        return {BROADCAST: self.node_id}

    def on_round(self, inbox):
        return self.halt(list(inbox.items()))


class MixedNode(NodeAlgorithm):
    """Broadcast overridden by a unicast to the smallest neighbor."""

    def start(self):
        out = {BROADCAST: self.node_id}
        if self.neighbors:
            out[min(self.neighbors)] = -self.node_id
        return out

    def on_round(self, inbox):
        return self.halt(list(inbox.items()))


class TestArrivalOrder:
    """Satellite 3: message-arrival order is a stable, documented invariant."""

    @pytest.mark.parametrize("execution", ENGINES, ids=ENGINE_IDS)
    def test_inbox_keys_ascend(self, execution):
        g = gnp(12, 0.4, rng=9)
        net = Network(g, policy=LOCAL, execution=execution)
        res = net.run(EchoNode)
        for node, seen in res.outputs.items():
            senders = [u for u, _ in seen]
            assert senders == sorted(senders)
            assert set(senders) == set(g.neighbors(node))

    def test_traced_run_matches_untraced(self):
        g = gnp(10, 0.35, rng=3)
        plain = Network(g, policy=LOCAL).run(EchoNode)
        tracer = Tracer()
        traced_net = Network(g, policy=LOCAL, tracer=tracer)
        traced = traced_net.run(EchoNode)
        assert traced.outputs == plain.outputs
        assert traced.rounds == plain.rounds
        assert len(tracer.events) > 0
        # within each round, trace events list senders in ascending order
        by_round = {}
        for ev in tracer.events:
            by_round.setdefault(ev.round, []).append(ev.sender)
        for senders in by_round.values():
            assert senders == sorted(senders)

    @pytest.mark.parametrize("execution", ENGINES, ids=ENGINE_IDS)
    def test_mixed_outbox_unicast_overrides_broadcast(self, execution):
        g = path_graph(4)  # 0-1-2-3
        net = Network(g, policy=LOCAL, execution=execution)
        res = net.run(MixedNode)
        # node 1's unicast to 0 replaces its broadcast there
        assert dict(res.outputs[0])[1] == -1
        # node 2 still gets node 1's broadcast
        assert dict(res.outputs[2])[1] == 1

    @pytest.mark.parametrize("execution", ENGINES, ids=ENGINE_IDS)
    def test_non_neighbor_unicast_rejected(self, execution):
        from repro.congest import ProtocolError

        class Stray(NodeAlgorithm):
            def start(self):
                return {99: "hello"}

            def on_round(self, inbox):
                return self.halt(None)

        with pytest.raises(ProtocolError):
            Network(path_graph(3), policy=LOCAL,
                    execution=execution).run(Stray)


class TestRunResultAndHooks:
    def test_run_result_metrics_are_per_run(self):
        g = gnp(10, 0.3, rng=1)
        net = Network(g, policy=CONGEST, seed=0)
        israeli_itai(net)
        first_total = net.metrics.total_rounds
        res = net.run(EchoNode)
        assert res.metrics.rounds == res.rounds
        assert res.metrics.messages > 0
        # the per-run delta excludes the israeli_itai run before it
        assert net.metrics.total_rounds == first_total + res.rounds

    @pytest.mark.parametrize("execution", ENGINES, ids=ENGINE_IDS)
    def test_on_round_end_fires_each_round(self, execution):
        g = gnp(8, 0.4, rng=4)
        net = Network(g, policy=LOCAL, execution=execution)
        seen = []
        res = net.run(EchoNode,
                      on_round_end=lambda r, n: seen.append(
                          (r, n.metrics.messages)))
        assert [r for r, _ in seen] == list(range(1, res.rounds + 1))
        # message counts are non-decreasing over rounds
        counts = [c for _, c in seen]
        assert counts == sorted(counts)

    def test_lossy_network_runs_on_csr(self):
        g = gnp(12, 0.4, rng=6)
        lossy = LossyNetwork(g, loss=0.3, policy=LOCAL, seed=0)
        assert lossy.execution_plan == ExecutionPlan()
        res = lossy.run(EchoNode)
        assert res.all_finished
        assert lossy.dropped > 0  # at 30% loss something must have been lost
