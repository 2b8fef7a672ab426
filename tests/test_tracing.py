"""Tests for execution tracing."""

from repro.congest import Network, Tracer
from repro.dist import israeli_itai, luby_mis
from repro.graphs import gnp, path_graph


class TestTracer:
    def test_records_events(self):
        g = path_graph(4)
        tracer = Tracer()
        net = Network(g, seed=0, observe=[tracer])
        israeli_itai(net)
        assert len(tracer) > 0
        e = tracer.events[0]
        assert e.protocol == "israeli_itai"
        assert e.bits > 0
        assert g.has_edge(e.sender, e.receiver)

    def test_filtering(self):
        g = gnp(12, 0.3, rng=1)
        tracer = Tracer()
        net = Network(g, seed=1, observe=[tracer])
        israeli_itai(net)
        luby_mis(net)
        assert set(tracer.protocols()) == {"israeli_itai", "luby_mis"}
        only_luby = tracer.filter(protocol="luby_mis")
        assert only_luby
        assert all(e.protocol == "luby_mis" for e in only_luby)
        node0 = tracer.filter(node=0)
        assert all(0 in (e.sender, e.receiver) for e in node0)
        first_round = tracer.filter(rounds=range(1, 2))
        assert all(e.round == 1 for e in first_round)

    def test_messages_between(self):
        g = path_graph(2)
        tracer = Tracer()
        net = Network(g, seed=0, observe=[tracer])
        israeli_itai(net)
        convo = tracer.messages_between(0, 1)
        assert convo
        assert all({e.sender, e.receiver} == {0, 1} for e in convo)

    def test_render(self):
        g = path_graph(2)
        tracer = Tracer()
        net = Network(g, seed=0, observe=[tracer])
        israeli_itai(net)
        text = tracer.render()
        assert "israeli_itai" in text
        assert "->" in text

    def test_render_truncates_payloads(self):
        from repro.observe.tracing import TraceEvent

        event = TraceEvent(protocol="p", round=1, sender=0, receiver=1,
                           bits=8, payload="x" * 200)
        assert len(event.render()) < 120

    def test_capacity_bound(self):
        g = gnp(15, 0.3, rng=2)
        tracer = Tracer(capacity=10)
        net = Network(g, seed=2, observe=[tracer])
        israeli_itai(net)
        assert len(tracer) == 10

    def test_predicate_filter(self):
        g = gnp(10, 0.4, rng=3)
        tracer = Tracer()
        net = Network(g, seed=3, observe=[tracer])
        israeli_itai(net)
        proposals = tracer.filter(predicate=lambda e: e.payload == "p")
        assert all(e.payload == "p" for e in proposals)
