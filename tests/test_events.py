"""Tests for the structured event bus, JSONL traces, and profiling.

The load-bearing guarantees: observers never change what a run computes
(same engine, same outputs, same metrics), both delivery engines emit the
same event sequence, and traces round-trip through disk exactly.
"""

import dataclasses

import pytest

from repro.congest import (
    BROADCAST,
    LOCAL,
    NodeAlgorithm,
    STRUCTURAL_KINDS,
    Augmentation,
    CheckerVerdict,
    EventBus,
    ExecutionPlan,
    FaultSpec,
    JsonlTraceWriter,
    MessageDelivered,
    MISDecision,
    Network,
    PhaseEnd,
    PhaseStart,
    Profiler,
    RoundEnd,
    RoundStart,
    TokenCollision,
    Tracer,
    diff_traces,
    edge_sample_unit,
    load_trace,
    observing,
    render_timeline,
)
from repro.core.api import run
from repro.dist.checkers import check_matching
from repro.dist.israeli_itai import israeli_itai
from repro.dist.luby_mis import luby_mis
from repro.graphs import gnp, path_graph, random_bipartite


class Flood(NodeAlgorithm):
    """Broadcast the max id seen for 5 rounds; termination is loss-immune."""

    ROUNDS = 5

    def __init__(self, ctx):
        super().__init__(ctx)
        self.best = ctx.node_id
        self.seen = 0

    def start(self):
        return {BROADCAST: self.best}

    def on_round(self, inbox):
        self.seen += 1
        for value in inbox.values():
            self.best = max(self.best, value)
        if self.seen >= self.ROUNDS:
            return self.halt(self.best)
        return {BROADCAST: self.best}


class Collect:
    """Minimal observer: records every event it is routed."""

    def __init__(self, kinds=None, sample=None):
        if kinds is not None:
            self.interest = kinds
        if sample is not None:
            self.sample = sample
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def of(self, cls):
        return [e for e in self.events if isinstance(e, cls)]


class TestEventBus:
    def test_wants_is_false_without_subscribers(self):
        bus = EventBus()
        assert not bus.wants("round_start")
        assert not bus.wants(RoundStart)

    def test_interest_mask_routes_by_kind(self):
        bus = EventBus()
        rounds = bus.subscribe(Collect(kinds=(RoundStart, "round_end")))
        assert bus.wants(RoundStart) and bus.wants(RoundEnd)
        assert not bus.wants(PhaseStart)
        bus.emit(RoundStart(protocol="p", round=1))
        bus.emit(PhaseStart(algorithm="a", phase="x"))  # nobody listens
        bus.emit(RoundEnd(protocol="p", round=1, messages=2, bits=16))
        assert [e.kind for e in rounds.events] == ["round_start", "round_end"]

    def test_plain_callable_subscriber_gets_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(MISDecision(node=3, selected=True))
        bus.emit(CheckerVerdict(checker="c", ok=True))
        assert [e.kind for e in seen] == ["mis_decision", "checker_verdict"]

    def test_unsubscribe_clears_routes(self):
        bus = EventBus()
        observer = bus.subscribe(Collect())
        assert bus.wants(RoundStart)
        bus.unsubscribe(observer)
        assert not bus.wants(RoundStart)
        assert bus.subscribers == []

    def test_find_locates_subscriber_by_class(self):
        bus = EventBus()
        profiler = bus.subscribe(Profiler())
        assert bus.find(Profiler) is profiler
        assert bus.find(Tracer) is None

    def test_invalid_inputs_rejected(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(object())
        with pytest.raises(ValueError):
            bus.subscribe(Collect(), kinds=("no_such_kind",))
        with pytest.raises(ValueError):
            bus.subscribe(Collect(), sample=1.5)

    def test_message_sampling_is_per_edge_and_deterministic(self):
        bus = EventBus()
        everything = bus.subscribe(Collect(kinds=(MessageDelivered,)))
        nothing = bus.subscribe(Collect(kinds=(MessageDelivered,)),
                                sample=0.0)
        half = bus.subscribe(Collect(kinds=(MessageDelivered,)), sample=0.5)
        batch = [MessageDelivered(protocol="p", round=1, sender=u,
                                  receiver=v, bits=8)
                 for u in range(6) for v in range(6) if u != v]
        bus.emit_messages(batch)
        assert len(everything.events) == len(batch)
        assert nothing.events == []
        expected = [m for m in batch
                    if edge_sample_unit(m.sender, m.receiver) < 0.5]
        assert half.events == expected
        assert 0 < len(expected) < len(batch)

    def test_edge_sample_unit_properties(self):
        units = [edge_sample_unit(u, v) for u in range(20) for v in range(20)]
        assert all(0.0 <= x < 1.0 for x in units)
        assert edge_sample_unit(3, 7) == edge_sample_unit(3, 7)
        assert edge_sample_unit(3, 7) != edge_sample_unit(7, 3)


class TestObserversDoNotPerturbRuns:
    def test_observer_keeps_default_engine(self):
        g = gnp(10, 0.3, rng=1)
        plain = Network(g)
        observed = Network(g, observe=Collect())
        assert observed.execution_plan == plain.execution_plan
        assert plain.execution_plan == ExecutionPlan()

    def test_observed_run_is_bit_identical(self):
        g = random_bipartite(10, 10, 0.3, rng=2)
        plain_net = Network(g, seed=5)
        plain = israeli_itai(plain_net)
        observed_net = Network(g, seed=5, observe=Collect())
        observed = israeli_itai(observed_net)
        assert set(observed.edges()) == set(plain.edges())
        assert observed_net.metrics.total_rounds == \
            plain_net.metrics.total_rounds
        assert observed_net.metrics.total_bits == plain_net.metrics.total_bits

    @pytest.mark.parametrize("execution", ["legacy", "auto"],
                             ids=["legacy", "csr"])
    def test_round_events_bracket_every_round(self, execution):
        g = gnp(8, 0.4, rng=3)
        collector = Collect(kinds=(RoundStart, RoundEnd))
        net = Network(g, seed=0, execution=execution, observe=collector)
        israeli_itai(net)
        starts = collector.of(RoundStart)
        ends = collector.of(RoundEnd)
        assert len(starts) == len(ends) == net.metrics.total_rounds
        assert [e.round for e in starts] == [e.round for e in ends]
        assert sum(e.messages for e in ends) == net.metrics.messages
        assert sum(e.bits for e in ends) == net.metrics.total_bits


class TestGoldenEventStream:
    """Both engines emit the identical event sequence for a seeded run."""

    def _message_stream(self, execution, faults=None):
        g = random_bipartite(12, 12, 0.25, rng=4)
        collector = Collect(kinds=(MessageDelivered,))
        net = Network(g, policy=LOCAL, seed=7, execution=execution,
                      observe=collector, faults=faults)
        if faults is None:
            israeli_itai(net)
        else:
            net.run(Flood)  # terminates regardless of message loss
        return [dataclasses.astuple(e) for e in collector.events]

    def test_legacy_and_csr_emit_identical_messages(self):
        legacy = self._message_stream("legacy")
        csr = self._message_stream("auto")
        assert legacy == csr
        assert legacy  # non-empty

    def test_identical_under_fault_injection(self):
        faults = FaultSpec(loss=0.2)
        legacy = self._message_stream("legacy", faults=faults)
        csr = self._message_stream("auto", faults=faults)
        assert legacy == csr
        # fault injection really removed messages from the stream
        assert len(legacy) < len(self._message_stream("auto",
                                                      FaultSpec(loss=0.0)))


class TestFaultSpec:
    def test_fault_drops_are_deterministic(self):
        g = gnp(14, 0.3, rng=8)
        runs = [Network(g, policy=LOCAL, seed=1,
                        faults=FaultSpec(loss=0.25)) for _ in range(2)]
        out_a, out_b = (net.run(Flood).outputs for net in runs)
        assert out_a == out_b
        assert runs[0].dropped == runs[1].dropped > 0

    def test_fault_spec_validates_loss(self):
        with pytest.raises(ValueError):
            FaultSpec(loss=1.0)
        with pytest.raises(ValueError):
            FaultSpec(loss=-0.1)


class TestJsonlRoundTrip:
    def test_structural_trace_round_trips(self, tmp_path):
        g = random_bipartite(12, 12, 0.25, rng=3)
        path = tmp_path / "run.jsonl"
        result = run("bipartite_mcm", g, eps=0.25, seed=0, trace=path)
        assert result.trace_path == path
        events = load_trace(path)
        kinds = {e.kind for e in events}
        assert "phase_start" in kinds
        assert "augmentation" in kinds
        assert "round_start" in kinds and "round_end" in kinds
        assert "message" not in kinds  # structural by default
        # reloading is exact: a second load yields the same sequence
        assert diff_traces(events, load_trace(path)) is None

    def test_message_payloads_round_trip_exactly(self, tmp_path):
        g = gnp(8, 0.4, rng=5)
        path = tmp_path / "messages.jsonl"
        live = Collect()
        with JsonlTraceWriter(path, messages=True) as writer:
            bus = EventBus()
            bus.subscribe(writer)
            bus.subscribe(live)
            net = Network(g, seed=0, observe=bus)
            israeli_itai(net)
        loaded = load_trace(path)
        assert loaded == live.events
        assert any(isinstance(e, MessageDelivered) and e.payload is not None
                   for e in loaded)

    def test_writer_counts_and_closed_state(self, tmp_path):
        writer = JsonlTraceWriter(tmp_path / "t.jsonl")
        assert writer.interest == STRUCTURAL_KINDS
        writer.on_event(RoundStart(protocol="p", round=1))
        writer.close()
        assert writer.count == 1
        assert writer.counts == {"round_start": 1}
        with pytest.raises(ValueError):
            writer.on_event(RoundStart(protocol="p", round=2))

    def test_diff_traces_reports_first_divergence(self):
        a = [RoundStart(protocol="p", round=1),
             RoundEnd(protocol="p", round=1)]
        b = [RoundStart(protocol="p", round=1),
             RoundEnd(protocol="p", round=1, messages=9)]
        index, ea, eb = diff_traces(a, b)
        assert index == 1 and ea != eb
        index, ea, eb = diff_traces(a, a + [RoundStart(protocol="p", round=2)])
        assert index == 2 and ea is None and eb is not None
        assert diff_traces(a, list(a)) is None

    def test_render_timeline_nests_phases(self):
        events = [
            PhaseStart(algorithm="alg", phase="ell=1"),
            Augmentation(algorithm="alg", phase="ell=1", paths=2, size=5),
            PhaseEnd(algorithm="alg", phase="ell=1",
                     detail={"matching_size": 5}),
        ]
        text = render_timeline(events)
        lines = text.splitlines()
        assert lines[0].startswith("alg: phase ell=1")
        assert lines[1].startswith("  ")  # indented inside the phase
        assert "matching_size=5" in lines[2]


class TestDriverEvents:
    def test_bipartite_mcm_emits_collisions_and_phases(self, tmp_path):
        g = random_bipartite(12, 12, 0.3, rng=9)
        path = tmp_path / "drivers.jsonl"
        run("bipartite_mcm", g, eps=0.25, seed=1, trace=path)
        kinds = {e.kind for e in load_trace(path)}
        assert {"phase_start", "phase_end", "augmentation",
                "token_collision"} <= kinds

    def test_luby_mis_emits_one_decision_per_node(self):
        g = gnp(12, 0.3, rng=2)
        collector = Collect(kinds=(MISDecision,))
        net = Network(g, seed=0, observe=collector)
        members = luby_mis(net)
        decisions = collector.of(MISDecision)
        assert len(decisions) == g.num_nodes
        assert {d.node for d in decisions if d.selected} == members

    def test_checker_emits_verdict(self):
        g = path_graph(4)
        collector = Collect(kinds=(CheckerVerdict,))
        net = Network(g, seed=0, observe=collector)
        complaints = check_matching(net, {0: 1, 1: 0, 2: None, 3: None})
        assert complaints == set()
        (verdict,) = collector.of(CheckerVerdict)
        assert verdict.checker == "check_matching"
        assert verdict.ok and verdict.complaints == 0

    def test_unobserved_drivers_skip_emission(self):
        # wants() gates driver instrumentation: a bus with no interest in
        # TokenCollision must never be handed an emit callback.
        g = path_graph(3)
        net = Network(g, observe=Collect(kinds=(RoundStart,)))
        assert net.observer_for(TokenCollision) is None
        assert net.wants(RoundStart)
        assert not net.wants(Augmentation)


class TestProfiler:
    def _fake_clock(self, times):
        ticks = iter(times)
        return lambda: next(ticks)

    def test_accounting_with_injected_clock(self):
        # phase open @0; round 1 runs 1..3; round 2 runs 5..6; phase end @10
        profiler = Profiler(clock=self._fake_clock([0.0, 1.0, 3.0, 5.0,
                                                    6.0, 10.0]))
        profiler.on_event(PhaseStart(algorithm="alg", phase="ell=1"))
        profiler.on_event(RoundStart(protocol="p", round=1))
        profiler.on_event(RoundEnd(protocol="p", round=1, messages=4,
                                   bits=32))
        profiler.on_event(RoundStart(protocol="p", round=2))
        profiler.on_event(RoundEnd(protocol="p", round=2, messages=6,
                                   bits=48))
        profiler.on_event(PhaseEnd(algorithm="alg", phase="ell=1"))
        report = profiler.report()
        proto = report.protocol("p")
        assert (proto.rounds, proto.messages, proto.bits) == (2, 10, 80)
        assert proto.wall == pytest.approx(3.0)  # (3-1) + (6-5)
        assert report.wall == pytest.approx(3.0)
        (phase,) = report.phases
        assert (phase.entries, phase.rounds, phase.messages) == (1, 2, 10)
        assert phase.wall == pytest.approx(10.0)  # inclusive: 10 - 0
        assert "p" in report.table() and "ell=1" in report.table()

    def test_unmatched_phase_end_is_ignored(self):
        profiler = Profiler(clock=self._fake_clock([0.0]))
        profiler.on_event(PhaseEnd(algorithm="alg", phase="nope"))
        assert profiler.report().phases == []

    def test_profile_surfaces_on_result(self):
        g = random_bipartite(10, 10, 0.3, rng=1)
        result = run("bipartite_mcm", g, eps=0.25, seed=0, profile=True)
        assert result.profile is not None
        protocols = {p.protocol for p in result.profile.protocols}
        assert protocols  # at least one protocol accounted
        assert all(p.rounds > 0 for p in result.profile.protocols)


class TestAmbientObserving:
    def test_networks_inside_context_attach(self):
        g = gnp(8, 0.4, rng=1)
        collector = Collect(kinds=(RoundStart,))
        with observing(collector):
            israeli_itai(Network(g, seed=0))
        assert collector.events
        count = len(collector.events)
        israeli_itai(Network(g, seed=0))  # outside: no ambient bus
        assert len(collector.events) == count

    def test_explicit_observe_beats_ambient(self):
        g = path_graph(4)
        ambient = Collect(kinds=(RoundStart,))
        explicit = Collect(kinds=(RoundStart,))
        with observing(ambient):
            israeli_itai(Network(g, seed=0, observe=explicit))
        assert explicit.events
        assert ambient.events == []


class TestCliSmoke:
    def test_profile_subcommand_prints_table(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "bipartite:8x8:0.3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out
        assert "rounds" in out
        # at least one non-header protocol row with numbers
        assert any(line.split() and line.split()[-1].endswith("%")
                   for line in out.splitlines()[3:])

    def test_trace_subcommand_records_and_diffs(self, tmp_path, capsys):
        from repro.__main__ import main

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["trace", "bipartite:8x8:0.3", "--seed", "2",
                         "--out", str(out)]) == 0
        assert main(["trace", "--diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["trace", "--load", str(a)]) == 0
        assert "round" in capsys.readouterr().out

    def test_trace_without_input_is_an_error(self, capsys):
        from repro.__main__ import main

        assert main(["trace"]) == 2
