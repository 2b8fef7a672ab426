"""Tests for the composable protocol runtime (repro.runtime.driver).

Covers the Subnetwork lifecycle (seed spawning, the two fold modes,
event nesting, fault inheritance), the PhaseDriver scaffold and the shared
ProtocolResult surface.
"""

import random

import pytest

from repro.congest import (
    CONGEST,
    LOCAL,
    EventBus,
    FaultSpec,
    MISDecision,
    Network,
    PhaseDriver,
    PhaseEnd,
    PhaseStart,
    Profiler,
    ProtocolResult,
    RoundStart,
    Subnetwork,
    as_network,
    register_map,
)
from repro.dist import generic_mcm, spawn_rng, spawn_seed
from repro.dist.luby_mis import luby_mis
from repro.dist.weighted.hv_local import hv_mwm
from repro.graphs import gnp, path_graph, uniform_weights
from repro.matching import verify_matching


class Collect:
    """Minimal observer: records every event it is routed."""

    def __init__(self, kinds=None):
        if kinds is not None:
            self.interest = kinds
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def of(self, cls):
        return [e for e in self.events if isinstance(e, cls)]


def metric_tuple(metrics):
    return (metrics.total_rounds, metrics.messages, metrics.total_bits,
            metrics.max_message_bits)


# ---------------------------------------------------------------------------
# seed spawning
# ---------------------------------------------------------------------------

class TestSpawnSeed:
    def test_deterministic_and_64_bit(self):
        a = spawn_seed(7, "conflict", 3)
        assert a == spawn_seed(7, "conflict", 3)
        assert 0 <= a < 2 ** 64

    def test_distinct_across_path_and_root(self):
        seeds = {
            spawn_seed(0, "conflict", 1),
            spawn_seed(0, "conflict", 2),
            spawn_seed(0, "class_mis", 1),
            spawn_seed(1, "conflict", 1),
            spawn_seed(0, "conflict"),
            spawn_seed(0),
        }
        assert len(seeds) == 6

    def test_order_sensitive(self):
        assert spawn_seed(0, 1, 2) != spawn_seed(0, 2, 1)
        assert spawn_seed(0, "a", "b") != spawn_seed(0, "b", "a")

    def test_string_elements_are_process_stable(self):
        # pinned values: builtin hash() is salted per process, so the
        # derivation must not depend on it.  These constants only change
        # if the mixing function changes — which would silently re-seed
        # every subnetwork in the repo.
        assert spawn_seed(0, "conflict", 1) == 841572270994800358
        assert spawn_seed(0, "conflict", 2) == 1168021146989943882
        assert spawn_seed(1, "conflict", 1) == 13301429639097598436

    def test_spawn_rng_matches_spawn_seed(self):
        rng = spawn_rng(5, "x", 2)
        twin = random.Random(spawn_seed(5, "x", 2))
        assert [rng.random() for _ in range(4)] == \
            [twin.random() for _ in range(4)]

    def test_rejects_bad_path_elements(self):
        with pytest.raises(TypeError):
            spawn_seed(0, 1.5)


# ---------------------------------------------------------------------------
# register_map
# ---------------------------------------------------------------------------

class TestRegisterMap:
    def test_extracts_key_per_node(self):
        outputs = {1: {"mate": 2}, 2: {"mate": 1}, 3: {"mate": None}}
        assert register_map(outputs) == {1: 2, 2: 1, 3: None}

    def test_missing_outputs_use_fallback_then_default(self):
        outputs = {1: {"mate": 2}, 2: None, 3: None}
        assert register_map(outputs, fallback={2: 1}) == {1: 2, 2: 1, 3: None}
        assert register_map(outputs, default=-1) == {1: 2, 2: -1, 3: -1}

    def test_custom_key(self):
        outputs = {1: {"ok": True}, 2: None}
        assert register_map(outputs, key="ok", default=False) == \
            {1: True, 2: False}


# ---------------------------------------------------------------------------
# Subnetwork lifecycle and fold modes
# ---------------------------------------------------------------------------

class TestSubnetwork:
    def test_seed_spawned_from_parent_label_and_path(self):
        parent = Network(path_graph(4), seed=9)
        sub = parent.subnetwork(path_graph(3), label="conflict",
                                seed_path=(5,))
        assert sub.seed == spawn_seed(9, "conflict", 5)
        explicit = parent.subnetwork(path_graph(3), label="conflict",
                                     seed=1234)
        assert explicit.seed == 1234

    def test_inherits_policy_engine_and_bus(self):
        bus = EventBus()
        parent = Network(path_graph(4), policy=LOCAL, seed=0, observe=bus)
        sub = parent.subnetwork(path_graph(3), label="x")
        assert sub.network.policy is LOCAL
        assert sub.network.execution_plan == parent.execution_plan
        assert sub.network.bus is bus

    def test_invalid_fold_mode_rejected(self):
        parent = Network(path_graph(3))
        for fold in ("merge", "none"):
            with pytest.raises(ValueError):
                parent.subnetwork(path_graph(2), label="x", fold=fold)

    def test_emulate_charges_parent_and_fills_sub_account(self):
        parent = Network(path_graph(6), policy=LOCAL, seed=3)
        with parent.subnetwork(path_graph(6), label="mis", policy=LOCAL,
                               emulation_factor=3,
                               charge_label="mis_emulation") as sub:
            luby_mis(sub)
            child_rounds = sub.rounds
            child_messages = sub.metrics.messages
            child_bits = sub.metrics.total_bits
        assert child_rounds > 0
        m = parent.metrics
        assert m.protocol_rounds["mis_emulation"] == 3 * child_rounds
        assert m.total_rounds == 3 * child_rounds
        assert m.messages == 0  # traffic stays virtual by default
        assert (m.sub_rounds, m.sub_messages, m.sub_bits) == \
            (child_rounds, child_messages, child_bits)
        assert m.subnetwork_rounds == {"mis": child_rounds}
        assert m.rounds_total == m.total_rounds + child_rounds

    def test_emulate_fold_traffic_moves_traffic_to_physical_account(self):
        parent = Network(path_graph(6), policy=LOCAL, seed=3)
        with parent.subnetwork(path_graph(6), label="mis", policy=LOCAL,
                               fold_traffic=True) as sub:
            luby_mis(sub)
            child_messages = sub.metrics.messages
            child_bits = sub.metrics.total_bits
        m = parent.metrics
        assert (m.messages, m.total_bits) == (child_messages, child_bits)
        # no double count: folded traffic must not also sit in the
        # subnetwork account
        assert (m.sub_messages, m.sub_bits) == (0, 0)
        assert m.sub_rounds > 0

    def test_absorb_folds_physically_without_double_count(self):
        parent = Network(path_graph(6), seed=2)
        with parent.subnetwork(path_graph(6), label="box",
                               fold="absorb") as sub:
            luby_mis(sub)
            child = metric_tuple(sub.metrics)
            child_rounds = sub.rounds
        m = parent.metrics
        assert metric_tuple(m) == child
        assert (m.sub_rounds, m.sub_messages, m.sub_bits) == (0, 0, 0)
        assert m.subnetwork_rounds == {"box": child_rounds}
        assert m.rounds_total == m.total_rounds

    def test_repeated_labels_accumulate(self):
        parent = Network(path_graph(6), policy=LOCAL, seed=1)
        total = 0
        for it in range(2):
            with parent.subnetwork(path_graph(6), label="mis",
                                   policy=LOCAL, seed_path=(it,)) as sub:
                luby_mis(sub)
                total += sub.rounds
        assert parent.metrics.subnetwork_rounds == {"mis": total}
        assert parent.metrics.sub_rounds == total

    def test_child_events_nested_between_phase_pair(self):
        bus = EventBus()
        collect = bus.subscribe(Collect(
            kinds=(PhaseStart, PhaseEnd, RoundStart, MISDecision)))
        parent = Network(path_graph(5), policy=LOCAL, seed=0, observe=bus)
        with parent.subnetwork(path_graph(5), label="mis", policy=LOCAL,
                               algorithm="demo", phase="mis pass") as sub:
            luby_mis(sub)
        kinds = [e.kind for e in collect.events]
        assert kinds[0] == "phase_start"
        assert kinds[-1] == "phase_end"
        assert "round_start" in kinds[1:-1] and "mis_decision" in kinds[1:-1]
        start, end = collect.events[0], collect.events[-1]
        assert (start.algorithm, start.phase) == ("demo", "mis pass")
        assert (end.algorithm, end.phase) == ("demo", "mis pass")
        assert end.detail["fold"] == "emulate"
        assert end.detail["rounds"] == parent.metrics.sub_rounds
        assert end.detail["messages"] > 0

    def test_unobserved_subnetwork_emits_nothing(self):
        parent = Network(path_graph(5), policy=LOCAL, seed=0)
        with parent.subnetwork(path_graph(5), label="mis",
                               policy=LOCAL) as sub:
            luby_mis(sub)
        assert parent.metrics.sub_rounds > 0  # folding still happened

    def test_failure_closes_phase_without_folding(self):
        bus = EventBus()
        collect = bus.subscribe(Collect(kinds=(PhaseStart, PhaseEnd)))
        parent = Network(path_graph(5), policy=LOCAL, seed=0, observe=bus)
        with pytest.raises(RuntimeError):
            with parent.subnetwork(path_graph(5), label="mis",
                                   policy=LOCAL) as sub:
                luby_mis(sub)
                raise RuntimeError("boom")
        ends = collect.of(PhaseEnd)
        assert len(ends) == 1 and ends[0].detail["failed"] is True
        assert parent.metrics.sub_rounds == 0
        assert parent.metrics.total_rounds == 0

    def test_close_is_idempotent(self):
        parent = Network(path_graph(5), policy=LOCAL, seed=0)
        with parent.subnetwork(path_graph(5), label="mis",
                               policy=LOCAL) as sub:
            luby_mis(sub)
        folded = parent.metrics.sub_rounds
        sub.close()
        sub.close()
        assert parent.metrics.sub_rounds == folded

    def test_run_delegates_to_child_network(self):
        parent = Network(path_graph(5), policy=LOCAL, seed=0)
        with parent.subnetwork(path_graph(5), label="mis",
                               policy=LOCAL) as sub:
            mis = luby_mis(sub)  # luby_mis accepts the Subnetwork directly
        assert mis  # nonempty on a path
        assert as_network(sub) is sub.network
        net = Network(path_graph(3))
        assert as_network(net) is net


class TestSubnetworkFaults:
    def test_faultspec_reaches_mis_subprotocol(self):
        """A parent FaultSpec must reach protocols run on a Subnetwork."""
        g = gnp(24, 0.3, rng=random.Random(0))
        parent = Network(g, policy=LOCAL, seed=0,
                         faults=FaultSpec(loss=0.3))
        with parent.subnetwork(g, label="mis", policy=LOCAL,
                               max_rounds=400) as sub:
            assert sub.network.faults is parent.faults
            luby_mis(sub)
            assert sub.network.dropped > 0
            child_dropped = sub.network.dropped
        # the child's drop count folds up so fault injection is visible
        # end to end
        assert parent.dropped == child_dropped

    def test_sibling_subnetworks_get_decorrelated_drop_streams(self):
        g = gnp(24, 0.3, rng=random.Random(0))

        def signature_on(label):
            parent = Network(g, policy=LOCAL, seed=0,
                             faults=FaultSpec(loss=0.3))
            with parent.subnetwork(g, label=label, policy=LOCAL,
                                   max_rounds=400) as sub:
                luby_mis(sub)
            return (parent.dropped, parent.metrics.sub_rounds,
                    parent.metrics.sub_messages)

        # FaultSpec(seed=None) follows the network seed, and sibling
        # subnetworks spawn distinct seeds — so their loss patterns differ.
        # Raw drop totals alone can collide by chance, so compare the whole
        # run signature the drop pattern shapes.
        assert signature_on("a") != signature_on("b")


# ---------------------------------------------------------------------------
# PhaseDriver scaffold
# ---------------------------------------------------------------------------

class TestPhaseDriver:
    def test_phase_emits_scoped_pair_with_detail(self):
        bus = EventBus()
        collect = bus.subscribe(Collect(kinds=(PhaseStart, PhaseEnd)))
        net = Network(path_graph(4), observe=bus)
        driver = PhaseDriver(net, "demo")
        assert driver.observed
        with driver.phase("stage=1") as ph:
            ph.set_detail(applied=3)
            ph.set_detail(size=7)
        start, end = collect.events
        assert (start.algorithm, start.phase) == ("demo", "stage=1")
        assert end.detail == {"applied": 3, "size": 7}

    def test_unobserved_driver_emits_nothing(self):
        net = Network(path_graph(4))
        driver = PhaseDriver(net, "demo")
        assert not driver.observed
        with driver.phase("stage=1") as ph:
            ph.set_detail(x=1)  # harmless without listeners

    def test_emit_augmentation_is_gated_on_interest(self):
        bus = EventBus()
        collect = bus.subscribe(Collect(kinds=("augmentation",)))
        net = Network(path_graph(4), observe=bus)
        driver = PhaseDriver(net, "demo")
        driver.emit_augmentation("p", paths=2, size=5, gain=1.5)
        (event,) = collect.events
        assert (event.paths, event.size, event.gain) == (2, 5, 1.5)
        silent = PhaseDriver(Network(path_graph(4)), "demo")
        silent.emit_augmentation("p", paths=1, size=1)  # no bus: no-op

    def test_subnetwork_tags_driver_algorithm(self):
        net = Network(path_graph(4), seed=0)
        driver = PhaseDriver(net, "demo")
        sub = driver.subnetwork(path_graph(3), label="conflict")
        assert sub.algorithm == "demo"
        assert sub.phase == "subnet:conflict"


class TestProtocolResult:
    def test_metrics_and_rounds_total_surface(self):
        net = Network(path_graph(4), policy=LOCAL, seed=0)
        with net.subnetwork(path_graph(4), label="mis",
                            policy=LOCAL) as sub:
            luby_mis(sub)
        result = ProtocolResult(network=net)
        assert result.metrics is net.metrics
        assert result.rounds_total == net.metrics.rounds_total
        assert result.rounds_total > net.metrics.total_rounds
        detached = ProtocolResult()
        assert detached.metrics is None and detached.rounds_total is None


# ---------------------------------------------------------------------------
# driver composition: inherited subnetworks
# ---------------------------------------------------------------------------

class TestDriverComposition:
    def test_generic_mcm_sub_costs_visible_in_parent(self):
        g = gnp(18, 0.18, rng=random.Random(0))
        result = generic_mcm(g, k=2, seed=0)
        m = result.metrics
        assert m.sub_rounds > 0
        assert "conflict" in m.subnetwork_rounds
        assert m.rounds_total == m.total_rounds + m.sub_rounds
        assert result.rounds_total == m.rounds_total
        verify_matching(g, result.matching)

    def test_hv_mwm_sub_costs_visible_in_parent(self):
        g = gnp(14, 0.3, rng=random.Random(1),
                weight_fn=uniform_weights())
        result = hv_mwm(g, eps=0.25, seed=1)
        m = result.metrics
        assert m.sub_rounds > 0
        assert "class_mis" in m.subnetwork_rounds
        assert m.rounds_total == m.total_rounds + m.sub_rounds

    def test_profiler_sees_nested_subnetwork_phases(self):
        g = gnp(18, 0.18, rng=random.Random(0))
        profiler = Profiler(clock=lambda: 0.0)
        net = Network(g, policy=LOCAL, seed=0, observe=profiler)
        generic_mcm(g, k=2, network=net)
        assert "luby_mis" in profiler.protocols  # child rounds profiled
        sub_phases = [key for key in profiler.phases
                      if key[0] == "generic_mcm"
                      and key[1].startswith("conflict ell=")]
        assert sub_phases
        assert any(profiler.phases[key].rounds > 0 for key in sub_phases)

    def test_generic_mcm_runs_under_faults(self):
        """End to end: FaultSpec reaches Algorithm 1's MIS subnetworks.

        The loss rate is deliberately mild — Algorithm 1 asserts MIS
        independence, which heavy loss can genuinely break (lost Luby
        coin announcements); the point here is that drops *happen inside
        the sub-protocol* and surface on the parent.
        """
        g = gnp(18, 0.18, rng=random.Random(1))
        net = Network(g, policy=LOCAL, seed=0, faults=FaultSpec(loss=0.02))
        result = generic_mcm(g, k=2, network=net)
        assert net.dropped > 0
        verify_matching(g, result.matching)
