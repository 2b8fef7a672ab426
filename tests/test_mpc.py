"""Tests for the simulated MPC model (repro.mpc).

Covers the memory guard (hard cap, provable trip below the alpha floor,
peak accounting into Metrics), the maximal-matching driver on a
seed x alpha x graph-family matrix, determinism, and the observability
trio (trace/profile/observe) through ``repro.run("mpc_maximal", ...)``.
"""

import json
import random

import pytest

import repro
from repro.graphs import gnp, grid_graph, path_graph, random_bipartite
from repro.graphs.generators import star_graph
from repro.matching.verify import is_maximal, verify_matching
from repro.mpc import (
    BASE_WORDS,
    MIN_MACHINE_WORDS,
    MemoryExceeded,
    MPCCluster,
    MPCMachine,
    machine_words,
    mpc_maximal,
)


def _families():
    # all large enough that S = ceil(n**0.5) clears the 16-word floor
    return {
        "gnp": gnp(300, 0.02, rng=random.Random(7)),
        "path": path_graph(280),
        "grid": grid_graph(17, 17),
        "bipartite": random_bipartite(140, 140, 0.025, rng=random.Random(3)),
    }


class TestMachineWords:
    def test_budget_formula(self):
        assert machine_words(10_000, 0.5) == 100
        assert machine_words(1, 0.5) == 1

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            machine_words(100, alpha)


class TestMachineLedger:
    def test_charge_release_peak(self):
        mach = MPCMachine(0, limit=10)
        mach.charge(6, "test")
        mach.charge(4, "test")
        assert mach.resident == 10 and mach.peak == 10
        mach.release(7)
        assert mach.resident == 3
        assert mach.peak == 10  # peaks are sticky
        mach.release(100)
        assert mach.resident == 0

    def test_overflow_raises_with_context(self):
        mach = MPCMachine(3, limit=8)
        mach.charge(8, "fill")
        with pytest.raises(MemoryExceeded) as err:
            mach.charge(1, "overflow phase")
        exc = err.value
        assert (exc.machine, exc.needed, exc.limit) == (3, 9, 8)
        assert exc.phase == "overflow phase"
        assert "raise alpha" in str(exc)


class TestSuperstep:
    class Collect:
        def __init__(self):
            self.events = []

        def on_event(self, event):
            self.events.append(event)

    def test_a_superstep_that_raises_records_nothing(self):
        collect = self.Collect()
        cluster = MPCCluster(path_graph(300), alpha=0.7, observe=collect)
        with pytest.raises(MemoryExceeded):
            with cluster.superstep("probe") as step:
                step.charge(messages=3, words=6)
                raise MemoryExceeded(0, 9, 8, "probe")
        assert cluster.metrics.rounds == 0
        assert cluster.metrics.messages == 0
        assert [type(e).__name__ for e in collect.events] == ["RoundStart"]
        # the next superstep numbers on from the last completed one
        with cluster.superstep("probe", count=2) as step:
            step.charge(messages=3, words=6)
        assert cluster.metrics.rounds == 2
        assert cluster.metrics.messages == 3
        assert [(type(e).__name__, e.round, getattr(e, "messages", None))
                for e in collect.events[1:]] == [
            ("RoundStart", 1, None), ("RoundEnd", 1, 3),
            ("RoundStart", 2, None), ("RoundEnd", 2, 0)]


class TestMemoryGuard:
    def test_floor_trips_at_construction(self):
        # S = ceil(300**0.3) = 6 < 16: provably cannot hold even the
        # base state plus one record with working headroom
        with pytest.raises(MemoryExceeded) as err:
            MPCCluster(path_graph(300), alpha=0.3)
        assert err.value.limit == machine_words(300, 0.3)
        assert err.value.needed == MIN_MACHINE_WORDS

    def test_peak_never_exceeds_cap(self):
        for name, g in _families().items():
            for alpha in (0.5, 0.7, 0.9):
                cluster = MPCCluster(g, alpha=alpha, seed=0)
                res = mpc_maximal(cluster)
                assert res.peak_words <= cluster.machine_words, (name, alpha)
                assert all(m.resident <= m.limit for m in cluster.machines)

    def test_metrics_memory_account(self):
        cluster = MPCCluster(path_graph(280), alpha=0.7, seed=0)
        res = mpc_maximal(cluster)
        m = cluster.metrics
        assert m.memory_peak_words == res.peak_words > 0
        assert m.memory_limit_words == cluster.machine_words
        assert m.memory_machines == cluster.num_machines

    def test_memory_fields_do_not_affect_equality(self):
        # CONGEST goldens compare Metrics objects; the memory account is
        # a gauge (compare=False) so pre-refactor equality still holds
        from repro.runtime.metrics import Metrics
        a, b = Metrics(), Metrics()
        a.record_memory(100, 128, 4)
        assert a == b

    def test_base_words_charged_everywhere(self):
        cluster = MPCCluster(path_graph(280), alpha=0.9)
        assert all(m.resident >= BASE_WORDS for m in cluster.machines)


class TestMaximalMatching:
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_and_maximal_matrix(self, alpha, seed):
        for name, g in _families().items():
            cluster = MPCCluster(g, alpha=alpha, seed=seed)
            res = mpc_maximal(cluster)
            verify_matching(g, res.matching)
            assert is_maximal(g, res.matching), (name, alpha, seed)

    def test_deterministic(self):
        g = gnp(300, 0.02, rng=random.Random(11))
        runs = [mpc_maximal(MPCCluster(g, alpha=0.6, seed=5))
                for _ in range(2)]
        assert (sorted(runs[0].matching.edges())
                == sorted(runs[1].matching.edges()))
        assert runs[0].supersteps == runs[1].supersteps
        assert runs[0].peak_words == runs[1].peak_words

    def test_result_surface(self):
        g = gnp(300, 0.02, rng=random.Random(2))
        cluster = MPCCluster(g, alpha=0.6, seed=0)
        res = mpc_maximal(cluster)
        assert res.alpha == 0.6
        assert res.iterations >= 1
        assert res.supersteps == cluster.metrics.rounds  # the loop unit
        assert res.num_machines == cluster.num_machines
        assert len(res.iteration_stats) == res.iterations
        # every iteration matches at least one edge (the mutual-minimum
        # progress certificate)
        assert all(matched >= 1 for _, matched in res.iteration_stats)

    @pytest.mark.parametrize("tier", ["node", "auto"])
    def test_five_supersteps_per_iteration(self, tier):
        # input distribution, then sparsify + best + local_mis + two
        # integrate supersteps per iteration: nothing pads the schedule
        for name, g in _families().items():
            for alpha in (0.5, 0.7, 0.9):
                res = mpc_maximal(MPCCluster(g, alpha=alpha, seed=1,
                                             execution=tier))
                assert res.supersteps == 1 + 5 * res.iterations, \
                    (name, alpha)

    @pytest.mark.parametrize("tier", ["node", "auto"])
    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_delta_est_is_the_alive_max_degree(self, tier, alpha):
        # Δ_est is the alive subgraph's maximum degree at the start of
        # each iteration: the input's at first, and it never rises
        for name, g in _families().items():
            res = mpc_maximal(MPCCluster(g, alpha=alpha, seed=0,
                                         execution=tier))
            assert res.delta_est[0] == g.max_degree, name
            assert all(a >= b for a, b in
                       zip(res.delta_est, res.delta_est[1:])), name

    def test_edgeless_graph(self):
        res = mpc_maximal(MPCCluster(gnp(300, 0.0), alpha=0.6))
        assert res.matching.size == 0
        assert res.iterations == 0

    def test_tiny_graph_needs_the_floor(self):
        # even alpha=1 cannot give a 1-node graph 16 words: the guard is
        # honest about inputs too small for the sublinear regime
        with pytest.raises(MemoryExceeded):
            MPCCluster(path_graph(1), alpha=0.9)

    def test_star_matches_exactly_one(self):
        res = mpc_maximal(MPCCluster(star_graph(280), alpha=0.5))
        assert res.matching.size == 1


class TestRunEntryPoint:
    def test_run_mpc_maximal(self):
        g = gnp(300, 0.02, rng=random.Random(4))
        result = repro.run("mpc_maximal", g, alpha=0.6, seed=1)
        assert result.certificate.valid
        assert result.algorithm == "mpc_maximal(alpha=0.6)"
        assert result.network_metrics.memory_peak_words > 0
        # "mpc" is an alias
        alias = repro.run("mpc", g, alpha=0.6, seed=1)
        assert (sorted(alias.matching.edges())
                == sorted(result.matching.edges()))

    def test_trace_integration(self, tmp_path):
        g = gnp(300, 0.02, rng=random.Random(0))
        path = tmp_path / "mpc.jsonl"
        result = repro.run("mpc_maximal", g, alpha=0.7, trace=str(path))
        assert str(result.trace_path) == str(path)
        kinds = {json.loads(line)["kind"]
                 for line in path.read_text().splitlines() if line.strip()}
        assert {"phase_start", "phase_end", "round_start",
                "round_end", "augmentation"} <= kinds

    def test_trace_names_only_the_four_phases(self, tmp_path):
        g = gnp(300, 0.02, rng=random.Random(0))
        path = tmp_path / "mpc.jsonl"
        repro.run("mpc_maximal", g, alpha=0.7, trace=str(path))
        events = [json.loads(line) for line in path.read_text().splitlines()
                  if line.strip()]
        phases = {e["phase"].split("[")[0] for e in events
                  if e["kind"] == "phase_start"}
        assert phases == {"sparsify", "best", "local_mis", "integrate"}

    def test_profile_integration(self):
        g = gnp(300, 0.02, rng=random.Random(0))
        result = repro.run("mpc_maximal", g, alpha=0.7, profile=True)
        assert result.profile is not None
        protocols = {p.protocol for p in result.profile.protocols}
        assert "mpc_maximal" in protocols
        phases = {ph.phase for ph in result.profile.phases}
        assert any(ph.startswith("sparsify") for ph in phases)
        assert any(ph.startswith("best") for ph in phases)

    @pytest.mark.parametrize("tier", ["node", "mpc_kernel"])
    def test_profile_protocol_row_times_every_pass(self, tier, monkeypatch):
        # the injected clock advances only inside the passes, so the
        # protocol row reads the passes' whole time only when every
        # superstep is open around the pass it charges
        from repro.mpc.kernel import VectorPasses
        from repro.mpc.matching import _NodePasses
        from repro.observe.profiling import Profiler

        now = [0.0]

        def advancing(pass_fn):
            def timed(*args, **kwargs):
                now[0] += 1.0
                return pass_fn(*args, **kwargs)
            return timed

        for cls in (_NodePasses, VectorPasses):
            for name in ("distribute", "sparsify", "best", "local_mis",
                         "integrate"):
                monkeypatch.setattr(cls, name,
                                    advancing(getattr(cls, name)))
        profiler = Profiler(clock=lambda: now[0])
        cluster = MPCCluster(gnp(300, 0.02, rng=random.Random(0)),
                             alpha=0.7, seed=0, observe=profiler,
                             execution=tier)
        result = mpc_maximal(cluster)
        report = profiler.report()
        row = report.protocol("mpc_maximal")
        assert now[0] == 1 + 4 * result.iterations
        assert row.wall == now[0]
        assert row.rounds == result.supersteps
        assert all(row.wall >= ph.wall for ph in report.phases)

    def test_no_iteration_cap_option(self):
        with pytest.raises(TypeError, match="max_iterations"):
            repro.run("mpc_maximal", gnp(300, 0.02, rng=random.Random(0)),
                      max_iterations=3)

    def test_guard_propagates_through_run(self):
        with pytest.raises(MemoryExceeded):
            repro.run("mpc_maximal", path_graph(300), alpha=0.3)
