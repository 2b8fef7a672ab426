"""Tests for the vectorized MPC execution tier (repro.mpc.kernel).

Three concerns, mirroring the guarantees the tier makes:

* **golden equivalence** — on a seed x alpha x graph-family matrix the
  ``mpc_kernel`` and ``node`` rungs produce the identical matching,
  supersteps, Metrics, memory gauges (cluster peak *and* per-machine
  ledgers) and structural event stream, including identical
  :class:`~repro.mpc.cluster.MemoryExceeded` failures at the identical
  superstep when machine limits are squeezed mid-run;
* **ladder resolution** — ``unavailable_reason`` gates (numpy absence,
  non-int node ids) fall through to ``node`` with the reason in the
  ``explain_execution()`` chain, and the chain never names CONGEST rungs;
* **ledger invariants** — hypothesis property tests over
  :class:`~repro.mpc.cluster.MPCMachine` charge/release sequences (peak
  monotone and sticky, resident never negative, the guard trips exactly
  when resident would pass the cap) and the bit-exactness of
  :func:`~repro.mpc.kernel.vec_splitmix64` against the scalar chain.
"""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dist.random_tools import _MASK64, spawn_seed
from repro.graphs import gnp, grid_graph, path_graph, random_bipartite
from repro.graphs.generators import power_law_graph, star_graph
from repro.mpc import (
    MemoryExceeded,
    MPCCluster,
    MPCMachine,
    machine_words,
    mpc_maximal,
)
from repro.mpc import kernel as mpc_kernel_mod
from repro.mpc.kernel import _np, unavailable_reason, vec_splitmix64
from repro.observe.events import EventBus

numpy_only = pytest.mark.skipif(_np is None, reason="numpy not installed")


def _families():
    # all large enough that S = ceil(n**0.5) clears the 16-word floor
    return {
        "gnp": gnp(300, 0.02, rng=random.Random(7)),
        "path": path_graph(280),
        "grid": grid_graph(17, 17),
        "bipartite": random_bipartite(140, 140, 0.025, rng=random.Random(3)),
        "power_law": power_law_graph(300, rng=random.Random(5)),
        "star": star_graph(280),
        "dense": gnp(280, 0.12, rng=random.Random(13)),
    }


def _run(g, alpha, seed, tier):
    """One observed run; returns (result, cluster, event tuples)."""
    events = []
    bus = EventBus()
    bus.subscribe(lambda e: events.append((type(e).__name__,
                                           dict(vars(e)))))
    cluster = MPCCluster(g, alpha=alpha, seed=seed, observe=bus,
                         execution=tier)
    result = mpc_maximal(cluster)
    return result, cluster, events


@numpy_only
class TestGoldenEquivalence:
    """node and mpc_kernel are indistinguishable except in wall-clock."""

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matrix(self, alpha, seed):
        for name, g in _families().items():
            rn, cn, en = _run(g, alpha, seed, "node")
            rv, cv, ev = _run(g, alpha, seed, "mpc_kernel")
            ctx = (name, alpha, seed)
            assert rn.tier == "node" and rv.tier == "mpc_kernel", ctx
            assert sorted(rn.matching.edges()) == \
                sorted(rv.matching.edges()), ctx
            assert rn.supersteps == rv.supersteps, ctx
            assert rn.iterations == rv.iterations, ctx
            assert rn.iteration_stats == rv.iteration_stats, ctx
            assert rn.delta_est == rv.delta_est, ctx
            assert rn.edge_decay == rv.edge_decay, ctx
            # budget-exact: the whole memory account, not just the peak
            assert rn.peak_words == rv.peak_words, ctx
            assert [m.peak for m in cn.machines] == \
                [m.peak for m in cv.machines], ctx
            assert [m.resident for m in cn.machines] == \
                [m.resident for m in cv.machines], ctx
            assert cn.metrics.snapshot() == cv.metrics.snapshot(), ctx
            # the structural event stream is identical, details included
            assert en == ev, ctx

    def test_counter_values_are_plain_python(self):
        # details are JSON-traced; numpy scalars must never leak out
        g = gnp(300, 0.02, rng=random.Random(1))
        _, _, events = _run(g, 0.7, 0, "mpc_kernel")
        for kind, payload in events:
            if kind == "PhaseEnd":
                for key, value in payload["detail"].items():
                    assert type(value) in (int, float), (key, value)

    def test_memory_exceeded_parity_mid_run(self):
        # squeeze every machine's cap post-construction so the guard
        # trips mid-run; both tiers must fail with the bit-identical
        # exception at the same superstep, with identical partial ledgers
        g = gnp(300, 0.02, rng=random.Random(9))

        def squeezed(tier, headroom):
            cluster = MPCCluster(g, alpha=0.6, seed=0, execution=tier)
            for mach in cluster.machines:
                mach.limit = mach.resident + headroom
            try:
                mpc_maximal(cluster)
                return cluster, None
            except MemoryExceeded as exc:
                return cluster, exc

        tripped = 0
        for headroom in range(0, 40, 3):
            cn, exn = squeezed("node", headroom)
            cv, exv = squeezed("mpc_kernel", headroom)
            assert (exn is None) == (exv is None), headroom
            if exn is None:
                continue
            tripped += 1
            for attr in ("machine", "needed", "limit", "phase"):
                assert getattr(exn, attr) == getattr(exv, attr), \
                    (headroom, attr)
            assert str(exn) == str(exv)
            assert cn._superstep_counter == cv._superstep_counter, headroom
            assert [m.resident for m in cn.machines] == \
                [m.resident for m in cv.machines], headroom
            assert [m.peak for m in cn.machines] == \
                [m.peak for m in cv.machines], headroom
        assert tripped >= 3  # the squeeze exercised several phases

    def test_run_entry_point_resolves_vectorized(self):
        g = gnp(300, 0.02, rng=random.Random(4))
        fast = repro.run("mpc_maximal", g, alpha=0.6, seed=1)
        slow = repro.run("mpc_maximal", g, alpha=0.6, seed=1,
                         execution="node")
        assert sorted(fast.matching.edges()) == sorted(slow.matching.edges())
        assert fast.certificate.valid


class TestLadderResolution:
    """unavailable_reason gates and the explain_execution() chain."""

    def test_auto_prefers_vectorized_when_available(self):
        cluster = MPCCluster(path_graph(280), alpha=0.7)
        decision = cluster.explain_execution()
        if _np is not None:
            assert decision.tier == "mpc_kernel"
            assert any("tier 'mpc_kernel': selected" in r
                       for r in decision.reasons)
        else:
            assert decision.tier == "node"
            assert any("numpy is not importable" in r
                       for r in decision.reasons)

    def test_chain_names_only_mpc_rungs(self):
        decision = MPCCluster(path_graph(280), alpha=0.7).explain_execution()
        joined = " ".join(decision.reasons)
        assert "model 'mpc'" in joined
        assert "mpc_kernel > node" in joined
        for foreign in ("sharded", "legacy", "RoundKernel", "shard worker"):
            assert foreign not in joined

    def test_node_pin_skips_the_vector_rung(self):
        cluster = MPCCluster(path_graph(280), alpha=0.7, execution="node")
        decision = cluster.explain_execution()
        assert decision.tier == "node"
        assert not any("mpc_kernel" in r for r in decision.reasons
                       if "ladder" not in r)

    @numpy_only
    def test_non_integer_node_ids_fall_through(self):
        class Stub:
            nodes = ("a", "b")

        why = unavailable_reason(Stub())
        assert why is not None and "node ids" in why

    @numpy_only
    def test_fallthrough_is_golden(self, monkeypatch):
        # a fallthrough (here: numpy gone) only changes the rung, never
        # the outputs
        g = gnp(300, 0.02, rng=random.Random(6))
        fast = mpc_maximal(MPCCluster(g, alpha=0.7, seed=2))
        monkeypatch.setattr(mpc_kernel_mod, "_np", None)
        slow = mpc_maximal(MPCCluster(g, alpha=0.7, seed=2))
        assert fast.tier == "mpc_kernel" and slow.tier == "node"
        assert sorted(fast.matching.edges()) == sorted(slow.matching.edges())
        assert fast.supersteps == slow.supersteps
        assert fast.peak_words == slow.peak_words


class TestPeelingCounters:
    """The per-iteration delta_est / edge-decay counters (both tiers)."""

    @pytest.mark.parametrize("tier", ["node", "auto"])
    def test_result_series(self, tier):
        g = gnp(300, 0.02, rng=random.Random(8))
        res = mpc_maximal(MPCCluster(g, alpha=0.7, seed=0, execution=tier))
        assert len(res.delta_est) == res.iterations
        assert len(res.edge_decay) == res.iterations
        assert all(d >= 1 for d in res.delta_est)
        # every alive edge is eventually decayed away, exactly once
        assert sum(res.edge_decay) == g.num_edges

    def test_phase_details_carry_counters(self):
        g = gnp(300, 0.02, rng=random.Random(8))
        _, _, events = _run(g, 0.7, 0, "auto")
        sparsify = [p["detail"] for k, p in events
                    if k == "PhaseEnd" and p["phase"].startswith("sparsify")]
        integrate = [p["detail"] for k, p in events
                     if k == "PhaseEnd" and p["phase"].startswith("integrate")]
        assert sparsify and integrate
        assert all("delta_est" in d for d in sparsify)
        assert all("decay_ratio" in d and "dropped_edges" in d
                   for d in integrate)
        assert all(0.0 < d["decay_ratio"] <= 1.0 for d in integrate)

    def test_profiler_surfaces_counters(self):
        g = gnp(300, 0.02, rng=random.Random(8))
        result = repro.run("mpc_maximal", g, alpha=0.7, profile=True)
        by_phase = {ph.phase: ph for ph in result.profile.phases}
        first_sparsify = by_phase["sparsify[1]"]
        assert "delta_est" in first_sparsify.counters
        assert "sampled" in first_sparsify.counters
        first_integrate = by_phase["integrate[1]"]
        assert "decay_ratio" in first_integrate.counters
        # counters render in the table
        assert "delta_est=" in result.profile.table()


class TestLedgerProperties:
    """Hypothesis invariants for the MPCMachine word ledger."""

    @given(limit=st.integers(min_value=1, max_value=10_000),
           ops=st.lists(st.tuples(st.booleans(),
                                  st.integers(min_value=0,
                                              max_value=2_000)),
                        max_size=60))
    @settings(deadline=None, max_examples=120)
    def test_charge_release_invariants(self, limit, ops):
        mach = MPCMachine(0, limit=limit)
        shadow_resident = 0
        shadow_peak = 0
        for is_charge, words in ops:
            if is_charge:
                if shadow_resident + words > limit:
                    with pytest.raises(MemoryExceeded) as err:
                        mach.charge(words, "prop")
                    assert err.value.needed == shadow_resident + words
                    assert err.value.limit == limit
                    # a refused charge mutates nothing
                    assert mach.resident == shadow_resident
                    assert mach.peak == shadow_peak
                else:
                    mach.charge(words, "prop")
                    shadow_resident += words
                    shadow_peak = max(shadow_peak, shadow_resident)
            else:
                mach.release(words)
                shadow_resident = max(0, shadow_resident - words)
            assert mach.resident == shadow_resident
            assert mach.peak == shadow_peak
            # the standing invariants
            assert 0 <= mach.resident <= mach.peak <= limit

    @given(n=st.integers(min_value=2, max_value=5_000),
           alpha=st.floats(min_value=0.05, max_value=1.0,
                           allow_nan=False))
    @settings(deadline=None, max_examples=80)
    def test_floor_trips_at_construction(self, n, alpha):
        words = machine_words(n, alpha)
        g = path_graph(n)
        if words < 16:  # MIN_MACHINE_WORDS
            with pytest.raises(MemoryExceeded) as err:
                MPCCluster(g, alpha=alpha)
            assert err.value.phase == "input distribution"
            assert err.value.limit == words
        else:
            cluster = MPCCluster(g, alpha=alpha)
            assert all(m.resident <= m.limit for m in cluster.machines)

    @numpy_only
    @given(st.lists(st.integers(min_value=0, max_value=_MASK64),
                    min_size=1, max_size=40))
    @settings(deadline=None, max_examples=100)
    def test_vec_splitmix64_matches_scalar(self, values):
        from repro.dist.random_tools import _splitmix64

        arr = _np.array(values, dtype=_np.uint64)
        out = vec_splitmix64(arr)
        assert out.tolist() == [_splitmix64(v) for v in values]

    @numpy_only
    def test_vectorized_priorities_match_spawn_seed(self):
        # the full chain: spawn_seed(seed, "mpc", it, a, b) replayed as
        # two vectorized folds over a python-scalar prefix
        from repro.dist.random_tools import _fold, _splitmix64

        seed, iteration = 12345, 7
        pairs = [(0, 1), (3, 9), (17, 2000), (2**40, 2**40 + 1)]
        prefix = _fold(_fold(_splitmix64(seed & _MASK64), "mpc"), iteration)
        pa = _np.array([min(p) for p in pairs], dtype=_np.uint64)
        pb = _np.array([max(p) for p in pairs], dtype=_np.uint64)
        got = vec_splitmix64(
            vec_splitmix64(_np.uint64(prefix) ^ pa) ^ pb).tolist()
        want = [spawn_seed(seed, "mpc", iteration, min(p), max(p))
                for p in pairs]
        assert got == want
