"""The unified ``execution=`` plan API.

Covers the :class:`~repro.models.execution.ExecutionPlan` object itself,
the ``Network(execution=...)`` keyword,
``Network.explain_execution()``'s reason chains for every tier, plan
inheritance into subnetworks, numpy-fallback golden equivalence under
sharding, and the zero-copy halo-view mechanics the sharded-kernel tier
is built on.
"""

import dataclasses
import os
import struct
import types
from array import array
from multiprocessing import shared_memory

import pytest

import repro
from repro.congest import (
    CONGEST,
    LOCAL,
    ExecutionPlan,
    Network,
    TIERS,
    resolve_shards,
)
from repro.congest import kernels as kernels_mod
from repro.congest import sharding
from repro.dist.israeli_itai import IsraeliItaiNode, israeli_itai
from repro.dist.luby_mis import LubyMISNode, luby_mis
from repro.graphs import gnp, path_graph


def _metrics_tuple(m):
    return (m.rounds, m.pipelined_extra_rounds, m.messages, m.total_bits,
            m.max_message_bits, tuple(sorted(m.protocol_rounds.items())))


def _run_israeli(seed, **net_kwargs):
    g = gnp(44, 0.12, rng=seed)
    net = Network(g, policy=CONGEST, seed=seed, **net_kwargs)
    try:
        matching = israeli_itai(net)
        return set(matching.edges()), _metrics_tuple(net.metrics)
    finally:
        net.close()


# --- the plan object ------------------------------------------------------

class TestExecutionPlan:
    def test_defaults(self):
        plan = ExecutionPlan()
        assert plan.tier == "auto"
        assert plan.shards is None
        # one knob: the tier-choosing fields and keywords are gone
        assert [f.name for f in dataclasses.fields(ExecutionPlan)] == [
            "tier", "shards"]
        with pytest.raises(TypeError):
            ExecutionPlan(kernels=False)
        with pytest.raises(TypeError):
            Network(path_graph(3), engine="node")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPlan().tier = "node"

    def test_tier_vocabulary(self):
        assert TIERS == ("sharded-kernel", "kernel", "node", "legacy")
        for tier in TIERS:
            assert ExecutionPlan(tier=tier).tier == tier
        with pytest.raises(ValueError):
            ExecutionPlan(tier="warp")
        # the deleted compiled and per-node sharded rungs are unknown
        # tiers now, and the error names the ones that survive
        for gone in ("compiled", "sharded"):
            with pytest.raises(ValueError, match="'auto' or one of "
                               "sharded-kernel, kernel, mpc_kernel, node, "
                               "legacy"):
                ExecutionPlan(tier=gone)

    def test_all_tiers_cover_every_model(self):
        # plans validate against the union vocabulary; model-specific
        # rungs (mpc_kernel) are plan-constructible but rejected by
        # models that do not own them
        from repro.models import ALL_TIERS, MPC_TIERS

        assert set(TIERS) | set(MPC_TIERS) == set(ALL_TIERS)
        assert ExecutionPlan(tier="mpc_kernel").tier == "mpc_kernel"

    def test_contradictory_plans_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPlan(shards=-1)
        for tier in ("kernel", "mpc_kernel", "node", "legacy"):
            with pytest.raises(ValueError):
                ExecutionPlan(tier=tier, shards=2)


# --- the Network keyword --------------------------------------------------

class TestNetworkKeyword:
    def _net(self, **kwargs):
        return Network(gnp(30, 0.2, rng=0), policy=LOCAL, seed=0, **kwargs)

    def test_tier_name_shorthand(self):
        net = self._net(execution="node")
        assert net.execution_plan == ExecutionPlan(tier="node")

    def test_full_plan(self):
        plan = ExecutionPlan(tier="sharded-kernel", shards=2)
        net = self._net(execution=plan)
        assert net.execution_plan is plan

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            self._net(execution=42)
        with pytest.raises(ValueError):
            self._net(execution="warp")

    def test_run_facade_accepts_execution(self):
        from repro.graphs import random_bipartite

        g = random_bipartite(8, 8, 0.4, rng=0)
        result = repro.run("mcm", g, eps=0.25, seed=0, execution="kernel")
        assert result.size >= 1


# --- explain_execution ----------------------------------------------------

class TestExplainExecution:
    def _net(self, **kwargs):
        return Network(gnp(30, 0.2, rng=0), policy=LOCAL, seed=0, **kwargs)

    def _explain(self, factory=LubyMISNode, **kwargs):
        return self._net(**kwargs).explain_execution(factory)

    def test_never_resolves_to_auto(self):
        for kwargs in ({}, {"execution": "node"}, {"execution": "legacy"},
                       {"execution": ExecutionPlan(shards=2)}):
            assert self._explain(**kwargs).tier in TIERS

    def test_pinned_node(self):
        decision = self._explain(execution="node")
        assert decision.tier == "node"
        assert any("pinned by the plan" in r for r in decision.reasons)

    def test_pinned_legacy(self):
        decision = self._explain(execution="legacy")
        assert decision.tier == "legacy"
        assert any("pinned by the plan" in r for r in decision.reasons)

    def test_kernel_tier(self):
        decision = self._explain(execution="kernel")
        assert decision.tier == "kernel"
        assert decision.shards is None
        assert any("LubyMISKernel" in r and "selected" in r
                   for r in decision.reasons)

    def test_sharded_kernel_tier(self):
        decision = self._explain(
            IsraeliItaiNode,
            execution=ExecutionPlan(tier="sharded-kernel", shards=2))
        assert decision.tier == "sharded-kernel"
        assert decision.shards == 2
        assert any("2 shard" in r for r in decision.reasons)

    def test_auto_on_a_small_host_graph(self):
        # 30 nodes is below the auto-shard threshold: the sharded rung is
        # skipped with a reason and the in-process kernel wins
        decision = self._explain()
        assert decision.tier == "kernel"
        probe = ("numpy probe: available — eligible kernels run their "
                 "vectorized branch" if kernels_mod._np is not None else
                 "numpy probe: unavailable — eligible kernels run the "
                 "pure-python fallback")
        assert decision.reasons == (
            "model 'congest': resolving plan tier 'auto' on the CONGEST "
            "execution ladder (sharded-kernel > kernel > node > legacy)",
            probe,
            "tier 'sharded-kernel': skipped — no shard count resolved (not "
            "requested, and the auto rules did not fire — they need >= "
            "4096 nodes and >= 2 cores, with no kill switch set)",
            "tier 'kernel': selected — LubyMISKernel runs in-process",
        )

    def test_no_factory_reason(self):
        decision = self._net().explain_execution()
        assert decision.tier == "node"
        assert any("no node factory" in r for r in decision.reasons)

    def test_unregistered_factory_reason(self):
        def no_kernel_factory(ctx):  # pragma: no cover - never run
            raise AssertionError

        decision = self._net().explain_execution(no_kernel_factory)
        assert decision.tier == "node"
        assert any("no RoundKernel is registered" in r
                   for r in decision.reasons)

    def test_shards_zero_kill_switch_reason(self):
        decision = self._explain(execution=ExecutionPlan(shards=0))
        assert decision.tier == "kernel"
        assert any("kill switch" in r or "no shard count resolved" in r
                   for r in decision.reasons)

    def test_numpy_probe_reported(self):
        # the availability probe that decides vectorized-vs-fallback is
        # named in every chain
        decision = self._explain()
        assert any(r.startswith("numpy probe: available — eligible "
                                "kernels run their vectorized branch")
                   for r in decision.reasons)

    def test_numpy_probe_reports_the_fallback(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "_np", None)
        decision = self._explain()
        assert any(r.startswith("numpy probe: unavailable — eligible "
                                "kernels run the pure-python fallback")
                   for r in decision.reasons)

    def test_explain_formats_the_chain(self):
        decision = self._explain(
            IsraeliItaiNode,
            execution=ExecutionPlan(tier="sharded-kernel", shards=2))
        text = decision.explain()
        assert text.startswith("resolved tier: sharded-kernel (2 shard(s))")
        assert "\n  - " in text

    def test_explain_is_dry(self):
        # no worker pool may be built by an explain call
        net = self._net(execution=ExecutionPlan(tier="sharded-kernel",
                                                shards=2))
        assert net.explain_execution(IsraeliItaiNode).shards == 2
        assert net._sharded_execs == {}


# --- the MPC ladder's reason chains (pinned) ------------------------------

class TestMPCLadderExplain:
    """explain_execution() on a cluster walks the MPC ladder, and the
    chain names only tiers the MPC model declares — pinned exactly."""

    def _cluster(self, **kwargs):
        from repro.mpc import MPCCluster

        return MPCCluster(path_graph(280), alpha=0.7, **kwargs)

    def test_node_pin_chain_exact(self):
        decision = self._cluster(execution="node").explain_execution()
        cluster = self._cluster(execution="node")
        assert decision.tier == "node"
        assert decision.reasons == (
            "model 'mpc': resolving plan tier 'node' on the MPC "
            "execution ladder (mpc_kernel > node)",
            "tier 'node': selected — supersteps execute in-process on "
            "simulated machines (per-machine memory guard "
            f"S = {cluster.machine_words} words, "
            f"{cluster.num_machines} machine(s))",
        )

    def test_auto_chain_exact(self):
        from repro.mpc.kernel import _np

        decision = self._cluster().explain_execution()
        head = ("model 'mpc': resolving plan tier 'auto' on the MPC "
                "execution ladder (mpc_kernel > node)")
        if _np is not None:
            assert decision.tier == "mpc_kernel"
            assert decision.reasons == (
                head,
                "tier 'mpc_kernel': selected — supersteps run as "
                "whole-cluster array passes over packed machine ledgers "
                "(numpy), budget-exact against the node tier",
            )
        else:
            assert decision.tier == "node"
            assert decision.reasons[0] == head
            assert "numpy is not importable" in decision.reasons[1]
            assert decision.reasons[1].startswith(
                "tier 'mpc_kernel': skipped — ")

    def test_congest_network_rejects_the_mpc_rung(self):
        from repro.models import ModelExecutionError

        with pytest.raises(ModelExecutionError, match="model 'congest'"):
            Network(path_graph(6), execution="mpc_kernel")


# --- the plan alone picks the shard count, and sharded goldens ----------

class TestShimGoldens:
    """No environment variable steers the plan; shard-count goldens."""

    def test_environment_does_not_force_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        net = Network(gnp(30, 0.2, rng=0), policy=LOCAL)
        assert resolve_shards(net) is None
        assert net.explain_execution(LubyMISNode).tier == "kernel"

    def test_behavior_identical_under_sharding(self):
        golden = _run_israeli(7)
        assert _run_israeli(
            7, execution=ExecutionPlan(tier="sharded-kernel",
                                       shards=2)) == golden


# --- subnetworks inherit the plan -----------------------------------------

class TestSubnetworkPlan:
    def _parent(self, **kwargs):
        return Network(gnp(20, 0.2, rng=1), policy=LOCAL, seed=1, **kwargs)

    def test_child_inherits_the_full_plan(self):
        plan = ExecutionPlan(tier="sharded-kernel", shards=2)
        parent = self._parent(execution=plan)
        sub = parent.subnetwork(path_graph(4), label="probe")
        assert sub.network.execution_plan is plan

    def test_execution_override(self):
        parent = self._parent()
        sub = parent.subnetwork(path_graph(4), label="probe",
                                execution="legacy")
        assert sub.network.execution_plan == ExecutionPlan(tier="legacy")


# --- kernel fallbacks stay golden under sharding --------------------------

class TestFallbackGoldens:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_numpy_free_sharded_matches(self, shards, monkeypatch):
        golden = _run_israeli(5)
        # workers are forked after the patch, so they inherit the pure
        # python array paths exactly like a host without numpy
        monkeypatch.setattr(kernels_mod, "_np", None)
        assert _run_israeli(5) == golden
        assert _run_israeli(5, execution=ExecutionPlan(
            tier="sharded-kernel", shards=shards)) == golden


# --- zero-copy halo views -------------------------------------------------

def _publish_halo(base, worker, gen, k, dest, words):
    """Write one halo block in the worker publish format (test fixture):
    ``k + 1`` segment offsets, then ``dest``'s segment of int64 words."""
    header = 8 * (k + 1)
    raw = array("q", words).tobytes()
    shm = shared_memory.SharedMemory(
        create=True, size=header + len(raw),
        name=sharding._halo_name(base, worker, gen))
    buf = shm.buf
    offsets = memoryview(buf)[:header].cast("q")
    pos = 0
    offsets[0] = 0
    for d in range(k):
        if d == dest:
            buf[header + pos:header + pos + len(raw)] = raw
            pos += len(raw)
        offsets[d + 1] = pos
    offsets.release()
    return shm


class TestZeroCopyHaloViews:
    def _reader(self, base, k, w, gen_of):
        """A minimal stand-in for the worker fields _load_incoming reads."""
        words = [0] * (sharding._CTRL_WORDS + k * sharding._S_COLS)
        for p, gen in gen_of.items():
            words[sharding._CTRL_WORDS + p * sharding._S_COLS
                  + sharding._S_HALO_GEN] = gen
        return types.SimpleNamespace(
            k=k, w=w, words=words, peer_halo=[None] * k,
            spec=types.SimpleNamespace(base=base))

    def _load(self, reader, views):
        ctx = types.SimpleNamespace(incoming=[])
        sharding._ShardWorker._load_incoming(reader, ctx, views)
        return ctx.incoming

    def _drop(self, reader, incoming, views):
        incoming.clear()
        sharding._ShardWorker._release_views(views)
        for cached in reader.peer_halo:
            if cached is not None:
                cached[1].close()

    def test_mutations_are_visible_through_the_view(self):
        np = kernels_mod._np
        if np is None:  # pragma: no cover - numpy-free host
            pytest.skip("numpy not available")
        base = f"zc{os.getpid()}a"
        shm = _publish_halo(base, 0, 5, k=2, dest=1, words=[7, 8, 9])
        reader = self._reader(base, k=2, w=1, gen_of={0: 5})
        views = []
        try:
            incoming = self._load(reader, views)
            [(peer, wordsv)] = incoming
            assert peer == 0
            assert isinstance(wordsv, np.ndarray)
            assert not wordsv.flags.owndata  # a view, not a copy
            assert wordsv.tolist() == [7, 8, 9]
            # mutate the publisher's buffer: the view must see it with no
            # re-read — that is the zero-copy contract the kernel relies on
            header = 8 * 3
            shm.buf[header:header + 8] = struct.pack("q", 42)
            assert wordsv[0] == 42
            del wordsv
            self._drop(reader, incoming, views)
        finally:
            shm.close()
            shm.unlink()

    def test_fallback_views_are_zero_copy_too(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "_np", None)
        base = f"zc{os.getpid()}b"
        shm = _publish_halo(base, 0, 1, k=2, dest=1, words=[11])
        reader = self._reader(base, k=2, w=1, gen_of={0: 1})
        views = []
        try:
            incoming = self._load(reader, views)
            [(peer, wordsv)] = incoming
            assert list(wordsv) == [11]
            header = 8 * 3
            shm.buf[header:header + 8] = struct.pack("q", 13)
            assert wordsv[0] == 13
            del wordsv
            self._drop(reader, incoming, views)
        finally:
            shm.close()
            shm.unlink()

    def test_generation_bump_reattaches(self):
        base = f"zc{os.getpid()}c"
        old = _publish_halo(base, 0, 1, k=2, dest=1, words=[1])
        reader = self._reader(base, k=2, w=1, gen_of={0: 1})
        views = []
        try:
            incoming = self._load(reader, views)
            assert list(incoming[0][1]) == [1]
            self._drop(reader, incoming, views)
            gen0, cached0 = reader.peer_halo[0]
            assert gen0 == 1
            reader.peer_halo[0] = (gen0, cached0)

            # the publisher resizes: new generation, new block name
            new = _publish_halo(base, 0, 2, k=2, dest=1, words=[2, 3])
            reader.words[sharding._CTRL_WORDS + sharding._S_HALO_GEN] = 2
            try:
                views = []
                incoming = self._load(reader, views)
                assert reader.peer_halo[0][0] == 2  # re-attached lazily
                assert list(incoming[0][1]) == [2, 3]
                self._drop(reader, incoming, views)
            finally:
                new.close()
                new.unlink()
        finally:
            old.close()
            old.unlink()
