"""Tests for the computation-model seam (repro.models).

Covers the :class:`~repro.models.base.ComputationModel` contract (tier
vocabulary and validation), ``explain_execution`` reason chains naming the
model on both executors, MPC's rejection of CONGEST-only tiers, and the
``repro.congest`` package re-exports: every class hoisted into
``repro.runtime`` / ``repro.observe`` / ``repro.models`` is importable from
``repro.congest`` *as the same object*.
"""

import pytest

from repro.congest.network import Network
from repro.graphs import gnp, path_graph
from repro.models import (
    CONGEST_MODEL,
    MPC_MODEL,
    ExecutionPlan,
    ModelExecutionError,
)
from repro.mpc import MPCCluster


class TestRegistry:
    def test_tier_vocabulary(self):
        # CONGEST owns the engine ladder; MPC owns its own two rungs
        assert MPC_MODEL.tiers == ("mpc_kernel", "node")
        # 'node' is the only rung the ladders share; 'mpc_kernel' is
        # MPC-private (CONGEST must not accept it)
        assert set(MPC_MODEL.tiers) & set(CONGEST_MODEL.tiers) == {"node"}
        assert "mpc_kernel" not in CONGEST_MODEL.tiers


class TestCheckPlan:
    def test_auto_always_passes(self):
        CONGEST_MODEL.check_plan(ExecutionPlan())
        MPC_MODEL.check_plan(ExecutionPlan())

    @pytest.mark.parametrize("tier", ["kernel", "sharded-kernel", "legacy"])
    def test_mpc_rejects_congest_tiers(self, tier):
        plan = ExecutionPlan(tier=tier)
        with pytest.raises(ModelExecutionError) as err:
            MPC_MODEL.check_plan(plan)
        # the error must be diagnosable: it names the model, the tier,
        # and the rungs that *do* work — not a silent ladder fallthrough
        msg = str(err.value)
        assert "model 'mpc'" in msg
        assert f"tier '{tier}'" in msg
        assert "execution='auto', 'mpc_kernel' or 'node'" in msg

    @pytest.mark.parametrize("tier", ["kernel", "sharded-kernel", "legacy",
                                      "node"])
    def test_congest_accepts_every_rung(self, tier):
        CONGEST_MODEL.check_plan(ExecutionPlan(tier=tier))


class TestClusterPlanValidation:
    """MPCCluster validates at construction — fail fast, not mid-run."""

    @pytest.mark.parametrize("tier", ["kernel", "sharded-kernel"])
    def test_cluster_rejects_congest_tiers(self, tier):
        with pytest.raises(ModelExecutionError, match="model 'mpc'"):
            MPCCluster(path_graph(40), alpha=0.8, execution=tier)

    def test_cluster_accepts_node_and_auto(self):
        MPCCluster(path_graph(40), alpha=0.8, execution="node")
        MPCCluster(path_graph(40), alpha=0.8)  # auto default

    def test_cluster_rejects_garbage_execution(self):
        with pytest.raises(TypeError, match="ExecutionPlan or a tier name"):
            MPCCluster(path_graph(40), alpha=0.8, execution=42)


class TestExplainNamesTheModel:
    """Reason chains open by naming the computation model."""

    def test_congest_chain(self):
        net = Network(path_graph(6))
        decision = net.explain_execution()
        assert decision.reasons
        assert any("model 'congest'" in r for r in decision.reasons)

    def test_mpc_chain(self):
        cluster = MPCCluster(path_graph(40), alpha=0.8,
                             execution="node")
        decision = cluster.explain_execution()
        assert decision.tier == "node"
        assert any("model 'mpc'" in r for r in decision.reasons)
        # the chain surfaces the memory envelope, the model's signature
        joined = " ".join(decision.reasons)
        assert f"S = {cluster.machine_words} words" in joined

    def test_mpc_auto_chain_names_only_mpc_rungs(self):
        # explain_execution() on a cluster must walk the MPC ladder —
        # no CONGEST rung (kernel/shard/legacy) may appear
        cluster = MPCCluster(path_graph(40), alpha=0.8)
        decision = cluster.explain_execution()
        assert decision.tier in ("mpc_kernel", "node")
        joined = " ".join(decision.reasons)
        for foreign in ("sharded-kernel", "'kernel'", "legacy"):
            assert foreign not in joined

    def test_network_carries_its_model(self):
        assert Network(path_graph(4)).model is CONGEST_MODEL
        assert MPCCluster(path_graph(40), alpha=0.8).model is MPC_MODEL


class TestCongestShimSurface:
    """``repro.congest`` re-exports the hoisted classes unchanged."""

    def test_package_reexports(self):
        import repro.congest as congest
        from repro.models import ExecutionPlan
        from repro.observe import EventBus, Profiler, Tracer
        from repro.runtime import Metrics, PhaseDriver
        assert congest.EventBus is EventBus
        assert congest.Tracer is Tracer
        assert congest.Profiler is Profiler
        assert congest.Metrics is Metrics
        assert congest.PhaseDriver is PhaseDriver
        assert congest.ExecutionPlan is ExecutionPlan
