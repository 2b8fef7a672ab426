"""Sharded multi-core execution: partitioner properties and golden parity.

The sharded executor must be *bit-identical* to the single-process engine:
same outputs, same round counts, same physical :class:`~repro.congest.
metrics.Metrics`, same structural event stream, same errors at the same
points — across seeds and shard counts (including the degenerate 1-shard
pool).  Israeli-Itai is the one protocol whose kernel is audited for
shard workers; every other kernelized protocol resolves to the
in-process kernel under a sharded plan.  The partitioner must be a pure
deterministic function of ``(graph, shards, seed, balance)``, including
across processes.
"""

import pathlib
import subprocess
import sys
import threading

import pytest

from repro.congest import (
    CONGEST,
    LOCAL,
    PIPELINE,
    BandwidthExceeded,
    BandwidthPolicy,
    ExecutionPlan,
    FaultSpec,
    MessageDelivered,
    Network,
    ProtocolError,
    RoundEnd,
    RoundStart,
    congest,
    partition_graph,
    resolve_shards,
)
from repro.congest import sharding
from repro.dist.bipartite_counting import (
    X_SIDE,
    Y_SIDE,
    CountingNode,
    run_counting,
)
from repro.dist.israeli_itai import (
    IsraeliItaiKernel,
    IsraeliItaiNode,
    israeli_itai,
)
from repro.dist.luby_mis import LubyMISNode, luby_mis
from repro.dist.token_mis import TokenNode, run_token_selection
from repro.graphs import (
    gnp,
    grid_graph,
    path_graph,
    power_law_graph,
    random_bipartite,
    random_tree,
    star_graph,
)


def _metrics_tuple(m):
    return (m.rounds, m.pipelined_extra_rounds, m.messages, m.total_bits,
            m.max_message_bits, tuple(sorted(m.protocol_rounds.items())))


def _sharded(shards):
    """The ``execution=`` plan of a ``shards``-worker run (None: the
    default in-process plan)."""
    if shards is None:
        return None
    return ExecutionPlan(tier="sharded-kernel", shards=shards)


def _network(g, policy, seed, shards):
    """A reference (in-process) or sharded network, same graph and seed."""
    return Network(g, policy=policy, seed=seed, execution=_sharded(shards))


def _selects_shards(net, factory, shared=None):
    """True when a run of ``factory`` on ``net`` resolves to the
    sharded-kernel tier."""
    return net.explain_execution(factory, shared).tier == "sharded-kernel"


class Collect:
    def __init__(self, kinds=None):
        if kinds is not None:
            self.interest = kinds
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# --- partitioner properties ---------------------------------------------

PART_CASES = [
    pytest.param(n, p, k, seed, id=f"n{n}-p{p}-k{k}-s{seed}")
    for n, p in ((40, 0.15), (90, 0.06), (17, 0.3))
    for k in (1, 2, 3, 4)
    for seed in (0, 7)
]


class TestPartitioner:
    @pytest.mark.parametrize("n,p,k,seed", PART_CASES)
    def test_every_node_in_exactly_one_shard(self, n, p, k, seed):
        g = gnp(n, p, rng=seed)
        part = partition_graph(g, k, seed=seed)
        seen = [v for shard in part.shards for v in shard]
        assert sorted(seen) == list(range(g.num_nodes))
        assert all(part.owner[v] == s
                   for s, shard in enumerate(part.shards) for v in shard)

    @pytest.mark.parametrize("n,p,k,seed", PART_CASES)
    def test_balance_bound(self, n, p, k, seed):
        g = gnp(n, p, rng=seed)
        part = partition_graph(g, k, seed=seed)
        n_real, k_real = g.num_nodes, part.k
        equal_fill = -(-n_real // k_real)
        assert max(part.sizes) <= equal_fill  # the equal-fill guarantee
        assert part.imbalance == max(part.sizes) * k_real / n_real

    @pytest.mark.parametrize("n,p,k,seed", PART_CASES)
    def test_cut_edges_symmetric_count(self, n, p, k, seed):
        g = gnp(n, p, rng=seed)
        part = partition_graph(g, k, seed=seed)
        csr = g.to_csr()
        crossing = set()
        for i in range(len(csr.order)):
            for e in range(csr.indptr[i], csr.indptr[i + 1]):
                j = csr.indices[e]
                if part.owner[i] != part.owner[j]:
                    crossing.add((min(i, j), max(i, j)))
        assert part.cut_edges == len(crossing)
        if k == 1:
            assert part.cut_edges == 0

    def test_deterministic_for_equal_seeds(self):
        g = gnp(70, 0.1, rng=4)
        a = partition_graph(g, 3, seed=12)
        b = partition_graph(g, 3, seed=12)
        assert a.owner == b.owner and a.shards == b.shards
        c = partition_graph(g, 3, seed=13)
        assert c.owner != a.owner  # different stream, different growth

    def test_bit_identical_across_processes(self, tmp_path):
        g = gnp(120, 0.08, rng=7)
        local = partition_graph(g, 3, seed=7)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        script = (
            "from repro.graphs import gnp\n"
            "from repro.congest import partition_graph\n"
            "part = partition_graph(gnp(120, 0.08, rng=7), 3, seed=7)\n"
            "print(repr(part.owner))\n"
            "print(part.cut_edges, part.sizes)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        assert lines[0] == repr(local.owner)
        assert lines[1] == f"{local.cut_edges} {local.sizes}"

    def test_more_shards_than_nodes_clamps(self):
        part = partition_graph(path_graph(3), 8, seed=0)
        assert part.k == 3 and all(s == 1 for s in part.sizes)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_graph(path_graph(4), 0)
        with pytest.raises(ValueError):
            partition_graph(path_graph(4), 2, balance=0.9)

    def test_bfs_growth_keeps_shards_contiguous(self):
        # BFS growth makes the first shard a contiguous path segment, so
        # the cut is at most 2 edges (1 when growth starts near an end) —
        # far below the ~32 expected of a random 50/50 node split
        for seed in range(6):
            part = partition_graph(path_graph(64), 2, seed=seed)
            assert part.cut_edges <= 2


# --- golden workloads (shard count is the only degree of freedom) --------

def _matching(net):
    """The edge set of one Israeli-Itai run on ``net``."""
    return frozenset(israeli_itai(net).edges())


def _run_israeli(policy, seed, shards=None):
    g = gnp(48, 0.12, rng=seed)
    net = _network(g, policy, seed, shards)
    try:
        matching = israeli_itai(net)
        return set(matching.edges()), _metrics_tuple(net.metrics)
    finally:
        net.close()


def _run_luby(policy, seed, shards=None):
    g = gnp(56, 0.1, rng=seed)
    net = _network(g, policy, seed, shards)
    try:
        mis = luby_mis(net)
        return frozenset(mis), _metrics_tuple(net.metrics)
    finally:
        net.close()


def _counting_instance(seed):
    half = 22
    g = random_bipartite(half, half, 0.14, rng=seed)
    side = {v: (X_SIDE if v < half else Y_SIDE) for v in sorted(g.nodes)}
    mate = {v: None for v in g.nodes}
    for u in sorted(g.nodes):  # deterministic greedy seed matching
        if side[u] != X_SIDE or mate[u] is not None:
            continue
        for v in sorted(g.neighbors(u)):
            if mate[v] is None:
                mate[u] = v
                mate[v] = u
                break
    return g, side, mate


def _freeze_counts(outputs):
    return tuple(
        (v, None if s is None else (s.t, tuple(sorted(s.counts.items())),
                                    s.total, s.early_free_y))
        for v, s in sorted(outputs.items())
    )


def _run_counting_workload(policy, seed, shards=None, ell=4):
    g, side, mate = _counting_instance(seed)
    net = _network(g, policy, seed, shards)
    try:
        outputs = run_counting(net, side, mate, ell)
        return _freeze_counts(outputs), _metrics_tuple(net.metrics)
    finally:
        net.close()


def _run_token(policy, seed, shards=None, ell=1):
    # counting feeds token selection on the same network, so this also
    # exercises run-counter continuity
    g, side, mate = _counting_instance(seed)
    n_bound = max(2, g.num_nodes) * max(2, g.max_degree) ** ((ell + 1) // 2)
    net = _network(g, policy, seed, shards)
    try:
        states = run_counting(net, side, mate, ell)
        new_mate, applied = run_token_selection(
            net, side, mate, ell, states, n_bound ** 4)
        return (tuple(sorted(new_mate.items())), applied,
                _metrics_tuple(net.metrics))
    finally:
        net.close()


WORKLOADS = {
    "israeli_itai": (_run_israeli, [CONGEST, LOCAL]),
    "luby_mis": (_run_luby, [CONGEST, LOCAL]),
    "counting": (_run_counting_workload, [PIPELINE, LOCAL]),
    "token": (_run_token, [PIPELINE]),
}

#: kernelized protocols whose kernels declare no shard hooks: a sharded
#: plan runs them on the in-process kernel, with no worker pool
UNAUDITED = {
    "luby_mis": LubyMISNode,
    "counting": CountingNode,
    "token": TokenNode,
}

#: graph shapes the gnp matrix does not reach: long paths, a hub whose
#: edges cross every cut, isolated nodes, trees, bipartite, dense and
#: heavy-tailed graphs
FAMILIES = {
    "path": lambda: path_graph(41),
    "star": lambda: star_graph(30),
    "grid": lambda: grid_graph(6, 7),
    "tree": lambda: random_tree(50, rng=4),
    "bipartite": lambda: random_bipartite(20, 20, 0.15, rng=4),
    "sparse": lambda: gnp(60, 0.03, rng=8),
    "dense": lambda: gnp(24, 0.5, rng=2),
    "power_law": lambda: power_law_graph(60, rng=5),
}

MATRIX = [
    pytest.param(name, policy, seed, shards,
                 id=f"{name}-{policy.mode.value}-s{seed}-k{shards}")
    for name, (_, policies) in WORKLOADS.items()
    for policy in policies
    for seed in (0, 3, 11)
    for shards in (1, 2, 4)
]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name,policy,seed,shards", MATRIX)
    def test_sharded_matches_single_process(self, name, policy, seed,
                                            shards, monkeypatch):
        pools = []
        real = sharding.ShardedNetwork

        def spy(net, k, *args, **kwargs):
            pools.append(k)
            return real(net, k, *args, **kwargs)

        runner = WORKLOADS[name][0]
        golden = runner(policy, seed)
        monkeypatch.setattr(sharding, "ShardedNetwork", spy)
        assert runner(policy, seed, shards=shards) == golden
        # only the audited kernel engages a worker pool
        assert pools == ([] if name in UNAUDITED else [shards])

    @pytest.mark.parametrize("shards", (2, 3, 5))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_israeli_itai_golden_across_graph_families(self, family,
                                                       shards):
        g = FAMILIES[family]()
        ref = Network(g, policy=CONGEST, seed=4)
        golden = (_matching(ref), _metrics_tuple(ref.metrics))
        net = _network(g, CONGEST, 4, shards)
        try:
            assert (_matching(net), _metrics_tuple(net.metrics)) == golden
            assert net.metrics.shard_halo_bits > 0  # words crossed a cut
        finally:
            net.close()

    def test_structural_event_streams_identical(self):
        streams = {}
        for shards in (None, 3):
            collect = Collect(kinds=(RoundStart, RoundEnd))
            g = gnp(48, 0.12, rng=5)
            net = Network(g, policy=CONGEST, seed=5, observe=collect,
                          execution=_sharded(shards))
            try:
                israeli_itai(net)
            finally:
                net.close()
            streams[shards] = [
                (type(e).__name__, e.protocol, e.round,
                 getattr(e, "messages", None), getattr(e, "bits", None),
                 getattr(e, "dropped", None))
                for e in collect.events
            ]
        assert streams[3] == streams[None]
        assert any(kind == "RoundStart" for kind, *_ in streams[3])

    @pytest.mark.parametrize("name", sorted(UNAUDITED))
    def test_unaudited_kernels_run_in_process(self, name):
        net = Network(gnp(30, 0.2, rng=0), policy=LOCAL, seed=0,
                      execution=_sharded(2))
        decision = net.explain_execution(UNAUDITED[name])
        assert decision.tier == "kernel"
        assert any("shard_words == 0" in r for r in decision.reasons)

    def test_sequential_runs_share_one_pool(self):
        # metrics accumulate across protocols on one network, and the
        # worker pool (plus per-node rng run counter) carries over
        g = gnp(48, 0.12, rng=2)
        ref = Network(g, policy=LOCAL, seed=2)
        first = _matching(ref)
        second = _matching(ref)
        net = Network(g, policy=LOCAL, seed=2, execution=_sharded(2))
        try:
            assert _matching(net) == first
            assert _matching(net) == second
            assert len(net._sharded_execs) == 1  # one pool, reused
            assert _metrics_tuple(net.metrics) == _metrics_tuple(ref.metrics)
        finally:
            net.close()

    def test_halo_resize_is_transparent(self, monkeypatch):
        # a 64-byte initial halo block forces generation bumps on the
        # first real round; outputs and metrics must not notice
        golden = _run_israeli(CONGEST, 3)
        monkeypatch.setattr(sharding, "INITIAL_HALO_BYTES", 64)
        assert _run_israeli(CONGEST, 3, shards=2) == golden

    def test_shard_account_populated(self):
        g = grid_graph(8, 8)
        net = Network(g, policy=LOCAL, seed=1, execution=_sharded(2))
        try:
            israeli_itai(net)
            part = net._sharded_execs[2].partition
            assert net.metrics.shard_cut_edges == part.cut_edges > 0
            assert net.metrics.shard_imbalance == part.imbalance >= 1.0
            assert net.metrics.shard_halo_bits > 0
        finally:
            net.close()

    def test_single_shard_has_no_halo(self):
        g = gnp(40, 0.15, rng=6)
        net = Network(g, policy=LOCAL, seed=6, execution=_sharded(1))
        try:
            israeli_itai(net)
            assert net.metrics.shard_cut_edges == 0
            assert net.metrics.shard_halo_bits == 0
        finally:
            net.close()


class TestErrorEquivalence:
    def test_round_limit_error_identical_and_pool_survives(self):
        outcomes = {}
        for shards in (None, 2):
            g = gnp(40, 0.15, rng=2)
            net = _network(g, CONGEST, 2, shards)
            try:
                with pytest.raises(ProtocolError) as exc:
                    net.run(IsraeliItaiNode, protocol="israeli_itai",
                            max_rounds=3)
                partial = (str(exc.value), _metrics_tuple(net.metrics))
                # the pool must survive an aborted run and finish a new one
                outcomes[shards] = (partial, _matching(net),
                                    _metrics_tuple(net.metrics))
            finally:
                net.close()
        assert outcomes[2] == outcomes[None]
        assert "exceeded 3 rounds" in outcomes[2][0][0]

    def test_bandwidth_exceeded_identical(self):
        # a 1x-log budget (6 bits at n = 48) that Israeli-Itai's 12-bit
        # tags blow in round 1 — in the same round, with the same message
        # and the same partial accounting
        outcomes = {}
        for shards in (None, 2):
            g = gnp(48, 0.12, rng=9)
            net = _network(g, congest(multiplier=1), 9, shards)
            try:
                with pytest.raises(BandwidthExceeded) as exc:
                    israeli_itai(net)
                outcomes[shards] = (str(exc.value),
                                    _metrics_tuple(net.metrics))
            finally:
                net.close()
        assert outcomes[2] == outcomes[None]


class TestPoolRecovery:
    """A foreign exception mid-run (a hook or subscriber raising, a
    pickling failure during dispatch, an interrupt) must never leave
    workers parked mid-protocol: the next run on a cached pool would
    silently resume the aborted protocol and return wrong outputs."""

    def test_raising_hook_aborts_run_and_next_run_is_golden(self):
        outcomes = {}
        for shards in (None, 2):
            g = gnp(40, 0.15, rng=2)
            net = _network(g, CONGEST, 2, shards)
            try:
                def boom(round_number, network):
                    raise RuntimeError("hook crashed")

                with pytest.raises(RuntimeError, match="hook crashed"):
                    net.run(IsraeliItaiNode, protocol="israeli_itai",
                            on_round_end=boom)
                if shards is not None:
                    # the ABORT handshake keeps the same pool reusable
                    assert not net._sharded_execs[2].broken
                outcomes[shards] = (_matching(net),
                                    _metrics_tuple(net.metrics))
            finally:
                net.close()
        assert outcomes[2] == outcomes[None]

    def test_raising_subscriber_aborts_run_and_next_run_is_golden(self):
        class AngryOnce:
            interest = (RoundStart,)

            def __init__(self):
                self.fired = False

            def on_event(self, event):
                if not self.fired:
                    self.fired = True
                    raise ValueError("subscriber crashed")

        outcomes = {}
        for shards in (None, 2):
            g = gnp(40, 0.15, rng=4)
            net = Network(g, policy=LOCAL, seed=4, observe=AngryOnce(),
                          execution=_sharded(shards))
            try:
                with pytest.raises(ValueError, match="subscriber crashed"):
                    net.run(IsraeliItaiNode, protocol="israeli_itai")
                if shards is not None:
                    assert not net._sharded_execs[2].broken
                outcomes[shards] = (_matching(net),
                                    _metrics_tuple(net.metrics))
            finally:
                net.close()
        assert outcomes[2] == outcomes[None]

    def test_undispatchable_shared_closes_pool_and_rebuilds(self):
        # an unpicklable (non-callable) shared value fails inside the run
        # dispatch, after some workers may already hold the command: the
        # pool cannot be trusted and must be broken, closed, and replaced
        g = gnp(40, 0.15, rng=3)
        ref = Network(g, policy=LOCAL, seed=3)
        ref.run(IsraeliItaiNode, protocol="israeli_itai")  # burn run 1
        golden = _matching(ref)
        net = _network(g, LOCAL, 3, 2)
        try:
            with pytest.raises(TypeError, match="pickle"):
                net.run(IsraeliItaiNode, protocol="israeli_itai",
                        shared={"lock": threading.Lock()})
            assert net._sharded_execs[2].broken
            assert _matching(net) == golden  # fresh pool
            assert not net._sharded_execs[2].broken
        finally:
            net.close()

    def test_keyboard_interrupt_in_wait_breaks_and_closes_pool(self):
        g = gnp(30, 0.2, rng=0)
        net = Network(g, policy=LOCAL, seed=0, execution=_sharded(2))
        try:
            executor = net._sharded_executor(2)
            real_barrier = executor._barrier

            class Interrupted:
                def wait(self, timeout=None):
                    raise KeyboardInterrupt

                def abort(self):
                    real_barrier.abort()

            executor._barrier = Interrupted()
            # the original exception type must survive, but the pool may
            # not: broken and closed, so the next run rebuilds
            with pytest.raises(KeyboardInterrupt):
                executor._wait()
            assert executor.broken and executor._closed
        finally:
            net.close()


class TestSelection:
    def _eligible_net(self, **kwargs):
        return Network(gnp(30, 0.2, rng=0), policy=LOCAL, seed=0, **kwargs)

    def test_explicit_shards_engage(self):
        net = self._eligible_net(execution=_sharded(1))
        try:
            assert _selects_shards(net, IsraeliItaiNode)
        finally:
            net.close()

    def test_shards_argument_implies_opt_in_on_csr(self):
        net = self._eligible_net(execution=ExecutionPlan(shards=1))
        try:
            assert _selects_shards(net, IsraeliItaiNode)
        finally:
            net.close()

    def test_auto_requires_size_and_cores(self):
        net = self._eligible_net()
        try:
            # 30 nodes is far below the auto threshold
            assert resolve_shards(net) is None
            assert not _selects_shards(net, IsraeliItaiNode)
        finally:
            net.close()

    def test_auto_sharding_composes_with_kernels(self, monkeypatch):
        monkeypatch.setattr(sharding, "AUTO_SHARD_MIN_NODES", 10)
        monkeypatch.setattr(sharding.os, "cpu_count", lambda: 4)
        net = self._eligible_net()
        try:
            # shard workers run the kernel fast path themselves, so
            # auto-sharding composes with the in-process kernel tier
            # instead of deferring to it
            assert resolve_shards(net) == 4
            assert _selects_shards(net, IsraeliItaiNode)
        finally:
            net.close()

    def test_shard_safety_is_declared_not_inferred(self):
        from repro.congest import kernels
        from repro.congest.kernels import RoundKernel

        # opt-in per audited kernel: the base class never volunteers
        assert RoundKernel.shard_words == 0

        class Unaudited(RoundKernel):
            pass

        assert Unaudited.shard_words == 0
        for node_cls in (LubyMISNode, CountingNode, TokenNode):
            assert kernels.kernel_for(node_cls).shard_words == 0, node_cls
        declared = [cls for cls in kernels._REGISTRY.values()
                    if cls.shard_words > 0]
        assert declared == [IsraeliItaiKernel]

    def test_unaudited_kernel_never_shards(self, monkeypatch):
        monkeypatch.setattr(IsraeliItaiKernel, "shard_words", 0)
        net = self._eligible_net(execution=_sharded(1))
        try:
            assert not _selects_shards(net, IsraeliItaiNode)
        finally:
            net.close()

    def test_fallback_conditions(self):
        # every condition that must force single-process execution does
        class EdgePolicy(BandwidthPolicy):
            pass

        cases = {
            "faults": self._eligible_net(execution=_sharded(1),
                                         faults=FaultSpec(loss=0.1)),
            "policy": Network(gnp(30, 0.2, rng=0), policy=EdgePolicy(),
                              seed=0, execution=_sharded(1)),
            "observer": self._eligible_net(
                execution=_sharded(1),
                observe=Collect(kinds=(MessageDelivered,))),
        }
        try:
            for label, net in cases.items():
                assert not _selects_shards(net, IsraeliItaiNode), label
            net = self._eligible_net(execution=_sharded(1))
            cases["clean"] = net
            # unregistered factory (a subclass) and callable shared values
            class SubIsraeliItai(IsraeliItaiNode):
                pass

            assert not _selects_shards(net, SubIsraeliItai)
            assert not _selects_shards(
                net, IsraeliItaiNode, {"observer": lambda e: None})
            assert _selects_shards(net, IsraeliItaiNode)
        finally:
            for net in cases.values():
                net.close()

    def test_sharded_engine_falls_back_to_kernels(self):
        # an ineligible run on the sharded-kernel tier drops down the
        # ladder (kernel, then per-node) and stays golden
        g = gnp(40, 0.15, rng=8)
        plain = Network(g, policy=CONGEST, seed=8, execution=_sharded(1))
        try:
            assert plain.explain_execution(
                IsraeliItaiNode,
                {"observer": lambda e: None}).tier == "kernel"
        finally:
            plain.close()
        results = {}
        for shards in (None, 2):
            net = Network(g, policy=CONGEST, seed=8,
                          faults=FaultSpec(loss=0.1),
                          execution=_sharded(shards))
            try:
                assert net.explain_execution(LubyMISNode).tier == "node"
                results[shards] = (frozenset(luby_mis(net)),
                                   _metrics_tuple(net.metrics))
            finally:
                net.close()
        assert results[2] == results[None]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Network(path_graph(4),
                    execution=ExecutionPlan(tier="node", shards=2))
        with pytest.raises(ValueError):
            Network(path_graph(4),
                    execution=ExecutionPlan(tier="legacy", shards=2))

    def test_shards_zero_is_a_kill_switch(self):
        # shards=0 pins single-process execution instead of raising
        net = self._eligible_net(execution=ExecutionPlan(shards=0))
        try:
            assert resolve_shards(net) is None
            assert not _selects_shards(net, IsraeliItaiNode)
        finally:
            net.close()

    def test_close_is_idempotent_and_network_stays_usable(self):
        g = gnp(40, 0.15, rng=1)
        ref = Network(g, policy=LOCAL, seed=1)
        first = _matching(ref)
        second = _matching(ref)  # run counter advances the rng
        net = Network(g, policy=LOCAL, seed=1, execution=_sharded(2))
        try:
            assert _matching(net) == first
            net.close()
            net.close()
            # a fresh pool is built on demand, resuming the run counter
            assert _matching(net) == second
            assert _metrics_tuple(net.metrics) == _metrics_tuple(ref.metrics)
        finally:
            net.close()
