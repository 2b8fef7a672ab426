"""Golden equivalence of the vectorized kernel fast path.

A registered :class:`~repro.congest.kernels.RoundKernel` must be
*bit-identical* to per-node dispatch: same outputs, same round counts, same
:class:`~repro.runtime.metrics.Metrics`, same per-node random streams, same
structural event stream.  The matrix below runs every kernelized protocol
under both paths (``execution="auto"`` selects the kernel,
``execution="node"`` forces per-node dispatch on the same batched delivery
engine) and compares everything observable — with numpy and on the
pure-python fallback.

The second half pins the *selection* rules: every condition that must force
the slow path actually does, and the fast path engages when nothing does.
"""

import importlib
import pathlib
import random
import subprocess
import sys

import pytest

from repro.congest import (
    CONGEST,
    LOCAL,
    PIPELINE,
    BandwidthExceeded,
    BandwidthPolicy,
    FaultSpec,
    MessageDelivered,
    Network,
    ProtocolError,
    RoundEnd,
    RoundStart,
    Subnetwork,
    congest,
    kernel_for,
)
from repro.congest import kernels
from repro.dist.bipartite_counting import (
    X_SIDE,
    Y_SIDE,
    CountingKernel,
    CountingNode,
    run_counting,
)
from repro.dist.bipartite_mcm import bipartite_mcm
from repro.dist.general_mcm import general_mcm
from repro.dist.israeli_itai import (
    ARRAY_MIN_LIVE,
    IsraeliItaiKernel,
    IsraeliItaiNode,
    israeli_itai,
)
from repro.dist.luby_mis import LubyMISNode, luby_mis
from repro.dist.token_mis import run_token_selection
from repro.dist.random_tools import (
    SplitMixStream,
    node_seed_from_prefix,
    node_stream_prefix,
    node_stream_seed,
    spawn_seed,
)
from repro.matching import Matching
from repro.graphs import Graph, edge_key, gnp, path_graph, random_bipartite
from repro.observe.events import STRUCTURAL_KINDS


def _metrics_tuple(m):
    return (m.rounds, m.pipelined_extra_rounds, m.messages, m.total_bits,
            m.max_message_bits, tuple(sorted(m.protocol_rounds.items())))


class Collect:
    """Minimal observer: records every event it is routed."""

    def __init__(self, kinds=None):
        if kinds is not None:
            self.interest = kinds
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# --- workloads (the execution tier is the only degree of freedom) -------

def _run_israeli(execution, policy, seed, observe=None):
    g = gnp(48, 0.12, rng=seed)
    net = Network(g, policy=policy, seed=seed, execution=execution,
                  observe=observe)
    matching = israeli_itai(net)
    return set(matching.edges()), _metrics_tuple(net.metrics)


def _run_israeli_constrained(execution, policy, seed,
                             observe=None):
    """Israeli-Itai with a seed matching and an allowed-edge subgraph."""
    g = gnp(48, 0.12, rng=seed)
    edges = sorted((u, v) for u in g.nodes for v in g.neighbors(u) if u < v)
    initial = Matching()
    used = set()
    for u, v in edges[:6]:
        if u not in used and v not in used:
            initial.add(u, v)
            used.update((u, v))
    allowed = set(edges[::2]) | set(edges[:6])
    net = Network(g, policy=policy, seed=seed, execution=execution,
                  observe=observe)
    matching = israeli_itai(net, initial=initial, allowed_edges=allowed)
    assert all(matching.mate(u) == v for u, v in initial.edges())
    return set(matching.edges()), _metrics_tuple(net.metrics)


def _run_luby(execution, policy, seed, observe=None):
    g = gnp(56, 0.1, rng=seed)
    net = Network(g, policy=policy, seed=seed, execution=execution,
                  observe=observe)
    mis = luby_mis(net)
    return frozenset(mis), _metrics_tuple(net.metrics)


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


def _run_counting(execution, policy, seed, observe=None, ell=4):
    g, side, mate = _counting_instance(seed)
    net = Network(g, policy=policy, seed=seed, execution=execution,
                  observe=observe)
    outputs = run_counting(net, side, mate, ell)
    frozen = tuple(
        (v, None if s is None else (s.t, tuple(sorted(s.counts.items())),
                                    s.total, s.early_free_y))
        for v, s in sorted(outputs.items())
    )
    return frozen, _metrics_tuple(net.metrics)


def _frozen_counts(outputs):
    return tuple(
        (v, None if s is None else (s.t, tuple(s.counts.items()), s.total,
                                    s.early_free_y))
        for v, s in sorted(outputs.items())
    )


def _observed(execution, policy, seed, graph):
    """A network observed by every event kind but the per-message stream
    (which would force per-node dispatch), and the observer."""
    collect = Collect(kinds=STRUCTURAL_KINDS)
    return Network(graph, policy=policy, seed=seed, execution=execution,
                   observe=collect), collect


def _event_stream(collect):
    return [(type(e).__name__, dict(vars(e))) for e in collect.events]


def _run_token_selection(execution, policy, seed):
    """Two token passes (Section 3.2) on the count states of per-node
    counting passes, so only the token protocol's tier varies."""
    g, side, mate = _counting_instance(seed)
    ell = 3
    cap = (g.num_nodes * g.max_degree ** 2) ** 4
    net, collect = _observed(execution, policy, seed, g)
    reference = Network(g, policy=policy, seed=seed, execution="node")
    applied = []
    for _ in range(2):
        states = run_counting(reference, side, mate, ell)
        mate, paths = run_token_selection(net, side, mate, ell, states, cap)
        applied.append(paths)
    return (tuple(sorted(mate.items())), applied,
            _metrics_tuple(net.metrics), _event_stream(collect))


def _run_bipartite_mcm(execution, policy, seed):
    g = random_bipartite(30, 30, 0.1, rng=seed)
    net, collect = _observed(execution, policy, seed, g)
    res = bipartite_mcm(g, k=3, seed=seed, network=net)
    return (sorted(res.matching.edges()),
            [vars(p) for p in res.stats.phases],
            _metrics_tuple(net.metrics), _event_stream(collect))


def _run_general_mcm(execution, policy, seed):
    """Algorithm 4 re-samples ``side``/``allowed`` every iteration, so the
    counting kernel's level state must be rebuilt between augmentations."""
    g = gnp(36, 0.12, rng=seed)
    net, collect = _observed(execution, policy, seed, g)
    res = general_mcm(g, k=2, seed=seed, network=net)
    return (sorted(res.matching.edges()), res.certified,
            [vars(it) for it in res.iterations],
            _metrics_tuple(net.metrics), _event_stream(collect))


WORKLOADS = {
    "israeli_itai": (_run_israeli, [CONGEST, LOCAL]),
    "israeli_itai_constrained": (_run_israeli_constrained, [CONGEST]),
    "luby_mis": (_run_luby, [CONGEST, LOCAL]),
    "counting": (_run_counting, [PIPELINE, LOCAL]),
    "token_selection": (_run_token_selection, [PIPELINE, LOCAL]),
    "bipartite_mcm": (_run_bipartite_mcm, [PIPELINE, LOCAL]),
    "general_mcm": (_run_general_mcm, [PIPELINE]),
}

MATRIX = [
    pytest.param(name, policy, seed, id=f"{name}-{policy.mode.value}-s{seed}")
    for name, (_, policies) in WORKLOADS.items()
    for policy in policies
    for seed in (0, 3, 11)
]


#: the module (``repro.dist.israeli_itai`` names the function)
ISRAELI_ITAI = importlib.import_module("repro.dist.israeli_itai")

#: the israeli_itai rows once more, with the array path's gate at 0: as
#: is, their 48-node graphs sit below the gate and run the list path
ARRAY_MATRIX = [
    pytest.param(name, policy, seed,
                 id=f"{name}-{policy.mode.value}-s{seed}-array")
    for name in ("israeli_itai", "israeli_itai_constrained")
    for policy in WORKLOADS[name][1]
    for seed in (0, 3, 11)
]


def _array_runs(monkeypatch):
    """The list of runs (their n) that take IsraeliItaiKernel's array
    path from here on."""
    runs = []
    real = IsraeliItaiKernel._setup_arrays

    def spy(self, *args):
        runs.append(self.arrays.n)
        return real(self, *args)

    monkeypatch.setattr(IsraeliItaiKernel, "_setup_arrays", spy)
    return runs


def _gapped_graph(seed):
    """400 nodes with ids negative, gapped and one at 2**63 + 11 (past
    int64), isolated nodes among them, and more live nodes than the array
    path's gate."""
    base = gnp(400, 2.5 / 400, rng=seed)
    ids = sorted(random.Random(seed).sample(range(-10 ** 9, 10 ** 9), 400))
    ids[-1] = 2 ** 63 + 11
    relabel = dict(zip(sorted(base.nodes), ids))
    g = Graph()
    g.add_nodes(ids)
    for u, v, _ in base.edges():
        g.add_edge(relabel[u], relabel[v])
    g.add_edge(ids[0], ids[-1])  # the extreme ids draw too
    return g


def _run_israeli_gapped(execution, seed, constrained):
    g = _gapped_graph(seed)
    initial = allowed = None
    if constrained:
        edges = sorted((u, v) for u, v, _ in g.edges())
        initial = Matching()
        for u, v in edges[:40]:
            if initial.is_free(u) and initial.is_free(v):
                initial.add(u, v)
        allowed = set(edges[::2]) | set(edges[:40])
    net = Network(g, policy=CONGEST, seed=seed, execution=execution)
    matching = israeli_itai(net, initial=initial, allowed_edges=allowed)
    return set(matching.edges()), _metrics_tuple(net.metrics)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name,policy,seed", MATRIX)
    def test_kernel_matches_per_node_path(self, name, policy, seed):
        runner = WORKLOADS[name][0]
        assert runner("auto", policy, seed) == runner("node", policy, seed)

    @pytest.mark.parametrize("name,policy,seed", ARRAY_MATRIX)
    def test_array_path_matches_per_node_path(self, name, policy, seed,
                                              monkeypatch):
        pytest.importorskip("numpy")
        runner = WORKLOADS[name][0]
        golden = runner("node", policy, seed)
        monkeypatch.setattr(ISRAELI_ITAI, "ARRAY_MIN_LIVE", 0)
        runs = _array_runs(monkeypatch)
        assert runner("auto", policy, seed) == golden
        assert runs == [48]

    @pytest.mark.parametrize("numpy_on", [True, False],
                             ids=["numpy", "fallback"])
    @pytest.mark.parametrize("constrained", [False, True],
                             ids=["plain", "constrained"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_israeli_itai_above_the_gate(self, seed, constrained, numpy_on,
                                         monkeypatch):
        if numpy_on:
            pytest.importorskip("numpy")
        g = _gapped_graph(seed)
        assert sum(1 for v in g.nodes if g.degree(v)) >= ARRAY_MIN_LIVE
        assert min(g.nodes) < 0 and max(g.nodes) >= 2 ** 63
        golden = _run_israeli_gapped("node", seed, constrained)
        if not numpy_on:
            monkeypatch.setattr(kernels, "_np", None)
        runs = _array_runs(monkeypatch)
        assert _run_israeli_gapped("auto", seed, constrained) == golden
        assert runs == ([400] if numpy_on else [])

    @pytest.mark.parametrize("name,policy,seed", MATRIX)
    def test_pure_python_fallback_matches(self, name, policy, seed,
                                          monkeypatch):
        runner = WORKLOADS[name][0]
        golden = runner("node", policy, seed)
        monkeypatch.setattr(kernels, "_np", None)
        assert runner("auto", policy, seed) == golden

    def test_structural_event_streams_identical(self):
        streams = {}
        for execution in ("auto", "node"):
            collect = Collect(kinds=(RoundStart, RoundEnd))
            _run_luby(execution, CONGEST, 5, observe=collect)
            streams[execution] = [
                (type(e).__name__, e.protocol, e.round,
                 getattr(e, "messages", None), getattr(e, "bits", None),
                 getattr(e, "dropped", None))
                for e in collect.events
            ]
        assert streams["auto"] == streams["node"]
        assert any(kind == "RoundStart" for kind, *_ in streams["auto"])

    def test_round_limit_error_identical(self):
        errors = {}
        for execution in ("auto", "node"):
            g = gnp(40, 0.15, rng=2)
            net = Network(g, policy=CONGEST, seed=2, execution=execution)
            with pytest.raises(ProtocolError) as exc:
                net.run(LubyMISNode, protocol="luby_mis", max_rounds=3)
            errors[execution] = (str(exc.value),
                                 _metrics_tuple(net.metrics))
        assert errors["auto"] == errors["node"]
        assert "exceeded 3 rounds" in errors["auto"][0]

    def test_bandwidth_exceeded_identical(self):
        # a 1x-log budget (5 bits on toy graphs) that the counting pass's
        # growing path counts must blow — on both paths at the same point,
        # with the same accounting; congest() returns a plain
        # BandwidthPolicy, so the kernel still engages
        outcomes = {}
        for execution in ("auto", "node"):
            g = random_bipartite(14, 14, 0.5, rng=9)
            side = {v: (X_SIDE if v < 14 else Y_SIDE)
                    for v in sorted(g.nodes)}
            mate = {v: None for v in g.nodes}
            for u in sorted(g.nodes):  # near-perfect greedy matching
                if side[u] != X_SIDE or mate[u] is not None:
                    continue
                for v in sorted(g.neighbors(u)):
                    if mate[v] is None:
                        mate[u] = v
                        mate[v] = u
                        break
            net = Network(g, policy=congest(multiplier=1), seed=9,
                          execution=execution)
            assert _kernel_selected(net, CountingNode) == (
                execution == "auto")
            with pytest.raises(BandwidthExceeded):
                run_counting(net, side, mate, ell=6)
            outcomes[execution] = _metrics_tuple(net.metrics)
        assert outcomes["auto"] == outcomes["node"]

    def test_isolated_nodes_and_empty_graph(self):
        g = path_graph(5)
        g.add_node(99)  # isolated: joins the MIS in round 0, no rng draw
        for execution in ("auto", "node"):
            net = Network(g, policy=CONGEST, seed=1, execution=execution)
            mis = luby_mis(net)
            assert 99 in mis
        results = {
            execution: _run_luby_on(path_graph(1), execution)
            for execution in ("auto", "node")
        }
        assert results["auto"] == results["node"]

    @pytest.mark.parametrize("seed", range(8))
    def test_trailing_isolated_nodes_keep_the_last_row_whole(self, seed):
        # empty CSR rows at the end must not cut a slot off the last
        # non-empty row (node 5 would miss neighbour 4's draw)
        g = Graph()
        g.add_nodes(range(8))
        for u, v in ((0, 1), (0, 4), (0, 5), (2, 3), (3, 5), (4, 5)):
            g.add_edge(u, v)
        results = {}
        for execution in ("auto", "node"):
            net = Network(g, policy=CONGEST, seed=seed, execution=execution)
            results[execution] = (frozenset(luby_mis(net)),
                                  _metrics_tuple(net.metrics))
        assert results["auto"] == results["node"]
        mis = results["auto"][0]
        assert all(not (u in mis and v in mis) for u, v, _ in g.edges())


class TestLevelReuse:
    """State built once, not once per run: the counting kernel reuses its
    level state (sides, eligible rows, participants) while ``side`` and
    ``allowed`` say the same thing — a caller may mutate either map in
    place between runs — and a network builds its per-node tables only
    for the steppers that read them."""

    def _instance(self):
        g, side, mate = _counting_instance(3)
        allowed = {edge_key(u, v) for u, v, _ in g.edges()}
        return g, side, mate, allowed

    def _fresh(self, g, side, mate, allowed):
        net = Network(g, policy=PIPELINE, seed=3, execution="node")
        return _frozen_counts(run_counting(net, side, mate, 3, allowed))

    def test_maps_mutated_in_place_between_runs(self):
        g, side, mate, allowed = self._instance()
        net = Network(g, policy=PIPELINE, seed=3)
        assert _kernel_selected(net, CountingNode)
        runs = []
        for mutate in (None, "side", "allowed"):
            if mutate == "side":  # the same dict object, new content
                for v in sorted(side)[::3]:
                    side[v] = None
            elif mutate == "allowed":  # the same set object, new content
                for e in sorted(allowed)[::2]:
                    allowed.discard(e)
            got = _frozen_counts(run_counting(net, side, mate, 3, allowed))
            assert got == self._fresh(g, side, mate, allowed), mutate
            runs.append(got)
        # each mutation changed what the pass computes
        assert runs[0] != runs[1] != runs[2]

    def test_equal_content_reuses_the_level(self):
        g, side, mate, allowed = self._instance()
        net = Network(g, policy=PIPELINE, seed=3)
        arrays = kernels.csr_arrays(net)
        first = run_counting(net, side, mate, 3, allowed)
        level = arrays.level[CountingKernel]
        # equal copies of both maps and a new matching: the level holds
        mate2 = dict(mate)
        x = min(v for v in side if side[v] == X_SIDE and mate[v] is not None)
        mate2[x] = mate2[mate[x]] = None
        second = run_counting(net, dict(side), mate2, 3, set(allowed))
        assert arrays.level[CountingKernel] is level
        assert _frozen_counts(first) == self._fresh(g, side, mate, allowed)
        assert (_frozen_counts(second)
                == self._fresh(g, side, mate2, allowed))
        run_counting(net, side, mate, 3, None)  # no restriction: rebuilt
        assert arrays.level[CountingKernel] is not level

    def test_kernel_runs_build_no_per_node_tables(self):
        tables = ("_neighbor_cache", "_weight_cache", "_slot_of")
        for execution in ("auto", "node"):
            g = random_bipartite(20, 20, 0.15, rng=4)
            net = Network(g, policy=PIPELINE, seed=4, execution=execution)
            bipartite_mcm(g, k=2, seed=4, network=net)
            built = [name for name in tables if name in vars(net)]
            assert built == ([] if execution == "auto" else list(tables))


def _run_luby_on(g, execution):
    net = Network(g, policy=CONGEST, seed=0, execution=execution)
    return frozenset(luby_mis(net)), _metrics_tuple(net.metrics)


def _kernel_selected(net, factory):
    """True when a run of ``factory`` on ``net`` takes the in-process
    kernel fast path."""
    return net.explain_execution(factory).tier == "kernel"


class TestSelectionRules:
    def _net(self, **kwargs):
        kwargs.setdefault("policy", CONGEST)
        kwargs.setdefault("seed", 0)
        return Network(gnp(20, 0.2, rng=0), **kwargs)

    def test_fast_path_engages_by_default(self):
        net = self._net()
        for cls in (IsraeliItaiNode, LubyMISNode):
            assert _kernel_selected(net, cls)

    def test_registry_lookup(self):
        assert kernel_for(IsraeliItaiNode) is not None
        assert kernel_for(LubyMISNode) is not None
        assert kernel_for(CountingNode) is not None

    def test_node_engine_forces_slow_path(self):
        assert not _kernel_selected(self._net(execution="node"), LubyMISNode)

    def test_subclass_falls_back(self):
        class Tweaked(LubyMISNode):
            pass

        assert kernel_for(Tweaked) is None
        assert not _kernel_selected(self._net(), Tweaked)

    def test_faults_force_slow_path(self):
        net = self._net(faults=FaultSpec(loss=0.1))
        assert not _kernel_selected(net, LubyMISNode)

    def test_policy_subclass_forces_slow_path(self):
        class EdgePriced(BandwidthPolicy):
            pass

        net = self._net(policy=EdgePriced(mode=CONGEST.mode))
        assert not _kernel_selected(net, LubyMISNode)

    def test_per_message_observer_forces_slow_path(self):
        watcher = Collect(kinds=(MessageDelivered,))
        net = self._net(observe=watcher)
        assert not _kernel_selected(net, LubyMISNode)
        # structural observers do not force it
        structural = Collect(kinds=(RoundStart, RoundEnd))
        net2 = self._net(observe=structural)
        assert _kernel_selected(net2, LubyMISNode)

    def test_kernel_engages_inside_subnetwork(self):
        parent = Network(gnp(30, 0.15, rng=6), policy=CONGEST, seed=6)
        results = {}
        for execution in ("auto", "node"):
            with Subnetwork(parent, parent.graph, label="mis",
                            execution=execution) as sub:
                assert _kernel_selected(sub.network, LubyMISNode) == (
                    execution == "auto")
                results[execution] = frozenset(luby_mis(sub.network))
        assert results["auto"] == results["node"]


class TestRngDerivation:
    def test_prefix_cache_matches_spawn_seed(self):
        for seed in (0, 7, 123456789):
            for run in (0, 1, 9):
                for salt in (0, 2):
                    prefix = node_stream_prefix(seed, run, salt)
                    for node in (0, 1, 17, 10 ** 9):
                        assert (node_seed_from_prefix(prefix, node)
                                == node_stream_seed(seed, run, node, salt)
                                == spawn_seed(seed, "node", run, salt, node))

    def test_network_node_rng_uses_collision_safe_streams(self):
        net = Network(path_graph(4), seed=5)
        net._run_counter = 3
        expected = node_stream_seed(5, 3, 2, salt=0)
        assert net.node_rng(2).random() == SplitMixStream(expected).random()


NUMPY_ABSENT_SCRIPT = """
import sys

class _BlockNumpy:
    def find_module(self, name, path=None):
        if name == "numpy" or name.startswith("numpy."):
            return self
    def load_module(self, name):
        raise ImportError("numpy blocked for this test")

sys.meta_path.insert(0, _BlockNumpy())
sys.path.insert(0, {src!r})

from repro.congest import CONGEST, Network, kernels
from repro.dist.luby_mis import LubyMISNode, luby_mis
from repro.graphs import gnp

assert kernels._np is None, "numpy import should have been blocked"

results = {{}}
for execution in ("auto", "node"):
    net = Network(gnp(40, 0.12, rng=3), policy=CONGEST, seed=3,
                  execution=execution)
    results[execution] = (frozenset(luby_mis(net)), net.metrics.rounds,
                          net.metrics.messages, net.metrics.total_bits)
    tier = net.explain_execution(LubyMISNode).tier
    assert (tier == "kernel") == (execution == "auto"), tier
assert results["auto"] == results["node"], results

# above the array path's gate, israeli_itai keeps to its list path
from repro.dist.israeli_itai import israeli_itai
matchings = {{}}
for execution in ("auto", "node"):
    net = Network(gnp(400, 0.01, rng=3), policy=CONGEST, seed=3,
                  execution=execution)
    matchings[execution] = (sorted(israeli_itai(net).edges()),
                            net.metrics.rounds, net.metrics.messages)
assert matchings["auto"] == matchings["node"], matchings
print("NUMPY_ABSENT_OK")
"""


class TestNumpyAbsent:
    def test_import_and_run_without_numpy(self):
        """The kernels module must import and stay golden with numpy gone."""
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_ABSENT_SCRIPT.format(src=src)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "NUMPY_ABSENT_OK" in proc.stdout
