"""Vectorized superstep kernels: the array-native fast path of the engine.

The paper's protocols are bulk-synchronous supersteps in which every node
runs the *same* small transition function, so — following the standard
BSP/Pregel observation (Malewicz et al., SIGMOD 2010) — whole rounds can be
executed as operations over packed per-node state arrays and the flat CSR
adjacency instead of a Python loop of :class:`~repro.congest.node.
NodeAlgorithm` objects with dict inboxes/outboxes.

A protocol opts in by registering a :class:`RoundKernel` for its node class
(:func:`register_kernel`); :meth:`Network.run <repro.congest.network.
Network.run>` then selects the kernel automatically whenever nothing forces
the per-node path.  A kernel is a *stepper*: it advances whole rounds when
the engine's one loop asks it to, and that loop — not the kernel — owns
termination, quiescence, the round limit, ``RoundStart``/``RoundEnd`` and
the per-round metric record.  The kernel fast path is **golden-equivalent**
to per-node dispatch — identical outputs, round counts,
:class:`~repro.runtime.metrics.Metrics`, per-node random streams, and
structural event stream, enforced by ``tests/test_kernels.py``.  The
per-node path remains the executable specification; kernels are an
optimization, never a semantic fork.

Selection rules (:func:`repro.models.execution.resolve_execution`, the
kernel-tier gates):

* the plan's tier must allow a kernel rung (``tier="node"`` runs batched
  delivery with per-node dispatch; ``tier="legacy"`` is the dict
  reference engine);
* the run's node factory must be *exactly* a registered class — subclasses
  fall back to per-node dispatch, since they may override behavior;
* no per-message observer may be subscribed (``bus.wants(MESSAGE_DELIVERED)``
  — e.g. an attached :class:`~repro.observe.tracing.Tracer`), no fault
  injection may be active, and the bandwidth policy must be a plain
  :class:`~repro.congest.policies.BandwidthPolicy` (subclasses might price
  per edge, which kernels memoize away).

Kernels also power the **sharded** fast path, for exactly one audited
kernel: :class:`~repro.dist.israeli_itai.IsraeliItaiKernel` declares
``shard_words > 0`` and implements the ``shard_*`` hooks, so it runs
*inside* shard worker processes (:mod:`repro.congest.sharding`), with a
:class:`ShardContext` supplying int64 record staging and zero-copy halo
record views in place of the Network.  Every other kernel runs
in-process only.

numpy is optional: kernels use it for bulk array passes when importable and
fall back to tight pure-python array code otherwise (``_np`` is the module
handle; tests monkeypatch it to ``None`` to exercise the fallback).

Randomness: kernels draw per-node randomness from the same counter-based
:class:`~repro.dist.random_tools.SplitMixStream` streams that
:meth:`~repro.congest.network.Network.node_rng` hands the per-node path,
with each node's draws taken in exactly the per-node call order — which
is what makes the streams bit-identical.  Draw ``c`` of node ``v`` is the
closed formula ``splitmix64(key_v + c·γ)``, so a kernel may take the
draws one call at a time from :meth:`RoundKernel.rng` (streams created
lazily per node and persisted across rounds) or, as
:class:`~repro.dist.israeli_itai.IsraeliItaiKernel`'s array path does,
for many nodes at once from their keys and per-node draw counters
(:func:`~repro.dist.random_tools.vec_draws`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple, Type)

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except Exception:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

from .network import Network

if TYPE_CHECKING:  # repro.dist imports this package; hints only
    from ..dist.random_tools import SplitMixStream


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[Any, Type["RoundKernel"]] = {}


def register_kernel(node_cls: type) -> Callable[[type], type]:
    """Class decorator registering a :class:`RoundKernel` for ``node_cls``.

    ::

        @register_kernel(LubyMISNode)
        class LubyMISKernel(RoundKernel):
            ...

    Registration is by exact class: a *subclass* of ``node_cls`` passed as a
    run's factory does not select the kernel (it may override behavior).
    """

    def decorate(kernel_cls: type) -> type:
        kernel_cls.node_cls = node_cls
        _REGISTRY[node_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_for(factory: Any) -> Optional[Type["RoundKernel"]]:
    """The registered kernel class for a node factory, or None."""
    try:
        return _REGISTRY.get(factory)
    except TypeError:  # unhashable factory object
        return None


# ---------------------------------------------------------------------------
# CSR array views
# ---------------------------------------------------------------------------

class CSRArrays:
    """Packed views of a network's CSR adjacency for kernel consumption.

    Everything is indexed by node *index* (position in ``order``) and edge
    *slot* (position in ``indices``), exactly like :class:`~repro.graphs.
    graph.CSRAdjacency`.  ``tgt`` maps each slot to the target node index
    and ``rev`` to the reverse-edge slot, so a kernel can address "the
    entry for me in my neighbor's row" in O(1) — the primitive behind
    vectorized pruning.  When numpy is importable, ``np`` holds the module
    and ``np_indptr``/``np_tgt``/``np_rev`` the int64 array views; when it
    is not, ``np`` is None and kernels take their pure-python branches.

    Accepts a :class:`Network` or a bare CSR adjacency snapshot (shard
    workers hold only the latter).  Both persist across runs, so
    ``level`` memoizes state a kernel derives from this layout and a
    run's inputs, keyed by the kernel class; the kernel checks the inputs'
    content before it reuses an entry (see :class:`~repro.dist.
    bipartite_counting.CountingKernel`).
    """

    def __init__(self, source: Any) -> None:
        csr = source.csr if hasattr(source, "csr") else source
        self.order: Tuple[int, ...] = csr.order
        self.index: Dict[int, int] = csr.index
        self.n = len(csr.order)
        self.num_slots = csr.num_slots
        self.indptr = csr.indptr
        self.tgt = csr.indices
        self.rev = csr.rev
        self.level: Dict[type, Any] = {}
        self.np = _np
        if _np is not None:
            self.np_indptr = _np.frombuffer(csr.indptr, dtype=_np.int64)
            if csr.num_slots:
                self.np_tgt = _np.frombuffer(csr.indices, dtype=_np.int64)
                self.np_rev = _np.frombuffer(csr.rev, dtype=_np.int64)
            else:
                self.np_tgt = _np.zeros(0, dtype=_np.int64)
                self.np_rev = _np.zeros(0, dtype=_np.int64)

    def row(self, i: int) -> range:
        """The slot range of node index ``i``."""
        return range(self.indptr[i], self.indptr[i + 1])

    def adjacent(self, i: int, j: Optional[int]) -> bool:
        """True when node index ``j`` is a neighbor of node index ``i``.

        A binary search of ``i``'s CSR row (rows ascend by neighbor
        index): the kernels' check that a unicast target is a neighbor,
        without per-node dicts.  ``j`` is None for an id outside the
        graph."""
        if j is None:
            return False
        hi = self.indptr[i + 1]
        e = bisect_left(self.tgt, j, self.indptr[i], hi)
        return e < hi and self.tgt[e] == j


def csr_arrays(net: Network) -> CSRArrays:
    """The (cached) :class:`CSRArrays` view of ``net``.

    Rebuilt when the numpy backend handle changed since the cache was
    populated (tests monkeypatch ``kernels._np`` to exercise the fallback).
    """
    cached = getattr(net, "_kernel_arrays", None)
    if cached is None or cached.np is not _np:
        cached = CSRArrays(net)
        net._kernel_arrays = cached
    return cached


# ---------------------------------------------------------------------------
# shard-worker context: the kernel's world inside a worker process
# ---------------------------------------------------------------------------

class ShardContext:
    """Worker-side services for a kernel's sharded fast path.

    Built once per worker and handed to :meth:`RoundKernel.shard_build`
    in place of the :class:`Network`.  A kernel running in shard mode
    sees the full CSR snapshot (``arrays`` covers all n nodes) but only
    *advances* the nodes this worker owns; cross-shard effects travel as
    fixed-width int64 records appended to ``staged_words`` and arrive as
    zero-copy views in :attr:`incoming`.

    Per-round state: ``staged_words[d]`` accumulates the records for
    destination shard ``d`` during ``shard_publish``; ``incoming`` holds
    ``(peer, words)`` pairs during ``shard_apply`` (``words`` is an int64
    numpy view directly over the peer's shared-memory block, or a
    ``memoryview`` cast in fallback mode); ``messages``/``bits``/
    ``max_bits`` accumulate the traffic this worker priced (folded into
    the coordinator's Metrics).
    """

    def __init__(self, arrays: "CSRArrays", worker: int, shards: int,
                 owner: Tuple[int, ...], owned: Tuple[int, ...],
                 policy: Any, charge_cache: Dict[int, int]) -> None:
        self.arrays = arrays
        self.w = worker
        self.k = shards
        self.owner = owner
        self.owned = owned
        self.policy = policy
        self.charge_cache = charge_cache
        #: per-run node-id -> node stream factory (set by the worker
        #: before each run; replicates ``Network.node_rng`` bit-exactly)
        self.node_rng: Optional[Callable[[int], SplitMixStream]] = None
        #: record width of the active kernel (set by the worker)
        self.record_width = 1
        # per-round staging and traffic accumulators
        self.staged_words: List[Any] = [array("q") for _ in range(shards)]
        self.incoming: List[Tuple[int, Any]] = []
        self.messages = 0
        self.bits = 0
        self.max_bits = 0

    # -- per-round lifecycle (driven by the worker loop) -----------------
    def begin_round(self) -> None:
        self.clear_staged()
        self.incoming = []
        self.messages = 0
        self.bits = 0
        self.max_bits = 0

    def clear_staged(self) -> None:
        for words in self.staged_words:
            del words[:]

    def add_traffic(self, messages: int, total_bits: int,
                    max_message_bits: int) -> None:
        """Shard-mode sink behind :meth:`RoundKernel.record_traffic`."""
        self.messages += messages
        self.bits += total_bits
        if max_message_bits > self.max_bits:
            self.max_bits = max_message_bits


# ---------------------------------------------------------------------------
# the kernel base class: one protocol's rounds over arrays
# ---------------------------------------------------------------------------

class RoundKernel:
    """One protocol's vectorized superstep executor.

    Subclasses implement the stepper hooks against packed array state:

    * :meth:`setup` — read ``shared``, pack the initial state, perform the
      per-node path's ``start()`` semantics (including any halts and the
      initial traffic).  State fixed by the layout and inputs that recur
      from run to run may be kept in ``self.arrays.level`` and reused
      while a content check of those inputs holds (the counting kernel's
      level state); a network's per-node dicts are built on first use
      and no kernel needs them;
    * :meth:`unfinished` — True while any node has not halted;
    * :meth:`pending` — True while traffic is in flight (it ends a run
      only together with :attr:`passive`);
    * :meth:`step` — execute one full round: price and account the pending
      traffic (via :meth:`charge` and :meth:`record_traffic`), apply it to
      the state arrays, compute every live node's transition, and stage the
      next round's traffic.  Returns the pipelining charge (max extra
      rounds over this round's messages), exactly like the engine's
      ``_deliver``;
    * :meth:`outputs` — the final per-node output register map.

    ``Network.run`` drives these hooks with the same loop that drives
    per-node dispatch (``Network._drive``), so the termination and
    quiescence rules, the ``ProtocolError`` on the round limit, the
    ``RoundStart``/``RoundEnd`` events and the metric recording cannot
    drift between the tiers.
    """

    #: the node class this kernel replaces (set by :func:`register_kernel`)
    node_cls: Optional[type] = None
    #: mirror of the node program's ``passive`` flag: True enables the
    #: engine's quiescence rule (nothing in flight and nobody will speak)
    passive: bool = False
    #: int64 words per halo record on the sharded-kernel fast path.  A
    #: value above 0 is the shard-safety declaration for
    #: :mod:`repro.congest.sharding`: it promises that the kernel
    #: implements the ``shard_*`` hooks and that the registered *node
    #: program* keeps all mutable state node-local and treats ``shared``
    #: and its inbox as read-only — the contract that makes partitioned
    #: multi-process execution golden-equivalent.  The default 0 never
    #: shards: the declaration is made per audited kernel, never
    #: inherited, and only :class:`~repro.dist.israeli_itai.
    #: IsraeliItaiKernel` makes it.
    shard_words: int = 0

    def __init__(self, net: Network) -> None:
        self.net = net
        self.arrays = csr_arrays(net)
        self._rngs: List[Optional[SplitMixStream]] = [None] * self.arrays.n
        self._node_rng = net.node_rng
        self._policy = net.policy
        self._charge_cache = net._charge_cache
        self._traffic_sink = net.metrics.record_message_batch

    @classmethod
    def shard_build(cls, ctx: ShardContext) -> "RoundKernel":
        """Instantiate this kernel inside a shard worker (no Network).

        Binds the base services — :meth:`rng`, :meth:`charge`,
        :meth:`record_traffic` — to the worker-side :class:`ShardContext`
        so the subclass's ``shard_*`` hooks program against the same
        surface the in-process path provides.
        """
        self = cls.__new__(cls)
        self.net = None
        self.arrays = ctx.arrays
        self._rngs = [None] * ctx.arrays.n
        #: the worker-side services standing in for the Network
        self.shard = ctx
        #: global order position of the node being processed — the
        #: worker reports it for first-error attribution (min phase/pos)
        self.shard_pos = 0
        self._node_rng = ctx.node_rng
        self._policy = ctx.policy
        self._charge_cache = ctx.charge_cache
        self._traffic_sink = ctx.add_traffic
        return self

    # -- services for subclasses ----------------------------------------
    def rng(self, i: int) -> SplitMixStream:
        """Node index ``i``'s private stream (lazily created, persistent).

        Keyed exactly like the per-node path's ``NodeContext.rng``; since
        creating a stream consumes nothing, lazy creation keeps
        the streams bit-identical while skipping nodes that never draw.
        """
        r = self._rngs[i]
        if r is None:
            r = self._node_rng(self.arrays.order[i])
            self._rngs[i] = r
        return r

    def charge(self, bits: int, sender: int, receiver: int) -> int:
        """The policy charge for one message, memoized per bit-size.

        Shares the network's per-bit-size cache with the batched engine, so
        ``policy.charge`` is consulted exactly as often (and raises
        ``BandwidthExceeded`` in the same round it would there).
        """
        cache = self._charge_cache
        charge = cache.get(bits, -1)
        if charge < 0:
            charge = self._policy.charge(bits, self.arrays.n,
                                         sender, receiver)
            cache[bits] = charge
        return charge

    def record_traffic(self, messages: int, total_bits: int,
                       max_bits: int) -> None:
        """Account one round's delivered traffic (after pricing it).

        In-process this folds straight into the network's Metrics; in a
        shard worker it accumulates on the :class:`ShardContext`, and the
        coordinator folds the workers' sums after the stats barrier."""
        self._traffic_sink(messages, total_bits, max_bits)

    # -- subclass hooks ---------------------------------------------------
    def setup(self, shared: Dict[str, Any]) -> None:
        raise NotImplementedError

    def unfinished(self) -> bool:
        raise NotImplementedError

    def pending(self) -> bool:
        raise NotImplementedError

    def step(self, round_number: int) -> int:
        raise NotImplementedError

    def outputs(self) -> Dict[int, Any]:
        raise NotImplementedError

    # -- sharded fast path hooks (run by repro.congest.sharding workers) --
    # A kernel opts in by setting ``shard_words`` and implementing these
    # four against ``self.shard`` (:class:`ShardContext`).  The audited
    # contract: identical outputs, rounds, Metrics, rng streams and error
    # positions to the in-process path at any shard count.

    def shard_setup(self, shared: Dict[str, Any]) -> None:
        """Replicated setup inside a shard worker.

        Runs the full :meth:`setup` state construction over *all* n
        nodes — per-node rng streams are independent, so every worker
        derives the identical global start state — then restricts
        forward progress (rng draws, staged traffic) to owned nodes.
        """
        raise NotImplementedError

    def shard_publish(self, round_number: int) -> int:
        """Price and account the round's owned outgoing traffic
        (:meth:`record_traffic` exactly once, like :meth:`step`'s
        delivery half), apply local arrivals or stage them, and emit
        cross-shard records into ``self.shard.staged_words``.  Returns
        the pipelining charge.  Must keep :attr:`shard_pos` on the
        global order position of the sender being processed — a raised
        error is attributed there (delivery phase)."""
        raise NotImplementedError

    def shard_apply(self, round_number: int) -> None:
        """Absorb ``self.shard.incoming`` records plus this shard's own
        staged arrivals, then compute owned transitions.  Must keep
        :attr:`shard_pos` current for compute-phase error attribution."""
        raise NotImplementedError

    def shard_outputs(self) -> Dict[int, Any]:
        """Final output registers for *owned* nodes, keyed by global id
        (the coordinator merges the workers' maps)."""
        raise NotImplementedError
