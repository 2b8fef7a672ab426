"""The synchronous message-passing engine.

As the paper assumes, the input graph *is* the communication network: in each
round every processor sends (possibly different) messages to its neighbors,
receives, and computes.  The engine delivers messages, prices them under the
active :class:`BandwidthPolicy`, accumulates :class:`Metrics`, and detects
termination (all nodes halted) or quiescence (no traffic and nobody spoke).

Composite algorithms run several *protocols* on one persistent network; the
metrics accumulate so composite costs are the true totals.

Every tier — per-node dispatch, the kernels, the shard pool — runs through
one round loop, :meth:`Network._drive`, which owns the round contract; a
tier only supplies the *stepper* that advances whole rounds.

Two delivery engines share one contract:

* the batched CSR engine (every tier but ``legacy``) — delivery over a
  flat CSR adjacency (:meth:`~repro.graphs.graph.Graph.to_csr`):
  broadcast expansion walks precomputed neighbor rows, message pricing is
  memoized per bit-size, and metrics are accumulated per round instead of
  per message.
* the original per-message dict engine, reachable only as
  ``execution="legacy"`` and kept as the golden reference.  Both engines
  produce bit-identical outputs, round counts and metrics for the same
  seed; ``tests/test_engine_golden.py`` enforces it.

On top of the CSR engine sits the *vectorized kernel* fast path
(:mod:`repro.congest.kernels`): protocols that register a ``RoundKernel``
execute whole rounds as array operations instead of per-node dispatch,
again bit-identically (``tests/test_kernels.py``), in-process or inside
shard workers (:mod:`repro.congest.sharding`).  ``execution="node"``
keeps batched delivery but opts out of kernels, and is therefore the
per-node reference the kernel goldens compare against.

Observability rides the :class:`~repro.observe.events.EventBus`
(``observe=``): **both** engines emit the same structured events — attaching
an observer never changes the engine, and dispatch is always-fast.  The engines ask ``bus.wants(kind)`` once per round, so a
network with no subscribers (or none interested in the per-message stream)
pays one dictionary lookup per round, never per-message work.  Fault
injection is a constructor argument too (``faults=FaultSpec(loss=0.05)``),
so lossy links compose with any engine and any observer.

The graph is snapshotted at :class:`Network` construction (the CSR layout;
the per-node neighbor tables are derived from it on first use); mutating
the graph afterwards is not supported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..graphs.graph import Graph
from ..models.execution import ExecutionDecision, as_plan, resolve_execution
from ..observe.events import (
    MESSAGE_DELIVERED,
    ROUND_END,
    ROUND_START,
    EventBus,
    MessageDelivered,
    Observable,
    RoundEnd,
    RoundStart,
    resolve_bus,
)
from .message import payload_bits, payload_bits_fast
from ..runtime.metrics import Metrics
from .node import BROADCAST, NodeAlgorithm, NodeContext
from .policies import CONGEST, BandwidthPolicy

if TYPE_CHECKING:  # repro.dist imports this package; hints only
    from ..dist.random_tools import SplitMixStream

NodeFactory = Callable[[NodeContext], NodeAlgorithm]
RoundHook = Callable[[int, "Network"], None]

DEFAULT_MAX_ROUNDS = 100_000

_UNSET = object()  # sentinel for untouched outbox slots in the mixed path

#: Shared empty inbox handed to nodes with no mail this round (saves one
#: dict allocation per silent node per round).  Node programs must treat
#: their inbox as read-only; no program in this library mutates it.
_EMPTY_INBOX: Dict[int, Any] = {}


class ProtocolError(RuntimeError):
    """Raised for protocol violations (bad targets, runaway protocols...)."""


@dataclass
class FaultSpec:
    """Fault-injection parameters for a :class:`Network`.

    ``loss`` is the i.i.d. per-message drop probability; drops happen
    *after* metric accounting (the message was sent and paid for — it just
    never arrives), mirroring a real lossy link.  ``seed`` overrides the
    drop stream's seed (defaults to the network seed).

    Fault injection is what happens when the paper's assumptions break.
    The paper assumes reliable synchronous communication (footnote 2: "we
    do not consider faults"); ``Network(..., faults=FaultSpec(loss=0.05))``
    makes that assumption *testable*: each delivered message is dropped
    independently with probability ``loss``, so one can watch the
    algorithms misbehave and the distributed self-checkers of
    :mod:`repro.dist.checkers` catch the damage.  Faults compose with
    either delivery engine and with any observer; they exist for
    experiments and tests, not as a recommended execution mode.
    """

    loss: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")


@dataclass
class RunResult:
    """Outcome of one protocol execution.

    ``metrics`` is the cost of *this* run alone (a
    :meth:`~repro.runtime.metrics.Metrics.delta_since` snapshot of the
    network's cumulative account), so callers no longer need to snapshot
    and diff ``network.metrics`` around every call.  ``profile`` is a
    :class:`~repro.observe.profiling.ProfileReport` snapshot when a
    :class:`~repro.observe.profiling.Profiler` is subscribed to the
    network's bus (None otherwise).
    """

    outputs: Dict[int, Any]
    rounds: int
    all_finished: bool
    metrics: Metrics = field(default_factory=Metrics)
    profile: Optional[Any] = None

    def output_of(self, node: int) -> Any:
        return self.outputs[node]


class Network(Observable):
    """A simulated synchronous network over a :class:`Graph`.

    ``execution`` selects how protocols run: an
    :class:`~repro.models.execution.ExecutionPlan` (or a tier name
    shorthand like ``"node"``) naming the highest performance tier the
    network may use — ``sharded-kernel``, ``kernel``, ``node`` or
    ``legacy``; the default plan (``tier="auto"``) engages vectorized
    kernels whenever a protocol registers one, and shard workers on top
    only when the plan asks for them (``shards=k``).  Use
    :meth:`explain_execution` to see how a plan resolves for a protocol.

    ``max_rounds`` sets the default round limit for every :meth:`run` on
    this network (individual calls may still override it).

    ``observe`` attaches observability: an :class:`EventBus`, a single
    observer, or a list of observers (each subscribed with its own
    interest mask — see :mod:`repro.observe.events`); a
    :class:`~repro.observe.tracing.Tracer` is attached as
    ``observe=[tracer]``; drivers publish through the inherited
    :class:`~repro.observe.events.Observable` surface.  Attaching an
    observer never changes the engine.  ``faults`` injects link faults
    (:class:`FaultSpec`).
    """

    def __init__(self, graph: Graph, policy: BandwidthPolicy = CONGEST,
                 seed: int = 0,
                 max_rounds: Optional[int] = None,
                 observe: Any = None,
                 faults: Optional[FaultSpec] = None,
                 execution: Any = None) -> None:
        self.graph = graph
        self.policy = policy
        self.seed = seed
        self.metrics = Metrics()
        #: the :class:`~repro.models.base.ComputationModel` this executor
        #: implements (named in ``explain_execution`` reason chains)
        from ..models.base import CONGEST_MODEL
        self.model = CONGEST_MODEL
        self.default_max_rounds = max_rounds
        self._run_counter = 0
        plan = as_plan(execution)
        # fail fast on foreign rungs (e.g. 'mpc_kernel' belongs to the
        # MPC model's ladder, not CONGEST's)
        self.model.check_plan(plan)
        #: the frozen :class:`~repro.models.execution.ExecutionPlan`
        #: every :meth:`run` resolves against
        self.execution_plan = plan
        self._dict_engine = plan.tier == "legacy"
        self._sharded_execs: Dict[int, Any] = {}

        # per-node random streams: the splitmix64 spawn_seed chain
        # (imported late — repro.dist's package init itself imports this
        # module)
        from ..dist.random_tools import NodeStreams
        self._streams = NodeStreams(seed)

        # observability: explicit observe= wins, else the ambient bus of an
        # enclosing `observing(...)` context, else nothing
        self.bus = resolve_bus(observe)

        # fault injection: a constructor argument, so it composes with any
        # engine and any observer
        self.faults = faults
        self.dropped = 0
        if faults is not None and faults.loss > 0.0:
            fault_seed = faults.seed if faults.seed is not None else seed
            self._fault_rng: Optional[random.Random] = random.Random(
                fault_seed ^ 0x1F123BB5)
        else:
            self._fault_rng = None

        # flat CSR adjacency: the batched engine's whole world (a cached
        # snapshot on the Graph — repeat constructions over one graph hit)
        hits0 = getattr(graph, "csr_cache_hits", 0)
        misses0 = getattr(graph, "csr_cache_misses", 0)
        self.csr = graph.to_csr()
        self.metrics.record_csr_cache(
            getattr(graph, "csr_cache_hits", 0) - hits0,
            getattr(graph, "csr_cache_misses", 0) - misses0)
        self._order: Tuple[int, ...] = self.csr.order
        # the per-node tables (_neighbor_cache, _weight_cache, _slot_of)
        # are derived from this snapshot on first use: see below
        # per-slot scratch used by the mixed broadcast+unicast outbox path
        self._slot_scratch: List[Any] = [_UNSET] * self.csr.num_slots
        # pipelining charge memoized per message bit-size (policy and n are
        # fixed for the lifetime of the network)
        self._charge_cache: Dict[int, int] = {}
        # pooled per-receiver inbox dicts for the batched engine: reused
        # round to round instead of reallocated (an inbox is only valid for
        # the round it is delivered in — copy what you keep)
        self._round_inboxes: Dict[int, Dict[int, Any]] = {}
        self._box_pool: List[Dict[int, Any]] = []
        self._live_boxes: List[Dict[int, Any]] = []

    # -- per-node tables, derived from the CSR snapshot on first use -----
    # Only per-node dispatch and the two delivery engines read them; a
    # kernel checks adjacency against its sender's CSR row instead, so a
    # network whose every run takes a kernel never builds them.

    @cached_property
    def _neighbor_cache(self) -> Dict[int, Tuple[int, ...]]:
        """Node id -> its neighbor ids in ascending order (a CSR row)."""
        order, indptr, indices = self._order, self.csr.indptr, self.csr.indices
        at = order.__getitem__
        return {v: tuple(map(at, indices[indptr[i]:indptr[i + 1]]))
                for i, v in enumerate(order)}

    @cached_property
    def _weight_cache(self) -> Dict[int, Dict[int, float]]:
        """Node id -> {neighbor id: edge weight}."""
        indptr, weights = self.csr.indptr, self.csr.weights
        return {v: dict(zip(nbrs, weights[indptr[i]:indptr[i + 1]]))
                for i, (v, nbrs) in enumerate(self._neighbor_cache.items())}

    @cached_property
    def _slot_of(self) -> Dict[int, Dict[int, int]]:
        """Node id -> {neighbor id: CSR slot of the edge to it}."""
        indptr = self.csr.indptr
        return {v: dict(zip(nbrs, range(indptr[i], indptr[i + 1])))
                for i, (v, nbrs) in enumerate(self._neighbor_cache.items())}

    # ------------------------------------------------------------------
    def node_rng(self, node_id: int, salt: int = 0) -> SplitMixStream:
        """A deterministic private random stream for a node.

        Seeds come from the splitmix64 :func:`~repro.dist.random_tools.
        spawn_seed` chain keyed by ``(seed, run, salt, node)``, so distinct
        streams can never alias (see :class:`~repro.dist.random_tools.
        NodeStreams`).
        """
        return self._streams.rng(self._run_counter, node_id, salt)

    def node_stream_prefix(self) -> int:
        """The shared prefix of this run's :meth:`node_rng` keys.

        Node ``v``'s stream is keyed ``node_seed_from_prefix(prefix, v)``,
        so a kernel can derive every key of a run at once
        (:func:`~repro.dist.random_tools.vec_node_seeds`)."""
        return self._streams.prefix(self._run_counter)

    def run(self, factory: NodeFactory, protocol: str = "protocol",
            shared: Optional[Dict[str, Any]] = None,
            max_rounds: Optional[int] = None,
            on_round_end: Optional[RoundHook] = None) -> RunResult:
        """Execute one protocol to termination/quiescence.

        ``factory`` builds the node program from its :class:`NodeContext`.
        ``shared`` holds globally known constants (n, k, epsilon, W_max ...),
        readable by every node — the paper's standing assumptions.
        ``on_round_end`` is called as ``hook(round_number, network)`` after
        each completed round (delivery plus node computation) — the place to
        sample convergence traces or drive visualizations without touching
        the node programs.

        When ``factory`` has a registered :class:`~repro.congest.kernels.
        RoundKernel` and nothing forces the slow path (see
        :mod:`repro.congest.kernels`), the run executes on the vectorized
        fast path instead of per-node dispatch — with identical outputs,
        rounds, metrics, random streams and structural events.

        Inbox lifetime: the batched engine reuses delivered inbox dicts
        round to round, so an inbox passed to ``on_round`` is only valid
        for that round — a node that wants to keep arrivals must copy them.
        """
        self._run_counter += 1
        if max_rounds is None:
            max_rounds = self.default_max_rounds
        limit = max_rounds if max_rounds is not None else DEFAULT_MAX_ROUNDS
        shared = dict(shared or {})
        before = self.metrics.snapshot()
        # never recycle a previous run's delivered boxes into this run —
        # its results may still reference them
        self._round_inboxes = {}
        self._live_boxes = []

        decision = resolve_execution(self, factory, shared)
        if decision.tier == "sharded-kernel":
            executor = self._sharded_executor(decision.shards)
            result = executor.execute(decision.kernel_cls, protocol, shared,
                                      limit, on_round_end)
        else:
            kernel_cls = decision.kernel_cls
            stepper = (kernel_cls(self) if kernel_cls is not None
                       else _NodeStepper(self, factory, protocol))
            result = self._drive(stepper, protocol, shared, limit,
                                 on_round_end)
        result.metrics = self.metrics.delta_since(before)
        return self._attach_profile(result)

    def _drive(self, stepper: Any, protocol: str, shared: Dict[str, Any],
               limit: int, on_round_end: Optional[RoundHook]) -> RunResult:
        """The engine loop: run ``stepper`` to termination or quiescence.

        A stepper (:class:`_NodeStepper`, a ``RoundKernel`` or a
        ``ShardedNetwork`` pool) supplies ``setup(shared)``,
        ``unfinished()``, ``pending()``, ``passive``, ``step(round)`` —
        deliver and account one round, compute every live node, return
        the pipelining charge — and ``outputs()``.  The loop owns halting,
        quiescence, the round limit, ``RoundStart``/``RoundEnd`` and the
        round's metric record, made after ``step`` returns: a round that
        raises is not counted, though its delivered traffic is.
        """
        stepper.setup(shared)
        bus = self.bus
        metrics = self.metrics
        rounds = 0
        while stepper.unfinished():
            if rounds > 0 and not stepper.pending() and stepper.passive:
                # quiescent: nothing in flight and every live node is purely
                # event-driven, so nothing will ever move again
                break
            if rounds >= limit:
                raise ProtocolError(
                    f"protocol {protocol!r} exceeded {limit} rounds "
                    f"(likely a livelock)"
                )
            want_round_end = False
            if bus is not None:
                if bus.wants(ROUND_START):
                    bus.emit(RoundStart(protocol=protocol, round=rounds + 1))
                want_round_end = bus.wants(ROUND_END)
                if want_round_end:
                    msgs_before = metrics.messages
                    bits_before = metrics.total_bits
                    dropped_before = self.dropped
            extra = stepper.step(rounds + 1)
            rounds += 1
            metrics.record_round(protocol, extra)
            if want_round_end:
                bus.emit(RoundEnd(
                    protocol=protocol, round=rounds,
                    messages=metrics.messages - msgs_before,
                    bits=metrics.total_bits - bits_before,
                    dropped=self.dropped - dropped_before,
                ))
            if on_round_end is not None:
                on_round_end(rounds, self)
        return RunResult(outputs=stepper.outputs(), rounds=rounds,
                         all_finished=not stepper.unfinished())

    def _attach_profile(self, result: RunResult) -> RunResult:
        """Snapshot a subscribed Profiler's report onto ``result``."""
        bus = self.bus
        if bus is not None:
            from ..observe.profiling import Profiler

            profiler = bus.find(Profiler)
            if profiler is not None:
                result.profile = profiler.report()
        return result

    def explain_execution(self, factory: Optional[NodeFactory] = None,
                          shared: Optional[Dict[str, Any]] = None,
                          ) -> ExecutionDecision:
        """How this network's plan resolves for a run of ``factory``.

        Returns an :class:`~repro.models.execution.ExecutionDecision`
        whose ``tier``/``shards`` are the rung :meth:`run` would use and
        whose ``reasons`` chain explains, per considered tier, why it was
        or wasn't selected (``decision.explain()`` formats it).  Dry:
        no worker pool is built and no protocol state is touched.
        """
        return self.model.resolve(self, factory, dict(shared or {}),
                                  collect=True)

    def _sharded_executor(self, k: int) -> Any:
        """The cached :class:`~repro.congest.sharding.ShardedNetwork` for
        ``k`` shards, building (or rebuilding a broken) pool on demand."""
        from . import sharding as _sharding

        executor = self._sharded_execs.get(k)
        if executor is None or executor.broken:
            executor = _sharding.ShardedNetwork(self, k)
            self._sharded_execs[k] = executor
        return executor

    def close(self) -> None:
        """Release external resources (sharded worker pools and their
        shared-memory blocks).  Idempotent; the network remains usable —
        single-process paths are unaffected and a later sharded run
        simply builds a fresh pool."""
        execs, self._sharded_execs = self._sharded_execs, {}
        for executor in execs.values():
            executor.close()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def subnetwork(self, graph: Graph, **kwargs: Any) -> Any:
        """Spawn a :class:`~repro.runtime.driver.Subnetwork` over ``graph``.

        The child inherits this network's policy, plan, fault spec, event
        bus (scoped under a ``PhaseStart``/``PhaseEnd`` pair) and seed
        stream, and folds its cost back into this network's metrics on
        exit — see :mod:`repro.runtime.driver` for the fold modes.
        """
        from ..runtime.driver import Subnetwork

        return Subnetwork(self, graph, **kwargs)

    # ------------------------------------------------------------------
    def _deliver(self, outboxes: Dict[int, Dict[Any, Any]], n: int,
                 protocol: str = "protocol", round_number: int = 0):
        """Expand broadcasts, price messages, and build inboxes.

        Dispatch is plan-only — observers never change it: the batched
        CSR engine serves every tier but ``"legacy"``, which pins the
        dict engine.  Fault injection and event emission are post-passes
        over the delivered inboxes, shared by both engines (which is what
        makes their event streams identical).  Subclasses that
        post-process delivery may still override this method and delegate
        to ``super()``.
        """
        if self._dict_engine:
            inboxes, extra = self._deliver_dict(outboxes, n)
        else:
            inboxes, extra = self._deliver_batched(outboxes, n)
        if self._fault_rng is not None:
            self._apply_faults(inboxes)
        bus = self.bus
        if bus is not None and bus.wants(MESSAGE_DELIVERED):
            self._emit_messages(bus, inboxes, protocol, round_number)
        return inboxes, extra

    def _apply_faults(self, inboxes: Dict[int, Dict[int, Any]]) -> None:
        """Drop delivered messages i.i.d. with ``faults.loss``.

        Iteration order is sorted receivers, then sorted senders, so the
        drop pattern is a pure function of the fault seed on every engine.
        """
        loss = self.faults.loss
        rng_random = self._fault_rng.random
        for receiver in sorted(inboxes):
            box = inboxes[receiver]
            for sender in sorted(box):
                if rng_random() < loss:
                    del box[sender]
                    self.dropped += 1
            if not box:
                del inboxes[receiver]

    def _emit_messages(self, bus: EventBus, inboxes: Dict[int, Dict[int, Any]],
                       protocol: str, round_number: int) -> None:
        """Publish the round's delivered messages, sender-major order.

        Events are reconstructed from the inboxes *after* delivery and
        fault injection, so both engines emit the identical sequence and
        only actually-delivered messages appear.
        """
        triples: List[Tuple[int, int, Any]] = []
        for receiver, box in inboxes.items():
            for sender, payload in box.items():
                triples.append((sender, receiver, payload))
        triples.sort(key=lambda t: (t[0], t[1]))
        bus.emit_messages([
            MessageDelivered(protocol=protocol, round=round_number,
                             sender=sender, receiver=receiver,
                             bits=payload_bits_fast(payload), payload=payload)
            for sender, receiver, payload in triples
        ])

    def _deliver_batched(self, outboxes: Dict[int, Dict[Any, Any]], n: int):
        """One batched pass: expansion, validation, pricing, accumulation.

        Per-receiver inbox dicts are pooled and reused round to round
        instead of reallocated — the previous round's boxes (fully consumed
        by then) are cleared and recycled here.  This is why an inbox is
        only valid for the round it is delivered in (see :meth:`run`).
        """
        inboxes = self._round_inboxes
        pool = self._box_pool
        live = self._live_boxes
        if live:
            for box in live:
                box.clear()
            pool.extend(live)
            live.clear()
        inboxes.clear()
        live_append = live.append
        pool_pop = pool.pop
        extra_rounds = 0
        messages = 0
        bits_sum = 0
        max_bits = 0
        charge_cache = self._charge_cache
        policy_charge = self.policy.charge
        neighbor_cache = self._neighbor_cache
        inbox_get = inboxes.get
        outbox_get = outboxes.get
        for sender in self._order:
            out = outbox_get(sender)
            if not out:
                continue
            nbrs = neighbor_cache[sender]
            if BROADCAST in out:
                if len(out) == 1:
                    # pure broadcast: price once, deliver along the CSR row
                    if not nbrs:
                        continue
                    payload = out[BROADCAST]
                    bits = payload_bits_fast(payload)
                    charge = charge_cache.get(bits, -1)
                    if charge < 0:
                        charge = policy_charge(bits, n, sender, nbrs[0])
                        charge_cache[bits] = charge
                    if charge > extra_rounds:
                        extra_rounds = charge
                    messages += len(nbrs)
                    bits_sum += bits * len(nbrs)
                    if bits > max_bits:
                        max_bits = bits
                    for u in nbrs:
                        box = inbox_get(u)
                        if box is None:
                            box = pool_pop() if pool else {}
                            inboxes[u] = box
                            live_append(box)
                        box[sender] = payload
                    continue
                # mixed broadcast + unicast: expand into the sender's slot
                # range so later entries overwrite earlier ones exactly as
                # the dict engine's ``expanded`` mapping did
                slots = self._slot_scratch
                slot_of = self._slot_of[sender]
                i = self.csr.index[sender]
                lo, hi = self.csr.indptr[i], self.csr.indptr[i + 1]
                for target, payload in out.items():
                    if target == BROADCAST:
                        for e in range(lo, hi):
                            slots[e] = payload
                    else:
                        e = slot_of.get(target)
                        if e is None:
                            raise ProtocolError(
                                f"node {sender} tried to message non-neighbor "
                                f"{target}"
                            )
                        slots[e] = payload
                for off in range(hi - lo):
                    payload = slots[lo + off]
                    if payload is _UNSET:
                        continue
                    slots[lo + off] = _UNSET
                    target = nbrs[off]
                    bits = payload_bits_fast(payload)
                    charge = charge_cache.get(bits, -1)
                    if charge < 0:
                        charge = policy_charge(bits, n, sender, target)
                        charge_cache[bits] = charge
                    if charge > extra_rounds:
                        extra_rounds = charge
                    messages += 1
                    bits_sum += bits
                    if bits > max_bits:
                        max_bits = bits
                    box = inbox_get(target)
                    if box is None:
                        box = pool_pop() if pool else {}
                        inboxes[target] = box
                        live_append(box)
                    box[sender] = payload
                continue
            # unicast-only outbox: keys are already distinct targets
            slot_of = self._slot_of[sender]
            for target, payload in out.items():
                if target not in slot_of:
                    raise ProtocolError(
                        f"node {sender} tried to message non-neighbor "
                        f"{target}"
                    )
                bits = payload_bits_fast(payload)
                charge = charge_cache.get(bits, -1)
                if charge < 0:
                    charge = policy_charge(bits, n, sender, target)
                    charge_cache[bits] = charge
                if charge > extra_rounds:
                    extra_rounds = charge
                messages += 1
                bits_sum += bits
                if bits > max_bits:
                    max_bits = bits
                box = inbox_get(target)
                if box is None:
                    box = pool_pop() if pool else {}
                    inboxes[target] = box
                    live_append(box)
                box[sender] = payload
        self.metrics.record_message_batch(messages, bits_sum, max_bits)
        return inboxes, extra_rounds

    def _deliver_dict(self, outboxes: Dict[int, Dict[Any, Any]], n: int):
        """The reference per-message engine (``execution="legacy"``)."""
        inboxes: Dict[int, Dict[int, Any]] = {}
        extra_rounds = 0
        # graph order instead of a per-round sort: node ids ascend by
        # construction, so delivery order is unchanged (and regression-tested)
        for sender in self._order:
            out = outboxes.get(sender)
            if not out:
                continue
            expanded: Dict[int, Any] = {}
            for target, payload in out.items():
                if target == BROADCAST:
                    for u in self._neighbor_cache[sender]:
                        expanded[u] = payload
                else:
                    if target not in self._weight_cache[sender]:
                        raise ProtocolError(
                            f"node {sender} tried to message non-neighbor "
                            f"{target}"
                        )
                    expanded[target] = payload
            for target, payload in expanded.items():
                bits = payload_bits(payload)
                charge = self.policy.charge(bits, n, sender, target)
                extra_rounds = max(extra_rounds, charge)
                self.metrics.record_message(bits)
                inboxes.setdefault(target, {})[sender] = payload
        return inboxes, extra_rounds

    def global_check(self) -> None:
        """Record a driver-level global predicate evaluation (see Metrics)."""
        self.metrics.record_global_check()


class _NodeStepper:
    """Per-node dispatch as a stepper of :meth:`Network._drive`: one
    :class:`NodeAlgorithm` per node, each round delivered by
    :meth:`Network._deliver` — the executable specification every
    kernel is golden-checked against."""

    def __init__(self, net: Network, factory: NodeFactory,
                 protocol: str) -> None:
        self.net = net
        self.factory = factory
        self.protocol = protocol
        self.n = net.graph.num_nodes

    def setup(self, shared: Dict[str, Any]) -> None:
        net = self.net
        self.algorithms: Dict[int, NodeAlgorithm] = {}
        for v in net._order:
            self.algorithms[v] = self.factory(NodeContext(
                node_id=v,
                neighbors=net._neighbor_cache[v],
                edge_weights=net._weight_cache[v],
                n=self.n,
                rng=net.node_rng(v),
                shared=shared,
            ))
        self.outboxes: Dict[int, Dict[Any, Any]] = {}
        self.live: List[int] = []
        for v in net._order:
            alg = self.algorithms[v]
            out = alg.start()
            if out:
                self.outboxes[v] = out
            if not alg.finished:
                self.live.append(v)

    def unfinished(self) -> bool:
        return bool(self.live)

    def pending(self) -> bool:
        return bool(self.outboxes)

    @property
    def passive(self) -> bool:
        algorithms = self.algorithms
        return all(algorithms[v].passive for v in self.live)

    def step(self, round_number: int) -> int:
        outboxes = self.outboxes
        inboxes, extra = self.net._deliver(outboxes, self.n, self.protocol,
                                           round_number)
        outboxes.clear()  # fully consumed by _deliver; reuse the dict
        algorithms = self.algorithms
        live: List[int] = []
        for v in self.live:
            alg = algorithms[v]
            out = alg.on_round(inboxes.get(v, _EMPTY_INBOX))
            if out:
                outboxes[v] = out
            if not alg.finished:
                live.append(v)
        self.live = live
        return extra

    def outputs(self) -> Dict[int, Any]:
        algorithms = self.algorithms
        return {v: algorithms[v].output for v in self.net._order}
