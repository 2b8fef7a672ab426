"""Asynchronous execution with an alpha synchronizer (paper footnote 2).

The paper assumes a synchronous network and notes that this is without loss
of generality "using, say, the alpha synchronizer of [Awerbuch 1985]".  This
module makes that footnote executable: the same :class:`NodeAlgorithm`
programs run unchanged over a network with arbitrary per-message delays.

Mechanism (the alpha synchronizer, specialized to reliable channels): every
node sends exactly one *envelope* per neighbor per simulated round — either
the program's payload or an explicit pulse — tagged with the round number.
A node executes round ``r`` only once it holds the round-``r`` envelope from
every live neighbor; out-of-order deliveries are buffered by round.  A
halting node announces it, so neighbors stop waiting for its envelopes.

The price of asynchrony is message overhead (pulses on every edge every
round — the alpha synchronizer's O(|E|) messages per round) and the virtual
time dictated by the slowest envelope on the critical path; both are
reported in :class:`AsyncReport`.  Determinism: with equal seeds, a program
produces *identical outputs* under the synchronizer as under the
synchronous engine, because per-round inboxes are reproduced exactly.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..graphs.graph import Graph
from ..observe.events import Observable
from .message import payload_bits
from .network import NodeFactory, ProtocolError
from .node import BROADCAST, NodeAlgorithm, NodeContext

# envelope = (kind, payload, final): kind "m" (message) or "p" (pulse);
# final marks the sender's last round, so receivers stop waiting for it
_KIND_MSG = "m"
_KIND_PULSE = "p"


class DelayModel:
    """Chooses the in-flight latency of each message."""

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        raise NotImplementedError  # pragma: no cover


class FixedDelay(DelayModel):
    """Every message takes exactly ``latency`` time units."""

    def __init__(self, latency: float = 1.0) -> None:
        if latency <= 0:
            raise ValueError("latency must be positive")
        self.latency = latency

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        return self.latency


class UniformDelay(DelayModel):
    """Latencies uniform on [low, high] — the generic asynchronous network."""

    def __init__(self, low: float = 0.5, high: float = 2.0) -> None:
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self.low = low
        self.high = high

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


class HeavyTailDelay(DelayModel):
    """Mostly fast links with occasional stragglers (Pareto-ish)."""

    def __init__(self, base: float = 0.5, tail: float = 10.0,
                 tail_probability: float = 0.05) -> None:
        if not 0 <= tail_probability <= 1:
            raise ValueError("tail_probability must be in [0, 1]")
        self.base = base
        self.tail = tail
        self.tail_probability = tail_probability

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        if rng.random() < self.tail_probability:
            return self.tail * (1.0 + rng.random())
        return self.base * (0.5 + rng.random())


class SlowEdgeDelay(DelayModel):
    """One adversarially slow edge; everything else is fast.

    Demonstrates that the synchronizer's critical path is the slowest link.
    """

    def __init__(self, slow_edge: Tuple[int, int], slow: float = 25.0,
                 fast: float = 1.0) -> None:
        a, b = slow_edge
        self.slow_edge = (min(a, b), max(a, b))
        self.slow = slow
        self.fast = fast

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        edge = (min(sender, receiver), max(sender, receiver))
        return self.slow if edge == self.slow_edge else self.fast


@dataclass
class AsyncReport:
    """Cost of an asynchronous execution."""

    outputs: Dict[int, Any]
    all_finished: bool
    rounds: int                 # synchronizer rounds completed (max over nodes)
    virtual_time: float         # latest delivery time on the event queue
    envelopes: int              # all messages incl. pulses (the alpha overhead)
    payload_messages: int       # real program messages
    payload_bits: int
    max_payload_bits: int = 0

    @property
    def pulse_overhead(self) -> float:
        """Fraction of envelopes that were pure synchronization pulses."""
        if self.envelopes == 0:
            return 0.0
        return 1.0 - self.payload_messages / self.envelopes


class _AsyncNode:
    """Per-node synchronizer state."""

    def __init__(self, alg: NodeAlgorithm, neighbors: Tuple[int, ...]) -> None:
        self.alg = alg
        self.neighbors = set(neighbors)
        self.round = 0
        # halt_round[u] = the last round for which u sent envelopes; for
        # later rounds u is skipped.  Round-indexed (not a plain set) because
        # reordered delays can deliver the final envelope before earlier ones.
        self.halt_round: Dict[int, int] = {}
        # per-round buffers: round -> {sender: envelope}
        self.buffer: Dict[int, Dict[int, Any]] = {}

    def ready(self) -> bool:
        """Can this node execute its next round?"""
        if self.alg.finished:
            return False
        got = self.buffer.get(self.round, {})
        return all(
            u in got or self.halt_round.get(u, 1 << 60) < self.round
            for u in self.neighbors
        )


class AsyncNetwork:
    """Event-driven executor running synchronous programs via the synchronizer."""

    def __init__(self, graph: Graph, delay_model: Optional[DelayModel] = None,
                 seed: int = 0) -> None:
        self.graph = graph
        self.delay_model = delay_model or UniformDelay()
        self.seed = seed
        self._neighbors = {v: tuple(graph.neighbors(v)) for v in graph.nodes}
        self._weights = {
            v: {u: graph.weight(v, u) for u in self._neighbors[v]}
            for v in graph.nodes
        }
        self._delay_rng = random.Random(seed ^ 0x5DEECE66D)
        self._run_counter = 0
        # late import: repro.dist init cycle
        from ..dist.random_tools import NodeStreams
        self._streams = NodeStreams(seed)

    def node_rng(self, node_id: int, salt: int = 0) -> random.Random:
        # the same streams as Network.node_rng at the same run counter, so
        # a program's random stream matches its synchronous execution
        return self._streams.rng(self._run_counter, node_id, salt)

    def run(self, factory: NodeFactory,
            shared: Optional[Dict[str, Any]] = None,
            max_rounds: int = 100_000) -> AsyncReport:
        self._run_counter += 1
        shared = dict(shared or {})
        n = self.graph.num_nodes
        nodes: Dict[int, _AsyncNode] = {}
        for v in self.graph.nodes:
            ctx = NodeContext(
                node_id=v,
                neighbors=self._neighbors[v],
                edge_weights=self._weights[v],
                n=n,
                rng=self.node_rng(v),
                shared=shared,
            )
            nodes[v] = _AsyncNode(factory(ctx), self._neighbors[v])

        events: List[Tuple[float, int, int, int, int, Any]] = []
        seq = 0
        stats = {"envelopes": 0, "payload_messages": 0, "payload_bits": 0,
                 "real_in_flight": 0, "real_buffered": 0,
                 "virtual_time": 0.0, "max_payload_bits": 0}

        def send_round(v: int, outbox: Dict[Any, Any], rnd: int,
                       now: float, final: bool) -> None:
            nonlocal seq
            expanded: Dict[int, Any] = {}
            for target, payload in (outbox or {}).items():
                if target == BROADCAST:
                    for u in self._neighbors[v]:
                        expanded[u] = payload
                else:
                    if target not in self._weights[v]:
                        raise ProtocolError(
                            f"node {v} tried to message non-neighbor {target}"
                        )
                    expanded[target] = payload
            for u in self._neighbors[v]:
                if u in expanded:
                    envelope = (_KIND_MSG, expanded[u], final)
                    stats["payload_messages"] += 1
                    bits = payload_bits(expanded[u])
                    stats["payload_bits"] += bits
                    stats["max_payload_bits"] = max(
                        stats["max_payload_bits"], bits)
                    stats["real_in_flight"] += 1
                else:
                    envelope = (_KIND_PULSE, None, final)
                stats["envelopes"] += 1
                latency = self.delay_model.delay(v, u, self._delay_rng)
                if latency <= 0:
                    raise ProtocolError("delay model produced a non-positive delay")
                seq += 1
                heapq.heappush(events, (now + latency, seq, v, u, rnd, envelope))

        # round 0: everyone starts
        for v in sorted(nodes):
            node = nodes[v]
            outbox = node.alg.start()
            send_round(v, outbox, 0, 0.0, final=node.alg.finished)

        max_round_seen = 0
        while events:
            time_now, _, sender, receiver, rnd, envelope = heapq.heappop(events)
            stats["virtual_time"] = max(stats["virtual_time"], time_now)
            node = nodes[receiver]

            kind, _, final = envelope
            if kind == _KIND_MSG:
                stats["real_in_flight"] -= 1
            if final:
                node.halt_round[sender] = rnd
            if node.alg.finished:
                pass  # a halted node consumes (and ignores) late arrivals
            else:
                node.buffer.setdefault(rnd, {})[sender] = envelope
                if kind == _KIND_MSG:
                    stats["real_buffered"] += 1

            # a delivery may unblock several consecutive rounds (buffered)
            while node.ready():
                got = node.buffer.pop(node.round, {})
                inbox = {u: env[1] for u, env in got.items()
                         if env[0] == _KIND_MSG}
                stats["real_buffered"] -= len(inbox)
                node.round += 1
                max_round_seen = max(max_round_seen, node.round)
                if node.round > max_rounds:
                    raise ProtocolError(
                        f"asynchronous run exceeded {max_rounds} rounds"
                    )
                outbox = node.alg.on_round(inbox)
                send_round(receiver, outbox, node.round, time_now,
                           final=node.alg.finished)
                if node.alg.finished:
                    # anything still buffered for this node will never be
                    # consumed: settle the accounting and drop it
                    for got_late in node.buffer.values():
                        for env in got_late.values():
                            if env[0] == _KIND_MSG:
                                stats["real_buffered"] -= 1
                    node.buffer.clear()
                    break

            if (stats["real_in_flight"] == 0
                    and stats["real_buffered"] == 0
                    and all(x.alg.finished or x.alg.passive
                            for x in nodes.values())):
                break  # quiescent: no real payload in flight or buffered,
                #        and pulses alone cannot wake a passive node

        return AsyncReport(
            outputs={v: nodes[v].alg.output for v in self.graph.nodes},
            all_finished=all(x.alg.finished for x in nodes.values()),
            rounds=max_round_seen,
            virtual_time=stats["virtual_time"],
            envelopes=stats["envelopes"],
            payload_messages=stats["payload_messages"],
            payload_bits=stats["payload_bits"],
            max_payload_bits=stats["max_payload_bits"],
        )


class SynchronizedNetwork(Observable):
    """A drop-in :class:`~repro.congest.network.Network` replacement that
    executes every protocol over the asynchronous engine.

    Any driver accepting a ``network`` parameter — ``bipartite_mcm``,
    ``general_mcm``, ``approximate_mwm``, ``tree_mwm`` — runs unchanged over
    arbitrary message delays, and (given equal seeds) produces the identical
    result, because the alpha synchronizer reproduces the synchronous
    per-round inboxes exactly.  Rounds recorded in :attr:`metrics` are the
    synchronizer's logical rounds; the asynchronous costs (virtual time and
    pulse envelopes) accumulate in :attr:`virtual_time` / :attr:`envelopes`.
    The asynchronous engine emits no events, so the inherited ``bus`` stays
    None and drivers see an executor that is never observed.
    """

    def __init__(self, graph: Graph, delay_model: Optional[DelayModel] = None,
                 seed: int = 0) -> None:
        from ..runtime.metrics import Metrics

        self.graph = graph
        self.seed = seed
        self.metrics = Metrics()
        self.virtual_time = 0.0
        self.envelopes = 0
        self._inner = AsyncNetwork(graph, delay_model, seed=seed)

    @property
    def _run_counter(self) -> int:
        return self._inner._run_counter

    def node_rng(self, node_id: int, salt: int = 0) -> random.Random:
        return self._inner.node_rng(node_id, salt)

    def run(self, factory: NodeFactory, protocol: str = "protocol",
            shared: Optional[Dict[str, Any]] = None,
            max_rounds: Optional[int] = None):
        from .network import RunResult

        report = self._inner.run(
            factory, shared=shared,
            max_rounds=max_rounds if max_rounds is not None else 100_000,
        )
        self.metrics.rounds += report.rounds
        self.metrics.protocol_rounds[protocol] = (
            self.metrics.protocol_rounds.get(protocol, 0) + report.rounds
        )
        self.metrics.messages += report.payload_messages
        self.metrics.total_bits += report.payload_bits
        self.metrics.max_message_bits = max(
            self.metrics.max_message_bits, report.max_payload_bits)
        self.virtual_time += report.virtual_time
        self.envelopes += report.envelopes
        return RunResult(outputs=report.outputs, rounds=report.rounds,
                         all_finished=report.all_finished)

    def global_check(self) -> None:
        self.metrics.record_global_check()
