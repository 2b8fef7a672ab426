"""Algorithm 3: counting half-augmenting paths in bipartite graphs.

A BFS wave starts at every free X node simultaneously; each node forwards a
message exactly once — immediately after the first round in which it received
any — carrying the *number* of shortest half-augmenting paths that reach it
(Lemma 3.8).  Matched Y nodes forward only to their mate; X nodes forward to
all neighbors; free Y nodes terminate paths.  After ``ell`` rounds, each free
Y node reached at exactly round ``ell`` knows the number of augmenting paths
of length ``ell`` that end at it.

The protocol also serves Algorithm 4's ``Aug`` on the sampled bipartite
subgraph: the ``side`` map then holds the random red/blue colors and
``allowed`` restricts edges to the bichromatic subgraph.

Counts can be as large as Delta^{ceil(ell/2)}; the driver runs this protocol
under the PIPELINE policy, which charges the extra rounds that shipping such
numbers in O(log n)-bit chunks costs (the mechanism of Lemma 3.9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..congest.kernels import RoundKernel, register_kernel
from ..congest.message import int_bits
from ..congest.network import Network, ProtocolError
from ..congest.node import Inbox, NodeAlgorithm, NodeContext, Outbox
from ..graphs.graph import Edge, edge_key

X_SIDE = 0
Y_SIDE = 1


@dataclass
class CountState:
    """What a node learned from one counting pass."""

    t: int                      # arrival round of the BFS wave (d(v))
    counts: Dict[int, int]      # incoming edge -> number of paths (c_v)
    total: int                  # n_v = sum of counts
    early_free_y: bool = False  # free Y reached before round ell (precondition
    #                             violation in the strict bipartite setting)


class CountingNode(NodeAlgorithm):
    """Node program for Algorithm 3.

    Output: a :class:`CountState` for reached participants, else ``None``.
    """

    passive = True  # acts only on arrivals; unreached nodes stay silent

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        shared = ctx.shared
        self.side: Optional[int] = shared["side"].get(ctx.node_id)
        self.mate: Optional[int] = shared["mate"].get(ctx.node_id)
        self.ell: int = shared["ell"]
        allowed: Optional[Set[Edge]] = shared.get("allowed")
        sides = shared["side"]
        self.eligible: Set[int] = set()
        if self.side is not None:
            for u in ctx.neighbors:
                other = sides.get(u)
                if other is None or other == self.side:
                    continue
                if allowed is not None and edge_key(ctx.node_id, u) not in allowed:
                    continue
                self.eligible.add(u)
        self.round = 0
        self.received = False

    def start(self) -> Outbox:
        if self.side is None or not self.eligible:
            return self.halt()
        if self.side == X_SIDE and self.mate is None:
            # line 2-3: free X nodes seed the wave and halt
            self.output = CountState(t=0, counts={}, total=1)
            self.finished = True
            return {u: 1 for u in self.eligible}
        return {}

    def on_round(self, inbox: Inbox) -> Outbox:
        self.round += 1
        if self.received:
            return {}  # later arrivals are non-shortest paths: discard
        arrivals = {u: int(c) for u, c in inbox.items()
                    if u in self.eligible or u == self.mate}
        if not arrivals:
            if self.round >= self.ell:
                return self.halt()
            return {}
        self.received = True
        total = sum(arrivals.values())
        state = CountState(t=self.round, counts=arrivals, total=total)
        self.output = state
        self.finished = True

        if self.side == X_SIDE:
            # lines 8-10: matched X forwards to all eligible neighbors
            return {u: total for u in self.eligible}
        # Y side
        if self.mate is None:
            state.early_free_y = self.round < self.ell
            return {}
        if self.round < self.ell:
            # lines 11-12: matched Y forwards along its matching edge only
            return {self.mate: total}
        return {}


@register_kernel(CountingNode)
class CountingKernel(RoundKernel):
    """Vectorized superstep executor for :class:`CountingNode`.

    The BFS wave visits each node once, so per-round work is a sparse list
    of in-flight ``(sender, targets, count)`` entries plus one pass over
    the still-unreached nodes — packed python lists throughout.  Path
    counts can reach ``Delta**ceil(ell/2)`` (arbitrary-precision ints), so
    this kernel deliberately has no numpy branch: int64 would silently
    overflow exactly where Lemma 3.9's pipelining costs get interesting.

    Like the node program, a receiver only accepts arrivals from eligible
    neighbors or its mate, forwarding is gated on the round number against
    ``ell``, and a matched Y node forwarding to a non-adjacent mate raises
    the engine's exact ``ProtocolError``.  ``passive = True`` mirrors the
    node class, so the shared execute loop applies the engine's quiescence
    rule (an unreached component parks the wave without spinning).
    """

    passive = True
    # audited: node-local state, read-only shared, (tag, count) payloads
    shardable = True

    def setup(self, shared: Dict[str, Any]) -> None:
        A = self.arrays
        n = A.n
        order = A.order
        tgt = A.tgt
        sides = shared["side"]
        mates = shared["mate"]
        self.ell: int = shared["ell"]
        allowed: Optional[Set[Edge]] = shared.get("allowed")

        self.side = [sides.get(v) for v in order]
        self.mate = [mates.get(v) for v in order]
        self.out: List[Any] = [None] * n
        self.finished = [False] * n

        elig_t: List[List[int]] = []  # eligible target indices, ascending
        for i in range(n):
            si = self.side[i]
            row: List[int] = []
            if si is not None:
                vid = order[i]
                for e in A.row(i):
                    u = tgt[e]
                    other = self.side[u]
                    if other is None or other == si:
                        continue
                    if (allowed is not None
                            and edge_key(vid, order[u]) not in allowed):
                        continue
                    row.append(u)
            elig_t.append(row)
        self.elig_t = elig_t
        # the node program's receive filter: eligible ids, plus the mate
        accept: List[Set[int]] = []
        for i in range(n):
            ids = {order[u] for u in elig_t[i]}
            if self.mate[i] is not None:
                ids.add(self.mate[i])
            accept.append(ids)
        self.accept = accept

        # in-flight wave: (sender index, target indices | None=mate, count)
        pending: List[Tuple[int, Optional[List[int]], int]] = []
        live: List[int] = []
        for i in range(n):
            if self.side[i] is None or not elig_t[i]:
                self.finished[i] = True  # non-participant: halt, output None
            elif self.side[i] == X_SIDE and self.mate[i] is None:
                self.out[i] = CountState(t=0, counts={}, total=1)
                self.finished[i] = True  # free X: seed the wave and halt
                pending.append((i, elig_t[i], 1))
            else:
                live.append(i)
        self.live = live
        self.pending_msgs = pending

    def step(self, round_number: int) -> int:
        A = self.arrays
        order = A.order
        index = A.index
        slot_of = self.net._slot_of
        finished = self.finished
        accept = self.accept
        extra = 0
        messages = 0
        bits_sum = 0
        max_bits = 0
        arrivals: Dict[int, Dict[int, int]] = {}
        for i, targets, value in self.pending_msgs:  # ascending sender
            sid = order[i]
            if targets is None:  # matched Y forwarding along its mate edge
                mid = self.mate[i]
                if mid not in slot_of[sid]:
                    raise ProtocolError(
                        f"node {sid} tried to message non-neighbor {mid}"
                    )
                targets = (index[mid],)
            bits = int_bits(value)
            charge = self.charge(bits, sid, order[targets[0]])
            if charge > extra:
                extra = charge
            cnt = len(targets)
            messages += cnt
            bits_sum += bits * cnt
            if bits > max_bits:
                max_bits = bits
            for t in targets:
                if finished[t] or sid not in accept[t]:
                    continue  # discarded or filtered on receipt
                box = arrivals.get(t)
                if box is None:
                    box = {}
                    arrivals[t] = box
                box[sid] = value
        self.record_traffic(messages, bits_sum, max_bits)
        self._absorb(arrivals, round_number)
        return extra

    def _absorb(self, arrivals: Dict[int, Dict[int, int]], r: int) -> None:
        """Apply one round's accepted arrivals to the unreached frontier."""
        finished = self.finished
        ell = self.ell
        out = self.out
        side = self.side
        mate = self.mate
        new_live: List[int] = []
        new_pending: List[Tuple[int, Optional[List[int]], int]] = []
        for i in self.live:
            arr = arrivals.get(i)
            if arr is None:
                if r >= ell:
                    finished[i] = True  # the wave can no longer reach us
                else:
                    new_live.append(i)
                continue
            total = sum(arr.values())
            state = CountState(t=r, counts=arr, total=total)
            out[i] = state
            finished[i] = True
            if side[i] == X_SIDE:
                new_pending.append((i, self.elig_t[i], total))
            elif mate[i] is None:
                state.early_free_y = r < ell
            elif r < ell:
                new_pending.append((i, None, total))
        self.live = new_live
        self.pending_msgs = new_pending

    # -- protocol surface ------------------------------------------------
    def unfinished(self) -> bool:
        return bool(self.live)

    def pending(self) -> bool:
        return bool(self.pending_msgs)

    def outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        out = self.out
        return {order[i]: out[i] for i in range(self.arrays.n)}

    # -- sharded fast path -------------------------------------------------
    # Counts ride (sender, target, value) records to the target's owner;
    # the receive filter (finished / accept-set) runs entirely on the
    # receiving worker, whose state for its own rows is authoritative.
    # There is no randomness anywhere, so setup replication is trivial.
    shard_words = 3

    def shard_setup(self, shared: Dict[str, Any]) -> None:
        self.setup(shared)
        ctx = self.shard
        owner, w = ctx.owner, ctx.w
        self.live = [i for i in self.live if owner[i] == w]
        self.pending_msgs = [p for p in self.pending_msgs
                             if owner[p[0]] == w]
        self._local_arrivals: List[Tuple[int, int, int]] = []

    def shard_publish(self, round_number: int) -> int:
        ctx = self.shard
        A = self.arrays
        order = A.order
        index = A.index
        slot_of = ctx.slot_of()
        owner, w = ctx.owner, ctx.w
        words = ctx.staged_words
        local = self._local_arrivals
        extra = 0
        messages = 0
        bits_sum = 0
        max_bits = 0
        for i, targets, value in self.pending_msgs:  # ascending owned sender
            self.shard_pos = i
            sid = order[i]
            if targets is None:  # matched Y forwarding along its mate edge
                mid = self.mate[i]
                if mid not in slot_of[sid]:
                    raise ProtocolError(
                        f"node {sid} tried to message non-neighbor {mid}"
                    )
                targets = (index[mid],)
            bits = int_bits(value)
            charge = self.charge(bits, sid, order[targets[0]])
            if charge > extra:
                extra = charge
            cnt = len(targets)
            messages += cnt
            bits_sum += bits * cnt
            if bits > max_bits:
                max_bits = bits
            for t in targets:
                d = owner[t]
                if d == w:
                    local.append((i, t, value))
                else:
                    sw = words[d]
                    sw.append(i)
                    sw.append(t)
                    sw.append(ctx.stage_value(d, value))
        self.record_traffic(messages, bits_sum, max_bits)
        self.pending_msgs = []
        return extra

    def shard_apply(self, round_number: int) -> None:
        ctx = self.shard
        order = self.arrays.order
        triples = self._local_arrivals
        self._local_arrivals = []
        for _peer, wordsv, blob in ctx.incoming:
            reader = ctx.blob_reader(blob)
            for off in range(0, len(wordsv), 3):
                triples.append((int(wordsv[off]), int(wordsv[off + 1]),
                                ctx.resolve(int(wordsv[off + 2]), reader)))
        # ascending global sender: each arrival box fills in the same
        # insertion order the in-process scan produces
        triples.sort(key=lambda rec: (rec[0], rec[1]))
        finished = self.finished
        accept = self.accept
        arrivals: Dict[int, Dict[int, int]] = {}
        for s, t, value in triples:
            if finished[t]:
                continue
            sid = order[s]
            if sid not in accept[t]:
                continue
            box = arrivals.get(t)
            if box is None:
                box = {}
                arrivals[t] = box
            box[sid] = value
        self._absorb(arrivals, round_number)

    def shard_outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        out = self.out
        return {order[i]: out[i] for i in self.shard.owned}


def run_counting(network: Network, side: Dict[int, Optional[int]],
                 mate: Dict[int, Optional[int]], ell: int,
                 allowed: Optional[Set[Edge]] = None) -> Dict[int, Optional[CountState]]:
    """One counting pass; returns each node's :class:`CountState` (or None)."""
    result = network.run(
        CountingNode,
        protocol="counting",
        shared={"side": side, "mate": mate, "ell": ell, "allowed": allowed},
        max_rounds=2 * ell + 4,
    )
    return result.outputs


def leaders_of(outputs: Dict[int, Optional[CountState]],
               side: Dict[int, Optional[int]],
               mate: Dict[int, Optional[int]], ell: int) -> Dict[int, CountState]:
    """Free Y nodes reached at exactly round ``ell``: the path leaders."""
    leaders: Dict[int, CountState] = {}
    for v, state in outputs.items():
        if state is None or side.get(v) != Y_SIDE or mate.get(v) is not None:
            continue
        if state.t == ell and state.total > 0:
            leaders[v] = state
    return leaders
