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

from ..congest.kernels import CSRArrays, RoundKernel, register_kernel
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


class _Level:
    """The part of Algorithm 3's state that one ``side``/``allowed`` pair
    fixes: every counting pass of an augmentation (Theorem 3.10's phases,
    one iteration of Algorithm 4's ``Aug``) shares it, and only the
    matching and ``ell`` change between passes.

    ``side`` and ``elig_t`` (each node index's eligible neighbor indices,
    ascending) follow the node program's constructor; ``participants``
    are the indices with a side and an eligible neighbor, and ``idle``
    marks the rest, which halt at the start.  ``sides`` and ``allowed``
    are content snapshots of the inputs, so :meth:`matches` holds only
    while the caller's maps still say the same thing.
    """

    __slots__ = ("sides", "allowed", "side", "elig_t", "participants",
                 "idle")

    def __init__(self, A: CSRArrays, sides: Dict[int, Optional[int]],
                 allowed: Optional[Set[Edge]]) -> None:
        self.sides = dict(sides)
        self.allowed = None if allowed is None else frozenset(allowed)
        allowed = self.allowed
        order, tgt, indptr = A.order, A.tgt, A.indptr
        side = self.side = [sides.get(v) for v in order]
        elig_t: List[Any] = []
        participants: List[int] = []
        idle = [True] * A.n
        for i, si in enumerate(side):
            row: Any = ()
            if si is not None:
                nbrs = tgt[indptr[i]:indptr[i + 1]]
                if allowed is None:
                    row = [u for u in nbrs
                           if side[u] is not None and side[u] != si]
                else:
                    vid = order[i]
                    row = [u for u in nbrs
                           if side[u] is not None and side[u] != si
                           and edge_key(vid, order[u]) in allowed]
                if row:
                    participants.append(i)
                    idle[i] = False
            elig_t.append(row)
        self.elig_t = elig_t
        self.participants = participants
        self.idle = idle

    def matches(self, sides: Dict[int, Optional[int]],
                allowed: Optional[Set[Edge]]) -> bool:
        return self.sides == sides and self.allowed == allowed


@register_kernel(CountingNode)
class CountingKernel(RoundKernel):
    """Vectorized superstep executor for :class:`CountingNode`.

    The BFS wave visits each node once, so per-round work is a sparse list
    of in-flight ``(sender, targets, count)`` entries and the round's
    arrivals — packed python lists throughout.  Path counts can reach
    ``Delta**ceil(ell/2)`` (arbitrary-precision ints), so this kernel
    deliberately has no numpy branch: int64 would silently overflow
    exactly where Lemma 3.9's pipelining costs get interesting.

    :meth:`setup` reuses the :class:`_Level` of the previous run on the
    same layout while ``side`` and ``allowed`` say the same thing, so a
    pass costs O(participants), not O(n + m).  Like the node program, a
    receiver only accepts arrivals from eligible neighbors or its mate,
    forwarding is gated on the round number against ``ell``, and a
    matched Y node forwarding to a non-adjacent mate raises the engine's
    exact ``ProtocolError``.  ``passive = True`` mirrors the node class,
    so the engine loop applies its quiescence rule (an unreached
    component parks the wave without spinning).
    """

    passive = True
    # audited: node-local state, read-only shared, (tag, count) payloads
    shardable = True

    def setup(self, shared: Dict[str, Any]) -> None:
        A = self.arrays
        sides = shared["side"]
        allowed: Optional[Set[Edge]] = shared.get("allowed")
        level = A.level.get(type(self))
        if level is None or not level.matches(sides, allowed):
            level = _Level(A, sides, allowed)
            A.level[type(self)] = level
        self.level = level
        self.side = side = level.side
        self.elig_t = elig_t = level.elig_t
        self.ell: int = shared["ell"]
        self.out = out = [None] * A.n
        # non-participants halt at the start, with output None
        self.finished = finished = list(level.idle)
        # mates of participants (no other node's mate is ever read)
        self.mate = mate = [None] * A.n
        mates = shared["mate"]
        order = A.order
        # in-flight wave: (sender index, target indices | None=mate, count)
        pending: List[Tuple[int, Optional[List[int]], int]] = []
        unreached = 0
        for i in level.participants:
            m = mate[i] = mates.get(order[i])
            if m is None and side[i] == X_SIDE:
                out[i] = CountState(t=0, counts={}, total=1)
                finished[i] = True  # free X: seed the wave and halt
                pending.append((i, elig_t[i], 1))
            else:
                unreached += 1
        #: participants the wave has not reached yet (they halt at ell)
        self.unreached = unreached
        self.pending_msgs = pending

    def _mate_target(self, i: int) -> int:
        """The index of matched Y node ``i``'s mate, which must be a
        neighbor: the engine's ``ProtocolError`` otherwise."""
        A = self.arrays
        mid = self.mate[i]
        t = A.index.get(mid)
        if not A.adjacent(i, t):
            raise ProtocolError(
                f"node {A.order[i]} tried to message non-neighbor {mid}"
            )
        return t

    def _accepts(self, t: int, s: int) -> bool:
        """The node program's receive filter: ``t`` keeps an arrival from
        ``s`` when ``s`` is its mate or an eligible neighbor (eligibility
        is symmetric, so ``s``'s own row answers)."""
        return self.mate[t] == self.arrays.order[s] or t in self.elig_t[s]

    def step(self, round_number: int) -> int:
        order = self.arrays.order
        finished = self.finished
        extra = 0
        messages = 0
        bits_sum = 0
        max_bits = 0
        arrivals: Dict[int, Dict[int, int]] = {}
        for i, targets, value in self.pending_msgs:  # ascending sender
            sid = order[i]
            mate_edge = targets is None
            if mate_edge:  # matched Y forwarding along its mate edge
                targets = (self._mate_target(i),)
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
                # an X sender's targets are its eligible row, which every
                # receiver accepts; the mate edge passes the filter itself
                if finished[t] or (mate_edge and not self._accepts(t, i)):
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
        """Apply one round's accepted arrivals (each reaches an unreached
        participant) in ascending node order, the order of the wave."""
        ell = self.ell
        out = self.out
        finished = self.finished
        side = self.side
        mate = self.mate
        elig_t = self.elig_t
        # from round ell on the wave can no longer reach anyone: every
        # participant still waiting halts
        self.unreached = 0 if r >= ell else self.unreached - len(arrivals)
        new_pending: List[Tuple[int, Optional[List[int]], int]] = []
        for i in sorted(arrivals):
            arr = arrivals[i]
            total = sum(arr.values())
            state = CountState(t=r, counts=arr, total=total)
            out[i] = state
            finished[i] = True
            if side[i] == X_SIDE:
                new_pending.append((i, elig_t[i], total))
            elif mate[i] is None:
                state.early_free_y = r < ell
            elif r < ell:
                new_pending.append((i, None, total))
        self.pending_msgs = new_pending

    # -- protocol surface ------------------------------------------------
    def unfinished(self) -> bool:
        return self.unreached > 0

    def pending(self) -> bool:
        return bool(self.pending_msgs)

    def outputs(self) -> Dict[int, Any]:
        return dict(zip(self.arrays.order, self.out))

    # -- sharded fast path -------------------------------------------------
    # Counts ride (sender, target, value) records to the target's owner;
    # the receive filter (finished, then mate or eligible sender) runs
    # entirely on the receiving worker, whose state for its own rows is
    # authoritative.  There is no randomness anywhere, so setup
    # replication is trivial.
    shard_words = 3

    def shard_setup(self, shared: Dict[str, Any]) -> None:
        self.setup(shared)
        ctx = self.shard
        owner, w = ctx.owner, ctx.w
        finished = self.finished
        self.unreached = sum(1 for i in self.level.participants
                             if owner[i] == w and not finished[i])
        self.pending_msgs = [p for p in self.pending_msgs
                             if owner[p[0]] == w]
        self._local_arrivals: List[Tuple[int, int, int]] = []

    def shard_publish(self, round_number: int) -> int:
        ctx = self.shard
        order = self.arrays.order
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
                targets = (self._mate_target(i),)
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
        arrivals: Dict[int, Dict[int, int]] = {}
        for s, t, value in triples:
            if finished[t] or not self._accepts(t, s):
                continue
            sid = order[s]
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
