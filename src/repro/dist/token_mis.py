"""Token-based selection of a non-conflicting set of augmenting paths.

This is the paper's Section 3.2 emulation of one Luby iteration on the
conflict graph, in O(ell) physical rounds:

* every leader (a free Y node that the counting pass reached at round ell)
  draws the *maximum* of its ``n_y`` path values in one sample
  (:func:`sample_max_uniform`) and launches a token carrying it;
* the token walks backward through the BFS layering, choosing each
  predecessor edge with probability proportional to the recorded path counts
  — this realizes the winning path of the leader stochastically, link by
  link;
* tokens meeting at a node (they can only meet in the same round, because
  the layering gives every node a unique depth) are resolved in favor of the
  largest value; losers vanish;
* a token reaching a free X node has built a complete augmenting path; a
  confirmation message retraces it forward, and every node on the path flips
  its matching status locally (the augmentation).

Values are O(ell log n)-bit numbers; under the PIPELINE policy the simulator
charges the chunked transmission rounds of Lemma 3.9.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..observe.events import TokenCollision
from ..congest.kernels import RoundKernel, register_kernel
from ..congest.message import payload_bits_fast
from ..congest.network import Network, ProtocolError
from ..congest.node import Inbox, NodeAlgorithm, NodeContext, Outbox
from ..runtime import register_map
from ..graphs.graph import Edge
from .bipartite_counting import CountState, X_SIDE, Y_SIDE
from .random_tools import sample_max_uniform, weighted_choice

_TOKEN = "T"
_CONFIRM = "C"


class TokenNode(NodeAlgorithm):
    """Node program for one token-selection + augmentation iteration.

    Output: ``{"mate": <new or unchanged mate>, "confirmed": bool}`` where
    ``confirmed`` marks leaders whose augmenting path was applied.
    """

    passive = True  # tokens/confirmations drive everything; silence = done

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        shared = ctx.shared
        self.side: Optional[int] = shared["side"].get(ctx.node_id)
        self.mate: Optional[int] = shared["mate"].get(ctx.node_id)
        self.ell: int = shared["ell"]
        self.value_cap: int = shared["value_cap"]
        self.state: Optional[CountState] = shared["count_states"].get(ctx.node_id)
        self.is_leader = bool(
            self.side == Y_SIDE
            and self.mate is None
            and self.state is not None
            and self.state.t == self.ell
            and self.state.total > 0
        )
        self.token_id: Optional[int] = None   # leader id of the recorded token
        self.tok_next: Optional[int] = None   # neighbor toward the leader
        self.tok_prev: Optional[int] = None   # neighbor toward the free X end
        self.confirmed = False
        self.output = {"mate": self.mate, "confirmed": False}
        # observability: an emitter callable when someone subscribed to
        # token-collision events, else None (the unobserved common case)
        self._collide = shared.get("collision_observer")

    # ------------------------------------------------------------------
    def start(self) -> Outbox:
        if not self.is_leader:
            return {}
        assert self.state is not None
        draw = sample_max_uniform(self.rng, self.state.total, self.value_cap)
        self.token_id = self.node_id
        self.tok_prev = weighted_choice(self.rng, self.state.counts)
        return {self.tok_prev: (_TOKEN, draw, self.node_id)}

    def on_round(self, inbox: Inbox) -> Outbox:
        out: Outbox = {}
        tokens = {u: msg for u, msg in inbox.items()
                  if isinstance(msg, tuple) and msg[0] == _TOKEN}
        confirms = [msg for msg in inbox.values()
                    if isinstance(msg, tuple) and msg[0] == _CONFIRM]
        if tokens:
            out.update(self._handle_tokens(tokens))
        if confirms:
            out.update(self._handle_confirms(confirms))
        return out

    # ------------------------------------------------------------------
    def _handle_tokens(self, tokens: Dict[int, Tuple[str, int, int]]) -> Outbox:
        if self.token_id is not None:
            # already carrying a token (cannot happen in a correct layering);
            # drop arrivals defensively
            return {}
        # survival of the largest (value, leader id): colliding tokens die
        sender, (_, value, leader) = max(
            tokens.items(), key=lambda kv: (kv[1][1], kv[1][2])
        )
        if len(tokens) > 1 and self._collide is not None:
            self._collide(TokenCollision(node=self.node_id, winner=leader,
                                         losers=len(tokens) - 1))
        self.token_id = leader
        self.tok_next = sender
        if self.side == X_SIDE and self.mate is None:
            # complete augmenting path: flip the first edge and confirm
            self.output = {"mate": sender, "confirmed": False}
            self.confirmed = True
            return {sender: (_CONFIRM, leader)}
        if self.side == X_SIDE:
            # matched X: the unique predecessor is its mate
            self.tok_prev = self.mate
            return {self.mate: (_TOKEN, value, leader)}
        # matched Y (odd layer): stochastic predecessor, like the leader did
        assert self.state is not None, "token reached an uncounted node"
        self.tok_prev = weighted_choice(self.rng, self.state.counts)
        return {self.tok_prev: (_TOKEN, value, leader)}

    def _handle_confirms(self, confirms) -> Outbox:
        # at most one confirmation can match the recorded token
        for _, leader in confirms:
            if leader != self.token_id or self.confirmed:
                continue
            self.confirmed = True
            if self.side == X_SIDE:
                new_mate = self.tok_next
            else:
                new_mate = self.tok_prev
            is_leader_end = self.is_leader and leader == self.node_id
            self.output = {"mate": new_mate, "confirmed": is_leader_end}
            if not is_leader_end and self.tok_next is not None:
                return {self.tok_next: (_CONFIRM, leader)}
        return {}


@register_kernel(TokenNode)
class TokenKernel(RoundKernel):
    """Vectorized superstep executor for :class:`TokenNode`.

    The token walk is sparse — at most one token and one confirmation per
    node per round — so the kernel's state is a handful of per-node-index
    registers (``token_id``/``tok_next``/``tok_prev``/``confirmed``) plus
    the staged message list for the next round.  One :meth:`step` prices
    and delivers the staged walk messages (sender-ascending, exactly like
    the engine), then replays every receiving node's transition in
    ascending node order: token survival-of-the-largest first (including
    the :class:`TokenCollision` emission when observed), confirmation
    retracing second — the same intra-node order as the node program's
    ``on_round``.  Random draws (``sample_max_uniform`` at the leaders,
    ``weighted_choice`` at odd layers) consume the identical per-node
    streams, so outputs, metrics, rounds and rng state are bit-identical
    to per-node dispatch.
    """

    passive = True  # tokens/confirmations drive everything; silence = done
    # audited: node-local state, read-only shared, plain-tuple payloads
    shardable = True
    #: sharded fast path: (kind, sender, target, value, leader) records
    #: (kind 0 = token, 1 = confirmation; ids travel as indices).  When a
    #: collision observer is subscribed, ``shared`` holds a callable and
    #: the sharding eligibility gate already routes the run in-process.
    shard_words = 5

    def setup(self, shared: Dict[str, Any]) -> None:
        A = self.arrays
        order = A.order
        side_map: Dict[int, Optional[int]] = shared["side"]
        mate_map: Dict[int, Optional[int]] = shared["mate"]
        state_map: Dict[int, Optional[CountState]] = shared["count_states"]
        self.ell: int = shared["ell"]
        self.value_cap: int = shared["value_cap"]
        self._collide = shared.get("collision_observer")

        self.side: List[Optional[int]] = [side_map.get(v) for v in order]
        self.mate: List[Optional[int]] = [mate_map.get(v) for v in order]
        self.state: List[Optional[CountState]] = [
            state_map.get(v) for v in order
        ]
        self.token_id: List[Optional[int]] = [None] * A.n
        self.tok_next: List[Optional[int]] = [None] * A.n
        self.tok_prev: List[Optional[int]] = [None] * A.n
        self.confirmed: List[bool] = [False] * A.n
        self.is_leader: List[bool] = [False] * A.n
        #: overridden output registers (default: unchanged mate, unconfirmed)
        self.out: Dict[int, Dict[str, Any]] = {}
        #: staged (sender_id, target_id, payload) for the next delivery,
        #: sender-ascending by construction (nodes are processed in order)
        self.staged: List[Tuple[int, int, Tuple]] = []

        for i in range(A.n):
            st = self.state[i]
            if not (self.side[i] == Y_SIDE and self.mate[i] is None
                    and st is not None and st.t == self.ell
                    and st.total > 0):
                continue
            self.is_leader[i] = True
            r = self.rng(i)
            draw = sample_max_uniform(r, st.total, self.value_cap)
            self.token_id[i] = order[i]
            prev = weighted_choice(r, st.counts)
            self.tok_prev[i] = prev
            self.staged.append((order[i], prev, (_TOKEN, draw, order[i])))

    # ------------------------------------------------------------------
    def step(self, round_number: int) -> int:
        A = self.arrays
        index = A.index
        slot_of = self.net._slot_of
        staged = self.staged
        self.staged = []

        # delivery: price every staged message in sender-major order (the
        # engine's outbox order), validating targets exactly like _deliver
        extra = 0
        messages = 0
        bits_sum = 0
        max_bits = 0
        tokens_at: Dict[int, List[Tuple[int, int, int]]] = {}
        confirms_at: Dict[int, List[int]] = {}
        for sender, target, payload in staged:
            if target not in slot_of[sender]:
                raise ProtocolError(
                    f"node {sender} tried to message non-neighbor {target}"
                )
            bits = payload_bits_fast(payload)
            charge = self.charge(bits, sender, target)
            if charge > extra:
                extra = charge
            messages += 1
            bits_sum += bits
            if bits > max_bits:
                max_bits = bits
            t = index[target]
            if payload[0] == _TOKEN:
                tokens_at.setdefault(t, []).append(
                    (sender, payload[1], payload[2]))
            else:
                confirms_at.setdefault(t, []).append(payload[1])
        self.record_traffic(messages, bits_sum, max_bits)

        # compute: replay each receiving node's transition, ascending order
        for t in sorted(tokens_at.keys() | confirms_at.keys()):
            arrivals = tokens_at.get(t)
            if arrivals:
                self._handle_tokens(t, arrivals)
            confirms = confirms_at.get(t)
            if confirms:
                self._handle_confirms(t, confirms)
        return extra

    def _handle_tokens(self, t: int,
                       arrivals: List[Tuple[int, int, int]]) -> None:
        if self.token_id[t] is not None:
            return  # already carrying a token: drop arrivals defensively
        order = self.arrays.order
        sender, value, leader = arrivals[0]
        for s, v, l in arrivals[1:]:  # first-maximal (value, leader) wins
            if (v, l) > (value, leader):
                sender, value, leader = s, v, l
        if len(arrivals) > 1 and self._collide is not None:
            self._collide(TokenCollision(node=order[t], winner=leader,
                                         losers=len(arrivals) - 1))
        self.token_id[t] = leader
        self.tok_next[t] = sender
        vid = order[t]
        if self.side[t] == X_SIDE and self.mate[t] is None:
            self.out[t] = {"mate": sender, "confirmed": False}
            self.confirmed[t] = True
            self.staged.append((vid, sender, (_CONFIRM, leader)))
            return
        if self.side[t] == X_SIDE:
            mate = self.mate[t]
            self.tok_prev[t] = mate
            self.staged.append((vid, mate, (_TOKEN, value, leader)))
            return
        st = self.state[t]
        assert st is not None, "token reached an uncounted node"
        prev = weighted_choice(self.rng(t), st.counts)
        self.tok_prev[t] = prev
        self.staged.append((vid, prev, (_TOKEN, value, leader)))

    def _handle_confirms(self, t: int, confirms: List[int]) -> None:
        order = self.arrays.order
        for leader in confirms:
            if leader != self.token_id[t] or self.confirmed[t]:
                continue
            self.confirmed[t] = True
            if self.side[t] == X_SIDE:
                new_mate = self.tok_next[t]
            else:
                new_mate = self.tok_prev[t]
            is_leader_end = self.is_leader[t] and leader == order[t]
            self.out[t] = {"mate": new_mate, "confirmed": is_leader_end}
            if not is_leader_end and self.tok_next[t] is not None:
                self.staged.append(
                    (order[t], self.tok_next[t], (_CONFIRM, leader)))
                return

    # ------------------------------------------------------------------
    def unfinished(self) -> bool:
        return self.arrays.n > 0  # nodes never halt; quiescence ends the run

    def pending(self) -> bool:
        return bool(self.staged)

    def outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        out = self.out
        return {
            order[i]: out.get(i) or {"mate": self.mate[i], "confirmed": False}
            for i in range(self.arrays.n)
        }

    # -- sharded fast path -------------------------------------------------
    # Setup replicates every leader's draws (independent per-node streams),
    # then each worker keeps only the staged messages of its owned senders;
    # the walk's sparse token/confirm traffic crosses the cut as records
    # routed to the receiving node's owner, which replays the identical
    # survival-of-the-largest and retrace transitions.

    def shard_setup(self, shared: Dict[str, Any]) -> None:
        self.setup(shared)
        ctx = self.shard
        owner, w = ctx.owner, ctx.w
        index = self.arrays.index
        self.staged = [m for m in self.staged if owner[index[m[0]]] == w]
        self._local_arrivals: List[Tuple[int, int, int, int, int]] = []

    def shard_publish(self, round_number: int) -> int:
        ctx = self.shard
        index = self.arrays.index
        slot_of = ctx.slot_of()
        owner, w = ctx.owner, ctx.w
        words = ctx.staged_words
        local = self._local_arrivals
        staged = self.staged
        self.staged = []
        extra = 0
        messages = 0
        bits_sum = 0
        max_bits = 0
        for sender, target, payload in staged:  # ascending owned sender
            s = index[sender]
            self.shard_pos = s
            if target not in slot_of[sender]:
                raise ProtocolError(
                    f"node {sender} tried to message non-neighbor {target}"
                )
            bits = payload_bits_fast(payload)
            charge = self.charge(bits, sender, target)
            if charge > extra:
                extra = charge
            messages += 1
            bits_sum += bits
            if bits > max_bits:
                max_bits = bits
            t = index[target]
            if payload[0] == _TOKEN:
                rec = (0, s, t, payload[1], index[payload[2]])
            else:
                rec = (1, s, t, 0, index[payload[1]])
            d = owner[t]
            if d == w:
                local.append(rec)
            else:
                sw = words[d]
                sw.append(rec[0])
                sw.append(rec[1])
                sw.append(rec[2])
                sw.append(ctx.stage_value(d, rec[3]))
                sw.append(rec[4])
        self.record_traffic(messages, bits_sum, max_bits)
        return extra

    def shard_apply(self, round_number: int) -> None:
        ctx = self.shard
        recs = self._local_arrivals
        self._local_arrivals = []
        for _peer, wordsv, blob in ctx.incoming:
            reader = ctx.blob_reader(blob)
            for off in range(0, len(wordsv), 5):
                recs.append((int(wordsv[off]), int(wordsv[off + 1]),
                             int(wordsv[off + 2]),
                             ctx.resolve(int(wordsv[off + 3]), reader),
                             int(wordsv[off + 4])))
        # ascending global sender: arrival lists fill in the engine's
        # staged (sender-major) order
        recs.sort(key=lambda rec: (rec[1], rec[2], rec[0]))
        order = self.arrays.order
        tokens_at: Dict[int, List[Tuple[int, int, int]]] = {}
        confirms_at: Dict[int, List[int]] = {}
        for kind, s, t, v, l in recs:
            if kind == 0:
                tokens_at.setdefault(t, []).append((order[s], v, order[l]))
            else:
                confirms_at.setdefault(t, []).append(order[l])
        for t in sorted(tokens_at.keys() | confirms_at.keys()):
            self.shard_pos = t
            arrivals = tokens_at.get(t)
            if arrivals:
                self._handle_tokens(t, arrivals)
            confirms = confirms_at.get(t)
            if confirms:
                self._handle_confirms(t, confirms)

    def shard_outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        out = self.out
        return {
            order[i]: out.get(i) or {"mate": self.mate[i], "confirmed": False}
            for i in self.shard.owned
        }


def run_token_selection(network: Network, side: Dict[int, Optional[int]],
                        mate: Dict[int, Optional[int]], ell: int,
                        count_states: Dict[int, Optional[CountState]],
                        value_cap: int) -> Tuple[Dict[int, Optional[int]], int]:
    """One selection/augmentation iteration.

    Returns ``(new_mate_map, paths_applied)``; the mate map covers all nodes
    (non-participants keep their entry unchanged).
    """
    result = network.run(
        TokenNode,
        protocol="token_selection",
        shared={
            "side": side,
            "mate": mate,
            "ell": ell,
            "count_states": count_states,
            "value_cap": value_cap,
            "collision_observer": network.observer_for(TokenCollision),
        },
        max_rounds=2 * ell + 6,
    )
    new_mate = register_map(result.outputs, fallback=mate)
    applied = sum(1 for out in result.outputs.values()
                  if out is not None and out["confirmed"])
    return new_mate, applied
