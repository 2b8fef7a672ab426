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

from typing import Any, Dict, List, Optional, Tuple

from ..observe.events import TokenCollision
from ..congest.kernels import RoundKernel, register_kernel
from ..congest.message import payload_bits_fast
from ..congest.network import Network, ProtocolError
from ..congest.node import Inbox, NodeAlgorithm, NodeContext, Outbox
from ..runtime import register_map
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

    def setup(self, shared: Dict[str, Any]) -> None:
        A = self.arrays
        order = A.order
        index = A.index
        # the maps are read per node the walk touches, never packed: a
        # walk visits O(leaders * ell) nodes of n
        self.sides: Dict[int, Optional[int]] = shared["side"]
        self.mates: Dict[int, Optional[int]] = shared["mate"]
        self.states: Dict[int, Optional[CountState]] = shared["count_states"]
        self.ell: int = shared["ell"]
        self.value_cap: int = shared["value_cap"]
        self._collide = shared.get("collision_observer")

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

        # leaders are nodes the counting pass reached: look among those
        leaders: List[int] = []
        for v, st in self.states.items():
            if not (st is not None and st.t == self.ell and st.total > 0):
                continue
            i = index.get(v)
            if (i is not None and self.sides.get(v) == Y_SIDE
                    and self.mates.get(v) is None):
                leaders.append(i)
        leaders.sort()
        for i in leaders:
            st = self.states[order[i]]
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
            t = index.get(target)
            if not A.adjacent(index[sender], t):
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
        side = self.sides.get(vid)
        mate = self.mates.get(vid)
        if side == X_SIDE and mate is None:
            self.out[t] = {"mate": sender, "confirmed": False}
            self.confirmed[t] = True
            self.staged.append((vid, sender, (_CONFIRM, leader)))
            return
        if side == X_SIDE:
            self.tok_prev[t] = mate
            self.staged.append((vid, mate, (_TOKEN, value, leader)))
            return
        st = self.states.get(vid)
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
            if self.sides.get(order[t]) == X_SIDE:
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
        out = self.out
        mates = self.mates
        return {
            v: out.get(i) or {"mate": mates.get(v), "confirmed": False}
            for i, v in enumerate(self.arrays.order)
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
