"""Luby's randomized maximal independent set algorithm (CONGEST).

Used by the paper's Algorithm 1 (step 5): an MIS of the conflict graph
C_M(ell) selects a maximal set of non-conflicting augmenting paths.  Each
iteration costs two rounds:

1. *draw*   — every active node draws a uniform value from [1, n^4]
   (ties broken by node id, making comparisons strict) and broadcasts it;
2. *resolve* — a node whose (value, id) beats every active neighbor joins
   the MIS and announces "J"; nodes hearing "J" are dominated, announce "D",
   and halt.  Everyone prunes halted neighbors.

Las Vegas termination: nodes halt exactly when they are in the MIS or
dominated, so the output is always a correct MIS; O(log n) iterations w.h.p.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..observe.events import MISDecision
from ..congest.kernels import RoundKernel, register_kernel
from ..congest.network import Network
from ..congest.node import Inbox, NodeAlgorithm, NodeContext, Outbox
from ..runtime import as_network

_JOIN = "J"
_DOMINATED = "D"


class LubyMISNode(NodeAlgorithm):
    """Node program for Luby's algorithm; output is ``True`` iff in the MIS."""

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self.active_neighbors: Set[int] = set(ctx.neighbors)
        self.value_cap = max(2, ctx.n) ** 4
        self.my_draw: Optional[int] = None
        self.phase = "draw"

    def start(self) -> Outbox:
        return self._draw()

    def _draw(self) -> Outbox:
        self.phase = "draw"
        if not self.active_neighbors:
            return self.halt(True)  # isolated among actives: join
        self.my_draw = self.rng.randint(1, self.value_cap)
        return {u: self.my_draw for u in self.active_neighbors}

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.phase == "draw":
            # inbox: neighbors' draws, plus stragglers' domination notices
            # from the tail of the previous iteration (they sent and halted)
            for u, tag in inbox.items():
                if tag == _DOMINATED:
                    self.active_neighbors.discard(u)
            self.phase = "resolve"
            mine = (self.my_draw, self.node_id)
            beaten = any(
                (value, u) > mine
                for u, value in inbox.items()
                if isinstance(value, int) and u in self.active_neighbors
            )
            if not beaten:
                self.output = True
                self.finished = True
                return {u: _JOIN for u in self.active_neighbors}
            return {}
        # phase == "resolve": hear joins/dominations from this iteration
        joined_neighbors = {u for u, tag in inbox.items() if tag == _JOIN}
        if joined_neighbors:
            self.output = False
            self.finished = True
            return {u: _DOMINATED for u in self.active_neighbors
                    if u not in joined_neighbors}
        for u, tag in inbox.items():
            if tag == _DOMINATED:
                self.active_neighbors.discard(u)
        return self._draw()


@register_kernel(LubyMISNode)
class LubyMISKernel(RoundKernel):
    """Vectorized superstep executor for :class:`LubyMISNode`.

    Per-node state packs into index arrays (draw values, halt flags) and a
    per-slot boolean mask ``active[e]`` ("the owner of slot ``e`` still
    considers its target active").  Rounds strictly alternate:

    * odd rounds deliver draws (plus straggler "D" notices, pruned first
      via the CSR ``rev`` slots); a node beaten by no active drawer wins,
      halts into the MIS and stages "J" to its active neighbors;
    * even rounds deliver the "J"s; a node hearing one is dominated, halts
      and stages "D" to its active non-winner neighbors; survivors redraw.

    Winner detection compares ``(draw, id)`` pairs; since CSR order is
    sorted, comparing ``(draw, index)`` is equivalent, and with numpy the
    whole round collapses to a segment-max over packed ``draw * n + index``
    keys (``np.maximum.reduceat`` per CSR row).  The packing is gated on
    ``cap * (n + 1)`` fitting in int64 — beyond that (n ≳ 6000) the kernel
    runs its pure-python branch, which is also the no-numpy fallback.

    ``drawn_at``/``winner_at`` round stamps stand in for "sender appeared
    in this round's inbox", so stale array entries can never masquerade as
    current-round messages.
    """

    def setup(self, shared: Dict[str, Any]) -> None:
        A = self.arrays
        n = A.n
        cap = max(2, n) ** 4
        self.cap = cap
        # the packed-key path needs draw * n + idx to fit in int64
        np = A.np if (A.np is not None and cap * (n + 1) < 2 ** 63) else None
        self.np = np

        self.out: List[Any] = [None] * n
        self.finished = [False] * n
        self.draw = [0] * n
        live: List[int] = []
        pending_draws: List[Tuple[int, int]] = []  # (sender idx, count)
        indptr = A.indptr
        for i in range(n):
            deg = indptr[i + 1] - indptr[i]
            if deg == 0:
                self.finished[i] = True
                self.out[i] = True  # isolated: joins immediately
                continue
            live.append(i)
            self.draw[i] = self.rng(i).randint(1, cap)
            pending_draws.append((i, deg))
        self.live = live
        self.pending_draws = pending_draws
        # Ds staged for the next odd round: one flat slot collection for
        # the prune scatter plus (sender, count, first slot) for pricing
        self.pending_D_price: List[Tuple[int, int, int]] = []
        self.pending_D_slots: Any = None
        self.pending_Js: List[Tuple[int, int]] = []        # (idx, count)

        if np is not None:
            self.mask = np.ones(A.num_slots, dtype=bool)
            self.np_draw = np.zeros(n, dtype=np.int64)
            self.drawn_at = np.zeros(n, dtype=np.int64)
            self.winner_at = np.zeros(n, dtype=np.int64)
            if pending_draws:
                idx = np.asarray([i for i, _ in pending_draws],
                                 dtype=np.int64)
                self.np_draw[idx] = np.asarray(
                    [self.draw[i] for i, _ in pending_draws], dtype=np.int64)
                self.drawn_at[idx] = 1
            if A.num_slots:
                # reduceat wants every offset < num_slots, so the trailing
                # rows that start at num_slots are cut off; an empty row
                # elsewhere garbles only its own entry.  Empty rows belong
                # to degree-0 nodes that halted in setup and are never read
                starts = A.np_indptr[:-1]
                self._segstarts = starts[
                    :int(np.searchsorted(starts, A.num_slots))]
                self._slot_owner = np.repeat(np.arange(n, dtype=np.int64),
                                             np.diff(A.np_indptr))
        else:
            self.mask = [True] * A.num_slots
            self.drawn_at = [0] * n
            self.winner_at = [0] * n
            for i, _ in pending_draws:
                self.drawn_at[i] = 1

    # -- pricing ----------------------------------------------------------
    def _price_round(self, rnd: int) -> int:
        """Price this round's in-flight traffic in engine (sender) order.

        The policy charge is memoized per bit-size (shared with the batched
        engine's cache), so the representative receiver is only resolved on
        a cache miss — the steady state is one dict hit per sender.
        """
        A = self.arrays
        order = A.order
        tgt = A.tgt
        cache = self._charge_cache
        extra = 0
        messages = 0
        bits_sum = 0
        max_bits = 0
        draw = self.draw
        if rnd % 2 == 1:  # draws merged with straggler Ds, sender-ascending
            di = 0
            ds = self.pending_D_price
            nd = len(ds)
            for i, cnt in self.pending_draws:
                while di < nd and ds[di][0] < i:
                    s, dcnt, e0 = ds[di]
                    di += 1
                    c = cache.get(12, -1)
                    if c < 0:
                        c = self.charge(12, order[s], order[tgt[e0]])
                    if c > extra:
                        extra = c
                    messages += dcnt
                    bits_sum += 12 * dcnt
                    if max_bits < 12:
                        max_bits = 12
                b = draw[i].bit_length()
                bits = b + b + 2
                c = cache.get(bits, -1)
                if c < 0:
                    c = self.charge(bits, order[i],
                                    order[tgt[self._first_active_slot(i)]])
                if c > extra:
                    extra = c
                messages += cnt
                bits_sum += bits * cnt
                if bits > max_bits:
                    max_bits = bits
            while di < nd:
                s, dcnt, e0 = ds[di]
                di += 1
                c = cache.get(12, -1)
                if c < 0:
                    c = self.charge(12, order[s], order[tgt[e0]])
                if c > extra:
                    extra = c
                messages += dcnt
                bits_sum += 12 * dcnt
                if max_bits < 12:
                    max_bits = 12
        else:  # the winners' Js, all 12-bit
            for i, cnt in self.pending_Js:
                if not cnt:
                    continue
                c = cache.get(12, -1)
                if c < 0:
                    c = self.charge(12, order[i],
                                    order[tgt[self._first_active_slot(i)]])
                if c > extra:
                    extra = c
                messages += cnt
                bits_sum += 12 * cnt
                if max_bits < 12:
                    max_bits = 12
        self.record_traffic(messages, bits_sum, max_bits)
        return extra

    def _first_active_slot(self, i: int) -> int:
        A = self.arrays
        mask = self.mask
        for e in A.row(i):
            if mask[e]:
                return e
        return A.indptr[i]  # unreachable for priced senders

    # -- the two phases ---------------------------------------------------
    def step(self, round_number: int) -> int:
        extra = self._price_round(round_number)
        if round_number % 2 == 1:
            self._apply_draws(round_number)
        else:
            self._apply_resolve(round_number)
        return extra

    def _apply_draws(self, rnd: int) -> None:
        """Odd rounds: prune straggler Ds, find winners, stage their Js."""
        A = self.arrays
        np = self.np
        mask = self.mask
        # straggler domination notices prune first, exactly as the node
        # program discards D-senders before scanning for a beating draw
        dsl = self.pending_D_slots
        if dsl is not None and len(dsl):
            if np is not None:
                mask[A.np_rev[dsl]] = False
            else:
                rev = A.rev
                for e in dsl:
                    mask[rev[e]] = False
        self.pending_D_slots = None
        self.pending_D_price = []

        n = A.n
        live = self.live
        finished = self.finished
        out = self.out
        pending_Js: List[Tuple[int, int]] = []
        new_live: List[int] = []
        if np is not None:
            np_tgt = A.np_tgt
            cur = mask & (self.drawn_at[np_tgt] == rnd)
            keys = np.where(cur, self.np_draw[np_tgt] * n + np_tgt, -1)
            # one bulk conversion to python lists: the per-live loop below
            # then pays plain list indexing instead of numpy scalar boxing
            best = np.maximum.reduceat(keys, self._segstarts).tolist()
            active_cnt = np.add.reduceat(mask.view(np.int8),
                                         self._segstarts).tolist()
            draw = self.draw
            winner_at = self.winner_at
            for i in live:
                if best[i] > draw[i] * n + i:
                    new_live.append(i)
                    continue
                finished[i] = True
                out[i] = True
                pending_Js.append((i, active_cnt[i]))
                winner_at[i] = rnd + 1
        else:
            tgt = A.tgt
            drawn_at = self.drawn_at
            draw = self.draw
            for i in live:
                mine = draw[i] * n + i
                beaten = False
                cnt = 0
                for e in A.row(i):
                    if not mask[e]:
                        continue
                    cnt += 1
                    u = tgt[e]
                    if drawn_at[u] == rnd and draw[u] * n + u > mine:
                        beaten = True
                if beaten:
                    new_live.append(i)
                    continue
                finished[i] = True
                out[i] = True
                pending_Js.append((i, cnt))
                self.winner_at[i] = rnd + 1
        self.live = new_live
        self.pending_draws = []
        self.pending_Js = pending_Js

    def _apply_resolve(self, rnd: int) -> None:
        """Even rounds: deliver Js; dominated halt and stage Ds; redraw."""
        A = self.arrays
        np = self.np
        mask = self.mask
        tgt = A.tgt
        live = self.live
        finished = self.finished
        out = self.out
        winner_at = self.winner_at
        draw = self.draw
        pending_draws: List[Tuple[int, int]] = []
        pending_D_price: List[Tuple[int, int, int]] = []
        pending_D_slots: Any = None
        new_live: List[int] = []
        if np is not None:
            slot_join = mask & (winner_at[A.np_tgt] == rnd)
            has_join = np.maximum.reduceat(slot_join.view(np.int8),
                                           self._segstarts).tolist()
            active_cnt = np.add.reduceat(mask.view(np.int8),
                                         self._segstarts).tolist()
            dominated: List[int] = []
            surv: List[int] = []
            vals: List[int] = []
            for i in live:
                if has_join[i]:
                    finished[i] = True
                    out[i] = False
                    dominated.append(i)
                    continue
                # survivor: redraw against the (unpruned) active set
                cnt = active_cnt[i]
                if not cnt:
                    finished[i] = True
                    out[i] = True  # isolated among actives: no rng draw
                    continue
                new_live.append(i)
                v = self.rng(i).randint(1, self.cap)
                draw[i] = v
                surv.append(i)
                vals.append(v)
                pending_draws.append((i, cnt))
            if dominated:
                # all dominated nodes' D slots (active, non-winner targets)
                # in one vectorized sweep; nonzero yields them slot-ascending,
                # i.e. grouped by sender in engine order
                dom = np.zeros(A.n, dtype=bool)
                dom[dominated] = True
                d_slots = np.nonzero(mask & ~slot_join
                                     & dom[self._slot_owner])[0]
                owners = self._slot_owner[d_slots].tolist()
                sl = d_slots.tolist()
                j = 0
                m = len(sl)
                while j < m:
                    o = owners[j]
                    k0 = j
                    j += 1
                    while j < m and owners[j] == o:
                        j += 1
                    pending_D_price.append((o, j - k0, sl[k0]))
                pending_D_slots = d_slots
            if surv:
                si = np.asarray(surv, dtype=np.int64)
                self.np_draw[si] = np.asarray(vals, dtype=np.int64)
                self.drawn_at[si] = rnd + 1
        else:
            flat: List[int] = []
            for i in live:
                joined = False
                cnt = 0
                for e in A.row(i):
                    if mask[e]:
                        cnt += 1
                        if winner_at[tgt[e]] == rnd:
                            joined = True
                if joined:
                    finished[i] = True
                    out[i] = False
                    slots = [e for e in A.row(i)
                             if mask[e] and winner_at[tgt[e]] != rnd]
                    if slots:
                        pending_D_price.append((i, len(slots), slots[0]))
                        flat.extend(slots)
                    continue
                # survivor: redraw against the (unpruned) active set
                if not cnt:
                    finished[i] = True
                    out[i] = True  # isolated among actives: no rng draw
                    continue
                new_live.append(i)
                draw[i] = self.rng(i).randint(1, self.cap)
                pending_draws.append((i, cnt))
                self.drawn_at[i] = rnd + 1
            if flat:
                pending_D_slots = flat
        self.live = new_live
        self.pending_Js = []
        self.pending_draws = pending_draws
        self.pending_D_price = pending_D_price
        self.pending_D_slots = pending_D_slots

    # -- protocol surface ------------------------------------------------
    def unfinished(self) -> bool:
        return bool(self.live)

    def pending(self) -> bool:  # clock-driven: passive is False
        return bool(self.pending_draws or self.pending_Js
                    or self.pending_D_price)

    def outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        out = self.out
        return {order[i]: out[i] for i in range(self.arrays.n)}


def luby_mis(network: Network, max_rounds: Optional[int] = None,
             context: str = "luby_mis") -> Set[int]:
    """Compute an MIS of ``network.graph``; returns the member node ids.

    ``network`` may also be a :class:`~repro.runtime.driver.Subnetwork`,
    so drivers can run the MIS directly inside a ``with`` block.
    """
    network = as_network(network)
    result = network.run(LubyMISNode, protocol="luby_mis", max_rounds=max_rounds)
    if network.wants(MISDecision):
        for v in sorted(result.outputs):
            network.emit(MISDecision(node=v,
                                     selected=bool(result.outputs[v]),
                                     context=context))
    return {v for v, member in result.outputs.items() if member}
