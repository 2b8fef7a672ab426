"""The Israeli-Itai randomized maximal matching algorithm (CONGEST).

The classical baseline the paper improves on: a 1/2-MCM (by maximality) in
O(log n) rounds w.h.p. [Israeli & Itai 1986].  Each iteration costs three
rounds:

1. *propose* — every active node flips a coin; "males" send a proposal to a
   uniformly random free eligible neighbor;
2. *accept*  — "females" accept one received proposal uniformly at random
   (the accepting edge is matched: the male proposed unconditionally);
3. *notify*  — newly matched nodes announce it; everyone prunes their free
   neighbor sets; nodes that are matched or isolated halt.

The protocol supports a pre-existing matching and an edge filter so that the
weighted black box (class-greedy) can run it on weight-class subgraphs among
still-free nodes.  Termination is Las Vegas: nodes halt exactly when no
eligible free-free edge remains, so the result is always maximal on the
eligible subgraph.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..congest.kernels import RoundKernel, register_kernel
from ..congest.network import Network
from ..congest.node import Inbox, NodeAlgorithm, NodeContext, Outbox
from ..runtime import as_network, register_map
from ..graphs.graph import Edge, edge_key
from .random_tools import vec_below, vec_draws, vec_node_seeds
from ..matching.core import Matching

# wire tags (single characters keep messages at a few bits)
_FREE = "f"
_PROPOSE = "p"
_ACCEPT = "a"
_MATCHED = "m"


class IsraeliItaiNode(NodeAlgorithm):
    """Node program for one Israeli-Itai execution."""

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        initial_mate: Dict[int, Optional[int]] = ctx.shared.get("initial_mate", {})
        allowed: Optional[Set[Edge]] = ctx.shared.get("allowed_edges")
        self.mate: Optional[int] = initial_mate.get(ctx.node_id)
        self.eligible_neighbors: Set[int] = {
            u for u in ctx.neighbors
            if allowed is None or edge_key(ctx.node_id, u) in allowed
        }
        self.free_neighbors: Set[int] = set()
        self.phase = "announce"
        self.proposed_to: Optional[int] = None

    # -- helpers ---------------------------------------------------------
    def _is_free(self) -> bool:
        return self.mate is None

    def _finish_if_stuck(self) -> Optional[Outbox]:
        """Halt when matched or when no free eligible neighbor remains."""
        if not self._is_free() or not self.free_neighbors:
            return self.halt({"mate": self.mate})
        return None

    # -- protocol ----------------------------------------------------------
    def start(self) -> Outbox:
        if not self.eligible_neighbors:
            return self.halt({"mate": self.mate})
        if self._is_free():
            return {u: _FREE for u in self.eligible_neighbors}
        # matched nodes only announce their status, then leave
        return {u: _MATCHED for u in self.eligible_neighbors}

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.phase == "announce":
            self.free_neighbors = {
                u for u, tag in inbox.items()
                if tag == _FREE and u in self.eligible_neighbors
            }
            self.phase = "propose"
            stuck = self._finish_if_stuck()
            if stuck is not None:
                return stuck
            return self._propose()
        if self.phase == "propose":
            # inbox holds proposals; acceptance decision
            self.phase = "accept"
            proposals = [u for u, tag in inbox.items() if tag == _PROPOSE]
            if self.proposed_to is None and proposals:
                chosen = self.rng.choice(sorted(proposals))
                self.mate = chosen
                return {chosen: _ACCEPT}
            return {}
        if self.phase == "accept":
            # inbox holds acceptances; males learn the outcome
            self.phase = "notify"
            accepted_by = [u for u, tag in inbox.items() if tag == _ACCEPT]
            if self.proposed_to is not None and self.proposed_to in accepted_by:
                self.mate = self.proposed_to
            self.proposed_to = None
            if not self._is_free():
                return {u: _MATCHED for u in self.eligible_neighbors}
            return {}
        # phase == "notify": prune freshly matched neighbors, loop again
        for u, tag in inbox.items():
            if tag == _MATCHED:
                self.free_neighbors.discard(u)
        self.phase = "propose"
        stuck = self._finish_if_stuck()
        if stuck is not None:
            return stuck
        return self._propose()

    def _propose(self) -> Outbox:
        self.phase = "propose"
        if self.rng.random() < 0.5 and self.free_neighbors:
            self.proposed_to = self.rng.choice(sorted(self.free_neighbors))
            return {self.proposed_to: _PROPOSE}
        self.proposed_to = None
        return {}


#: Live nodes (nodes with an eligible edge) from which an in-process run
#: takes :class:`IsraeliItaiKernel`'s array path: the measured break-even.
#: ``israeli_itai`` alone on the kernel tier, ``gnp(n, 3/n)`` (graph seed
#: 1), 2-core Xeon, numpy 2.4, live nodes: list vs array ms per run:
#: 15: 0.15 vs 0.54; 63: 0.42 vs 0.75; 122: 0.77 vs 0.84;
#: 157: 0.96 vs 0.96; 185: 1.12 vs 0.99; 246: 1.50 vs 1.11;
#: 972: 5.95 vs 1.95; 3899: 24.5 vs 4.6.
ARRAY_MIN_LIVE = 160

_HALF = 1 << 63  # a draw below 2**63 is the node program's random() < 0.5


@register_kernel(IsraeliItaiNode)
class IsraeliItaiKernel(RoundKernel):
    """Vectorized superstep executor for :class:`IsraeliItaiNode`.

    State lives in packed per-node-index arrays (mate, free-degree) plus a
    per-edge-slot boolean mask ``mask[e]`` meaning "the owner of slot ``e``
    believes its target is free".  One engine round maps to one :meth:`step`
    in a four-phase cycle mirroring the node program exactly:

    * ``announce`` (round 1) — deliver the f/m status tags, halt matched and
      stuck nodes, flip coins and stage proposals;
    * ``accept`` (rounds 2+3t) — deliver proposals; each non-proposing
      target picks one uniformly (same ``rng.choice`` over the same sorted
      candidate list as the node program) and stages an acceptance;
    * ``notify`` (rounds 3+3t) — deliver acceptances; both endpoints of
      every new edge stage an "m" announcement to all eligible neighbors;
    * ``prune`` (rounds 4+3t) — deliver the announcements: clear the
      reverse slot of every eligible edge of a newly matched node (the CSR
      ``rev`` array makes "me in my neighbor's row" O(1)), halt matched and
      stuck nodes, and stage the next proposals.

    All wire tags are single characters (12 bits), so pricing a round is
    one memoized charge plus a message count.

    The cycle runs on one of two paths, chosen in :meth:`setup`.  The
    *array path* runs each phase as numpy passes over the slot masks and
    per-node draw counters: node ``i``'s ``c``-th draw is
    ``splitmix64(key_i + c·γ)`` (:func:`~repro.dist.random_tools.
    vec_draws`), the same word its :class:`~repro.dist.random_tools.
    SplitMixStream` yields, so every stream stays bit-identical.  The
    *list path* runs the phases as python loops over lists and draws from
    the node streams one call at a time.  A run takes the array path when
    numpy is importable, it runs in-process and it starts with at least
    :data:`ARRAY_MIN_LIVE` live nodes; small runs (where numpy's per-call
    overhead outweighs the loop), numpy-less installs and shard workers
    take the list path.
    """

    #: audited for shard workers: node-local state, read-only shared,
    #: single-char payloads.  Sharded fast path: (a, b) index pairs —
    #: proposals (proposer, target) routed to the target's shard,
    #: acceptances (accepter, proposer) broadcast so every worker keeps
    #: mate/mask/free-degree globally consistent (announce and prune need
    #: no records at all: their information content is derivable from
    #: the replicated state)
    shard_words = 2

    def setup(self, shared: Dict[str, Any]) -> None:
        elig = self._start(shared)
        np = self.arrays.np
        if np is not None and self._live_count(np, elig) >= ARRAY_MIN_LIVE:
            self._setup_arrays(np, elig)
        else:
            self._setup_lists(elig)

    def _start(self, shared: Dict[str, Any]) -> Optional[List[List[int]]]:
        """Set the initial mates; return each node's eligible slots, or
        None when every slot is eligible (no ``allowed_edges``).

        CSR rows are sorted by neighbor id, so the eligible slots ascend by
        target id — which keeps the ``rng.choice`` candidate order
        identical to the node program's ``sorted(free_neighbors)``."""
        A = self.arrays
        order = A.order
        initial_mate: Dict[int, Optional[int]] = shared.get("initial_mate",
                                                            {})
        allowed: Optional[Set[Edge]] = shared.get("allowed_edges")
        self.mate: List[Optional[int]] = (
            [initial_mate.get(v) for v in order] if initial_mate
            else [None] * A.n)
        self.phase = "announce"
        if allowed is None:
            return None
        tgt = A.tgt
        return [[e for e in A.row(i)
                 if edge_key(vid, order[tgt[e]]) in allowed]
                for i, vid in enumerate(order)]

    def _live_count(self, np: Any, elig: Optional[List[List[int]]]) -> int:
        """Nodes with an eligible edge: those that
        :meth:`IsraeliItaiNode.start` does not halt."""
        if elig is None:
            return int(np.count_nonzero(np.diff(self.arrays.np_indptr)))
        return sum(1 for s in elig if s)

    # -- pricing -----------------------------------------------------------
    def _price12(self, count: int, sender: int, receiver: int) -> int:
        """Price one round of uniform 12-bit tag messages."""
        if not count:
            self.record_traffic(0, 0, 0)
            return 0
        extra = self.charge(12, sender, receiver)
        self.record_traffic(count, 12 * count, 12)
        return extra

    # -- protocol surface ------------------------------------------------
    def step(self, round_number: int) -> int:
        if self.np is not None:
            return self._step_arrays()
        return self._step_lists()

    def unfinished(self) -> bool:
        return len(self.live) > 0

    def pending(self) -> bool:  # clock-driven: passive is False
        return bool(len(self.proposals) or len(self.accepts)
                    or len(self.newly))

    def outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        mate = self.mate
        return {order[i]: {"mate": mate[i]} for i in range(self.arrays.n)}

    # -- the list path -----------------------------------------------------
    def _setup_lists(self, elig: Optional[List[List[int]]]) -> None:
        A = self.arrays
        n = A.n
        tgt = A.tgt
        self.np = None
        if elig is None:
            elig = [list(A.row(i)) for i in range(n)]
        self.elig = elig
        self.elig_count = [len(s) for s in elig]
        self.proposed = [False] * n

        # start(): a node with no eligible edge halts at once
        live = [i for i in range(n) if elig[i]]
        self.live = live
        self._announce_count = sum(self.elig_count)

        # per-slot "I believe my target is free" mask and its per-node count
        free0 = [m is None for m in self.mate]
        mask = [False] * A.num_slots
        free_deg = [0] * n
        for i in live:
            c = 0
            for e in elig[i]:
                if free0[tgt[e]]:
                    mask[e] = True
                    c += 1
            free_deg[i] = c
        self.mask = mask
        self.free_deg = free_deg

        self.proposals: List[Tuple[int, int]] = []  # (proposer, target) idx
        self.accepts: List[Tuple[int, int]] = []    # (accepter, proposer) idx
        self.newly: List[int] = []                  # matched this cycle

    def _free_targets(self, i: int) -> List[int]:
        """Node ``i``'s believed-free eligible targets (ascending indices)."""
        mask = self.mask
        tgt = self.arrays.tgt
        return [tgt[e] for e in self.elig[i] if mask[e]]

    def _advance(self) -> None:
        """The shared halt-or-propose pass (announce and prune rounds).

        Halts matched and stuck nodes, then lets every survivor flip the
        node program's coin and (heads) pick a believed-free target —
        ``rng.choice`` only consumes an index draw, so choosing from the
        target-index list yields the same pick as the node program's choice
        from the id list (both ascending, same length).
        """
        mate = self.mate
        free_deg = self.free_deg
        proposed = self.proposed
        new_live: List[int] = []
        proposals: List[Tuple[int, int]] = []
        for i in self.live:
            if mate[i] is not None or not free_deg[i]:
                continue  # halts: matched, or no free eligible neighbor
            new_live.append(i)
            r = self.rng(i)
            if r.random() < 0.5:
                ti = r.choice(self._free_targets(i))
                proposed[i] = True
                proposals.append((i, ti))
            else:
                proposed[i] = False
        self.live = new_live
        self.proposals = proposals

    def _step_lists(self) -> int:
        A = self.arrays
        order = A.order
        phase = self.phase

        if phase == "announce":
            live = self.live
            if live:
                i0 = live[0]
                extra = self._price12(self._announce_count, order[i0],
                                      order[A.tgt[self.elig[i0][0]]])
            else:
                extra = self._price12(0, 0, 0)
            self._advance()
            self.phase = "accept"
            return extra

        if phase == "accept":
            proposals = self.proposals
            if proposals:
                p0, t0 = proposals[0]
                extra = self._price12(len(proposals), order[p0], order[t0])
            else:
                extra = self._price12(0, 0, 0)
            by_target: Dict[int, List[int]] = {}
            for p, t in proposals:  # ascending proposer: lists stay sorted
                by_target.setdefault(t, []).append(p)
            accepts: List[Tuple[int, int]] = []
            mate = self.mate
            for t in sorted(by_target):
                if self.proposed[t]:
                    continue  # proposers ignore incoming proposals
                p = self.rng(t).choice(by_target[t])
                mate[t] = order[p]
                accepts.append((t, p))
            self.accepts = accepts
            self.phase = "notify"
            return extra

        if phase == "notify":
            accepts = self.accepts
            if accepts:
                t0, p0 = accepts[0]
                extra = self._price12(len(accepts), order[t0], order[p0])
            else:
                extra = self._price12(0, 0, 0)
            newly: List[int] = []
            mate = self.mate
            for t, p in accepts:
                mate[p] = order[t]
                newly.append(t)
                newly.append(p)
            newly.sort()
            self.newly = newly
            self.phase = "prune"
            return extra

        # phase == "prune": deliver the "m" announcements
        newly = self.newly
        count = sum(self.elig_count[v] for v in newly)
        if count:
            v0 = newly[0]
            extra = self._price12(count, order[v0],
                                  order[A.tgt[self.elig[v0][0]]])
        else:
            extra = self._price12(0, 0, 0)
        if newly:
            # clear the reverse slot of every eligible edge of a newly
            # matched node: rev[e] is "me in my neighbor's row" in O(1)
            mask = self.mask
            rev = A.rev
            tgt = A.tgt
            free_deg = self.free_deg
            for v in newly:
                for e in self.elig[v]:
                    mask[rev[e]] = False
                    free_deg[tgt[e]] -= 1
        self._advance()
        self.phase = "accept"
        return extra

    # -- the array path ----------------------------------------------------
    # Per slot: ``elig_mask`` (None when every slot is eligible) and the
    # believed-free ``mask``.  Per node: ``free_deg``, ``elig_count``,
    # ``matched``, ``proposed``, the stream ``keys`` and draw counters
    # ``ctr``; ``live`` holds the live node indices, ascending.  ``mate``
    # stays a list of ids, so :meth:`outputs` is shared with the list path.
    # Every pass touches only the live, proposing, accepting or newly
    # matched nodes and their rows, never all n.

    def _setup_arrays(self, np: Any, elig: Optional[List[List[int]]]) -> None:
        A = self.arrays
        n = A.n
        indptr = A.np_indptr
        self.np = np
        if self.mate.count(None) == n:
            matched = np.zeros(n, dtype=bool)
        else:
            matched = np.array([m is not None for m in self.mate], dtype=bool)
        if elig is None:
            self.elig_mask = None
            elig_count = np.diff(indptr)
            mask = ~matched[A.np_tgt]
        else:
            elig_mask = np.zeros(A.num_slots, dtype=bool)
            elig_mask[[e for row in elig for e in row]] = True
            self.elig_mask = elig_mask
            elig_count = np.array([len(s) for s in elig], dtype=np.int64)
            mask = elig_mask & ~matched[A.np_tgt]
        # per-row masked counts as differences of one running sum
        running = np.zeros(A.num_slots + 1, dtype=np.int64)
        np.cumsum(mask, out=running[1:])
        self.free_deg = running[indptr[1:]] - running[indptr[:-1]]
        self.mask = mask
        self.elig_count = elig_count
        self.matched = matched
        self.proposed = np.zeros(n, dtype=bool)
        self.live = np.flatnonzero(elig_count)
        self._announce_count = int(elig_count.sum())
        self.keys = vec_node_seeds(self.net.node_stream_prefix(), A.order)
        self.ctr = np.zeros(n, dtype=np.uint64)
        none = np.zeros(0, dtype=np.int64)
        self.proposals = self.prop_tgt = none   # proposer, target
        self.accepts = self.acc_p = none        # accepter, proposer
        self.newly = none                       # matched this cycle

    def _draws(self, idx: Any) -> Any:
        """The next draw of each node in ``idx`` (distinct indices)."""
        ctr = self.ctr[idx]
        self.ctr[idx] = ctr + 1
        return vec_draws(self.keys[idx], ctr)

    def _row_slots(self, rows: Any) -> Tuple[Any, Any]:
        """The CSR slots of the non-empty index array ``rows``, row after
        row, and each row's end offset in that flat array."""
        np = self.np
        indptr = self.arrays.np_indptr
        lo = indptr[rows]
        lens = indptr[rows + 1] - lo
        ends = np.cumsum(lens)
        slots = (np.arange(ends[-1], dtype=np.int64)
                 + np.repeat(lo - (ends - lens), lens))
        return slots, ends

    def _first_elig_id(self, i: int) -> int:
        """The id of node ``i``'s first eligible neighbor (pricing)."""
        A = self.arrays
        e = A.indptr[i]
        if self.elig_mask is not None:
            e += int(self.np.argmax(self.elig_mask[e:A.indptr[i + 1]]))
        return A.order[A.tgt[e]]

    def _advance_arrays(self) -> None:
        """:meth:`_advance` over arrays: halt, flip every survivor's coin
        (one draw each), then draw each head's target index among its
        believed-free slots (a second draw), in the node program's order.
        """
        np = self.np
        live = self.live
        live = live[~self.matched[live] & (self.free_deg[live] > 0)]
        self.live = live
        heads = self._draws(live) < np.uint64(_HALF)
        self.proposed[live] = heads
        src = live[heads]
        dst = src
        if len(src):
            free = self.free_deg[src]
            k = vec_below(self._draws(src), free).astype(np.int64)
            # the k-th believed-free slot of each row: the first position
            # where the running count of set mask bits reaches the count
            # before the row plus k + 1
            slots, ends = self._row_slots(src)
            running = np.cumsum(self.mask[slots])
            before = running[ends - 1] - free
            pos = np.searchsorted(running, before + k + 1)
            dst = self.arrays.np_tgt[slots[pos]]
        self.proposals = src
        self.prop_tgt = dst

    def _step_arrays(self) -> int:
        np = self.np
        A = self.arrays
        order = A.order
        phase = self.phase

        if phase == "announce":
            live = self.live
            if len(live):
                i0 = int(live[0])
                extra = self._price12(self._announce_count, order[i0],
                                      self._first_elig_id(i0))
            else:
                extra = self._price12(0, 0, 0)
            self._advance_arrays()
            self.phase = "accept"
            return extra

        if phase == "accept":
            src, dst = self.proposals, self.prop_tgt
            if len(src):
                extra = self._price12(len(src), order[int(src[0])],
                                      order[int(dst[0])])
            else:
                extra = self._price12(0, 0, 0)
            keep = ~self.proposed[dst]  # proposers ignore proposals
            src, dst = src[keep], dst[keep]
            # a stable sort by target keeps each target's proposers
            # ascending, as the node program's sorted(proposals) does
            by_target = np.argsort(dst, kind="stable")
            src, dst = src[by_target], dst[by_target]
            first = np.ones(len(dst), dtype=bool)
            np.not_equal(dst[1:], dst[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            targets = dst[starts]
            counts = np.diff(np.append(starts, len(dst)))
            pick = vec_below(self._draws(targets), counts).astype(np.int64)
            self.accepts = targets
            self.acc_p = src[starts + pick]
            self.phase = "notify"
            return extra

        if phase == "notify":
            accepts, acc_p = self.accepts, self.acc_p
            if len(accepts):
                extra = self._price12(len(accepts), order[int(accepts[0])],
                                      order[int(acc_p[0])])
            else:
                extra = self._price12(0, 0, 0)
            mate = self.mate
            for t, p in zip(accepts.tolist(), acc_p.tolist()):
                mate[t] = order[p]
                mate[p] = order[t]
            newly = np.concatenate((accepts, acc_p))
            self.matched[newly] = True
            newly.sort()
            self.newly = newly
            self.phase = "prune"
            return extra

        # phase == "prune": deliver the "m" announcements
        newly = self.newly
        count = int(self.elig_count[newly].sum())
        if count:
            v0 = int(newly[0])
            extra = self._price12(count, order[v0], self._first_elig_id(v0))
        else:
            extra = self._price12(0, 0, 0)
        if len(newly):
            slots, _ = self._row_slots(newly)
            if self.elig_mask is not None:
                slots = slots[self.elig_mask[slots]]
            self.mask[A.np_rev[slots]] = False
            np.subtract.at(self.free_deg, A.np_tgt[slots], 1)
        self._advance_arrays()
        self.phase = "accept"
        return extra

    # -- sharded fast path -------------------------------------------------
    # Every worker replicates the full global state (mate/mask/free-degree
    # carry no randomness, so identical bookkeeping is cheaper than
    # exchanging it); only rng draws are owner-restricted, which keeps each
    # node's stream bit-identical to the in-process kernel.  Proposals are
    # routed to the target's owner, acceptances broadcast; announce and
    # prune rounds need no records at all.

    def shard_setup(self, shared: Dict[str, Any]) -> None:
        # the list path (no rng in setup: replication is exact)
        self._setup_lists(self._start(shared))

    def _shard_advance(self) -> None:
        """:meth:`_advance` with owner-restricted coin flips.

        Halting bookkeeping runs over the full live list (it reads only
        replicated state), but the coin flip and target choice touch a
        node's rng stream, so they run only at its owner; the resulting
        proposal list is this worker's owned slice of the global one.
        """
        ctx = self.shard
        owner, w = ctx.owner, ctx.w
        mate = self.mate
        free_deg = self.free_deg
        proposed = self.proposed
        new_live: List[int] = []
        proposals: List[Tuple[int, int]] = []
        for i in self.live:
            if mate[i] is not None or not free_deg[i]:
                continue
            new_live.append(i)
            if owner[i] != w:
                continue  # remote stream: its owner draws
            self.shard_pos = i
            r = self.rng(i)
            if r.random() < 0.5:
                ti = r.choice(self._free_targets(i))
                proposed[i] = True
                proposals.append((i, ti))
            else:
                proposed[i] = False
        self.live = new_live
        self.proposals = proposals

    def shard_publish(self, round_number: int) -> int:
        ctx = self.shard
        A = self.arrays
        order = A.order
        owner, w = ctx.owner, ctx.w
        phase = self.phase

        if phase == "announce":
            count = 0
            first = -1
            for i in self.live:
                if owner[i] == w:
                    if first < 0:
                        first = i
                    count += len(self.elig[i])
            if count:
                self.shard_pos = first
                return self._price12(count, order[first],
                                     order[A.tgt[self.elig[first][0]]])
            return self._price12(0, 0, 0)

        if phase == "accept":
            proposals = self.proposals  # owned proposers only
            if proposals:
                p0, t0 = proposals[0]
                self.shard_pos = p0
                extra = self._price12(len(proposals), order[p0], order[t0])
            else:
                extra = self._price12(0, 0, 0)
            words = ctx.staged_words
            for p, t in proposals:
                d = owner[t]
                if d != w:
                    sw = words[d]
                    sw.append(p)
                    sw.append(t)
            return extra

        if phase == "notify":
            accepts = self.accepts  # owned accepters only
            if accepts:
                t0, p0 = accepts[0]
                self.shard_pos = t0
                extra = self._price12(len(accepts), order[t0], order[p0])
                words = ctx.staged_words
                for d in range(ctx.k):  # broadcast: everyone tracks mates
                    if d == w:
                        continue
                    sw = words[d]
                    for t, p in accepts:
                        sw.append(t)
                        sw.append(p)
                return extra
            return self._price12(0, 0, 0)

        # phase == "prune"
        count = 0
        first = -1
        for v in self.newly:
            if owner[v] == w:
                if first < 0:
                    first = v
                count += self.elig_count[v]
        if count:
            self.shard_pos = first
            return self._price12(count, order[first],
                                 order[A.tgt[self.elig[first][0]]])
        return self._price12(0, 0, 0)

    def shard_apply(self, round_number: int) -> None:
        ctx = self.shard
        A = self.arrays
        order = A.order
        phase = self.phase

        if phase == "announce":
            self._shard_advance()
            self.phase = "accept"
            return

        if phase == "accept":
            owner, w = ctx.owner, ctx.w
            pairs = [(p, t) for p, t in self.proposals if owner[t] == w]
            for _peer, words in ctx.incoming:
                for off in range(0, len(words), 2):
                    pairs.append((int(words[off]), int(words[off + 1])))
            pairs.sort()  # ascending proposer: candidate lists stay sorted
            by_target: Dict[int, List[int]] = {}
            for p, t in pairs:
                by_target.setdefault(t, []).append(p)
            accepts: List[Tuple[int, int]] = []
            mate = self.mate
            for t in sorted(by_target):  # owned targets by construction
                if self.proposed[t]:
                    continue
                self.shard_pos = t
                p = self.rng(t).choice(by_target[t])
                mate[t] = order[p]
                accepts.append((t, p))
            self.accepts = accepts
            self.proposals = []
            self.phase = "notify"
            return

        if phase == "notify":
            pairs = list(self.accepts)
            for _peer, words in ctx.incoming:
                for off in range(0, len(words), 2):
                    pairs.append((int(words[off]), int(words[off + 1])))
            mate = self.mate
            newly: List[int] = []
            for t, p in pairs:
                mate[t] = order[p]  # no-op for this worker's own accepts
                mate[p] = order[t]
                newly.append(t)
                newly.append(p)
            newly.sort()
            self.newly = newly
            self.accepts = []
            self.phase = "prune"
            return

        # phase == "prune"
        newly = self.newly
        if newly:
            mask = self.mask
            rev = A.rev
            tgt = A.tgt
            free_deg = self.free_deg
            for v in newly:
                for e in self.elig[v]:
                    mask[rev[e]] = False
                    free_deg[tgt[e]] -= 1
        self.newly = []
        self._shard_advance()
        self.phase = "accept"

    def shard_outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        mate = self.mate
        return {order[i]: {"mate": mate[i]} for i in self.shard.owned}


def israeli_itai(network: Network,
                 initial: Optional[Matching] = None,
                 allowed_edges: Optional[Iterable[Edge]] = None,
                 max_rounds: Optional[int] = None) -> Matching:
    """Run Israeli-Itai on ``network``; returns the (extended) matching.

    ``initial`` seeds a pre-existing matching whose nodes sit out;
    ``allowed_edges`` restricts proposals to a subgraph.  The result is
    maximal on the eligible subgraph and always contains ``initial``.
    ``network`` may also be a :class:`~repro.runtime.driver.Subnetwork`.
    """
    network = as_network(network)
    initial = initial if initial is not None else Matching()
    # only the matched nodes: both readers default every other node to free
    shared: Dict[str, object] = {
        "initial_mate": {v: initial.mate(v) for v in initial.matched_nodes()},
    }
    if allowed_edges is not None:
        shared["allowed_edges"] = {edge_key(u, v) for u, v in allowed_edges}

    result = network.run(
        IsraeliItaiNode,
        protocol="israeli_itai",
        shared=shared,
        max_rounds=max_rounds,
    )

    return Matching.from_mate_map(register_map(result.outputs))
