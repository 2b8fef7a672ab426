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
from ..congest.node import BROADCAST, Inbox, NodeAlgorithm, NodeContext, Outbox
from ..runtime import as_network, register_map
from ..graphs.graph import Edge, edge_key
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


@register_kernel(IsraeliItaiNode)
class IsraeliItaiKernel(RoundKernel):
    """Vectorized superstep executor for :class:`IsraeliItaiNode`.

    State lives in packed per-node-index arrays (mate, free-degree) plus a
    per-edge-slot boolean mask ``free[e]`` meaning "the owner of slot ``e``
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
    one memoized charge plus a message count.  numpy (when importable)
    builds the initial free mask and free-degree counts in bulk scatter
    operations; the round loop itself runs on python lists, whose
    single-slot probes are faster than numpy scalar boxing at CONGEST
    degrees.
    """

    # audited: node-local state, read-only shared, single-char payloads
    shardable = True
    #: sharded fast path: (a, b) index pairs — proposals (proposer,
    #: target) routed to the target's shard, acceptances (accepter,
    #: proposer) broadcast so every worker keeps mate/mask/free-degree
    #: globally consistent (announce and prune need no records at all:
    #: their information content is derivable from the replicated state)
    shard_words = 2

    def setup(self, shared: Dict[str, Any]) -> None:
        A = self.arrays
        np = A.np
        n = A.n
        order = A.order
        tgt = A.tgt
        initial_mate: Dict[int, Optional[int]] = shared.get("initial_mate", {})
        allowed: Optional[Set[Edge]] = shared.get("allowed_edges")

        self.mate: List[Optional[int]] = [initial_mate.get(v) for v in order]
        self.finished = [False] * n
        self.proposed = [False] * n

        # eligible slots per node (CSR rows are sorted by neighbor id, so
        # these lists are ascending by target id — which keeps the
        # rng.choice candidate order identical to the node program's
        # ``sorted(free_neighbors)``)
        if allowed is None:
            elig: List[List[int]] = [list(A.row(i)) for i in range(n)]
        else:
            elig = []
            for i in range(n):
                vid = order[i]
                elig.append([e for e in A.row(i)
                             if edge_key(vid, order[tgt[e]]) in allowed])
        self.elig = elig
        self.elig_count = [len(s) for s in elig]

        live: List[int] = []
        announce = 0
        for i in range(n):
            if elig[i]:
                live.append(i)
                announce += len(elig[i])
            else:
                self.finished[i] = True  # start(): no eligible edge -> halt
        self.live = live
        self._announce_count = announce

        # per-slot "I believe my target is free" mask and its per-node count.
        # numpy builds the initial mask in bulk scatters, then hands off to
        # plain python lists: every later read is a single-slot probe, where
        # list indexing beats numpy scalar boxing (measured; the per-cycle
        # pruning touches only the newly matched nodes' few slots)
        free0 = [m is None for m in self.mate]
        if np is not None and announce:
            all_el = (np.concatenate([np.asarray(elig[i], dtype=np.int64)
                                      for i in live])
                      if allowed is not None else
                      np.arange(A.num_slots, dtype=np.int64))
            np_mask = np.zeros(A.num_slots, dtype=bool)
            np_mask[all_el] = np.asarray(free0, dtype=bool)[A.np_tgt[all_el]]
            free_np = np.zeros(n, dtype=np.int64)
            slot_owner = np.repeat(np.arange(n, dtype=np.int64),
                                   np.diff(A.np_indptr))
            on = all_el[np_mask[all_el]]
            np.add.at(free_np, slot_owner[on], 1)
            mask = np_mask.tolist()
            free_deg = free_np.tolist()
        else:
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

        self.phase = "announce"
        self.proposals: List[Tuple[int, int]] = []  # (proposer, target) idx
        self.accepts: List[Tuple[int, int]] = []    # (accepter, proposer) idx
        self.newly: List[int] = []                  # matched this cycle

    # -- helpers ---------------------------------------------------------
    def _price12(self, count: int, sender: int, receiver: int) -> int:
        """Price one round of uniform 12-bit tag messages."""
        if not count:
            self.record_traffic(0, 0, 0)
            return 0
        extra = self.charge(12, sender, receiver)
        self.record_traffic(count, 12 * count, 12)
        return extra

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
        order = self.arrays.order
        mate = self.mate
        free_deg = self.free_deg
        finished = self.finished
        proposed = self.proposed
        new_live: List[int] = []
        proposals: List[Tuple[int, int]] = []
        for i in self.live:
            if mate[i] is not None or not free_deg[i]:
                finished[i] = True  # matched, or no free eligible neighbor
                continue
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

    # -- the four phases -------------------------------------------------
    def step(self, round_number: int) -> int:
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

    # -- protocol surface ------------------------------------------------
    def unfinished(self) -> bool:
        return len(self.live) > 0

    def pending(self) -> bool:  # clock-driven protocol: never consulted
        return bool(self.proposals or self.accepts or self.newly)

    def outputs(self) -> Dict[int, Any]:
        order = self.arrays.order
        mate = self.mate
        return {order[i]: {"mate": mate[i]} for i in range(self.arrays.n)}

    # -- sharded fast path -------------------------------------------------
    # Every worker replicates the full global state (mate/mask/free-degree
    # carry no randomness, so identical bookkeeping is cheaper than
    # exchanging it); only rng draws are owner-restricted, which keeps each
    # node's stream bit-identical to the in-process kernel.  Proposals are
    # routed to the target's owner, acceptances broadcast; announce and
    # prune rounds need no records at all.

    def shard_setup(self, shared: Dict[str, Any]) -> None:
        self.setup(shared)  # no rng in setup: replication is exact

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
        finished = self.finished
        proposed = self.proposed
        new_live: List[int] = []
        proposals: List[Tuple[int, int]] = []
        for i in self.live:
            if mate[i] is not None or not free_deg[i]:
                finished[i] = True
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
            for _peer, words, _blob in ctx.incoming:
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
            for _peer, words, _blob in ctx.incoming:
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
    graph = network.graph
    initial = initial if initial is not None else Matching()
    shared: Dict[str, object] = {
        "initial_mate": {v: initial.mate(v) for v in graph.nodes},
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
