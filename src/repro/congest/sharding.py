"""Sharded multi-core execution: partitioned networks with halo exchange.

Large networks are embarrassingly parallel *within* a round: every node's
transition depends only on its own state and its inbox.  This module
exploits that by partitioning the graph into ``k`` edge-cut shards
(:func:`partition_graph`), pinning each shard to a persistent worker
process, and running every superstep in parallel — the ``sharded-kernel``
execution tier.  Pickling happens exactly twice per run: the
``(kernel, shared)`` dispatch at the start and the output gather at the
end.

Each worker executes its slice of an audited
:class:`~repro.congest.kernels.RoundKernel`'s vectorized fast path over
the full CSR snapshot (setup is replicated — per-node rng streams are
independent, so every worker derives the identical global start state,
then only advances the nodes it owns).  Only the effects that cross the
cut — the **halo** — are exchanged between workers, as fixed-width int64
*records* in ``multiprocessing.shared_memory`` blocks.  Peers map those
records as numpy views built directly on the publisher's block —
zero-copy, no per-round re-pack.  See :class:`~repro.congest.kernels.
ShardContext` for the worker-side services and
:class:`~repro.dist.israeli_itai.IsraeliItaiKernel`'s ``shard_*`` hooks
for the record layout.

The executor is **golden-equivalent** to the single-process engine:
identical outputs, round counts, :class:`~repro.runtime.metrics.Metrics`
(physical account), per-node random streams, structural event stream
(``RoundStart``/``RoundEnd``) and error behavior, enforced by
``tests/test_sharding.py``.  The coordinator is a stepper of the
engine's one loop (``Network._drive``), so termination, quiescence, the
round limit, metric recording and event emission are the loop's, not a
copy of it.

Coordination protocol (one reusable cyclic barrier, ``k + 1`` parties)::

    per run:   dispatch(pipe) -> setup -> B0(sync)
    per round: B1(command) -> publish -> B2(halo) -> apply -> B3(stats)
    finish:    B1 carries FINISH/ABORT; outputs (or the error) return
               over each worker's pipe.

Control words and per-worker statistics live in one shared-memory block
of int64 words; each worker owns one halo block whose capacity doubles
on demand (generation-numbered names, peers re-attach lazily).

Error equivalence: the engine raises the *first* error in global sender
(or node) order.  Workers record their first error's phase and global
order position; the coordinator takes the minimum over ``(phase, pos)``
and re-raises the reconstructed exception — with the engine's exact
message — while recording exactly what the in-process kernel would have
recorded (nothing for a publish-phase error; the round's traffic, but
not the round, for an apply-phase error).

Shard safety is *declared*, not inferred: a protocol is eligible only
when its node class has a registered :class:`~repro.congest.kernels.
RoundKernel` that declares ``shard_words > 0`` — the curated promise that
the kernel implements the shard hooks and that its node program keeps
all state node-local and never mutates ``shared``.  One kernel makes it:
:class:`~repro.dist.israeli_itai.IsraeliItaiKernel`.  Every other
protocol resolves to the in-process kernel tier.
"""

from __future__ import annotations

import os
import random
import uuid
import weakref
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Auto-sharding engages only at or above this node count (smaller
#: networks round-trip the pool faster than they compute).
AUTO_SHARD_MIN_NODES = 4096

#: Auto-sharding never uses more shards than this (or the core count).
MAX_AUTO_SHARDS = 4

#: Default partition balance guard: max shard size may not exceed
#: ``ceil(balance * n / k)``.
DEFAULT_BALANCE = 1.2

#: Initial per-worker halo block capacity in bytes (doubles on demand).
INITIAL_HALO_BYTES = 1 << 16

#: Seconds a barrier wait may block before the pool is declared broken.
BARRIER_TIMEOUT = 300.0


class ShardingError(RuntimeError):
    """Raised when the sharded executor itself fails (never for protocol
    errors — those re-raise with their original type and message)."""


# ---------------------------------------------------------------------------
# deterministic edge-cut partitioner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """An edge-cut partition of a CSR adjacency into ``k`` shards.

    ``owner[i]`` is the shard of node *index* ``i`` (position in
    ``csr.order``); ``shards[s]`` lists shard ``s``'s node indices in
    ascending order.  ``cut_edges`` counts undirected edges whose
    endpoints live in different shards; ``imbalance`` is
    ``max_shard_size * k / n`` (1.0 = perfectly even).
    """

    k: int
    seed: int
    balance: float
    owner: Tuple[int, ...]
    shards: Tuple[Tuple[int, ...], ...]
    sizes: Tuple[int, ...]
    cut_edges: int
    imbalance: float


def partition_graph(graph: Any, shards: int, seed: int = 0,
                    balance: float = DEFAULT_BALANCE) -> Partition:
    """Deterministically partition a graph (or CSR view) into shards.

    Greedy BFS growth: each shard grows from a seeded-random start node,
    absorbing the BFS frontier until it reaches its equal-fill target
    ``ceil(remaining / remaining_shards)`` (fresh random restarts bridge
    exhausted components).  The equal-fill cap guarantees every shard
    holds at most ``ceil(n / k)`` nodes, which satisfies any ``balance``
    bound >= 1; the bound is still asserted on the result as a guard.

    The result is a pure function of ``(adjacency, shards, seed,
    balance)`` — bit-identical across processes and platforms — because
    the only randomness is a :func:`~repro.dist.random_tools.spawn_seed`
    stream and all iteration is over the sorted CSR layout.
    """
    csr = graph.to_csr() if hasattr(graph, "to_csr") else graph
    n = len(csr.order)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if balance < 1.0:
        raise ValueError("balance must be >= 1.0")
    k = min(shards, n) if n else 1
    owner = array("q", [-1]) * n
    indptr, indices = csr.indptr, csr.indices
    from ..dist.random_tools import spawn_seed

    rng = random.Random(spawn_seed(seed, "partition", k))
    remaining = n
    frontier: deque = deque()
    for s in range(k):
        cap = -(-remaining // (k - s))  # ceil: equal-fill target
        size = 0
        frontier.clear()
        while size < cap:
            if not frontier:
                # fresh start: the rng.randrange(remaining)-th unassigned
                # node in index order (deterministic given the stream)
                skip = rng.randrange(remaining)
                for i in range(n):
                    if owner[i] < 0:
                        if skip == 0:
                            start = i
                            break
                        skip -= 1
                owner[start] = s
                size += 1
                remaining -= 1
                frontier.append(start)
                continue
            i = frontier.popleft()
            for e in range(indptr[i], indptr[i + 1]):
                j = indices[e]
                if owner[j] < 0:
                    owner[j] = s
                    size += 1
                    remaining -= 1
                    frontier.append(j)
                    if size >= cap:
                        break
    members: List[List[int]] = [[] for _ in range(k)]
    for i in range(n):
        members[owner[i]].append(i)
    sizes = tuple(len(m) for m in members)
    cut = 0
    for i in range(n):
        o = owner[i]
        for e in range(indptr[i], indptr[i + 1]):
            if owner[indices[e]] != o:
                cut += 1
    cut //= 2
    imbalance = (max(sizes) * k / n) if n else 0.0
    bound = -(-int(balance * n) // k) if n else 0  # ceil(balance*n/k)
    if n and max(sizes) > max(bound, -(-n // k)):
        raise ShardingError(
            f"partition balance bound violated: max shard {max(sizes)} > "
            f"ceil({balance} * {n} / {k})")
    return Partition(k=k, seed=seed, balance=balance,
                     owner=tuple(owner),
                     shards=tuple(tuple(m) for m in members),
                     sizes=sizes, cut_edges=cut, imbalance=imbalance)


# ---------------------------------------------------------------------------
# shared-memory layout
# ---------------------------------------------------------------------------
# The meta block is int64 words: [CMD] then k rows of _S_COLS stats words.
# The coordinator writes CMD before the command barrier; worker w writes
# its stats row before the stats barrier (plus the halo generation words
# before the halo barrier).  Barriers order every access.

_CMD = 0
_CTRL_WORDS = 1

_S_STATUS = 0          # 0 ok, 1 error pending
_S_ERR_PHASE = 1       # 0 setup, 1 publish, 2 apply
_S_ERR_POS = 2         # global order index of the erroring node
_S_MESSAGES = 3
_S_BITS = 4
_S_MAX_BITS = 5
_S_EXTRA = 6           # pipelining charge (max over this worker's messages)
_S_HALO_BITS = 7       # 8 * halo bytes published this round
_S_ANY_OUT = 8
_S_ALL_PASSIVE = 9
_S_ANY_UNFINISHED = 10
_S_HALO_GEN = 11       # current generation of this worker's halo block
_S_HALO_RECORDS = 12   # fixed-width records published this round
_S_COLS = 13

_PHASE_SETUP, _PHASE_PUBLISH, _PHASE_APPLY = 0, 1, 2

_CMD_CONTINUE, _CMD_FINISH, _CMD_ABORT = 0, 1, 2


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block (creator keeps tracker ownership).

    Every worker is forked from the coordinator, so the whole pool shares
    one resource tracker and its cache is a per-name *set*: the attach
    registration Python 3.11 performs unconditionally is a no-op there,
    and the single creator-side ``unlink`` balances it.  (Do not
    ``unregister`` attachments: that would delete the creator's entry.)
    """
    return shared_memory.SharedMemory(name=name, create=False)


def _halo_name(base: str, worker: int, generation: int) -> str:
    return f"{base}h{worker}g{generation}"


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

@dataclass
class _WorkerSpec:
    """Everything a worker needs, shipped once at pool start."""

    worker: int
    k: int
    base: str               # shared-memory name prefix for halo blocks
    meta_name: str
    csr: Any                # CSRAdjacency (picklable arrays)
    owner: Tuple[int, ...]
    policy: Any
    seed: int
    halo_bytes: int
    timeout: float


class _ShardWorker:
    """Per-process shard executor: owns one halo block and one stats row."""

    def __init__(self, spec: _WorkerSpec) -> None:
        self.spec = spec
        self.w = spec.worker
        self.k = spec.k
        self.owner = spec.owner
        self.my_indices: List[int] = [
            i for i, o in enumerate(spec.owner) if o == self.w]
        self._charge_cache: Dict[int, int] = {}
        from ..dist.random_tools import NodeStreams
        self._streams = NodeStreams(spec.seed)
        # shared-memory attachments
        self.meta = _attach_shm(spec.meta_name)
        self.words = memoryview(self.meta.buf).cast("q")
        self.halo_gen = 0
        self.halo_cap = spec.halo_bytes
        self.halo = shared_memory.SharedMemory(
            name=_halo_name(spec.base, self.w, 0), create=True,
            size=self.halo_cap)
        self.peer_halo: List[Optional[Tuple[int, Any]]] = [None] * self.k
        self._stat_base = _CTRL_WORDS + self.w * _S_COLS
        # kernel caches (built on first dispatch, reused across runs;
        # rebuilt if the numpy backend flips)
        self._arrays: Optional[Any] = None
        self._kernel_ctx: Optional[Any] = None

    # -- infrastructure ------------------------------------------------
    def stat(self, col: int, value: int) -> None:
        self.words[self._stat_base + col] = value

    # -- one protocol run --------------------------------------------------
    def _kernel_context(self) -> Any:
        """The cached :class:`~repro.congest.kernels.ShardContext` for this
        worker (the CSR arrays persist across runs; per-run state is
        reset by ``begin_round``/``shard_build``)."""
        from . import kernels as _kernels

        arrays = self._arrays
        if arrays is None or arrays.np is not _kernels._np:
            arrays = _kernels.CSRArrays(self.spec.csr)
            self._arrays = arrays
            self._kernel_ctx = None
        ctx = self._kernel_ctx
        if ctx is None:
            ctx = _kernels.ShardContext(
                arrays, self.w, self.k, self.owner,
                tuple(self.my_indices), self.spec.policy,
                self._charge_cache)
            self._kernel_ctx = ctx
        return ctx

    def run_kernel_protocol(self, barrier: Any, conn: Any, kernel_cls: Any,
                            shared: Dict[str, Any],
                            run_counter: int) -> None:
        """Serve one run of ``kernel_cls``'s sharded fast path, barrier
        for barrier with the coordinator's stepper hooks."""
        timeout = self.spec.timeout
        error: Optional[Tuple[int, int, BaseException]] = None
        ctx = self._kernel_context()
        # the coordinator's Network.node_rng streams (salt 0), bit for bit
        ctx.node_rng = partial(self._streams.rng, run_counter)
        ctx.record_width = kernel_cls.shard_words
        kernel = None
        try:
            kernel = kernel_cls.shard_build(ctx)
            kernel.shard_setup(dict(shared))
        except BaseException as exc:
            pos = getattr(kernel, "shard_pos", 0) if kernel else 0
            error = (_PHASE_SETUP, pos, exc)
        self._write_kernel_stats(kernel, ctx, error, 0, 0, 0)
        barrier.wait(timeout)  # B0: setup done, flags readable
        views: List[Any] = []
        rounds = 0
        try:
            while True:
                barrier.wait(timeout)  # B1: command word readable
                cmd = self.words[_CMD]
                if cmd == _CMD_FINISH:
                    conn.send(("ok", kernel.shard_outputs()))
                    return
                if cmd == _CMD_ABORT:
                    if error is not None:
                        phase, pos, exc = error
                        conn.send(("err", phase, pos,
                                   type(exc).__name__, str(exc)))
                    else:
                        conn.send(("aborted",))
                    return
                # one round: publish -> exchange -> apply
                ctx.begin_round()
                extra = 0
                if error is None:
                    try:
                        extra = kernel.shard_publish(rounds + 1)
                    except BaseException as exc:
                        error = (_PHASE_PUBLISH, kernel.shard_pos, exc)
                        ctx.clear_staged()
                halo_bits, halo_records = self._publish_kernel_halo(ctx)
                barrier.wait(timeout)  # B2: every halo block published
                if error is None:
                    try:
                        self._load_incoming(ctx, views)
                        kernel.shard_apply(rounds + 1)
                    except BaseException as exc:
                        error = (_PHASE_APPLY, kernel.shard_pos, exc)
                rounds += 1
                ctx.incoming = []
                self._release_views(views)
                self._write_kernel_stats(kernel, ctx, error, extra,
                                         halo_bits, halo_records)
                barrier.wait(timeout)  # B3: stats row readable
        finally:
            ctx.incoming = []
            ctx.node_rng = None
            self._release_views(views)

    def _write_kernel_stats(self, kernel: Any, ctx: Any, error: Any,
                            extra: int, halo_bits: int,
                            halo_records: int) -> None:
        if error is not None:
            self.stat(_S_STATUS, 1)
            self.stat(_S_ERR_PHASE, error[0])
            self.stat(_S_ERR_POS, error[1])
        else:
            self.stat(_S_STATUS, 0)
        self.stat(_S_MESSAGES, ctx.messages)
        self.stat(_S_BITS, ctx.bits)
        self.stat(_S_MAX_BITS, ctx.max_bits)
        self.stat(_S_EXTRA, extra)
        self.stat(_S_HALO_BITS, halo_bits)
        self.stat(_S_HALO_RECORDS, halo_records)
        if error is not None or kernel is None:
            # the run is over either way; flags only steer termination
            self.stat(_S_ANY_OUT, 0)
            self.stat(_S_ALL_PASSIVE, 1)
            self.stat(_S_ANY_UNFINISHED, 1)
        else:
            self.stat(_S_ANY_OUT, 1 if kernel.pending() else 0)
            self.stat(_S_ALL_PASSIVE, 1 if kernel.passive else 0)
            self.stat(_S_ANY_UNFINISHED, 1 if kernel.unfinished() else 0)

    def _publish_kernel_halo(self, ctx: Any) -> Tuple[int, int]:
        """Write staged kernel records into my halo block; return
        ``(halo_bits, record_count)``.

        Block layout: ``k + 1`` int64 segment offsets, then one segment
        per destination — its flat record stream of int64 words (fixed
        width ``ctx.record_width`` per record), so a segment's length is
        its offset span.  Peers map the words zero-copy
        (:meth:`_load_incoming`).
        """
        k = self.k
        header = 8 * (k + 1)
        staged_words = ctx.staged_words
        total = 8 * sum(len(staged_words[d]) for d in range(k)
                        if d != self.w)
        need = header + total
        if need > self.halo_cap:
            new_cap = max(self.halo_cap * 2, need)
            self.halo_gen += 1
            fresh = shared_memory.SharedMemory(
                name=_halo_name(self.spec.base, self.w, self.halo_gen),
                create=True, size=new_cap)
            # peers are never reading between the command and halo
            # barriers, so the old generation can be retired immediately
            # (existing mappings stay valid until they close it)
            self.halo.unlink()
            self.halo.close()
            self.halo = fresh
            self.halo_cap = new_cap
        buf = self.halo.buf
        offsets = memoryview(buf)[:header].cast("q")
        pos = 0
        offsets[0] = 0
        for d in range(k):
            words = staged_words[d]
            if d != self.w and words:
                raw = words.tobytes()
                buf[header + pos:header + pos + len(raw)] = raw
                pos += len(raw)
            offsets[d + 1] = pos
        offsets.release()
        self.stat(_S_HALO_GEN, self.halo_gen)
        return 8 * total, total // (8 * ctx.record_width)

    def _load_incoming(self, ctx: Any, views: List[Any]) -> None:
        """Attach peers' published segments as zero-copy views.

        Each segment becomes an int64 numpy view built directly on the
        publisher's shared-memory buffer (a plain ``memoryview.cast`` in
        fallback mode); nothing is copied until the kernel touches it.
        All views are registered in ``views`` and released after apply —
        before any peer could resize (and unlink) its generation.
        """
        from . import kernels as _kernels

        header = 8 * (self.k + 1)
        incoming = ctx.incoming
        for p in range(self.k):
            if p == self.w:
                continue
            gen = self.words[_CTRL_WORDS + p * _S_COLS + _S_HALO_GEN]
            cached = self.peer_halo[p]
            if cached is None or cached[0] != gen:
                if cached is not None:
                    cached[1].close()
                shm = _attach_shm(_halo_name(self.spec.base, p, gen))
                self.peer_halo[p] = (gen, shm)
            else:
                shm = cached[1]
            buf = shm.buf
            offsets = memoryview(buf)[:header].cast("q")
            lo, hi = offsets[self.w], offsets[self.w + 1]
            offsets.release()
            if lo == hi:
                continue
            seg = memoryview(buf)[header + lo:header + hi]
            views.append(seg)
            if _kernels._np is not None:
                words = _kernels._np.frombuffer(seg, dtype=_kernels._np.int64)
            else:
                words = seg.cast("q")
                views.append(words)
            incoming.append((p, words))

    @staticmethod
    def _release_views(views: List[Any]) -> None:
        """Release round views (numpy arrays referencing them must be
        dropped first — ``ctx.incoming`` is cleared by the caller)."""
        for view in reversed(views):
            try:
                view.release()
            except (AttributeError, BufferError):  # pragma: no cover
                pass
        views.clear()

    def close(self) -> None:
        self.words.release()
        self.meta.close()
        self._kernel_ctx = None
        self._arrays = None
        for cached in self.peer_halo:
            if cached is not None:
                try:
                    cached[1].close()
                except BufferError:  # pragma: no cover - leaked view
                    pass
        try:
            self.halo.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        self.halo.close()


def _shard_worker_main(spec: _WorkerSpec, barrier: Any, conn: Any) -> None:
    """Worker process entry point: serve protocol runs until closed."""
    from threading import BrokenBarrierError

    worker = _ShardWorker(spec)
    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            if not cmd or cmd[0] != "run":
                break
            _, kernel_cls, shared, run_counter = cmd
            try:
                worker.run_kernel_protocol(barrier, conn, kernel_cls,
                                           shared, run_counter)
            except BrokenBarrierError:
                break  # the coordinator tore the pool down mid-run
    finally:
        worker.close()
        conn.close()


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------

def _cleanup_pool(processes: List[Any], conns: List[Any],
                  meta: Optional[shared_memory.SharedMemory],
                  views: List[Any], owner_pid: int,
                  barrier: Optional[Any] = None) -> None:
    """Finalizer-safe pool teardown (must not reference the Network).

    ``owner_pid`` guards against inherited finalizers: a process forked
    while the pool is alive (a later pool's workers, any forked child of
    the caller) carries this registration in its memory image, and
    running it there would try to join processes it does not own and
    unlink shared memory the real owner still uses.  Only the creating
    process tears the pool down; everyone else releases their buffer
    views (required before interpreter shutdown can close the inherited
    shm mapping) and walks away.
    """
    if os.getpid() != owner_pid:
        for view in views:
            try:
                view.release()
            except Exception:
                pass
        return
    for view in views:
        try:
            view.release()
        except Exception:
            pass
    views.clear()
    for conn in conns:
        try:
            conn.send(("close",))
        except Exception:
            pass
    if barrier is not None:
        try:
            # release workers parked at a barrier mid-protocol (an aborted
            # run): they see BrokenBarrierError and exit their serve loop
            barrier.abort()
        except Exception:  # pragma: no cover - barrier already broken
            pass
    for proc in processes:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    if meta is not None:
        try:
            meta.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        meta.close()


class ShardedNetwork:
    """Partitioned executor for one :class:`~repro.congest.network.Network`.

    Owns a persistent pool of ``k`` worker processes (forked when the
    platform supports it), the control/stats shared-memory block, and
    the partition.  :meth:`execute` runs one protocol: the pool is a
    stepper of the network's own engine loop (``Network._drive``) —
    :meth:`setup` dispatches the run, :meth:`step` runs one round's
    barriers, :meth:`unfinished`/:meth:`pending`/:attr:`passive` read the
    workers' stats rows, and :meth:`outputs` gathers the results.  The
    pool is reused across runs until :meth:`close` (called by
    ``Network.close()`` and by a GC finalizer).
    """

    def __init__(self, net: Any, shards: int,
                 balance: float = DEFAULT_BALANCE) -> None:
        import multiprocessing as mp

        self.net = net
        n = net.graph.num_nodes
        self.k = max(1, min(shards, n if n else 1))
        self.partition = partition_graph(net.csr, self.k, seed=net.seed,
                                         balance=balance)
        self.timeout = BARRIER_TIMEOUT
        self.broken = False
        self._closed = False
        self._run_state = "idle"
        self._kernel_cls: Any = None
        #: the workers' stats rows after B0 or B3 of the current run
        self._rows: List[List[int]] = []
        base = "rs" + uuid.uuid4().hex[:12]
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platform
            ctx = mp.get_context()
        self._barrier = ctx.Barrier(self.k + 1)
        words = _CTRL_WORDS + self.k * _S_COLS
        self._meta = shared_memory.SharedMemory(create=True, size=8 * words)
        self._words = memoryview(self._meta.buf).cast("q")
        self._views = [self._words]
        for i in range(words):
            self._words[i] = 0
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        for w in range(self.k):
            parent_conn, child_conn = ctx.Pipe()
            spec = _WorkerSpec(
                worker=w, k=self.k, base=base, meta_name=self._meta.name,
                csr=net.csr, owner=self.partition.owner, policy=net.policy,
                seed=net.seed, halo_bytes=INITIAL_HALO_BYTES,
                timeout=self.timeout)
            proc = ctx.Process(target=_shard_worker_main,
                               args=(spec, self._barrier, child_conn),
                               daemon=True, name=f"repro-shard-{w}")
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._owner_pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, _cleanup_pool, self._procs, self._conns, self._meta,
            self._views, self._owner_pid, self._barrier)

    # -- barrier/stats helpers ------------------------------------------
    def _wait(self) -> None:
        try:
            self._barrier.wait(self.timeout)
        except BaseException as exc:
            self.broken = True
            self.close()
            if isinstance(exc, Exception):
                raise ShardingError(
                    "sharded worker pool failed (barrier broken); "
                    "the run cannot continue") from exc
            raise  # KeyboardInterrupt and friends keep their type

    def _command(self, cmd: int) -> None:
        self._words[_CMD] = cmd
        self._wait()

    def _stats_row(self, w: int) -> List[int]:
        base = _CTRL_WORDS + w * _S_COLS
        return list(self._words[base:base + _S_COLS])

    def _first_error(self, rows: List[List[int]],
                     ) -> Optional[Tuple[int, int, int]]:
        """The engine-order first error: min (phase, pos) -> (phase, pos, w)."""
        best: Optional[Tuple[int, int, int]] = None
        for w, row in enumerate(rows):
            if row[_S_STATUS]:
                key = (row[_S_ERR_PHASE], row[_S_ERR_POS], w)
                if best is None or key < best:
                    best = key
        return best

    def _abort_run(self) -> List[Any]:
        """ABORT handshake: return every worker to its dispatch loop.

        Sends the command, then drains exactly one pipe message per
        worker (the error report or the plain acknowledgement), leaving
        the pool reusable for the next run.  A worker that died instead
        breaks and closes the pool.
        """
        self._command(_CMD_ABORT)
        replies: List[Any] = []
        for conn in self._conns:
            try:
                replies.append(conn.recv())
            except (EOFError, OSError) as exc:
                self.broken = True
                self.close()
                raise ShardingError("shard worker died mid-run") from exc
        self._run_state = "idle"
        return replies

    def _recover_after_error(self) -> None:
        """Leave no run in flight once an exception escapes :meth:`execute`.

        Worker-reported errors finish their handshake before raising (run
        state back to "idle"), and barrier failures already break and
        close the pool.  Anything else — the engine loop's round-limit
        ``ProtocolError``, an ``on_round_end`` hook or event subscriber
        raising, a pickling failure during run dispatch, a
        ``KeyboardInterrupt`` — would otherwise leave the workers parked
        mid-protocol, and the next run on the cached pool would silently
        resume the aborted protocol with wrong outputs.
        Workers parked at the command barrier are released with a clean
        ABORT handshake (the pool stays reusable); in any other state the
        pool is broken and closed so the next run builds a fresh one.
        """
        state, self._run_state = self._run_state, "idle"
        if self.broken or self._closed or state == "idle":
            return
        if state == "running":
            try:
                self._abort_run()
                return
            except BaseException:
                pass  # the handshake itself failed: fall through
        self.broken = True
        self.close()

    def _raise_run_error(self, error: Tuple[int, int, int]) -> None:
        """Abort the run and re-raise the reconstructed first error."""
        replies = self._abort_run()
        reports: List[Tuple[int, int, str, str]] = [
            (msg[1], msg[2], msg[3], msg[4])
            for msg in replies if msg[0] == "err"
        ]
        reports.sort(key=lambda r: (r[0], r[1]))
        if not reports:  # pragma: no cover - stats/pipe disagreement
            self.broken = True
            self.close()
            raise ShardingError("shard worker reported an error but sent "
                                "no details")
        _, _, typename, message = reports[0]
        raise self._reconstruct(typename, message)

    @staticmethod
    def _reconstruct(typename: str, message: str) -> BaseException:
        """Rebuild the worker's exception with its original type.

        Engine-raised types and builtins round-trip exactly (by message);
        anything else degrades to :class:`ShardingError` carrying the
        original type name and text.
        """
        from .network import ProtocolError
        from .policies import BandwidthExceeded

        known: Dict[str, type] = {
            "ProtocolError": ProtocolError,
            "BandwidthExceeded": BandwidthExceeded,
        }
        cls = known.get(typename)
        if cls is None:
            import builtins

            candidate = getattr(builtins, typename, None)
            if (isinstance(candidate, type)
                    and issubclass(candidate, BaseException)):
                cls = candidate
        if cls is None:
            return ShardingError(f"{typename}: {message}")
        try:
            return cls(message)
        except Exception:  # pragma: no cover - exotic signature
            return ShardingError(f"{typename}: {message}")

    # -- one run: Network._drive steps the pool --------------------------
    def execute(self, kernel_cls: Any, protocol: str,
                shared: Dict[str, Any], limit: int,
                on_round_end: Optional[Callable[[int, Any], None]]) -> Any:
        """Run one protocol across the shard pool, engine-identically:
        every worker serves ``kernel_cls``'s sharded fast path
        (:meth:`_ShardWorker.run_kernel_protocol`), and the engine loop
        (``Network._drive``) steps the pool like any other stepper."""
        if self.broken or self._closed:
            raise ShardingError("sharded executor is closed")
        self.net.metrics.record_shard_run(self.partition.cut_edges,
                                          self.partition.imbalance)
        self._kernel_cls = kernel_cls
        try:
            return self.net._drive(self, protocol, shared, limit,
                                   on_round_end)
        except BaseException:
            self._recover_after_error()
            raise

    def setup(self, shared: Dict[str, Any]) -> None:
        """Dispatch the run, wait for every worker's setup (B0) and raise
        the first setup error."""
        self._run_state = "dispatch"
        for conn in self._conns:
            conn.send(("run", self._kernel_cls, shared,
                       self.net._run_counter))
        self._run_state = "running"
        self._wait()  # B0: workers set up, flags readable
        self._rows = [self._stats_row(w) for w in range(self.k)]
        error = self._first_error(self._rows)
        if error is not None:
            self._raise_run_error(error)

    def unfinished(self) -> bool:
        return any(r[_S_ANY_UNFINISHED] for r in self._rows)

    def pending(self) -> bool:
        return any(r[_S_ANY_OUT] for r in self._rows)

    @property
    def passive(self) -> bool:
        return all(r[_S_ALL_PASSIVE] for r in self._rows)

    def step(self, round_number: int) -> int:
        """One round across the pool (B1-B3), accounted exactly as the
        in-process kernel accounts it."""
        self._command(_CMD_CONTINUE)  # B1
        self._wait()  # B2: halos published
        self._wait()  # B3: stats rows written
        rows = self._rows = [self._stats_row(w) for w in range(self.k)]
        error = self._first_error(rows)
        if error is not None and error[0] == _PHASE_PUBLISH:
            # the in-process kernel records nothing for a pricing error
            # (the traffic fold and record_round are never reached)
            self._raise_run_error(error)
        metrics = self.net.metrics
        metrics.record_message_batch(
            sum(r[_S_MESSAGES] for r in rows),
            sum(r[_S_BITS] for r in rows),
            max(r[_S_MAX_BITS] for r in rows))
        metrics.record_halo_bits(sum(r[_S_HALO_BITS] for r in rows),
                                 sum(r[_S_HALO_RECORDS] for r in rows))
        if error is not None:
            # apply-phase error: the in-process kernel raises out of step()
            # after the traffic fold, so the loop never counts the round
            self._raise_run_error(error)
        return max(r[_S_EXTRA] for r in rows)

    def outputs(self) -> Dict[int, Any]:
        """Finish the run and gather the workers' output registers."""
        self._command(_CMD_FINISH)
        self._run_state = "gather"
        merged: Dict[int, Any] = {}
        for conn in self._conns:
            try:
                msg = conn.recv()
            except (EOFError, OSError) as exc:
                self.broken = True
                self.close()
                raise ShardingError("shard worker died during output "
                                    "gather") from exc
            merged.update(msg[1])
        self._run_state = "idle"
        return {v: merged[v] for v in self.net._order}

    def close(self) -> None:
        """Shut the pool down and release every shared-memory block."""
        if self._closed:
            return
        self._closed = True
        self.broken = True
        self._finalizer.detach()
        _cleanup_pool(self._procs, self._conns, self._meta, self._views,
                      self._owner_pid, self._barrier)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def resolve_shards(net: Any) -> Optional[int]:
    """How many shards a run on ``net`` should use, or None for none.

    The ladder: ``shards=0`` in the plan disables sharding (the kill
    switch); ``shards=k`` forces ``k``; ``tier="sharded-kernel"`` opts in
    with the default count; otherwise auto-sharding engages for large
    networks (>= :data:`AUTO_SHARD_MIN_NODES` nodes) on multi-core
    machines.
    """
    plan = net.execution_plan
    if plan.shards == 0:
        return None
    if plan.shards is not None:
        return plan.shards
    cores = os.cpu_count() or 1
    if plan.tier == "sharded-kernel":
        return min(MAX_AUTO_SHARDS, cores)
    if (plan.tier == "auto" and cores >= 2
            and net.graph.num_nodes >= AUTO_SHARD_MIN_NODES):
        return min(MAX_AUTO_SHARDS, cores)
    return None
