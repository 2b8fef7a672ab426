"""Randomness helpers for the distributed algorithms."""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Optional, Sequence, TypeVar, Union

_MASK64 = (1 << 64) - 1
#: splitmix64 increment / finalizer constants (Steele et al.); the same
#: golden-ratio multiplier already mixes ``Network.node_rng`` streams.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TWO_POW_MINUS_53 = 2.0 ** -53

PathElement = Union[int, str]
T = TypeVar("T")


def _splitmix64(x: int) -> int:
    """One splitmix64 finalization step (64-bit avalanche)."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def _fold(state: int, element: PathElement) -> int:
    """Fold one path element into a 64-bit state.

    Strings are hashed with FNV-1a over their UTF-8 bytes — *not* the
    builtin ``hash``, which is salted per interpreter process and would
    destroy reproducibility across runs.
    """
    if isinstance(element, str):
        h = _FNV_OFFSET
        for byte in element.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        element = h
    return _splitmix64(state ^ (element & _MASK64))


def spawn_seed(seed: int, *path: PathElement) -> int:
    """Derive a child seed from ``seed`` along a labelled path.

    Replaces the ad-hoc linear formulas the drivers used to hand-roll
    (``seed * 31 + ell``, ``seed * 131 + it * 17 + c``) with a proper
    seed sequence: each path element — an int (iteration, class index)
    or a stable string label ("conflict", "class_mis") — is folded into
    a splitmix64 chain, so sibling streams are decorrelated even when
    their indices collide arithmetically, and the derivation is stable
    across Python versions and processes.
    """
    state = _splitmix64(seed & _MASK64)
    for element in path:
        state = _fold(state, element)
    return state


def spawn_rng(seed: int, *path: PathElement) -> random.Random:
    """A ``random.Random`` seeded by :func:`spawn_seed`."""
    return random.Random(spawn_seed(seed, *path))


def node_stream_seed(seed: int, run_counter: int, node_id: int,
                     salt: int = 0) -> int:
    """Seed of one node's private stream for one protocol run.

    The derivation routes through the :func:`spawn_seed` splitmix64 chain,
    so streams are collision-safe: distinct ``(seed, run, salt, node)``
    quadruples always yield distinct (and decorrelated) seeds; every
    executor derives its node streams from this chain through
    :class:`NodeStreams`.
    """
    return spawn_seed(seed, "node", run_counter, salt, node_id)


def node_stream_prefix(seed: int, run_counter: int, salt: int = 0) -> int:
    """The shared prefix state of :func:`node_stream_seed`'s splitmix chain.

    ``spawn_seed(seed, "node", run, salt, node_id)`` folds the same
    ``(seed, "node", run, salt)`` prefix for every node of a run — including
    an FNV hash of the string label each time.  :class:`NodeStreams`
    therefore computes the prefix once per ``(run, salt)`` and derives each
    node's seed with :func:`node_seed_from_prefix`, turning n four-fold
    chains into one prefix plus n single finalizations.  By construction
    ``node_seed_from_prefix(node_stream_prefix(s, r, t), v) ==
    node_stream_seed(s, r, v, t)`` for every node id ``v``.
    """
    state = _splitmix64(seed & _MASK64)
    state = _fold(state, "node")
    state = _fold(state, run_counter)
    return _fold(state, salt)


def node_seed_from_prefix(prefix: int, node_id: int) -> int:
    """Finalize one node's stream seed from a precomputed prefix state."""
    return _splitmix64(prefix ^ (node_id & _MASK64))


# -- the same formulas over numpy arrays --------------------------------
# numpy is imported inside each helper, so importing this module (and
# ``repro``) never needs it; only callers that already hold numpy arrays
# reach these.

def vec_splitmix64(x: Any) -> Any:
    """:func:`_splitmix64` over a ``uint64`` array, bit for bit.

    uint64 wraparound is the point of the arithmetic, so overflow
    warnings are suppressed (for hosts running under ``-W error``).
    """
    import numpy as np

    with np.errstate(over="ignore"):
        x = x + np.uint64(_GAMMA)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_A)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_B)
        return x ^ (x >> np.uint64(31))


def vec_node_seeds(prefix: int, node_ids: Sequence[int]) -> Any:
    """:func:`node_seed_from_prefix` for every id of ``node_ids``: a
    ``uint64`` array of the run's stream keys, in ``node_ids`` order.

    Ids enter as ``v & 2**64-1``, like the scalar form, so negative ids
    and ids of 2**63 or more key the same streams there and here.
    """
    import numpy as np

    ids = np.fromiter((v & _MASK64 for v in node_ids), dtype=np.uint64,
                      count=len(node_ids))
    return vec_splitmix64(np.uint64(prefix) ^ ids)


def vec_draws(keys: Any, counters: Any) -> Any:
    """Draw ``counters[i]`` of the stream keyed ``keys[i]``, for every i.

    The raw 64-bit words :class:`SplitMixStream` turns into values: the
    stream's ``random() < 0.5`` is ``draw < 2**63``, and its
    ``below(n)`` is :func:`vec_below` of the draw.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        return vec_splitmix64(keys + counters * np.uint64(_GAMMA))


def vec_below(x: Any, n: Any) -> Any:
    """:meth:`SplitMixStream.below`, ``(x * n) >> 64``, over uint64 draws
    ``x`` and bounds ``1 <= n < 2**32`` (a scalar or an array).

    The product is split on 32-bit limbs of ``x``; for ``n < 2**32``
    neither partial product nor their sum overflows 64 bits, so the
    result is exact.
    """
    import numpy as np

    n = np.asarray(n, dtype=np.uint64)
    hi = (x >> np.uint64(32)) * n
    lo = ((x & np.uint64(0xFFFFFFFF)) * n) >> np.uint64(32)
    return (hi + lo) >> np.uint64(32)


class SplitMixStream:
    """One node's private random stream: counter-based splitmix64.

    Draw ``i`` of the stream keyed ``key`` is ``_splitmix64(key + i*γ)``
    — the plain splitmix64 sequence seeded with ``key`` — so a stream is
    one 64-bit word of state (no 2.5 KB Mersenne Twister to seed) and any
    draw of any node is a closed formula of ``(key, i)``.  Every bounded
    draw goes through :meth:`below`, one multiply-shift with no rejection
    loop, which numpy can evaluate for many keys at once.

    Only the methods node programs call exist: :meth:`random`,
    :meth:`choice`, :meth:`randrange` and :meth:`randint`.
    """

    __slots__ = ("_state",)

    def __init__(self, key: int) -> None:
        self._state = key & _MASK64

    def random(self) -> float:
        """A float in [0, 1): the draw's top 53 bits times 2**-53."""
        x = self._state
        self._state = (x + _GAMMA) & _MASK64
        return (_splitmix64(x) >> 11) * _TWO_POW_MINUS_53

    def below(self, n: int) -> int:
        """An int in [0, n) for ``n >= 1``: ``(draw * n) >> 64``.

        Lemire's multiply-shift without the rejection step; its bias is
        under ``n / 2**64``.  For ``n > 2**64`` the result takes 2**64
        evenly spaced values of the range.
        """
        x = self._state
        self._state = (x + _GAMMA) & _MASK64
        return (_splitmix64(x) * n) >> 64

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        """An int in [start, stop), or in [0, start) without ``stop``."""
        if stop is None:
            start, stop = 0, start
        if stop <= start:
            raise ValueError(f"empty range for randrange({start}, {stop})")
        return start + self.below(stop - start)

    def randint(self, a: int, b: int) -> int:
        """An int in [a, b], both ends included."""
        return self.randrange(a, b + 1)

    def choice(self, seq: Sequence[T]) -> T:
        """A uniformly chosen member of the non-empty ``seq``."""
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.below(len(seq))]


class NodeStreams:
    """The private per-node random streams of one executor.

    Node ``v``'s stream in protocol run ``run`` under ``salt`` is the
    :class:`SplitMixStream` keyed ``node_stream_seed(seed, run, v, salt)``.
    The chain prefix of the last ``(run, salt)`` is cached, so spinning up
    all n streams of a run costs one finalization per node.  The
    synchronous, asynchronous and sharded executors all draw node streams
    from here, so a program's random stream matches across them.
    """

    __slots__ = ("seed", "_run", "_salt", "_prefix")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._run = -1
        self._salt = -1
        self._prefix = 0

    def prefix(self, run: int, salt: int = 0) -> int:
        """The chain prefix of run ``run`` under ``salt``: node ``v``'s
        key is ``node_seed_from_prefix(prefix, v)``."""
        if run != self._run or salt != self._salt:
            self._prefix = node_stream_prefix(self.seed, run, salt)
            self._run, self._salt = run, salt
        return self._prefix

    def rng(self, run: int, node_id: int, salt: int = 0) -> SplitMixStream:
        """Node ``node_id``'s stream in run ``run`` under ``salt``."""
        return SplitMixStream(node_seed_from_prefix(self.prefix(run, salt),
                                                    node_id))


def sample_max_uniform(rng: SplitMixStream, count: int, cap: int) -> int:
    """One draw distributed as the maximum of ``count`` uniforms on {1..cap}.

    This is the paper's Section 3.2 trick: a leader owning ``count``
    augmenting paths simulates all their Luby draws with a single sample,
    using the explicit CDF Pr[max <= m] = (m / cap)^count.  Inverse-CDF
    sampling: with u ~ U(0,1), the draw is ceil(cap * u^(1/count)).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    u = rng.random()
    if u <= 0.0:
        return 1
    # exp(log(u)/count) is numerically stable for very large counts
    value = int(math.ceil(cap * math.exp(math.log(u) / count)))
    return min(max(value, 1), cap)


def weighted_choice(rng: SplitMixStream, weights: Dict[int, int]) -> int:
    """Pick a key with probability proportional to its (integer) weight."""
    keys = sorted(weights)
    total = sum(weights[k] for k in keys)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    target = rng.randrange(total)
    acc = 0
    for k in keys:
        acc += weights[k]
        if target < acc:
            return k
    return keys[-1]  # unreachable, guards float/int edge cases
