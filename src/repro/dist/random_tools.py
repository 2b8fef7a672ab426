"""Randomness helpers for the distributed algorithms."""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence, Tuple, Union

_MASK64 = (1 << 64) - 1
#: splitmix64 increment / finalizer constants (Steele et al.); the same
#: golden-ratio multiplier already mixes ``Network.node_rng`` streams.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

PathElement = Union[int, str]


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


class NodeStreams:
    """The private per-node random streams of one executor.

    Node ``v``'s stream in protocol run ``run`` under ``salt`` is a
    ``random.Random`` seeded with ``node_stream_seed(seed, run, v, salt)``.
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

    def rng(self, run: int, node_id: int, salt: int = 0) -> random.Random:
        """Node ``node_id``'s stream in run ``run`` under ``salt``."""
        if run != self._run or salt != self._salt:
            self._prefix = node_stream_prefix(self.seed, run, salt)
            self._run, self._salt = run, salt
        return random.Random(node_seed_from_prefix(self._prefix, node_id))


def sample_max_uniform(rng: random.Random, count: int, cap: int) -> int:
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


def weighted_choice(rng: random.Random, weights: Dict[int, int]) -> int:
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
