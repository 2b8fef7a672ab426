"""The per-node random streams: counter-based splitmix64.

Pins the stream's draws as literal values, checks that numpy evaluates
the same closed formulas for many keys at once bit for bit, that the
bounded draws are uniform, and that a large kernel-tier run no longer
pays a Mersenne Twister per node.
"""

import math
import tracemalloc

import pytest

from repro.congest import Network
from repro.dist import israeli_itai
from repro.dist.random_tools import (
    _GAMMA,
    _MASK64,
    NodeStreams,
    SplitMixStream,
    node_stream_seed,
)
from repro.graphs import gnp


def _chi2_sf(stat, df):
    """Upper tail of the chi-square distribution with ``df`` degrees of
    freedom: 1 - P(df/2, stat/2), the regularized lower incomplete gamma
    summed as its power series."""
    a, x = df / 2, stat / 2
    term = total = 1.0 / a
    k = 1
    while term > 1e-17 * total:
        term *= x / (a + k)
        total += term
        k += 1
    return 1.0 - math.exp(a * math.log(x) - x - math.lgamma(a)) * total


class TestPinnedDraws:
    def test_random(self):
        s = SplitMixStream(42)
        assert [s.random() for _ in range(3)] == [
            0.7415648787718233, 0.1599103928769201, 0.27860113025513866]

    def test_below(self):
        s = SplitMixStream(42)
        assert [s.below(1000) for _ in range(3)] == [741, 159, 278]

    def test_randint(self):
        s = SplitMixStream(42)
        assert [s.randint(1, 10) for _ in range(5)] == [8, 2, 3, 4, 1]
        s = SplitMixStream(42)
        assert s.randint(1, 4800 ** 4) == 393653486751041

    def test_every_bounded_draw_is_one_below(self):
        s, t = SplitMixStream(7), SplitMixStream(7)
        assert s.choice("abcdefg") == "abcdefg"[t.below(7)]
        assert s.randrange(5, 9) == 5 + t.below(4)
        assert s.randrange(9) == t.below(9)
        assert s.randint(-3, 3) == -3 + t.below(7)

    def test_empty_ranges_raise(self):
        s = SplitMixStream(0)
        with pytest.raises(IndexError):
            s.choice([])
        with pytest.raises(ValueError):
            s.randrange(0)
        with pytest.raises(ValueError):
            s.randint(2, 1)

    def test_no_twister_state(self):
        s = SplitMixStream(1)
        assert not hasattr(s, "__dict__")
        assert not hasattr(s, "getrandbits")


class TestNumpyFormula:
    """Draw ``i`` of key ``k`` is ``splitmix64(k + i*γ)``, and every draw
    is a closed formula of it, so a kernel may evaluate a whole round's
    draws in one array pass."""

    KEYS = [node_stream_seed(7, 1, v) for v in range(1000)]

    @staticmethod
    def _np_draws(np, counter):
        from repro.mpc.kernel import vec_splitmix64

        keys = np.asarray(TestNumpyFormula.KEYS, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return vec_splitmix64(keys + np.uint64((counter * _GAMMA)
                                                   & _MASK64))

    @staticmethod
    def _np_below(np, x, n):
        # (x * n) >> 64 on uint64 limbs: for n < 2**32 neither partial
        # product nor their sum overflows
        n = np.uint64(n)
        hi = (x >> np.uint64(32)) * n
        lo = ((x & np.uint64(0xFFFFFFFF)) * n) >> np.uint64(32)
        return (hi + lo) >> np.uint64(32)

    def test_coin_matches_scalar(self):
        np = pytest.importorskip("numpy")
        scalar = []
        for key in self.KEYS:
            s = SplitMixStream(key)
            scalar.append([s.random() for _ in range(4)])
        for counter in range(4):
            x = self._np_draws(np, counter)
            coins = (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
            assert coins.tolist() == [row[counter] for row in scalar]

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 2 ** 32 - 1])
    def test_below_matches_scalar(self, n):
        np = pytest.importorskip("numpy")
        scalar = []
        for key in self.KEYS:
            s = SplitMixStream(key)
            scalar.append([s.below(n) for _ in range(4)])
        for counter in range(4):
            got = self._np_below(np, self._np_draws(np, counter), n)
            assert got.tolist() == [row[counter] for row in scalar]


class TestUniformity:
    """70,000 draws spread over 1,000 node streams, 70 from each."""

    STREAMS = 1000
    PER_STREAM = 70

    def _counts(self, draw, cells):
        counts = dict.fromkeys(cells, 0)
        streams = NodeStreams(3)
        for v in range(self.STREAMS):
            s = streams.rng(1, v)
            for _ in range(self.PER_STREAM):
                counts[draw(s)] += 1
        return list(counts.values())

    def _p_value(self, counts):
        expected = sum(counts) / len(counts)
        stat = sum((c - expected) ** 2 / expected for c in counts)
        return _chi2_sf(stat, len(counts) - 1)

    def test_chi2_tail_matches_known_quantiles(self):
        # 99.9th percentiles of chi-square with 6 and 9 degrees of freedom
        assert _chi2_sf(22.4577, 6) == pytest.approx(1e-3, rel=1e-3)
        assert _chi2_sf(27.8772, 9) == pytest.approx(1e-3, rel=1e-3)

    def test_choice_over_seven(self):
        items = "abcdefg"
        counts = self._counts(lambda s: s.choice(items), items)
        assert self._p_value(counts) >= 1e-6

    def test_randint_one_to_ten(self):
        counts = self._counts(lambda s: s.randint(1, 10), range(1, 11))
        assert self._p_value(counts) >= 1e-6


def test_kernel_israeli_itai_peak_memory():
    # one Mersenne Twister per drawing node put this at ~15 MB
    g = gnp(4800, 3 / 4800, rng=0)
    net = Network(g, seed=0, execution="kernel")
    tracemalloc.start()
    try:
        israeli_itai(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
