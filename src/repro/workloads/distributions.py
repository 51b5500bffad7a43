"""Key-popularity distributions used by YCSB.

Three request distributions appear in the paper's Redis study (Fig. 7):
uniform ("uni", the default for workloads A/B/C/F "ensuring maximal
stress on the memory"), Zipfian ("zipf"), and latest ("lat", workload
D's default, reading "the most recently inserted elements").

The Zipfian implementation follows Gray et al.'s rejection-free method
used by YCSB itself (incremental, O(1) per draw), with the YCSB "scrambled"
variant spreading hot keys over the keyspace via FNV hashing.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import WorkloadError

ZIPFIAN_CONSTANT = 0.99

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's key scrambler)."""
    data = value.to_bytes(8, "little", signed=False)
    hashed = _FNV_OFFSET
    for byte in data:
        hashed ^= byte
        hashed = (hashed * _FNV_PRIME) % (1 << 64)
    return hashed


def fnv1a_64_array(values) -> np.ndarray:
    """:func:`fnv1a_64` of every element, as a uint64 array.

    The same eight little-endian byte rounds, applied column-wise;
    uint64 multiplication wraps at 2**64 exactly as the scalar's modulo.
    """
    data = np.asarray(values, dtype=np.uint64)
    hashed = np.full(data.shape, _FNV_OFFSET, dtype=np.uint64)
    for shift in range(0, 64, 8):
        hashed ^= (data >> np.uint64(shift)) & np.uint64(0xFF)
        hashed *= np.uint64(_FNV_PRIME)
    return hashed


class KeyChooser:
    """Base class: picks key indices in ``[0, keyspace)``."""

    def __init__(self, keyspace: int) -> None:
        if keyspace <= 0:
            raise WorkloadError(f"keyspace must be positive: {keyspace}")
        self.keyspace = keyspace

    def next_key(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def grow(self, new_keyspace: int) -> None:
        """Inform the chooser of inserts (only Latest cares)."""
        if new_keyspace < self.keyspace:
            raise WorkloadError("keyspace cannot shrink")
        self.keyspace = new_keyspace

    def hot_mass(self, hot_keys: int) -> float:
        """Request mass landing on the ``hot_keys`` most popular keys.

        Used to estimate cache hit rates: a 60 MB LLC covers some number
        of hot records, and this is the fraction of requests they absorb.
        """
        raise NotImplementedError


class UniformKeys(KeyChooser):
    """Every key equally likely."""

    def next_key(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.keyspace))

    def hot_mass(self, hot_keys: int) -> float:
        return min(1.0, hot_keys / self.keyspace)


class ZipfianKeys(KeyChooser):
    """Scrambled Zipfian with the YCSB constant theta = 0.99."""

    def __init__(self, keyspace: int,
                 theta: float = ZIPFIAN_CONSTANT) -> None:
        super().__init__(keyspace)
        if not 0 < theta < 1:
            raise WorkloadError(f"theta must be in (0, 1): {theta}")
        self.theta = theta
        self._recompute()

    def _recompute(self) -> None:
        n = self.keyspace
        self._zetan = self._zeta(n, self.theta)
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        denominator = 1 - self._zeta2 / self._zetan
        if denominator == 0.0:
            # n == 2: both keys are covered by the explicit rank-0/1
            # branches of next_rank, so eta never matters.
            self._eta = 0.0
        else:
            self._eta = ((1 - (2.0 / n) ** (1 - self.theta))
                         / denominator)

    @staticmethod
    @lru_cache(maxsize=64)
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; Euler–Maclaurin tail for large n keeps this
        # O(1)-ish instead of summing millions of terms.  Memoized: one
        # cluster run needs the same ζ for its trace, cache_hit_prob and
        # hot_mass, and the head alone is up to 10,000 terms.
        cutoff = 10_000
        head = sum(1.0 / i ** theta for i in range(1, min(n, cutoff) + 1))
        if n <= cutoff:
            return head
        tail = (n ** (1 - theta) - cutoff ** (1 - theta)) / (1 - theta)
        return head + tail

    def next_rank(self, rng: np.random.Generator) -> int:
        """Popularity rank (0 = hottest), Gray et al.'s method."""
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.keyspace
                   * (self._eta * u - self._eta + 1) ** self._alpha)

    def next_key(self, rng: np.random.Generator) -> int:
        rank = min(self.next_rank(rng), self.keyspace - 1)
        return fnv1a_64(rank) % self.keyspace

    def next_ranks(self, rng: np.random.Generator,
                   size: int) -> np.ndarray:
        """``size`` successive :meth:`next_rank` draws as an int64 array.

        ``rng.random(size)`` yields the same doubles, and leaves the
        stream in the same state, as ``size`` scalar calls.  Each
        uniform then takes the same branch through the same float
        operations; the power stays Python's ``**`` so no vector math
        library can round it differently.
        """
        u = rng.random(size)
        uz = u * self._zetan
        ranks = np.zeros(size, dtype=np.int64)
        ranks[uz >= 1.0] = 1
        tail = uz >= 1.0 + 0.5 ** self.theta
        n, alpha = self.keyspace, self._alpha
        ranks[tail] = [int(n * base ** alpha) for base in
                       (self._eta * u[tail] - self._eta + 1).tolist()]
        return ranks

    def next_keys(self, rng: np.random.Generator,
                  size: int) -> np.ndarray:
        """``size`` successive :meth:`next_key` draws as an int64 array."""
        ranks = np.minimum(self.next_ranks(rng, size), self.keyspace - 1)
        return (fnv1a_64_array(ranks) % np.uint64(self.keyspace)) \
            .astype(np.int64)

    def grow(self, new_keyspace: int) -> None:
        super().grow(new_keyspace)
        self._recompute()

    def hot_mass(self, hot_keys: int) -> float:
        if hot_keys <= 0:
            return 0.0
        return min(1.0, self._zeta(min(hot_keys, self.keyspace),
                                   self.theta) / self._zetan)


class LatestKeys(KeyChooser):
    """Workload D's default: skew toward the most recent inserts.

    Implemented as YCSB does — a Zipfian over recency: draw a Zipfian
    rank and count backwards from the newest key.
    """

    def __init__(self, keyspace: int,
                 theta: float = ZIPFIAN_CONSTANT) -> None:
        super().__init__(keyspace)
        self._zipf = ZipfianKeys(keyspace, theta)

    def next_key(self, rng: np.random.Generator) -> int:
        rank = min(self._zipf.next_rank(rng), self.keyspace - 1)
        return self.keyspace - 1 - rank

    def grow(self, new_keyspace: int) -> None:
        super().grow(new_keyspace)
        self._zipf.grow(new_keyspace)

    def hot_mass(self, hot_keys: int) -> float:
        # Recency skew concentrates harder than scrambled Zipfian: the
        # hot set is *contiguous*, so it also enjoys spatial locality
        # and never leaves the cache between touches.
        return min(1.0, 1.08 * self._zipf.hot_mass(hot_keys))
