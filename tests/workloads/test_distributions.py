"""Key distributions: bounds, skew, determinism, batched-draw oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cluster.topology import ClusterTopology
from repro.errors import WorkloadError
from repro.sim.rng import substream
from repro.workloads import LatestKeys, UniformKeys, ZipfianKeys
from repro.workloads.distributions import fnv1a_64, fnv1a_64_array


def draw(chooser, n=4000, name="keys"):
    rng = substream(name)
    return np.array([chooser.next_key(rng) for _ in range(n)])


class TestUniform:
    def test_keys_in_range(self):
        keys = draw(UniformKeys(1000))
        assert keys.min() >= 0
        assert keys.max() < 1000

    def test_roughly_flat(self):
        keys = draw(UniformKeys(10), n=10_000)
        counts = np.bincount(keys, minlength=10)
        assert counts.min() > 0.7 * counts.max()

    def test_hot_mass_is_proportional(self):
        chooser = UniformKeys(1000)
        assert chooser.hot_mass(100) == pytest.approx(0.1)
        assert chooser.hot_mass(2000) == 1.0

    def test_zero_keyspace_rejected(self):
        with pytest.raises(WorkloadError):
            UniformKeys(0)


class TestZipfian:
    def test_keys_in_range(self):
        keys = draw(ZipfianKeys(1000))
        assert keys.min() >= 0
        assert keys.max() < 1000

    def test_skew_concentrates_mass(self):
        """A few keys should dominate the request stream."""
        keys = draw(ZipfianKeys(100_000), n=8000)
        _, counts = np.unique(keys, return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[:10].sum() > 0.15 * len(keys)

    def test_scrambling_spreads_hot_keys(self):
        """Hot keys are spread over the keyspace (not all near 0)."""
        keys = draw(ZipfianKeys(100_000), n=4000)
        values, counts = np.unique(keys, return_counts=True)
        hottest = values[np.argmax(counts)]
        assert hottest != 0        # rank 0 hashed elsewhere

    def test_hot_mass_exceeds_uniform(self):
        zipf = ZipfianKeys(1_000_000)
        uniform = UniformKeys(1_000_000)
        assert zipf.hot_mass(10_000) > 5 * uniform.hot_mass(10_000)

    def test_hot_mass_monotone(self):
        zipf = ZipfianKeys(100_000)
        masses = [zipf.hot_mass(n) for n in (10, 100, 1000, 10_000)]
        assert masses == sorted(masses)
        assert all(0 <= m <= 1 for m in masses)

    def test_bad_theta_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfianKeys(100, theta=1.5)

    def test_grow_keeps_working(self):
        zipf = ZipfianKeys(100)
        zipf.grow(200)
        keys = draw(zipf, n=500)
        assert keys.max() < 200

    def test_shrink_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfianKeys(100).grow(50)

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=10_000))
    def test_ranks_within_keyspace(self, keyspace):
        zipf = ZipfianKeys(keyspace)
        rng = substream("prop")
        for _ in range(50):
            assert 0 <= zipf.next_key(rng) < keyspace


class TestLatest:
    def test_favors_recent_keys(self):
        """Workload D reads 'the most recently inserted elements'."""
        latest = LatestKeys(100_000)
        keys = draw(latest, n=4000)
        assert np.median(keys) > 0.95 * 100_000

    def test_grow_shifts_focus(self):
        latest = LatestKeys(1000)
        latest.grow(2000)
        keys = draw(latest, n=1000)
        assert np.median(keys) > 1900

    def test_hot_mass_at_least_zipfian(self):
        latest = LatestKeys(1_000_000)
        zipf = ZipfianKeys(1_000_000)
        assert latest.hot_mass(10_000) >= zipf.hot_mass(10_000) - 1e-12


class TestFnv:
    def test_deterministic(self):
        assert fnv1a_64(42) == fnv1a_64(42)

    def test_spreads_consecutive_inputs(self):
        hashes = {fnv1a_64(i) % 1000 for i in range(100)}
        assert len(hashes) > 80


class TestBatchedDraws:
    """The array draws equal the scalar reference draw for draw."""

    THETAS = (0.3, 0.7, 0.99)
    # 10_001 sits one past the ζ cutoff, where the exact head sum gains
    # its Euler–Maclaurin tail.
    KEYSPACES = (2, 3, 1000, 10_000, 10_001, 200_000)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("keyspace", KEYSPACES)
    def test_next_ranks_match_scalar(self, keyspace, theta):
        zipf = ZipfianKeys(keyspace, theta)
        scalar_rng, batch_rng = substream("oracle"), substream("oracle")
        expected = [zipf.next_rank(scalar_rng) for _ in range(3000)]
        batch = zipf.next_ranks(batch_rng, 3000)
        assert batch.dtype == np.int64
        assert batch.tolist() == expected
        assert batch_rng.bit_generator.state \
            == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("keyspace", KEYSPACES)
    def test_next_keys_match_scalar(self, keyspace, theta):
        zipf = ZipfianKeys(keyspace, theta)
        scalar_rng, batch_rng = substream("oracle"), substream("oracle")
        expected = [zipf.next_key(scalar_rng) for _ in range(3000)]
        batch = zipf.next_keys(batch_rng, 3000)
        assert batch.dtype == np.int64
        assert batch.tolist() == expected
        assert batch_rng.bit_generator.state \
            == scalar_rng.bit_generator.state

    def test_empty_batch(self):
        rng = substream("empty")
        before = rng.bit_generator.state
        assert ZipfianKeys(100).next_keys(rng, 0).tolist() == []
        assert rng.bit_generator.state == before


class TestFnvArray:
    def test_matches_scalar_over_uint64(self):
        rng = np.random.default_rng(11)
        values = [0, 1, 255, 256, 2**32, 2**63 - 1, 2**63, 2**63 + 1,
                  2**64 - 1] + rng.integers(
                      0, 2**64, size=500, dtype=np.uint64).tolist()
        hashed = fnv1a_64_array(values)
        assert hashed.dtype == np.uint64
        assert hashed.tolist() == [fnv1a_64(v) for v in values]


def _zeta_reference(n, theta):
    """The ζ(n, θ) formula, recomputed with no memo."""
    cutoff = 10_000
    head = sum(1.0 / i ** theta for i in range(1, min(n, cutoff) + 1))
    if n <= cutoff:
        return head
    return head + (n ** (1 - theta) - cutoff ** (1 - theta)) / (1 - theta)


class TestZetaMemo:
    def test_grow_recomputes_zetan(self):
        zipf = ZipfianKeys(1000, 0.7)
        assert zipf._zetan == _zeta_reference(1000, 0.7)
        zipf.grow(20_000)
        assert zipf._zetan == _zeta_reference(20_000, 0.7)
        fresh = ZipfianKeys(20_000, 0.7)
        assert (zipf._zetan, zipf._eta) == (fresh._zetan, fresh._eta)

    def test_memo_matches_formula(self):
        for n, theta in ((2, 0.99), (10_000, 0.3), (10_001, 0.99),
                         (123_457, 0.7)):
            assert ZipfianKeys._zeta(n, theta) == _zeta_reference(n, theta)

    # Values computed by the un-memoized formula, as float.hex, so an
    # edit that changes even the last bit fails here.
    @pytest.mark.parametrize("keyspace, theta, hot, expected", [
        (1000, 0.99, 10, "0x1.87a6b78a933efp-2"),
        (50_000, 0.7, 5_000, "0x1.f0187fe2652f1p-2"),
        (200_000, 0.99, 20_000, "0x1.9ee2b31091573p-1"),
        (10_001, 0.3, 10_000, "0x1.fff6d11cd49f7p-1"),
    ])
    def test_hot_mass_unchanged(self, keyspace, theta, hot, expected):
        for _ in range(2):              # the second call hits the memo
            assert ZipfianKeys(keyspace, theta).hot_mass(hot) \
                == float.fromhex(expected)

    @pytest.mark.parametrize("hosts, keys_per_host, theta, expected", [
        (4, 50_000, 0.99, "0x1.beee1d644f482p-1"),
        (4, 50_000, 0.7, "0x1.3ebb6216a3ce9p-1"),
        (8, 100_000, 0.99, "0x1.905c22648f653p-1"),
    ])
    def test_cache_hit_prob_unchanged(self, hosts, keys_per_host, theta,
                                      expected):
        topo = ClusterTopology(hosts, keys_per_host=keys_per_host)
        for _ in range(2):
            assert topo.cache_hit_prob(theta) == float.fromhex(expected)

    def test_memo_fills_lazily(self):
        """Importing the module computes nothing; the first call does."""
        code = ("from repro.workloads.distributions import ZipfianKeys\n"
                "print(ZipfianKeys._zeta.cache_info().currsize)")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=env).stdout
        assert out.strip() == "0"
