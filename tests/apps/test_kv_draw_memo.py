"""The study-owned draw memo of ``KvStore.draw_queries``.

A :class:`RedisYcsbStudy` hands one memo to every store it builds, so a
sweep over CXL fractions and QPS draws each seeded query stream once.
A memo hit must be indistinguishable from running the draw pass: the
same columns, both generators left in the same end states, and (for
workload D's inserts) the same keyspace and chooser.  A store built
without a memo is the reference throughout.
"""

import dataclasses

import numpy as np
import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvStore, RedisYcsbStudy
from repro.errors import WorkloadError
from repro.sim.rng import substream
from repro.topology import Membind
from repro.workloads import WORKLOADS, Operation

SEED = 7
NUM_KEYS = 60_000          # uniform cache-hit probability ~0.75: both branches
CAPACITY = 66_000
COUNT = 1_500
FRACTIONS = (0.0, 0.5, 1.0)
QPS = (20_000.0, 55_000.0, 150_000.0)
D_HEAVY = dataclasses.replace(WORKLOADS["D"], name="D-heavy", read=0.9,
                              insert=0.1)
"""Differs from D only in its mix: same keys, record size, hit rate."""


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


def chooser_state(chooser) -> dict:
    state = dict(vars(chooser))
    if "_zipf" in state:                      # LatestKeys wraps a Zipfian
        state["_zipf"] = dict(vars(state["_zipf"]))
    return state


def outcome(store, rng, draws) -> tuple:
    """Everything a draw pass leaves behind, bit for bit."""
    return (draws.ops, draws.keys.tobytes(), draws.cpu.tobytes(),
            draws.misses.tobytes(), rng.bit_generator.state,
            store._rng.bit_generator.state, store.num_keys,
            chooser_state(store.chooser))


def server_outcome(store, qps: float) -> tuple:
    """The draw a ``KvServer.run`` at ``qps`` makes: gaps, then queries."""
    arrivals = substream(f"arrivals-{SEED}", SEED)
    arrivals.exponential(1e9 / qps, size=COUNT)
    draws = store.draw_queries(arrivals, COUNT, inserts=True)
    return outcome(store, arrivals, draws)


def memo_less(system, study, workload, fraction) -> KvStore:
    """The store ``study.build_store`` makes, without the memo."""
    return KvStore(system, study.policy_for_fraction(fraction),
                   workload=workload, num_keys=study.num_keys,
                   rng=np.random.default_rng(study.seed))


class TestHitsEqualTheDrawPass:
    @pytest.mark.parametrize("workload", ["A", "B", "D", "F"])
    def test_sweep_hits_equal_memo_less_passes(self, system, workload):
        study = RedisYcsbStudy(system, num_keys=NUM_KEYS, seed=SEED)
        for fraction in FRACTIONS:
            for qps in QPS:
                store = study.build_store(WORKLOADS[workload], fraction)
                reference = memo_less(system, study, WORKLOADS[workload],
                                      fraction)
                try:
                    assert server_outcome(store, qps) \
                        == server_outcome(reference, qps)
                finally:
                    store.free()
                    reference.free()
        # Nine points, one distinct stream: every point after the
        # first was a hit.
        assert len(study._draw_memo) == 1

    def test_inserts_grow_the_keyspace_on_a_hit(self, system):
        study = RedisYcsbStudy(system, num_keys=NUM_KEYS, seed=SEED)
        sizes = []
        for fraction in (0.0, 1.0):
            store = study.build_store(WORKLOADS["D"], fraction)
            try:
                server_outcome(store, QPS[0])
                sizes.append((store.num_keys, store.chooser.keyspace))
            finally:
                store.free()
        assert sizes[0] == sizes[1]
        assert sizes[0][0] == sizes[0][1] > NUM_KEYS

    def test_service_mean_and_server_draw_are_separate_entries(self,
                                                               system):
        study = RedisYcsbStudy(system, num_keys=NUM_KEYS, seed=SEED)
        for fraction in FRACTIONS:
            store = study.build_store(WORKLOADS["A"], fraction)
            reference = memo_less(system, study, WORKLOADS["A"], fraction)
            try:
                # mean_service_ns draws from the store's own stream;
                # the server draws from the arrivals substream.
                assert store.mean_service_ns(COUNT) \
                    == reference.mean_service_ns(COUNT)
                assert server_outcome(store, QPS[1]) \
                    == server_outcome(reference, QPS[1])
            finally:
                store.free()
                reference.free()
        assert len(study._draw_memo) == 2


def draw(system, memo, *, workload=WORKLOADS["D"], seed=SEED,
         num_keys=NUM_KEYS, capacity_keys=CAPACITY, rng_seed=SEED,
         own=False, count=COUNT, inserts=True,
         cache_hit_prob=None) -> tuple:
    """One draw pass on a fresh store sharing ``memo`` (``None``: none).

    By default the query stream ``rng`` is a separate generator in the
    same state as the store's own stream, so each keyword changes
    exactly one field of the memo key.
    """
    store = KvStore(system, Membind(system.LOCAL_NODE), workload=workload,
                    num_keys=num_keys, capacity_keys=capacity_keys,
                    rng=np.random.default_rng(seed), draw_memo=memo)
    try:
        if cache_hit_prob is not None:
            store._cache_hit_prob = cache_hit_prob
        rng = store._rng if own else np.random.default_rng(rng_seed)
        return outcome(store, rng,
                       store.draw_queries(rng, count, inserts=inserts))
    finally:
        store.free()


CHANGES = {
    "workload": {"workload": D_HEAVY},
    "num_keys": {"num_keys": NUM_KEYS + 10},
    "cache_hit_prob": {"cache_hit_prob": 0.5},
    "count": {"count": COUNT - 1},
    "inserts": {"inserts": False},
    "rng is the store's stream": {"own": True},
    "rng state": {"rng_seed": SEED + 1},
    "store stream state": {"seed": SEED + 1},
}


class TestMemoKey:
    def test_repeat_hits(self, system):
        memo = {}
        first = draw(system, memo)
        assert draw(system, memo) == first == draw(system, None)
        assert len(memo) == 1

    @pytest.mark.parametrize("change", list(CHANGES.values()),
                             ids=list(CHANGES))
    def test_changed_input_misses(self, system, change):
        memo = {}
        draw(system, memo)
        assert draw(system, memo, **change) == draw(system, None, **change)
        assert len(memo) == 2

    def test_capacity_is_part_of_the_key(self, system):
        memo = {}
        draw(system, memo)                   # D's inserts fit the headroom
        with pytest.raises(WorkloadError, match="capacity"):
            draw(system, memo, capacity_keys=NUM_KEYS + 1)


class TestSharedColumns:
    def test_columns_reject_in_place_writes(self, system):
        study = RedisYcsbStudy(system, num_keys=NUM_KEYS, seed=SEED)
        drawn = []
        for fraction in (0.0, 1.0):
            store = study.build_store(WORKLOADS["A"], fraction)
            try:
                drawn.append(store.draw_queries(store._rng, COUNT,
                                                inserts=False))
            finally:
                store.free()
        draws = drawn[1]
        assert draws is drawn[0]              # the hit shares the entry
        for column in (draws.keys, draws.cpu, draws.misses):
            with pytest.raises(ValueError):
                column[0] = 0
            with pytest.raises(ValueError):
                column *= 2
        with pytest.raises(TypeError):
            draws.ops[0] = Operation.READ

    def test_memo_less_columns_are_read_only_too(self, system):
        store = KvStore(system, Membind(system.LOCAL_NODE),
                        workload=WORKLOADS["A"], num_keys=NUM_KEYS)
        try:
            draws = store.draw_queries(store._rng, 10, inserts=False)
        finally:
            store.free()
        assert isinstance(draws.ops, tuple)
        assert not draws.cpu.flags.writeable


def test_warm_study_equals_fresh_studies(system):
    """The benchmark's ``kv-ycsb`` grid (A/B x 0/50/100 % CXL x a QPS
    ladder past the knee, plus max QPS): a study reused across passes
    equals a fresh study per point."""
    warm = RedisYcsbStudy(system, num_keys=NUM_KEYS, seed=SEED)

    def grid(study_for):
        results = [study_for().p99_point(WORKLOADS[mix], fraction, qps,
                                         requests=COUNT)
                   for mix in ("A", "B") for fraction in FRACTIONS
                   for qps in (20_000.0, 40_000.0, 55_000.0, 70_000.0)]
        results.append(study_for().max_qps_table(
            cxl_fractions=list(FRACTIONS), workload_names=["A", "B"]))
        return results

    grid(lambda: warm)                        # fills the memo
    assert grid(lambda: warm) == grid(
        lambda: RedisYcsbStudy(system, num_keys=NUM_KEYS, seed=SEED))
