"""``KvStore.miss_latency_of`` against the per-line scalar reference.

The vectorized path evaluates the two-page split only at the keys it is
given; it must equal ``sum(share * node_read_ns)`` over
``record_node_mix(key)`` bit for bit, for every placement the Redis
study uses and for records that straddle a page boundary.
"""

import dataclasses

import numpy as np
import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvStore
from repro.errors import WorkloadError
from repro.topology import Membind
from repro.topology.interleave import WeightedInterleave
from repro.workloads import WORKLOADS

NUM_KEYS = 3_000


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


def _policies(system):
    dram, cxl = system.LOCAL_NODE, system.cxl_node_id
    return {
        "membind-dram": Membind(dram),
        "membind-cxl": Membind(cxl),
        "interleave-1:1": WeightedInterleave.from_ratio(dram, cxl, 1, 1),
        "interleave-9:1": WeightedInterleave.from_ratio(dram, cxl, 9, 1),
        "interleave-30:1": WeightedInterleave.from_ratio(dram, cxl, 30, 1),
    }


@pytest.fixture(params=["membind-dram", "membind-cxl", "interleave-1:1",
                        "interleave-9:1", "interleave-30:1"])
def store(request, system):
    store = KvStore(system, _policies(system)[request.param],
                    workload=WORKLOADS["A"], num_keys=NUM_KEYS)
    yield store
    store.free()


def scalar_reference(store, key):
    """The pre-vectorization per-key expression."""
    return sum(share * store._node_read_ns[node]
               for node, share in store.record_node_mix(key).items())


def page_edge_keys(store):
    """First and last key starting on every page, plus every key whose
    record straddles a page boundary."""
    page, rb = store.allocation.page_bytes, store.record_bytes
    keys = np.arange(store.num_keys)
    start = keys * rb
    first_page = start // page
    edges = np.flatnonzero(np.diff(first_page)) + 1
    straddle = keys[(start + rb - 1) // page != first_page]
    chosen = np.unique(np.concatenate(
        ([0, store.num_keys - 1], edges, edges - 1, straddle)))
    assert len(straddle) > 0
    return chosen


def test_page_edges_and_straddles_match_scalar(store):
    keys = page_edge_keys(store)
    assert store.record_bytes <= store.allocation.page_bytes
    got = store.miss_latency_of(keys)
    assert got.dtype == np.float64
    want = [scalar_reference(store, key) for key in keys.tolist()]
    assert got.tolist() == want               # exact, not approx


def test_scalar_entry_point_agrees(store):
    for key in (0, 1, 3, 4, NUM_KEYS - 1):
        assert store.average_miss_latency_ns(key) \
            == scalar_reference(store, key) \
            == float(store.miss_latency_of([key])[0])


def test_order_and_repeats_are_kept(store):
    keys = [7, 3, 7, NUM_KEYS - 1, 0]
    got = store.miss_latency_of(keys).tolist()
    assert got == [scalar_reference(store, key) for key in keys]


def test_interleaved_stores_mix_nodes(system):
    """The 1:1 store really exercises the two-node split branch."""
    store = KvStore(system, _policies(system)["interleave-1:1"],
                    workload=WORKLOADS["A"], num_keys=NUM_KEYS)
    try:
        mixed = [key for key in page_edge_keys(store).tolist()
                 if len(store.record_node_mix(key)) == 2]
        assert mixed
        assert store.miss_latency_of(mixed).tolist() \
            == [scalar_reference(store, key) for key in mixed]
    finally:
        store.free()


@pytest.mark.parametrize("policy", ["membind-cxl", "interleave-1:1"])
def test_record_larger_than_a_page_falls_back(system, policy):
    workload = dataclasses.replace(WORKLOADS["A"], value_bytes=5_000)
    store = KvStore(system, _policies(system)[policy], workload=workload,
                    num_keys=500)
    try:
        assert store.record_bytes > store.allocation.page_bytes
        keys = [0, 1, 2, 250, 499]
        got = store.miss_latency_of(keys)
        assert got.dtype == np.float64
        assert got.tolist() == [scalar_reference(store, key)
                                for key in keys]
    finally:
        store.free()


@pytest.mark.parametrize("key", [-1, NUM_KEYS, NUM_KEYS + 50])
def test_out_of_keyspace_raises(store, key):
    with pytest.raises(WorkloadError, match=f"key {key} outside keyspace"):
        store.miss_latency_of([0, key, 1])
    with pytest.raises(WorkloadError):
        store.average_miss_latency_ns(key)


def test_inserted_keys_become_valid(system):
    store = KvStore(system, _policies(system)["interleave-9:1"],
                    workload=WORKLOADS["D"], num_keys=NUM_KEYS)
    try:
        with pytest.raises(WorkloadError):
            store.miss_latency_of([NUM_KEYS])
        key = store.insert_record()
        assert store.miss_latency_of([key]).tolist() \
            == [scalar_reference(store, key)]
    finally:
        store.free()
