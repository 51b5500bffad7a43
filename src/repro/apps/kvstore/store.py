"""The Redis-like store: records on policy-placed pages.

Service-time model
------------------
One query's latency decomposes into

* a CPU part — request parsing, hashing, reply serialization — with
  log-normal jitter (Redis' own processing is µs-scale, §5.1);
* a memory part — the *effective dependent misses* of walking the hash
  bucket and touching the record's value lines.  Each miss pays the
  unloaded read path of whichever NUMA node backs the touched page, so
  interleave ratios shift the mix of ~106 ns (DRAM) and ~390 ns (CXL)
  misses;
* cache absorption — requests to keys hot enough to live in the LLC
  skip most of the memory part.  Hot mass comes from the workload's key
  distribution, which is how Fig 7's lat/zipf/uni variants differ.

This is the mechanism behind both paper observations: µs-level queries
are highly sensitive to memory latency (the p99 gap of Fig 6), and the
max QPS ordering across interleave ratios (Fig 7).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ...cpu.system import System
from ...errors import WorkloadError
from ...topology.interleave import PlacementPolicy
from ...topology.pages import Allocation
from ...units import CACHELINE
from ...workloads.ycsb import Operation, YcsbWorkload

CPU_BASE_NS = 10_400.0
"""Per-query CPU work (parse + hash + reply), Redis-like."""

CPU_JITTER_SIGMA = 0.12
"""Log-normal sigma of the CPU part."""

EFFECTIVE_MISSES_MEAN = 20.0
"""Mean dependent memory misses per query (bucket walk + 1 KB value)."""

MISS_JITTER_SIGMA = 0.5
"""Log-normal sigma of the miss count — the tail that p99 sees."""

WRITE_MISS_FACTOR = 1.15
"""Extra dirty-line traffic of a mutation (the value is rewritten)."""

CACHE_HIT_MISS_FACTOR = 0.1
"""Miss-count multiplier when the record is LLC-hot (index + value
mostly cached)."""

MUTATIONS = (Operation.UPDATE, Operation.READ_MODIFY_WRITE, Operation.INSERT)
"""The operations that pay :data:`WRITE_MISS_FACTOR` (a tuple: enum
members match by identity, without hashing)."""

RECORD_OVERHEAD_BYTES = 200
"""Redis object headers, SDS strings, dict entry per record."""

LLC_USABLE_FRACTION = 0.5
"""Share of the LLC realistically holding hot records."""


class QueryDraws(NamedTuple):
    """Columns of drawn queries, in draw (request-index) order."""

    ops: list[Operation]
    keys: np.ndarray          # int64
    cpu: np.ndarray           # CPU part, ns
    misses: np.ndarray        # effective misses, factors applied


class KvStore:
    """Keyspace layout + per-operation service-time sampling."""

    def __init__(self, system: System, policy: PlacementPolicy, *,
                 workload: YcsbWorkload, num_keys: int = 1_000_000,
                 capacity_keys: int | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if num_keys <= 0:
            raise WorkloadError(f"num_keys must be positive: {num_keys}")
        self.system = system
        self.workload = workload
        self.num_keys = num_keys
        # Inserts (workload D is 5% inserts) grow the keyspace into
        # pre-allocated headroom, like a store started with maxmemory.
        self.capacity_keys = capacity_keys if capacity_keys is not None \
            else int(num_keys * 1.1)
        if self.capacity_keys < num_keys:
            raise WorkloadError("capacity below the initial keyspace")
        self.record_bytes = _round_lines(
            workload.value_bytes + RECORD_OVERHEAD_BYTES)
        self.allocation: Allocation = system.allocator.allocate(
            self.capacity_keys * self.record_bytes, policy)
        self.chooser = workload.make_chooser(num_keys)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Unloaded read path per node, precomputed once.
        self._node_read_ns = {
            node.node_id: system.edge_ns()
            + system.backend_for_node(node.node_id).idle_read_ns()
            for node in system.topology.nodes}
        self._cache_hit_prob = self._estimate_cache_hit_prob()

    def free(self) -> None:
        """Return the store's pages to the allocator (sweep hygiene)."""
        self.system.allocator.free(self.allocation)

    def insert_record(self) -> int:
        """Append a new record (a YCSB INSERT); returns its key.

        Raises once the pre-allocated capacity is exhausted — the
        simulated analogue of hitting maxmemory.
        """
        if self.num_keys >= self.capacity_keys:
            raise WorkloadError(
                f"keyspace capacity {self.capacity_keys} exhausted")
        key = self.num_keys
        self.num_keys += 1
        self.chooser.grow(self.num_keys)
        return key

    # -- layout ------------------------------------------------------------

    def record_offset(self, key: int) -> int:
        if not 0 <= key < self.num_keys:
            raise WorkloadError(f"key {key} outside keyspace")
        return key * self.record_bytes

    def record_node_mix(self, key: int) -> dict[int, float]:
        """Fraction of the record's lines on each node."""
        start = self.record_offset(key)
        offsets = np.arange(start, start + self.record_bytes, CACHELINE)
        nodes = self.allocation.nodes_of(offsets)
        ids, counts = np.unique(nodes, return_counts=True)
        return {int(n): float(c) / len(offsets)
                for n, c in zip(ids, counts)}

    def cxl_resident_fraction(self) -> float:
        """Fraction of the whole store on CXL nodes (verifies policies)."""
        fractions = self.allocation.node_fractions()
        return sum(share for node, share in fractions.items()
                   if self.system.topology.node(node).kind.is_cxl)

    # -- caching -------------------------------------------------------------

    def _estimate_cache_hit_prob(self) -> float:
        llc = self.system.socket.config.cache.llc.capacity_bytes
        hot_records = int(llc * LLC_USABLE_FRACTION / self.record_bytes)
        return self.chooser.hot_mass(hot_records)

    @property
    def cache_hit_prob(self) -> float:
        return self._cache_hit_prob

    # -- service times ---------------------------------------------------------

    def _build_miss_table(self, keys: np.ndarray) -> np.ndarray:
        """Vectorize ``average_miss_latency_ns`` over in-range ``keys``.

        Only for records no larger than a page: such a record touches
        at most two pages, so each key's node mix is
        (lines-on-first-page, lines-on-second-page) split between two
        ``page_nodes`` entries — a handful of integer ops per key
        instead of an ``arange``/``nodes_of``/``unique`` round-trip.
        The float expression replicates the scalar path exactly:
        shares accumulate in ascending node-id order with the same
        ``count/lines`` division and ``share * ns`` product, and the
        single-node case collapses to ``1.0 * ns`` just as the scalar
        sum does — so every entry is bit-identical to what the per-key
        computation returns.  (``perfbench/layers.py`` times this
        method by name.)
        """
        page = self.allocation.page_bytes
        rb = self.record_bytes
        nlines = rb // CACHELINE
        page_nodes = self.allocation.page_nodes
        ns_arr = np.zeros(max(self._node_read_ns) + 1)
        for node, ns in self._node_read_ns.items():
            ns_arr[node] = ns
        start = keys * rb
        first_page = start // page
        last_page = (start + rb - CACHELINE) // page
        n1 = page_nodes[first_page].astype(np.int64)
        n2 = page_nodes[last_page].astype(np.int64)
        # Lines of the record on its first page (start and page are
        # both cacheline-multiples, so the bound divides exactly).
        a = np.minimum(nlines, ((first_page + 1) * page - start)
                       // CACHELINE).astype(np.float64)
        b = nlines - a
        lo_first = n1 <= n2
        c_lo = np.where(lo_first, a, b)
        c_hi = np.where(lo_first, b, a)
        ns_lo = ns_arr[np.minimum(n1, n2)]
        ns_hi = ns_arr[np.maximum(n1, n2)]
        split = (c_lo / nlines) * ns_lo + (c_hi / nlines) * ns_hi
        return np.where(n1 == n2, ns_arr[n1], split)

    def miss_latency_of(self, keys) -> np.ndarray:
        """:meth:`average_miss_latency_ns` of each of ``keys``, as a
        float64 array, bit-identical to the scalar path."""
        keys = np.asarray(keys, dtype=np.int64)
        outside = (keys < 0) | (keys >= self.num_keys)
        if outside.any():
            raise WorkloadError(
                f"key {int(keys[outside][0])} outside keyspace")
        if self.record_bytes > self.allocation.page_bytes:
            return np.array([self.average_miss_latency_ns(key)
                             for key in keys.tolist()], dtype=np.float64)
        return self._build_miss_table(keys)

    def average_miss_latency_ns(self, key: int) -> float:
        """Expected per-miss latency given the record's node mix."""
        mix = self.record_node_mix(key)
        return sum(share * self._node_read_ns[node]
                   for node, share in mix.items())

    def sample_service_parts(self, op: Operation, key: int
                             ) -> tuple[float, float, float]:
        """One query's sampled ``(cpu_ns, misses, per_miss_ns)``.

        The scalar reference for :meth:`draw_queries`, which makes the
        same draws in the same order (CPU jitter, miss jitter, cache
        draw) and applies the same factors.
        """
        rng = self._rng
        cpu = CPU_BASE_NS * rng.lognormal(0.0, CPU_JITTER_SIGMA)
        misses = EFFECTIVE_MISSES_MEAN * rng.lognormal(0.0, MISS_JITTER_SIGMA)
        if op in MUTATIONS:
            misses *= WRITE_MISS_FACTOR
        if rng.random() < self._cache_hit_prob:
            misses *= CACHE_HIT_MISS_FACTOR
        return cpu, misses, self.average_miss_latency_ns(key)

    def sample_service_ns(self, op: Operation, key: int) -> float:
        """One query's service time (CPU + memory), sampled."""
        cpu, misses, miss_ns = self.sample_service_parts(op, key)
        return cpu + misses * miss_ns

    def draw_queries(self, rng: np.random.Generator, count: int, *,
                     inserts: bool) -> QueryDraws:
        """Draw ``count`` queries, then compute their columns.

        Per query, in index order: the operation and then the key from
        ``rng`` (with ``inserts`` set, an INSERT appends a record, which
        becomes one of the "latest" keys later reads favor),
        then CPU jitter, miss jitter and the cache draw from the
        store's own stream — exactly the calls
        :meth:`sample_service_parts` makes.  When ``rng`` is not the
        store's stream the two are independent generators, so
        separating the draws from the arithmetic changes no value;
        the factors are applied to ``misses`` column-wise in the
        scalar path's order, the same IEEE operations.
        """
        next_operation = self.workload.next_operation
        next_key = self.chooser.next_key
        insert_record = self.insert_record
        lognormal = self._rng.lognormal
        uniform = self._rng.random
        insert = Operation.INSERT if inserts else None
        ops, keys, cpu_jitter, miss_jitter, cache_u = [], [], [], [], []
        for _ in range(count):
            op = next_operation(rng)
            ops.append(op)
            keys.append(insert_record() if op is insert else next_key(rng))
            cpu_jitter.append(lognormal(0.0, CPU_JITTER_SIGMA))
            miss_jitter.append(lognormal(0.0, MISS_JITTER_SIGMA))
            cache_u.append(uniform())
        cpu = CPU_BASE_NS * np.array(cpu_jitter)
        misses = EFFECTIVE_MISSES_MEAN * np.array(miss_jitter)
        writes = np.array([op in MUTATIONS for op in ops], dtype=bool)
        misses = np.where(writes, misses * WRITE_MISS_FACTOR, misses)
        misses = np.where(np.array(cache_u) < self._cache_hit_prob,
                          misses * CACHE_HIT_MISS_FACTOR, misses)
        return QueryDraws(ops, np.array(keys, dtype=np.int64), cpu, misses)

    def miss_node_split(self, key: int) -> tuple[float, float]:
        """``(dram_share_ns, cxl_share_ns)`` of the per-miss latency.

        Splits :meth:`average_miss_latency_ns` by the kind of node
        backing each of the record's lines — the span layer's
        DRAM-vs-CXL attribution.  Only called on spanned runs; uses the
        exact per-node scalar path, no RNG.
        """
        mix = self.record_node_mix(key)
        dram = 0.0
        cxl = 0.0
        for node, share in mix.items():
            part = share * self._node_read_ns[node]
            if self.system.topology.node(node).kind.is_cxl:
                cxl += part
            else:
                dram += part
        return dram, cxl

    def mean_service_ns(self, samples: int = 2000) -> float:
        """Monte-Carlo mean service time under the workload."""
        if samples <= 0:
            raise WorkloadError("samples must be positive")
        draws = self.draw_queries(self._rng, samples, inserts=False)
        service = draws.cpu + draws.misses * self.miss_latency_of(draws.keys)
        total = 0.0
        for value in service.tolist():
            total += value               # sequential, never np.sum
        return total / samples


def _round_lines(nbytes: int) -> int:
    return -(-nbytes // CACHELINE) * CACHELINE
