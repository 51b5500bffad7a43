"""Counter/gauge/histogram semantics and the registry."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    interpolate_percentile,
)
from repro.telemetry.metrics import default_latency_buckets_ns


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(TelemetryError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.add(1.5)
        assert gauge.value == 5.0


class TestHistogram:
    def test_mean_and_extremes(self):
        hist = Histogram("h")
        for value in (10.0, 20.0, 30.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean() == 20.0
        assert hist.min() == 10.0
        assert hist.max() == 30.0

    def test_percentiles(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.record(float(value))
        assert hist.p50() == pytest.approx(50.5)
        assert hist.p99() == pytest.approx(
            float(np.percentile(np.arange(1.0, 101.0), 99,
                                method="linear")))

    def test_empty_stats_rejected(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.mean()
        with pytest.raises(ValueError):
            hist.p99()

    def test_sorted_cache_invalidated_on_record(self):
        # Interleave percentile queries with records: each query must
        # see every sample recorded so far, not a stale sorted cache.
        hist = Histogram("h")
        hist.record(10.0)
        assert hist.percentile(100.0) == 10.0
        hist.record(5.0)
        assert hist.percentile(0.0) == 5.0
        hist.record(20.0)
        assert hist.percentile(100.0) == 20.0

    def test_bucket_counts(self):
        hist = Histogram("h", buckets=(10.0, 100.0))
        for value in (1.0, 5.0, 50.0, 500.0):
            hist.record(value)
        pairs = hist.bucket_counts()
        assert pairs == [(10.0, 2), (100.0, 1), (float("inf"), 1)]

    @staticmethod
    def _linear_bucketing(buckets, values):
        """Reference bucketing: the first bound at or above the value,
        else overflow, by a linear scan."""
        counts, overflow = [0] * len(buckets), 0
        for value in values:
            for index, bound in enumerate(buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                overflow += 1
        return list(zip(buckets, counts)) + [(math.inf, overflow)]

    @pytest.mark.parametrize("buckets", [
        (10.0,), (10.0, 100.0), default_latency_buckets_ns()])
    def test_bucketing_matches_linear_scan(self, buckets):
        values = [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan,
                  -math.nan, 1e300]
        for bound in buckets:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        hist = Histogram("h", buckets=buckets)
        for value in values:
            hist.record(value)
        assert hist.bucket_counts() \
            == self._linear_bucketing(buckets, values)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    max_size=60))
    def test_bucketing_matches_linear_scan_on_any_floats(self, values):
        buckets = (1.0, 10.0, 1e6)
        hist = Histogram("h", buckets=buckets)
        for value in values:
            hist.record(value)
        assert hist.bucket_counts() \
            == self._linear_bucketing(buckets, values)

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(10.0, 10.0))
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(100.0, 10.0))

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1,
                    max_size=100),
           st.floats(min_value=0, max_value=100))
    def test_percentile_matches_numpy(self, data, pct):
        hist = Histogram("h")
        for value in data:
            hist.record(value)
        theirs = float(np.percentile(np.array(data), pct,
                                     method="linear"))
        assert hist.percentile(pct) == pytest.approx(theirs, rel=1e-9,
                                                     abs=1e-9)


class TestInterpolatePercentile:
    def test_requires_sorted_nonempty(self):
        with pytest.raises(ValueError):
            interpolate_percentile([], 50.0)
        with pytest.raises(ValueError):
            interpolate_percentile([1.0], -1.0)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = Registry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("a.g") is registry.gauge("a.g")
        assert registry.histogram("a.h") is registry.histogram("a.h")

    def test_type_mismatch_rejected(self):
        registry = Registry()
        registry.counter("a.b")
        with pytest.raises(TelemetryError):
            registry.gauge("a.b")

    def test_snapshot_is_flat_and_sorted(self):
        registry = Registry()
        registry.counter("z.last").inc(2)
        registry.gauge("a.first").set(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["z.last"]["value"] == 2

    def test_tree_nests_on_dots(self):
        registry = Registry()
        registry.counter("cxl.port.transactions").inc()
        tree = registry.tree()
        assert tree["cxl"]["port"]["transactions"]["value"] == 1


class TestNullRegistry:
    def test_drops_everything(self):
        registry = NullRegistry()
        counter = registry.counter("c")
        counter.inc(100)
        assert counter.value == 0
        hist = registry.histogram("h")
        hist.record(5.0)
        assert hist.count == 0
        assert registry.snapshot() == {}

    def test_shared_singletons(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
