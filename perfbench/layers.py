"""Per-layer spans and work counters for a traced benchmark pass.

:func:`installed` wraps the public entry points of repro's layers (the
classes and module attributes listed by :func:`_targets`) with
timing-and-counting shims, and removes them again on exit, so untraced
passes run the program exactly as shipped.  Each wrapped call is one
span: a start and end host time on ``time.perf_counter_ns`` and the span
that was open when it began.  A layer's self time is the sum, over its
spans, of the span's duration minus the time its wrapped children
cover.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

_now = time.perf_counter_ns


@dataclass
class Tracer:
    """Span stack plus per-entry and per-layer aggregates of one pass.

    ``keep_spans`` also stores every span as ``(span_id, parent_id,
    entry, start_ns, end_ns)`` (``parent_id`` is ``-1`` at the top),
    which the benchmark's tests use to check nesting.
    """

    keep_spans: bool = False
    calls: dict = field(default_factory=lambda: defaultdict(int))
    total_ns: dict = field(default_factory=lambda: defaultdict(int))
    entry_self_ns: dict = field(default_factory=lambda: defaultdict(int))
    layer_self_ns: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _next_id: int = 0

    def begin(self) -> list:
        """Open a span; returns its frame ``[start, child_ns, id, parent]``."""
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        frame = [0, 0, self._next_id, parent]
        self._next_id += 1
        stack.append(frame)
        frame[0] = _now()
        return frame

    def end(self, frame: list, layer: str, entry: str) -> None:
        """Close the innermost span, charging it to ``layer``/``entry``."""
        end = _now()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        self.calls[entry] += 1
        self.total_ns[entry] += duration
        self.entry_self_ns[entry] += own
        self.layer_self_ns[layer] += own
        if stack:
            stack[-1][1] += duration
        if self.keep_spans:
            self.spans.append((frame[2], frame[3], entry, frame[0], end))

    def seconds(self, entry: str) -> float:
        return self.total_ns[entry] / 1e9


def _plain(tracer: Tracer, layer: str, entry: str, fn):
    def wrapper(*args, **kwargs):
        frame = tracer.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame, layer, entry)
    return wrapper


def _engine_run(tracer: Tracer, layer: str, entry: str, fn):
    """``Engine.run``: also sums the events each call processed."""
    def wrapper(self, *args, **kwargs):
        before = self.events_processed
        frame = tracer.begin()
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.end(frame, layer, entry)
            tracer.counts["sim.events"] += self.events_processed - before
    return wrapper


def _kv_server_run(tracer: Tracer, layer: str, entry: str, fn):
    """``KvServer.run``: also counts calls that never entered the engine."""
    def wrapper(*args, **kwargs):
        engine_runs = tracer.calls["Engine.run"]
        frame = tracer.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame, layer, entry)
            if tracer.calls["Engine.run"] == engine_runs:
                tracer.counts["kvstore.fastpath_runs"] += 1
    return wrapper


def _trace_requests(tracer: Tracer, layer: str, entry: str, fn):
    """``OpenLoopZipfian.requests``: also counts the requests handed out."""
    def wrapper(*args, **kwargs):
        frame = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame, layer, entry)
        tracer.counts["workloads.trace_requests"] += len(result)
        return result
    return wrapper


def _parallel_map(tracer: Tracer, layer: str, entry: str, fn):
    """``ParallelRunner.map``: also counts units and the bytes shipped.

    The specs and results are pickled after the span closes, so the
    byte count costs nothing inside ``parallel.map_s``.
    """
    def wrapper(self, unit_fn, specs):
        specs = list(specs)
        frame = tracer.begin()
        try:
            results = fn(self, unit_fn, specs)
        finally:
            tracer.end(frame, layer, entry)
        tracer.counts["parallel.units"] += len(specs)
        tracer.counts["parallel.pickle_bytes"] += sum(
            len(pickle.dumps(item)) for item in (*specs, *results))
        return results
    return wrapper


def _targets():
    """``(owner, attribute, layer, entry, wrapper factory)`` per entry."""
    from repro.apps.kvstore.server import KvServer
    from repro.apps.kvstore.store import KvStore
    from repro.cluster import routing
    from repro.cluster import sim as cluster_sim
    from repro.cluster.sim import ClusterSim
    from repro.cluster.traffic import OpenLoopZipfian
    from repro.faults import injector
    from repro.faults.injector import FaultInjector
    from repro.parallel.runner import ParallelRunner
    from repro.sim.engine import Engine
    from repro.telemetry.metrics import Histogram
    from repro.workloads.distributions import (LatestKeys, UniformKeys,
                                               ZipfianKeys)
    from repro.workloads.ycsb import YcsbWorkload

    return [
        (Engine, "run", "sim", "Engine.run", _engine_run),
        (OpenLoopZipfian, "__init__", "workloads",
         "OpenLoopZipfian.__init__", _plain),
        (OpenLoopZipfian, "requests", "workloads",
         "OpenLoopZipfian.requests", _trace_requests),
        (UniformKeys, "next_key", "workloads", "UniformKeys.next_key",
         _plain),
        (ZipfianKeys, "next_key", "workloads", "ZipfianKeys.next_key",
         _plain),
        (LatestKeys, "next_key", "workloads", "LatestKeys.next_key",
         _plain),
        (ZipfianKeys, "next_rank", "workloads", "ZipfianKeys.next_rank",
         _plain),
        (YcsbWorkload, "next_operation", "workloads",
         "YcsbWorkload.next_operation", _plain),
        (cluster_sim, "decision_uniform", "rng", "decision_uniform",
         _plain),
        (injector, "decision_uniform", "rng", "decision_uniform", _plain),
        (ClusterSim, "run", "cluster", "ClusterSim.run", _plain),
        (ClusterSim, "pool_resident", "cluster",
         "ClusterSim.pool_resident", _plain),
        (routing.HashShardRouter, "route", "cluster", "Router.route",
         _plain),
        (routing.LeastLoadedRouter, "route", "cluster", "Router.route",
         _plain),
        (KvStore, "__init__", "kvstore", "KvStore.__init__", _plain),
        (KvStore, "_build_miss_table", "kvstore",
         "KvStore._build_miss_table", _plain),
        (KvStore, "sample_service_parts", "kvstore",
         "KvStore.sample_service_parts", _plain),
        (KvServer, "run", "kvstore", "KvServer.run", _kv_server_run),
        (Histogram, "record", "telemetry", "Histogram.record", _plain),
        (FaultInjector, "request_extras", "faults",
         "FaultInjector.request_extras", _plain),
        (ParallelRunner, "map", "parallel", "ParallelRunner.map",
         _parallel_map),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point for the ``with`` body, then restore it."""
    saved = []
    try:
        for owner, attr, layer, entry, factory in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(tracer, layer, entry, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, results: list) -> dict[str, float]:
    """The per-layer metrics of one traced pass (units in BENCHMARK.json).

    ``results`` are the pass's simulated outputs; the cluster and fault
    outcome counters are read from the ``ClusterResult`` entries.
    """
    from repro.cluster.sim import ClusterResult

    calls, counts, self_ns = tracer.calls, tracer.counts, tracer.layer_self_ns
    cluster = [r for r in results if isinstance(r, ClusterResult)]
    requests = sum(r.requests for r in cluster)
    successes = sum(r.successes for r in cluster)
    attempts = requests + sum(
        r.resilience.retries_issued + r.resilience.hedges_launched
        for r in cluster if r.resilience is not None)
    wasted_ns = sum(r.resilience.wasted_ns for r in cluster
                    if r.resilience is not None)
    events = counts["sim.events"]
    engine_ns = tracer.total_ns["Engine.run"]
    server_runs = calls["KvServer.run"]
    return {
        "sim.events": events,
        "sim.engine_runs": calls["Engine.run"],
        "sim.run_s": engine_ns / 1e9,
        "sim.self_s": self_ns["sim"] / 1e9,
        "sim.host_ns_per_event": engine_ns / events if events else 0.0,
        "workloads.key_draws": (calls["ZipfianKeys.next_rank"]
                                + calls["UniformKeys.next_key"]),
        "workloads.op_draws": calls["YcsbWorkload.next_operation"],
        "workloads.trace_requests": counts["workloads.trace_requests"],
        "workloads.self_s": self_ns["workloads"] / 1e9,
        "rng.decision_draws": calls["decision_uniform"],
        "rng.self_s": self_ns["rng"] / 1e9,
        "cluster.requests": requests,
        "cluster.attempts": attempts,
        "cluster.useful_ratio": successes / attempts if attempts else 0.0,
        "cluster.route_calls": calls["Router.route"],
        "cluster.pool_resident_calls": calls["ClusterSim.pool_resident"],
        "cluster.run_s": tracer.seconds("ClusterSim.run"),
        "cluster.self_s": self_ns["cluster"] / 1e9,
        "cluster.wasted_ms": wasted_ns / 1e6,
        "kvstore.store_builds": calls["KvStore.__init__"],
        "kvstore.build_s": (tracer.seconds("KvStore.__init__")
                            + tracer.seconds("KvStore._build_miss_table")),
        "kvstore.service_samples": calls["KvStore.sample_service_parts"],
        "kvstore.service_s":
            tracer.entry_self_ns["KvStore.sample_service_parts"] / 1e9,
        "kvstore.server_runs": server_runs,
        "kvstore.fastpath_ratio": (counts["kvstore.fastpath_runs"]
                                   / server_runs if server_runs else 0.0),
        "telemetry.samples": calls["Histogram.record"],
        "telemetry.record_s": tracer.seconds("Histogram.record"),
        "faults.extras_calls": calls["FaultInjector.request_extras"],
        "faults.injected": sum(r.injected for r in cluster),
        "faults.recovered": sum(r.recovered for r in cluster),
        "parallel.map_s": tracer.seconds("ParallelRunner.map"),
        "parallel.units": counts["parallel.units"],
        "parallel.pickle_bytes": counts["parallel.pickle_bytes"],
    }


TIME_METRICS = (
    "sim.run_s", "sim.self_s", "sim.host_ns_per_event", "workloads.self_s",
    "rng.self_s", "cluster.run_s", "cluster.self_s", "kvstore.build_s",
    "kvstore.service_s", "telemetry.record_s", "parallel.map_s",
)
"""The metrics measured in host time; every other layer metric is an
exact function of the seed."""


def seed_exact(metrics: dict[str, float]) -> dict[str, float]:
    """The seed-exact part of :func:`layer_metrics`' result."""
    return {name: value for name, value in metrics.items()
            if name not in TIME_METRICS}
