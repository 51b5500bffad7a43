"""The single-threaded KV server under open-loop load (DES).

Redis processes queries on one event-loop thread, so the server is a
capacity-1 station.  YCSB clients throttle to a target QPS (§5.1:
"conducted multiple workloads while throttling query per second in the
YCSB clients"), modeled as a Poisson arrival process; the recorded
sojourn time (queue wait + service) is what the p99 curves plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import WorkloadError
from ...sim import Engine, LatencyRecorder, Server
from ...sim.lindley import lindley, p50_p99
from ...sim.rng import substream
from ...telemetry import NULL_TELEMETRY, Telemetry
from .store import KvStore, QueryDraws

KVSTORE_TRACK = "apps.kvstore"


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (workload, placement, QPS) run."""

    target_qps: float
    achieved_qps: float
    p50_ns: float
    p99_ns: float
    mean_service_ns: float
    requests: int

    @property
    def saturated(self) -> bool:
        """True when the server could not keep up with the offered load."""
        return self.achieved_qps < 0.95 * self.target_qps

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1000.0


class KvServer:
    """Drives a :class:`KvStore` with Poisson arrivals on the DES engine.

    ``workers=1`` is Redis' single-threaded event loop; ``workers>1``
    models a memcached-style threaded server (§6.1 names both as
    µs-level, latency-bound stores).  More workers raise the saturation
    QPS linearly but do nothing for the per-query CXL latency penalty —
    which is the §6.1 point: latency-bound is about *service time*, not
    concurrency.
    """

    def __init__(self, store: KvStore, *, seed: int = 1,
                 workers: int = 1,
                 telemetry: Telemetry | None = None) -> None:
        if workers <= 0:
            raise WorkloadError(f"workers must be positive: {workers}")
        self.store = store
        self.seed = seed
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

    def run(self, target_qps: float, *, requests: int = 20_000) -> RunResult:
        """Simulate ``requests`` queries at ``target_qps`` offered load."""
        if target_qps <= 0:
            raise WorkloadError(f"QPS must be positive: {target_qps}")
        if requests <= 0:
            raise WorkloadError(f"requests must be positive: {requests}")
        if (self.workers == 1 and not self.telemetry.enabled
                and not self.telemetry.spans.enabled):
            # A capacity-1 FIFO station needs no event queue: the
            # Lindley recursion replays the DES float-for-float.
            return self._run_fast(target_qps, requests)
        return self._run_des(target_qps, requests)

    def _draw(self, target_qps: float, requests: int
              ) -> tuple[np.ndarray, QueryDraws, np.ndarray, np.ndarray]:
        """``(arrival, draws, mem, service)`` columns of one run.

        The exponential gaps come first in bulk, then one draw pass in
        request-index order (:meth:`KvStore.draw_queries`).  A FIFO
        server grants in arrival order at any worker count, so these
        are the draws an event loop sampling at grant time would make.
        Arrivals are a sequential cumsum (``arrival += gap``); ``mem``
        is ``misses * miss_ns`` and ``service`` is ``cpu + mem``, the
        per-request float operations column-wise.
        """
        arrivals = substream(f"arrivals-{self.seed}", self.seed)
        gaps = arrivals.exponential(1e9 / target_qps, size=requests)
        draws = self.store.draw_queries(arrivals, requests, inserts=True)
        mem = draws.misses * self.store.miss_latency_of(draws.keys)
        return gaps.cumsum(), draws, mem, draws.cpu + mem

    def _run_des(self, target_qps: float, requests: int) -> RunResult:
        """The event-driven run (tracing, spans, ``workers > 1``)."""
        arrival_ns, draws, mem_ns, service_ns = \
            self._draw(target_qps, requests)
        ops, keys = draws.ops, draws.keys.tolist()
        cpus, misses = draws.cpu.tolist(), draws.misses.tolist()
        mems, services = mem_ns.tolist(), service_ns.tolist()
        engine = Engine(telemetry=self.telemetry)
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        spans = self.telemetry.spans
        spanned = spans.enabled
        name = ("redis-event-loop" if self.workers == 1
                else f"memcached-{self.workers}w")
        server = Server(self.workers, name=name)
        sojourn = LatencyRecorder("sojourn")
        service_total = [0.0]
        completed = [0]
        last_completion = [0.0]

        def submit(index: int, arrival_time: float) -> None:
            def start() -> None:
                op = ops[index]
                service = services[index]
                service_total[0] += service

                def finish() -> None:
                    server.release()
                    sojourn.record(engine.now - arrival_time)
                    completed[0] += 1
                    last_completion[0] = engine.now
                    if traced:
                        tracer.complete(KVSTORE_TRACK, op.value,
                                        arrival_time,
                                        engine.now - arrival_time,
                                        request=index)

                if not spanned:
                    engine.schedule(service, finish)
                    return

                # Spanned path only: the default binds the grant
                # instant, so the spans-off closure above keeps its
                # exact shape (no extra cells on the hot path).
                def finish_spanned(grant=engine.now) -> None:
                    finish()
                    # The memory part splits by the kind of node
                    # backing the record's lines; the second entry
                    # is a residual so the pair closes exactly on
                    # misses * miss_ns.
                    mem_total = mems[index]
                    dram_share, cxl_share = \
                        self.store.miss_node_split(keys[index])
                    segments = [
                        ("client.wait", grant - arrival_time),
                        ("kv.cpu", cpus[index])]
                    if cxl_share == 0.0:
                        segments.append(("mem.dram", mem_total))
                    elif dram_share == 0.0:
                        segments.append(("mem.cxl", mem_total))
                    else:
                        dram_part = misses[index] * dram_share
                        segments.append(("mem.dram", dram_part))
                        segments.append(
                            ("mem.cxl", mem_total - dram_part))
                    spans.record(index, arrival_time, segments,
                                 kind=op.value)

                engine.schedule(service, finish_spanned)

            server.acquire(start)

        for index, arrival_time in enumerate(arrival_ns.tolist()):
            engine.schedule_at(arrival_time,
                               lambda i=index, t=arrival_time: submit(i, t))
        engine.run()

        elapsed = last_completion[0]
        if elapsed <= 0:
            raise WorkloadError("no requests completed")
        registry = self.telemetry.registry
        registry.counter("apps.kvstore.requests").inc(completed[0])
        registry.gauge("apps.kvstore.p99_sojourn_ns").set(sojourn.p99())
        registry.gauge("apps.kvstore.achieved_qps").set(
            completed[0] / (elapsed / 1e9))
        return RunResult(target_qps=target_qps,
                         achieved_qps=completed[0] / (elapsed / 1e9),
                         p50_ns=sojourn.p50(),
                         p99_ns=sojourn.p99(),
                         mean_service_ns=service_total[0] / completed[0],
                         requests=completed[0])

    def _run_fast(self, target_qps: float, requests: int) -> RunResult:
        """The ``workers == 1`` analytic fast path (no event queue).

        With a single FIFO slot the DES collapses to the Lindley
        recursion (:func:`~repro.sim.lindley.lindley` on one station):
        arrival events carry the lowest sequence numbers, so grants
        happen in arrival-index order and the float arithmetic is the
        same adds/compares the event loop performs.  ``service_total``
        sums sequentially in that order, and p50/p99 are what the
        DES's :class:`~repro.sim.LatencyRecorder` reports.  The result
        is byte-identical to :meth:`_run_des`
        (``tests/apps/test_kv_fastpath.py`` pins the equivalence).
        """
        arrival, _, _, service = self._draw(target_qps, requests)
        finish, _ = lindley(arrival, service,
                            np.zeros(requests, dtype=np.int64), 1)
        service_total = 0.0
        for value in service.tolist():
            service_total += value       # sequential, like the DES
        last = float(finish[-1])
        if last <= 0:
            raise WorkloadError("no requests completed")
        p50, p99 = p50_p99(finish - arrival)
        registry = self.telemetry.registry
        # Registry parity with the DES path: the engine's end-of-run
        # gauges (one arrival event + one finish event per request, the
        # clock left at the last completion) plus the app-level stats.
        registry.gauge("sim.engine.events_processed").set(2 * requests)
        registry.gauge("sim.engine.now_ns").set(last)
        registry.counter("apps.kvstore.requests").inc(requests)
        registry.gauge("apps.kvstore.p99_sojourn_ns").set(p99)
        registry.gauge("apps.kvstore.achieved_qps").set(
            requests / (last / 1e9))
        return RunResult(target_qps=target_qps,
                         achieved_qps=requests / (last / 1e9),
                         p50_ns=p50,
                         p99_ns=p99,
                         mean_service_ns=service_total / requests,
                         requests=requests)
