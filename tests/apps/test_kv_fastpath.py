"""The KvServer lifecycles must replay the per-grant DES byte-for-byte.

``KvServer.run`` takes the Lindley fast path (no event queue) when
``workers == 1`` and tracing and spans are off;
``KvServer._run_events`` is the event-driven body.  Both read columns
from one draw pass made before the run.  :func:`reference_des` keeps
the historical body — an ``Engine`` + ``Server`` that draws each
query's operation, key and service parts when its slot is granted —
as the oracle.  Every RunResult field, the telemetry registry and the
span export must be *exactly* equal, because experiment payloads are
cached content-addressed and compared byte-for-byte.
"""

import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvServer, RedisYcsbStudy
from repro.apps.kvstore.server import KVSTORE_TRACK, RunResult
from repro.sim import Engine, LatencyRecorder, Server
from repro.sim.rng import substream
from repro.telemetry import Registry, SpanRecorder, Telemetry
from repro.workloads import WORKLOADS, Operation

REQUESTS = 2_000
QPS = 50_000.0
GAUGES = ("sim.engine.events_processed", "sim.engine.now_ns",
          "apps.kvstore.p99_sojourn_ns", "apps.kvstore.achieved_qps")


def reference_des(server: KvServer, target_qps: float,
                  requests: int) -> RunResult:
    """The per-grant event-driven body: draws at grant time."""
    store = server.store
    engine = Engine(telemetry=server.telemetry)
    tracer = server.telemetry.tracer
    traced = tracer.enabled
    spans = server.telemetry.spans
    spanned = spans.enabled
    name = ("redis-event-loop" if server.workers == 1
            else f"memcached-{server.workers}w")
    station = Server(server.workers, name=name)
    arrivals = substream(f"arrivals-{server.seed}", server.seed)
    sojourn = LatencyRecorder("sojourn")
    service_total = [0.0]
    completed = [0]
    last_completion = [0.0]

    def submit(index, arrival_time):
        def start():
            op = store.workload.next_operation(arrivals)
            if op is Operation.INSERT:
                key = store.insert_record()
            else:
                key = store.chooser.next_key(arrivals)
            cpu, misses, miss_ns = store.sample_service_parts(op, key)
            service = cpu + misses * miss_ns
            service_total[0] += service

            def finish():
                station.release()
                sojourn.record(engine.now - arrival_time)
                completed[0] += 1
                last_completion[0] = engine.now
                if traced:
                    tracer.complete(KVSTORE_TRACK, op.value, arrival_time,
                                    engine.now - arrival_time,
                                    request=index)

            if not spanned:
                engine.schedule(service, finish)
                return

            def finish_spanned(grant=engine.now):
                finish()
                mem_total = misses * miss_ns
                dram_share, cxl_share = store.miss_node_split(key)
                segments = [("client.wait", grant - arrival_time),
                            ("kv.cpu", cpu)]
                if cxl_share == 0.0:
                    segments.append(("mem.dram", mem_total))
                elif dram_share == 0.0:
                    segments.append(("mem.cxl", mem_total))
                else:
                    dram_part = misses * dram_share
                    segments.append(("mem.dram", dram_part))
                    segments.append(("mem.cxl", mem_total - dram_part))
                spans.record(index, arrival_time, segments, kind=op.value)

            engine.schedule(service, finish_spanned)

        station.acquire(start)

    gaps = arrivals.exponential(1e9 / target_qps, size=requests)
    arrival_time = 0.0
    for index in range(requests):
        arrival_time += float(gaps[index])
        engine.schedule_at(arrival_time,
                           lambda i=index, t=arrival_time: submit(i, t))
    engine.run()

    elapsed = last_completion[0]
    registry = server.telemetry.registry
    registry.counter("apps.kvstore.requests").inc(completed[0])
    registry.gauge("apps.kvstore.p99_sojourn_ns").set(sojourn.p99())
    registry.gauge("apps.kvstore.achieved_qps").set(
        completed[0] / (elapsed / 1e9))
    return RunResult(target_qps=target_qps,
                     achieved_qps=completed[0] / (elapsed / 1e9),
                     p50_ns=sojourn.p50(), p99_ns=sojourn.p99(),
                     mean_service_ns=service_total[0] / completed[0],
                     requests=completed[0])


@pytest.fixture(scope="module")
def study():
    return RedisYcsbStudy(build_system(combined_testbed()),
                          num_keys=10_000)


def _run(study, body, *, workload="A", fraction=0.5, telemetry=None,
         workers=1, qps=QPS, requests=REQUESTS):
    """Run ``body(server, qps, requests)`` on a fresh store."""
    store = study.build_store(WORKLOADS[workload], fraction)
    try:
        server = KvServer(store, seed=study.seed, workers=workers,
                          telemetry=telemetry)
        return body(server, qps, requests)
    finally:
        store.free()


def run(server, qps, requests):
    return server.run(qps, requests=requests)


def run_des(server, qps, requests):
    return server._run_events(qps, requests)


class TestEquivalence:
    @pytest.mark.parametrize("workload", ["A", "B", "D"])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_fastpath_equals_des_exactly(self, study, workload, fraction):
        fast = _run(study, run, workload=workload, fraction=fraction)
        des = _run(study, run_des, workload=workload, fraction=fraction)
        assert fast == des                 # every field, exact floats

    def test_fastpath_equals_reference(self, study):
        assert _run(study, run) == _run(study, reference_des)

    def test_registry_parity(self, study):
        """Metrics-only telemetry sees the same registry every way."""
        for workload in ("A", "D"):
            snapshots = []
            for body in (run, run_des, reference_des):
                telemetry = Telemetry.metrics_only()
                _run(study, body, workload=workload, telemetry=telemetry)
                snapshots.append(telemetry.registry.snapshot())
            assert set(GAUGES) <= set(snapshots[0])
            assert snapshots[0] == snapshots[1] == snapshots[2]


class TestDrawOrder:
    """Pre-drawn columns equal per-grant draws at any worker count.

    A FIFO ``Server`` grants in arrival-index order, so the draws the
    historical body made at grant time are the draw pass's columns.
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("workload", ["A", "D", "F"])
    @pytest.mark.parametrize("qps", [50_000.0, 150_000.0, 400_000.0])
    def test_des_equals_reference(self, study, workers, workload, qps):
        des = _run(study, run_des, workload=workload, workers=workers,
                   qps=qps)
        ref = _run(study, reference_des, workload=workload,
                   workers=workers, qps=qps)
        assert des == ref

    def test_inserts_grow_the_keyspace_identically(self, study):
        """Workload D appends records; both bodies end on one size."""
        sizes = []
        for body in (run_des, reference_des):
            store = study.build_store(WORKLOADS["D"], 0.5)
            try:
                body(KvServer(store, seed=study.seed), QPS, REQUESTS)
                sizes.append(store.num_keys)
            finally:
                store.free()
        assert sizes[0] == sizes[1] > study.num_keys

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("workload", ["A", "D", "F"])
    def test_spanned_des_equals_reference(self, study, workers, workload):
        exports, results = [], []
        for body in (run_des, reference_des):
            telemetry = Telemetry(spans=SpanRecorder())
            results.append(_run(study, body, workload=workload,
                                workers=workers, telemetry=telemetry,
                                qps=150_000.0))
            exports.append(telemetry.spans.export())
        assert results[0] == results[1]
        assert exports[0] == exports[1]
        assert exports[0]["requests"] == REQUESTS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spanned_metrics_registry_parity(self, study, workers):
        snapshots, exports = [], []
        for body in (run, reference_des):
            telemetry = Telemetry(registry=Registry(),
                                  spans=SpanRecorder())
            _run(study, body, workload="D", workers=workers,
                 telemetry=telemetry)
            snapshots.append(telemetry.registry.snapshot())
            exports.append(telemetry.spans.export())
        assert snapshots[0] == snapshots[1]
        assert exports[0] == exports[1]

    def test_traced_des_equals_reference(self, study):
        traces = []
        for body in (run, reference_des):
            telemetry = Telemetry.on()
            result = _run(study, body, workload="F", workers=2,
                          telemetry=telemetry, requests=300)
            traces.append((result, telemetry.registry.snapshot(),
                           telemetry.tracer.to_json()))
        assert traces[0] == traces[1]


class TestMeanServiceOracle:
    @staticmethod
    def scalar_mean(store, samples):
        """The historical scalar loop over one interleaved stream."""
        total = 0.0
        for _ in range(samples):
            op = store.workload.next_operation(store._rng)
            key = store.chooser.next_key(store._rng)
            total += store.sample_service_ns(op, key)
        return total / samples

    @pytest.mark.parametrize("workload", ["A", "C", "D", "F"])
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 1.0])
    def test_equals_scalar_loop(self, study, workload, fraction):
        values = []
        for mean in (lambda s: s.mean_service_ns(500),
                     lambda s: self.scalar_mean(s, 500)):
            store = study.build_store(WORKLOADS[workload], fraction)
            try:
                values.append((mean(store), store._rng.random()))
            finally:
                store.free()
        assert values[0] == values[1]       # same value, same stream end


def _explode(self, target_qps, requests):
    raise AssertionError("fast path taken")


class TestGating:
    def test_multi_worker_skips_the_fast_path(self, study, monkeypatch):
        """workers > 1 has real queueing concurrency — no fast path."""
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        result = _run(study, run, workers=2)
        assert result.requests == REQUESTS

    def test_single_worker_takes_the_fast_path(self, study, monkeypatch):
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        with pytest.raises(AssertionError, match="fast path"):
            _run(study, run)

    def test_tracing_forces_des(self, study, monkeypatch):
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        result = _run(study, run, telemetry=Telemetry.on(), requests=100)
        assert result.requests == 100

    def test_des_body_runs_the_engine(self, study, monkeypatch):
        """``_run_events`` really enters the engine, even single-worker."""
        entered = []
        original = Engine.run

        def counting(self, *args, **kwargs):
            entered.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "run", counting)
        telemetry = Telemetry.metrics_only()
        _run(study, run_des, telemetry=telemetry, requests=100)
        assert len(entered) == 1
        assert telemetry.registry.gauge(
            "sim.engine.events_processed").value == 200
        _run(study, run, requests=100)
        assert len(entered) == 1              # the fast path did not


class TestSpanGating:
    """Span recording opts into the DES; spans-off keeps the fast path.

    The tracing layer must cost nothing when disabled: the default
    NULL_SPANS recorder leaves the ``workers == 1`` gate exactly as it
    was (pinned by :class:`TestGating` above), while an enabled
    recorder needs real event interleaving and therefore the engine.
    """

    def test_spans_enabled_forces_des(self, study, monkeypatch):
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        telemetry = Telemetry(spans=SpanRecorder())
        result = _run(study, run, telemetry=telemetry)
        assert result.requests == REQUESTS
        export = telemetry.spans.export()
        assert export["requests"] == REQUESTS

    def test_spanned_run_result_matches_plain_des(self, study):
        """Recording spans must not perturb a single RunResult float."""
        telemetry = Telemetry(spans=SpanRecorder())
        spanned = _run(study, run, telemetry=telemetry)
        plain = _run(study, run_des)
        assert spanned == plain

    def test_service_components_close_on_service_total(self, study):
        """kv.cpu + mem.* segments sum to the mean-service total —
        client.wait is the only segment outside the service time."""
        telemetry = Telemetry(spans=SpanRecorder())
        result = _run(study, run, telemetry=telemetry)
        agg = telemetry.spans.export()
        service_total = sum(
            slot["total_ns"]
            for name, slot in agg["components"].items()
            if name != "client.wait")
        assert service_total == pytest.approx(
            result.mean_service_ns * result.requests, rel=1e-9)
        assert {"kv.cpu", "mem.dram", "mem.cxl"} <= set(
            agg["components"])
