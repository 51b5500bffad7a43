"""Parallel and cached runs are indistinguishable from serial ones."""

import json

import pytest

from repro import build_system, combined_testbed
from repro.apps.dsb import DsbRunner
from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.experiments import REGISTRY, get
from repro.experiments.registry import ExperimentResult
from repro.experiments.runner import main
from repro.parallel import ResultCache, result_key
from repro.telemetry import Telemetry

THREADS = [1, 2, 4]
LINES = 200


class TestSweepDeterminism:
    def test_read_sweep_parallel_equals_serial(self):
        serial = CxlEndToEndSim().sweep(THREADS, lines_per_thread=LINES)
        parallel = CxlEndToEndSim().sweep(THREADS,
                                          lines_per_thread=LINES,
                                          jobs=2)
        assert parallel == serial        # E2eResult is a frozen dataclass

    def test_write_sweep_parallel_equals_serial(self):
        serial = CxlWriteEndToEndSim().sweep(THREADS,
                                             lines_per_thread=LINES)
        parallel = CxlWriteEndToEndSim().sweep(THREADS,
                                               lines_per_thread=LINES,
                                               jobs=2)
        assert parallel == serial

    def test_sweep_telemetry_merges_to_serial_session(self):
        serial = Telemetry.on()
        CxlEndToEndSim(telemetry=serial).sweep(THREADS,
                                               lines_per_thread=LINES)
        merged = Telemetry.on()
        CxlEndToEndSim(telemetry=merged).sweep(THREADS,
                                               lines_per_thread=LINES,
                                               jobs=2)
        assert [e.key() for e in merged.tracer.events] \
            == [e.key() for e in serial.tracer.events]
        assert merged.tracer.tracks == serial.tracer.tracks
        assert merged.registry.snapshot() == serial.registry.snapshot()


class TestCurveSharding:
    """Fig 10 p99 curves shard per point — same series either way."""

    @pytest.fixture(scope="class")
    def system(self):
        return build_system(combined_testbed())

    def test_dsb_p99_curve_parallel_equals_serial(self, system):
        qps = [200.0, 600.0]
        serial = DsbRunner(system, database_node=system.LOCAL_NODE) \
            .p99_curve(qps, requests=300)
        parallel = DsbRunner(system, database_node=system.LOCAL_NODE) \
            .p99_curve(qps, requests=300, jobs=2)
        assert parallel == serial

    def test_dsb_curve_telemetry_merges_to_serial_session(self, system):
        qps = [200.0, 600.0]
        serial = Telemetry.on()
        DsbRunner(system, database_node=system.LOCAL_NODE,
                  telemetry=serial).p99_curve(qps, requests=300)
        merged = Telemetry.on()
        DsbRunner(system, database_node=system.LOCAL_NODE,
                  telemetry=merged).p99_curve(qps, requests=300, jobs=2)
        assert [e.key() for e in merged.tracer.events] \
            == [e.key() for e in serial.tracer.events]
        assert merged.registry.snapshot() == serial.registry.snapshot()

    def test_dsb_p99_curves_flat_shard_equals_serial(self, system):
        # The fig10 whole-figure sweep: (runner, request-type) combos
        # crossed with QPS points, one unit each.
        from repro.apps.dsb import RequestType
        from repro.apps.dsb.runner import p99_curves

        dram = DsbRunner(system, database_node=system.LOCAL_NODE)
        cxl = DsbRunner(system, database_node=system.cxl_node_id)
        combos = [(runner, request_type)
                  for request_type in (RequestType.COMPOSE_POST, None)
                  for runner in (dram, cxl)]
        qps = [200.0, 600.0]
        serial = p99_curves(combos, qps, requests=300)
        parallel = p99_curves(combos, qps, requests=300, jobs=2)
        assert parallel == serial

    def test_only_des_heavy_experiments_shard_internally(self):
        # fig6 draws its queries once per study (KvStore.draw_queries),
        # so it runs as one unit: per-point shards would redraw them.
        assert not REGISTRY["fig6"].accepts_jobs
        assert REGISTRY["fig10"].accepts_jobs
        assert not REGISTRY["fig3"].accepts_jobs
        assert not REGISTRY["table1"].accepts_jobs

    def test_experiment_run_ignores_jobs_when_unsupported(self):
        serial = get("fig3").run(fast=True)
        sharded = get("fig3").run(fast=True, jobs=4)
        assert sharded.render() == serial.render()


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestRunnerCliDeterminism:
    IDS = ["fig3", "fig5"]

    def _save_run(self, tmp_path, name, extra):
        out = tmp_path / name
        assert main([*self.IDS, "--save", str(out), *extra]) == 0
        return {path.name: path.read_bytes()
                for path in sorted(out.iterdir())}

    def test_jobs_save_matches_serial_save(self, isolated_cache, capsys):
        serial = self._save_run(isolated_cache, "serial", ["--no-cache"])
        parallel = self._save_run(isolated_cache, "parallel",
                                  ["--no-cache", "--jobs", "2"])
        assert parallel == serial
        capsys.readouterr()

    def test_cached_rerun_matches_first_run(self, isolated_cache,
                                            capsys):
        first = self._save_run(isolated_cache, "first", [])
        out1 = capsys.readouterr().out
        cached = self._save_run(isolated_cache, "second", [])
        out2 = capsys.readouterr().out
        assert cached == first
        assert out2 == out1


class TestCacheHitExactness:
    def test_cache_hit_returns_exact_object(self, tmp_path):
        result = get("fig3").run(fast=True)
        cache = ResultCache(tmp_path)
        key = result_key("fig3", {"fast": True})
        cache.put(key, result.payload())

        restored = ExperimentResult.from_payload(cache.get(key))
        assert restored.experiment_id == result.experiment_id
        assert restored.title == result.title
        assert restored.rendered == result.rendered
        assert restored.checks == result.checks
        assert restored.series == result.series
        assert restored.render() == result.render()
        assert json.dumps(restored.to_dict(), sort_keys=True) \
            == json.dumps(result.to_dict(), sort_keys=True)

    def test_payload_roundtrip_without_disk(self):
        result = get("table1").run(fast=True)
        clone = ExperimentResult.from_payload(
            json.loads(json.dumps(result.payload())))
        assert clone.render() == result.render()
        assert clone.passed == result.passed
