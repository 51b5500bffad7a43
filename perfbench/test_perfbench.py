"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
test runs a few points of a workload's grid, not the whole grid.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grids  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

SEED = 7


def small(name: str, seed: int = SEED) -> grids.Workload:
    """The workload with its grid cut to three points (keeping the
    degraded point of the pool grids, which exercises the fault layer)."""
    workload = grids.setup(name, seed)
    workload.points = workload.points[-1:] + workload.points[:2]
    return workload


def traced_pass(workload: grids.Workload, *, keep_spans: bool = False):
    tracer = layers.Tracer(keep_spans=keep_spans)
    with layers.installed(tracer):
        outcomes = grids.run_pass(workload)
    assert [error for _output, error in outcomes] == [None] * len(outcomes)
    outputs = [output for output, _error in outcomes]
    return tracer, layers.layer_metrics(tracer, outputs), outputs


@pytest.mark.parametrize("name", grids.NAMES)
def test_traced_counters_repeat_exactly(name):
    _, first, _ = traced_pass(small(name))
    _, second, _ = traced_pass(small(name))
    assert layers.seed_exact(first) == layers.seed_exact(second)
    assert first["cluster.requests"] + first["kvstore.server_runs"] > 0


@pytest.mark.parametrize("name", ["kv-ycsb", "cluster-resilient"])
def test_spans_nest_and_self_times_are_non_negative(name):
    tracer, metrics, _ = traced_pass(small(name), keep_spans=True)
    spans = {span_id: (start, end)
             for span_id, _parent, _entry, start, end in tracer.spans}
    nested = 0
    for _span_id, parent, _entry, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            parent_start, parent_end = spans[parent]
            assert parent_start <= start and end <= parent_end
            nested += 1
    assert nested > 0
    assert all(ns >= 0 for ns in tracer.layer_self_ns.values())
    assert all(value >= 0 for metric, value in metrics.items()
               if metric.endswith(".self_s"))


def test_tracing_changes_no_output_and_is_removed_afterwards():
    from repro.sim.engine import Engine

    original = Engine.__dict__["run"]
    untraced = grids.digest(
        [o for o, _ in grids.run_pass(small("cluster-pool"))])
    _, _, outputs = traced_pass(small("cluster-pool"))
    assert grids.digest(outputs) == untraced
    assert Engine.__dict__["run"] is original


@pytest.mark.parametrize("name", grids.NAMES)
def test_seed_reaches_the_program(name):
    digests = {seed: grids.digest([o for o, _ in
                                   grids.run_pass(small(name, seed))])
               for seed in (SEED, SEED + 1)}
    assert digests[SEED] != digests[SEED + 1]


def test_sharded_grid_matches_the_serial_grid():
    sharded = grids.run_pass(small("cluster-sharded"))
    serial = grids.run_pass(small("cluster-pool"))
    assert grids.digest([o for o, _ in sharded]) \
        == grids.digest([o for o, _ in serial])


@pytest.mark.parametrize("name", ["kv-ycsb", "cluster-pool",
                                  "cluster-resilient"])
def test_checks_accept_outputs_and_catch_broken_ones(name):
    workload = small(name)
    for point, (output, error) in zip(workload.points,
                                      grids.run_pass(workload)):
        assert error is None
        assert grids.check_point(point, workload.seed, output) == []
        if point.kind == "max-qps":
            continue
        short = dataclasses.replace(output, requests=output.requests - 1)
        assert grids.check_point(point, workload.seed, short)
        inverted = dataclasses.replace(output, p50_ns=output.p99_ns + 1.0)
        assert grids.check_point(point, workload.seed, inverted)
        fast = dataclasses.replace(output,
                                   achieved_qps=output.achieved_qps * 1.5)
        assert grids.check_point(point, workload.seed, fast)


def test_checks_catch_lost_faults_and_unsettled_requests():
    workload = small("cluster-resilient")
    point = workload.points[0]
    output = grids.run_point(workload, point)
    host = dataclasses.replace(output.hosts[1],
                               recovered=output.hosts[1].recovered + 1)
    lost = dataclasses.replace(
        output, hosts=(output.hosts[0], host) + output.hosts[2:])
    assert any("recovered" in p
               for p in grids.check_point(point, workload.seed, lost))
    stats = dataclasses.replace(output.resilience,
                                ok=output.resilience.ok - 1)
    unsettled = dataclasses.replace(output, resilience=stats)
    assert any("outcome buckets" in p
               for p in grids.check_point(point, workload.seed, unsettled))


def test_host_speed_helpers_read_and_stop():
    with speed.HostSpeed(2) as host_speed:
        procs = list(host_speed._procs)
        assert len(procs) == 2
        assert 0.0 < host_speed() < 100.0
    assert all(proc.poll() is not None for proc in procs)
    assert 0.0 < speed.HostSpeed()() < 100.0


def _session_members(session: int) -> list[str]:
    """Command lines of the live processes in ``session`` (Linux /proc)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            command = (entry / "cmdline").read_bytes()
        except OSError:        # ended while we looked
            continue
        # after the ")" closing the command name: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(command.replace(b"\0", b" ").decode(
                errors="replace"))
    return members


def _bench(cwd: Path, *extra: str, env: dict | None = None,
           workload: str = "cluster-pool"):
    """Run the benchmark in a session of its own; once it has exited,
    no process it started may be left in that session.

    Output goes to files, not pipes: a leftover process that inherited
    a pipe would hold it open and so be waited for before the check.
    """
    command = [sys.executable, "perfbench/run.py", "--workload",
               workload, "--seed", "3", "--seconds", "1", *extra]
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        with subprocess.Popen(command, cwd=cwd, stdout=out, stderr=err,
                              text=True, env=env,
                              start_new_session=True) as proc:
            proc.wait(timeout=170)
        if Path("/proc/self/stat").exists():
            left = _session_members(proc.pid)
            assert not left, f"processes left running: {left}"
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(command, proc.returncode,
                                           out.read(), err.read())


@pytest.mark.parametrize("variable", ["REPRO_SIM_SCHEDULER",
                                      "REPRO_KV_FASTPATH",
                                      "REPRO_TEST_UNIT_CRASH"])
def test_switches_that_change_the_program_are_refused(variable):
    done = _bench(ROOT, "--trace", "0",
                  env={**os.environ, variable: "heap"})
    assert done.returncode == 2
    assert variable in done.stderr
    assert done.stdout == ""


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload, trace, kind", [
    ("cluster-pool", "0", "end_to_end"),
    ("cluster-pool", "1", "per_layer"),
    ("cluster-sharded", "0", "end_to_end"),
    ("cluster-sharded", "1", "per_layer"),
])
def test_result_line_has_the_contract_keys(workload, trace, kind):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench(ROOT, "--trace", trace, workload=workload)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in contract[kind]}
    for metric in contract[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
