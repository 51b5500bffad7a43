"""The benchmark's workloads: fixed sweep grids whose inputs come from
one seed, run through repro's public layer functions only.

A workload is built once by :func:`setup` (the static model objects a
researcher's script builds before its first timed call) and then run
pass after pass by :func:`run_pass`.  Every pass runs the same list of
:class:`Point` entries and returns one simulated output per point;
:func:`check_point` tests each output and :func:`digest` fingerprints
the whole pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from repro import build_system, combined_testbed
from repro.apps.kvstore import RedisYcsbStudy
from repro.cluster import ClusterSim, ClusterTopology, LinkDown, PRESETS
from repro.faults import FaultPlan
from repro.parallel import ParallelRunner
from repro.parallel.sweeps import run_cluster_point
from repro.sim.rng import substream
from repro.workloads import WORKLOADS as YCSB

NAMES = ("kv-ycsb", "cluster-pool", "cluster-resilient", "cluster-sharded")

# kv-ycsb: the paper's §5.1 Redis study (Figs 6 and 7).
KV_KEYS = 200_000
KV_REQUESTS = 6_000
KV_MIXES = ("A", "B")
KV_FRACTIONS = (0.0, 0.5, 1.0)
KV_QPS = (20_000.0, 40_000.0, 55_000.0, 70_000.0)  # 70k is past the knee

# The cluster fleet shared by the three cluster workloads.
HOSTS = 4
KEYS_PER_HOST = 50_000
POOL_REQUESTS = 2_500
POOL_QPS = (60_000.0, 140_000.0, 220_000.0, 300_000.0)
POOL_THETAS = (0.7, 0.99)
POOL_SHARES = (0.25, 0.5)
DEGRADED_QPS = 220_000.0
RESILIENT_REQUESTS = 2_500
RESILIENT_QPS = (100_000.0, 150_000.0, 300_000.0)  # see README
RESILIENT_POLICIES = ("hedged", "guarded", "unbudgeted")
SICK_HOST = 1
SICK_SEVERITIES = (0.1, 0.3)
SICK_STALL_NS = 100_000.0
SHARDED_JOBS = 2

RATE_SLACK = 1e-9
"""Relative float slack on "achieved QPS <= offered QPS"."""


@dataclass(frozen=True)
class Point:
    """One sweep point: what to run and the arguments to check it by."""

    label: str
    kind: str                    # "kv", "max-qps" or "cluster"
    args: tuple


@dataclass
class Workload:
    name: str
    seed: int
    points: list[Point]
    static: dict = field(default_factory=dict)

    @property
    def cpus(self) -> int:
        """Processes that run the simulation at once."""
        return SHARDED_JOBS if self.name == "cluster-sharded" else 1

    @property
    def sim_requests(self) -> int:
        """Simulated requests settled by one pass of the grid."""
        total = 0
        for point in self.points:
            if point.kind == "kv":
                total += point.args[3]
            elif point.kind == "cluster":
                total += point.args[2]["requests"]
        return total


def _cluster_spec(seed: int, qps: float, *, theta: float = 0.99,
                  pool_share: float = 0.5, requests: int = POOL_REQUESTS,
                  **sim_kwargs) -> tuple:
    """A picklable :func:`run_cluster_point` spec for the shared fleet."""
    topo_kwargs = {"num_hosts": HOSTS, "keys_per_host": KEYS_PER_HOST,
                   "pool_share": pool_share}
    run_kwargs = {"qps": qps, "theta": theta, "requests": requests}
    return (topo_kwargs, {"seed": seed, **sim_kwargs}, run_kwargs, None)


def _pool_points(seed: int) -> list[Point]:
    """The policy-free grid: QPS x skew x pool share, plus one degraded
    point with per-host fault noise and a mid-run link-down."""
    points = []
    for theta in POOL_THETAS:
        for share in POOL_SHARES:
            for qps in POOL_QPS:
                points.append(Point(
                    f"pool[qps={qps:g},theta={theta},share={share}]",
                    "cluster", _cluster_spec(seed, qps, theta=theta,
                                             pool_share=share)))
    noise = FaultPlan(stall_rate=0.01, timeout_rate=0.002,
                      poison_rate=0.001, seed=seed + 1)
    points.append(Point(
        f"pool-degraded[qps={DEGRADED_QPS:g}]", "cluster",
        _cluster_spec(seed, DEGRADED_QPS,
                      fault_plans={host: noise for host in range(HOSTS)},
                      link_down=LinkDown(host=SICK_HOST,
                                         at_fraction=0.4))))
    return points


def _resilient_points(seed: int) -> list[Point]:
    """The policied grid: presets x sick-host severity x QPS."""
    points = []
    for name in RESILIENT_POLICIES:
        for severity in SICK_SEVERITIES:
            sick = FaultPlan(stall_rate=severity, stall_ns=SICK_STALL_NS,
                             seed=seed + 2)
            for qps in RESILIENT_QPS:
                points.append(Point(
                    f"resilient[{name},sev={severity},qps={qps:g}]",
                    "cluster", _cluster_spec(
                        seed, qps, requests=RESILIENT_REQUESTS,
                        policy=PRESETS[name],
                        fault_plans={SICK_HOST: sick})))
    return points


def _kv_points() -> list[Point]:
    points = [Point(f"kv[{mix},cxl={fraction},qps={qps:g}]", "kv",
                    (mix, fraction, qps, KV_REQUESTS))
              for mix in KV_MIXES for fraction in KV_FRACTIONS
              for qps in KV_QPS]
    points.append(Point("kv-max-qps", "max-qps",
                        (list(KV_FRACTIONS), list(KV_MIXES))))
    return points


def setup(name: str, seed: int) -> Workload:
    """Build the workload's grid and its static model objects."""
    if name == "kv-ycsb":
        system = build_system(combined_testbed())
        study = RedisYcsbStudy(system, num_keys=KV_KEYS, seed=seed)
        return Workload(name, seed, _kv_points(), {"study": study})
    if name == "cluster-pool":
        points = _pool_points(seed)
    elif name == "cluster-resilient":
        points = _resilient_points(seed)
    elif name == "cluster-sharded":
        # Topologies are rebuilt inside each worker unit.
        return Workload(name, seed, _pool_points(seed))
    else:
        raise ValueError(f"unknown workload {name!r}; "
                         f"expected one of {', '.join(NAMES)}")
    topologies = {}
    for point in points:
        topo_kwargs = point.args[0]
        key = tuple(sorted(topo_kwargs.items()))
        if key not in topologies:
            topologies[key] = ClusterTopology(**topo_kwargs)
    return Workload(name, seed, points, {"topologies": topologies})


def run_point(workload: Workload, point: Point):
    """One point, serially, in this process (not ``cluster-sharded``)."""
    if point.kind == "kv":
        mix, fraction, qps, requests = point.args
        return workload.static["study"].p99_point(
            YCSB[mix], fraction, qps, requests=requests)
    if point.kind == "max-qps":
        fractions, mixes = point.args
        return workload.static["study"].max_qps_table(
            cxl_fractions=fractions, workload_names=mixes)
    topo_kwargs, sim_kwargs, run_kwargs, _ = point.args
    topology = workload.static["topologies"][
        tuple(sorted(topo_kwargs.items()))]
    return ClusterSim(topology, **sim_kwargs).run(**run_kwargs)


def batches(workload: Workload) -> list[list[Point]]:
    """The units a pass is timed in: one point at a time, except that
    ``cluster-sharded`` ships its whole grid in one parallel map."""
    if workload.name == "cluster-sharded":
        return [list(workload.points)]
    return [[point] for point in workload.points]


def run_batch(workload: Workload, batch: list[Point]
              ) -> list[tuple[object, Exception | None]]:
    """Run one batch; ``(output, error)`` per point, in order."""
    if workload.name == "cluster-sharded":
        runner = ParallelRunner(SHARDED_JOBS,
                                names=[p.label for p in batch])
        try:
            pairs = runner.map(run_cluster_point, [p.args for p in batch])
        except Exception as exc:  # one failed unit fails the whole map
            return [(None, exc)] * len(batch)
        return [(result, None) for result, _export in pairs]
    outcomes = []
    for point in batch:
        try:
            outcomes.append((run_point(workload, point), None))
        except Exception as exc:  # a failed point is counted, not fatal
            outcomes.append((None, exc))
    return outcomes


def run_pass(workload: Workload) -> list[tuple[object, Exception | None]]:
    """Every point once, untimed."""
    return [outcome for batch in batches(workload)
            for outcome in run_batch(workload, batch)]


# -- correctness ----------------------------------------------------------

def _realized_qps(stream: str, seed: int, qps: float, requests: int) -> float:
    """Arrival rate of the trace actually drawn for a run: the offered
    rate the run could at most have achieved."""
    gaps = substream(stream, seed).exponential(1e9 / qps, size=requests)
    last_arrival = float(gaps.cumsum()[-1])
    return requests / (last_arrival / 1e9)


def check_point(point: Point, seed: int, output) -> list[str]:
    """Every violated invariant of one point's output (empty = correct)."""
    problems = []
    if point.kind == "max-qps":
        for series in output.values():
            if not all(math.isfinite(y) and y > 0 for y in series.y):
                problems.append(f"{series.name}: max QPS not positive")
        return problems
    if point.kind == "kv":
        qps, requested = point.args[2], point.args[3]
        stream, run_seed = f"arrivals-{seed}", seed
    else:
        _topo, sim_kwargs, run_kwargs, _ = point.args
        qps, requested = run_kwargs["qps"], run_kwargs["requests"]
        stream, run_seed = "cluster/arrivals", sim_kwargs["seed"]
    if output.requests != requested:
        problems.append(f"completed {output.requests}/{requested}")
    if not output.p50_ns <= output.p99_ns:
        problems.append(f"p50 {output.p50_ns} > p99 {output.p99_ns}")
    offered = _realized_qps(stream, run_seed, qps, requested)
    if not output.achieved_qps <= offered * (1 + RATE_SLACK):
        problems.append(f"achieved {output.achieved_qps} > offered "
                        f"{offered}")
    if point.kind == "cluster":
        if output.injected != output.recovered:
            problems.append(f"injected {output.injected} != recovered "
                            f"{output.recovered}")
        stats = output.resilience
        if stats is not None:
            settled = (stats.ok + stats.ok_retried + stats.ok_hedged
                       + stats.deadline_exceeded + stats.rejected)
            if settled != output.requests:
                problems.append(f"outcome buckets sum to {settled}, "
                                f"not {output.requests}")
    return problems


def digest(outputs: list) -> str:
    """A fingerprint of every simulated output of a pass, in order."""
    hasher = hashlib.sha256()
    for output in outputs:
        if isinstance(output, dict):          # the max-QPS table
            body = {name: dataclasses.asdict(series)
                    for name, series in output.items()}
        elif output is None:
            body = None
        else:
            body = dataclasses.asdict(output)
        hasher.update(json.dumps(body, sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]
