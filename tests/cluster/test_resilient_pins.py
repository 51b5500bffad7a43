"""Byte-identity pins for the ``ClusterSim.run`` event lifecycle.

``data/resilient_pins.json`` holds, for a grid of runs, the exact
output the lifecycle produced when the fixture was captured:
every :class:`~repro.cluster.sim.ClusterResult` field (floats by
``repr``), the telemetry registry snapshot (``sim.engine.
events_processed`` included) and digests of the span records, the
trace and the engine's schedule log (callback name and time of every
scheduled event, in sequence-number order).  Any change to an event,
its sequence number, a float operation or an RNG draw of the event
lifecycle shows up here as a named diff.

The grid covers the four policied presets plus one custom policy with
all five knobs set (deadline, retries with a budget, hedging, breaker,
shedding), each with and without a sick host, then a link-down, the
least-loaded router, 2-worker hosts, and spans and tracing on.  The
policy-free cases (``policy=None``) each miss the Lindley gate of
``ClusterSim.run``, so they pin the event lifecycle with no policy;
their schedule log is pinned by event time only, which leaves the
callback names free to change.

Regenerate the fixture only for a deliberate behaviour change::

    PYTHONPATH=src python tests/cluster/test_resilient_pins.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.cluster import ClusterSim, ClusterTopology, LinkDown
from repro.cluster import sim as cluster_sim
from repro.cluster.resilience import PRESETS, ResiliencePolicy
from repro.faults import FaultPlan
from repro.sim import Engine
from repro.telemetry import Registry, Telemetry, Tracer
from repro.telemetry.spans import SpanRecorder

FIXTURE = Path(__file__).parent / "data" / "resilient_pins.json"

REQUESTS = 1_500
QPS = 200_000.0                # near the knee of the fleet below
SICK = FaultPlan(stall_rate=0.2, stall_ns=100_000.0, seed=9)
SICK_HOST = 1
LINK = LinkDown(host=2, at_fraction=0.4)

CUSTOM = ResiliencePolicy(
    deadline_ns=90_000.0, retries=2, backoff_base_ns=3_000.0,
    retry_budget=0.3, hedge_quantile=0.9, breaker_factor=3.0,
    breaker_min_requests=16, breaker_cooldown_ns=200_000.0,
    shed_inflight=12)
POLICIES = {name: PRESETS[name]
            for name in ("deadline", "hedged", "guarded", "unbudgeted")}
POLICIES["custom"] = CUSTOM


@dataclasses.dataclass(frozen=True)
class Case:
    policy: str | None
    sick: bool = False
    link_down: bool = False
    router: str = "hash-shard"
    workers: int = 1
    observed: bool = False         # spans and tracer on

    @property
    def name(self) -> str:
        parts = [self.policy or "none"]
        if self.sick:
            parts.append("sick")
        if self.link_down:
            parts.append("link-down")
        if self.router != "hash-shard":
            parts.append(self.router)
        if self.workers != 1:
            parts.append(f"workers{self.workers}")
        if self.observed:
            parts.append("spans+trace")
        return "/".join(parts)


CASES = [Case(name, sick=sick) for name in POLICIES
         for sick in (False, True)] + [
    Case("hedged", sick=True, link_down=True),
    Case("custom", sick=True, link_down=True),
    Case("hedged", router="least-loaded"),
    Case("custom", sick=True, router="least-loaded"),
    Case("guarded", sick=True, workers=2),
    Case("custom", sick=True, workers=2),
    Case("hedged", sick=True, observed=True),
    Case("unbudgeted", sick=True, observed=True),
    Case("custom", sick=True, link_down=True, router="least-loaded",
         observed=True),
]
FREE_CASES = [
    Case(None, router="least-loaded"),
    Case(None, workers=2),
    Case(None, sick=True, link_down=True, workers=2),
    Case(None, router="least-loaded", observed=True),
]


class RecordingSpans(SpanRecorder):
    """A span recorder that also keeps every raw record, exactly."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list = []

    def record(self, index, start_ns, segments, *, kind="request"):
        self.records.append([index, repr(start_ns), kind,
                             [[name, repr(dur)] for name, dur in segments]])
        super().record(index, start_ns, segments, kind=kind)


def _exact(value):
    """JSON-safe copy with every float spelled by ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def topology(workers: int = 1) -> ClusterTopology:
    return ClusterTopology(4, keys_per_host=50_000, pool_share=0.5,
                           workers=workers)


def observe(case: Case) -> dict:
    """The exact output of one run."""
    topo = topology(case.workers)
    spans = RecordingSpans() if case.observed else None
    tracer = Tracer(process_name="pins") if case.observed else None
    telemetry = Telemetry(registry=Registry(), tracer=tracer, spans=spans)
    sim = ClusterSim(topo, router=case.router, seed=17,
                     policy=POLICIES.get(case.policy),
                     fault_plans={SICK_HOST: SICK} if case.sick else None,
                     link_down=LINK if case.link_down else None,
                     telemetry=telemetry)
    log: list = []

    class LoggedEngine(Engine):
        """Logs every schedule call, in sequence-number order."""

        def schedule(self, delay, callback, *args):
            handle = super().schedule(delay, callback, *args)
            log.append([callback.__name__, repr(handle.time)])
            return handle

    with mock.patch.object(cluster_sim, "Engine", LoggedEngine):
        result = sim.run(QPS, requests=REQUESTS)
    return {
        "result": _exact(dataclasses.asdict(result)),
        "registry": _exact(telemetry.registry.snapshot()),
        "schedule": _digest(log if case.policy is not None
                            else [time for _, time in log]),
        "spans": _digest(spans.records) if spans is not None else None,
        "trace": _digest(tracer.chrome_trace())
        if tracer is not None else None,
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid(pins):
    assert sorted(pins) == sorted(case.name
                                  for case in CASES + FREE_CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_policied_run_is_pinned(case, pins):
    _assert_pinned(case, pins)


@pytest.mark.parametrize("case", FREE_CASES, ids=lambda case: case.name)
def test_policy_free_run_is_pinned(case, pins):
    _assert_pinned(case, pins)


def _assert_pinned(case: Case, pins: dict) -> None:
    observed = observe(case)
    expected = pins[case.name]
    assert observed["result"] == expected["result"]
    assert observed["registry"] == expected["registry"]
    assert observed["schedule"] == expected["schedule"]
    assert observed["spans"] == expected["spans"]
    assert observed["trace"] == expected["trace"]


def test_grid_exercises_every_mechanism(pins):
    """The pins are only as strong as the paths the grid reaches."""
    # Some requests hit the cache and some miss, so both branches of
    # the cache-hit miss factor feed the pinned service times.
    assert 0.0 < topology().cache_hit_prob(0.99) < 1.0
    totals: dict[str, int] = {}
    for entry in pins.values():
        stats = entry["result"]["resilience"]
        if stats is None:
            continue             # a policy-free run
        for field in ("ok_retried", "ok_hedged", "deadline_exceeded",
                      "rejected", "retries_suppressed", "breaker_opens"):
            totals[field] = totals.get(field, 0) + stats[field]
    assert all(count > 0 for count in totals.values()), totals
    assert any(int(entry["result"]["rerouted"]) > 0
               for entry in pins.values())


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {case.name: observe(case) for case in CASES + FREE_CASES},
        indent=1, sort_keys=True) + "\n")
    sys.stdout.write(
        f"wrote {len(CASES) + len(FREE_CASES)} pins to {FIXTURE}\n")
