"""The policy-free ClusterSim Lindley fast path must replay the DES exactly.

``ClusterSim.run`` skips the event engine when routing is exactly
hash-shard, every host has one worker and tracing and spans are off;
``ClusterSim._run_des`` is the event-driven reference.  Every
ClusterResult field (exact floats) and every registry entry the run
leaves behind must be equal between the two, because experiment
payloads are cached content-addressed and compared byte for byte.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSim, ClusterTopology, LinkDown
from repro.cluster.resilience import ResiliencePolicy
from repro.cluster.routing import HashShardRouter
from repro.sim.lindley import grant_order, lindley
from repro.cluster.traffic import OpenLoopZipfian
from repro.config import hetero_pooled_testbed
from repro.errors import ClusterError
from repro.faults import FaultPlan
from repro.sim import Engine, Server
from repro.telemetry import Telemetry
from repro.telemetry.spans import SpanRecorder

PLAN = FaultPlan(stall_rate=0.02, timeout_rate=0.005, poison_rate=0.002,
                 seed=13)
REQUESTS = 2_000
UNDER_QPS = 120_000.0          # three hosts saturate near 270k QPS
PAST_QPS = 400_000.0


def topology(pool_share=0.5, num_hosts=3, **kwargs):
    return ClusterTopology(num_hosts, keys_per_host=10_000,
                           pool_share=pool_share, **kwargs)


def both(topo, qps, *, theta=0.99, **kwargs):
    """(fast run, DES run, fast registry, DES registry) of one point."""
    fast_tel, des_tel = Telemetry.metrics_only(), Telemetry.metrics_only()
    fast = ClusterSim(topo, telemetry=fast_tel, **kwargs).run(
        qps, theta=theta, requests=REQUESTS)
    des = ClusterSim(topo, telemetry=des_tel, **kwargs)._run_des(
        qps, theta=theta, requests=REQUESTS, write_fraction=0.05)
    return fast, des, fast_tel.registry.snapshot(), \
        des_tel.registry.snapshot()


def sim_traffic(sim, qps):
    """The trace ``sim.run(qps, requests=REQUESTS)`` replays."""
    return OpenLoopZipfian(qps=qps, num_requests=REQUESTS,
                           keyspace=sim.topology.total_keys, theta=0.99,
                           write_fraction=0.05, seed=sim.seed)


@pytest.fixture
def engine_runs(monkeypatch):
    """How many times the run under test entered ``Engine.run``."""
    calls = []
    original = Engine.run

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", counting)
    return calls


class TestEquivalence:
    @pytest.mark.parametrize("theta", [0.7, 0.99])
    @pytest.mark.parametrize("share", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("qps", [UNDER_QPS, PAST_QPS])
    def test_fastpath_equals_des_exactly(self, theta, share, qps):
        fast, des, fast_reg, des_reg = both(topology(share), qps,
                                            theta=theta, seed=5)
        assert fast == des
        assert fast_reg == des_reg

    @pytest.mark.parametrize("qps", [UNDER_QPS, PAST_QPS])
    def test_fault_noise_per_host(self, qps):
        fast, des, fast_reg, des_reg = both(
            topology(0.5), qps, seed=9,
            fault_plans={0: PLAN, 2: PLAN.scaled(4.0)})
        assert fast.injected > 0 and fast.injected == fast.recovered
        assert fast == des
        assert fast_reg == des_reg
        assert any(name.startswith("faults.") for name in fast_reg)

    @pytest.mark.parametrize("host", [0, 2])
    @pytest.mark.parametrize("at", [0.1, 0.5, 0.9])
    def test_link_down(self, host, at):
        fast, des, fast_reg, des_reg = both(
            topology(0.5), PAST_QPS, seed=3,
            link_down=LinkDown(host, at_fraction=at),
            fault_plans={1: PLAN})
        assert fast.rerouted > 0
        assert fast.hosts[(host + 1) % 3].absorbed == fast.rerouted
        assert fast == des
        assert fast_reg == des_reg
        assert fast_reg["sim.engine.events_processed"]["value"] \
            == 2 * REQUESTS + 1

    def test_hetero_pool_multi_device(self):
        topo = topology(0.5, num_hosts=4,
                        testbed=hetero_pooled_testbed(2))
        assert topo.pool_read_ns(0) != topo.pool_read_ns(1)
        fast, des, fast_reg, des_reg = both(
            topo, UNDER_QPS, seed=11, fault_plans={3: PLAN},
            link_down=LinkDown(1, at_fraction=0.4))
        assert fast == des
        assert fast_reg == des_reg

    def test_link_down_at_an_arrival_instant_reroutes_it(self):
        topo = topology(1.0)          # every key is pool-resident
        sim = ClusterSim(topo, seed=21)
        traffic = sim_traffic(sim, PAST_QPS)
        arrival = traffic.arrival_ns
        duration = traffic.duration_ns
        # An arrival the link kill lands on exactly, float for float.
        for k in range(REQUESTS // 2, REQUESTS - 1):
            if (float(arrival[k]) / duration) * duration \
                    == float(arrival[k]) \
                    and arrival[k - 1] < arrival[k] < arrival[k + 1]:
                break
        else:
            pytest.fail("no arrival round-trips through at_fraction")
        owner = topo.shard_of(int(traffic.keys[k]))
        down = LinkDown(owner, at_fraction=float(arrival[k]) / duration)
        fast, des, _, _ = both(topo, PAST_QPS, seed=21, link_down=down)
        owned = traffic.keys // topo.keys_per_host == owner
        after = int((owned & (arrival > arrival[k])).sum())
        assert fast.rerouted == after + 1      # request k itself
        assert fast == des


class TestGate:
    def test_fast_path_skips_the_engine(self, engine_runs):
        ClusterSim(topology(), seed=2, fault_plans={0: PLAN},
                   link_down=LinkDown(1)).run(UNDER_QPS, requests=500)
        assert engine_runs == []

    @pytest.mark.parametrize("build", [
        lambda: ClusterSim(topology(), router="least-loaded"),
        lambda: ClusterSim(topology(workers=2)),
        lambda: ClusterSim(topology(), telemetry=Telemetry.on()),
        lambda: ClusterSim(topology(),
                           telemetry=Telemetry(spans=SpanRecorder())),
        lambda: ClusterSim(topology(),
                           policy=ResiliencePolicy(retries=1,
                                                   deadline_ns=50_000.0)),
    ], ids=["least-loaded", "workers=2", "tracer", "spans", "policy"])
    def test_everything_else_takes_the_des(self, build, engine_runs):
        build().run(UNDER_QPS, requests=500)
        assert engine_runs == [1]

    def test_router_subclass_takes_the_des(self, engine_runs):
        class Custom(HashShardRouter):
            pass

        ClusterSim(topology(), router=Custom()).run(UNDER_QPS,
                                                    requests=500)
        assert engine_runs == [1]


def des_replay(arrival, service, station, stations, scheduler):
    """Finish times and grant order from an Engine + Server replay."""
    engine = Engine(scheduler=scheduler)
    servers = [Server(1) for _ in range(stations)]
    finish = [None] * len(arrival)
    granted = []

    def submit(index):
        def start():
            granted.append(index)

            def done():
                servers[station[index]].release()
                finish[index] = engine.now

            engine.schedule(service[index], done)

        servers[station[index]].acquire(start)

    for index, at in enumerate(arrival):
        engine.schedule_at(at, submit, index)
    engine.run()
    return finish, granted


class TestTiesAgainstTheEngine:
    # r0/r1 finish together at 10 on stations 0/1, each handing its slot
    # to a queued waiter (r3, r2: the lower index goes second); r4
    # arrives idle at that same instant on station 2 and is granted
    # first.  r3 and r2 finish together at 15: r3's slot goes to the
    # queued r5, then r2's to r6, which arrived exactly at 15 and so
    # was queued too (an idle-arrival grant would have gone first).
    ARRIVAL = [0.0, 1.0, 3.0, 4.0, 10.0, 14.0, 15.0]
    STATION = [0, 1, 1, 0, 2, 0, 1]
    SERVICE = [10.0, 9.0, 5.0, 5.0, 7.0, 2.0, 3.0]

    @pytest.mark.parametrize("scheduler", ["calendar", "heap"])
    def test_forced_ties(self, scheduler):
        finish, granted = des_replay(self.ARRIVAL, self.SERVICE,
                                     self.STATION, 3, scheduler)
        assert granted == [0, 1, 4, 3, 2, 5, 6]
        fast_finish, order = lindley(np.array(self.ARRIVAL),
                                     np.array(self.SERVICE),
                                     np.array(self.STATION), 3)
        assert fast_finish.tolist() == finish
        assert order.tolist() == granted

    @pytest.mark.parametrize("seed", range(6))
    def test_random_integer_times(self, seed):
        rng = np.random.default_rng(seed)
        n, stations = 300, 3
        arrival = np.cumsum(rng.integers(0, 3, size=n)).astype(float)
        service = rng.integers(1, 8, size=n).astype(float)
        station = rng.integers(0, stations, size=n)
        finish, granted = des_replay(arrival.tolist(), service.tolist(),
                                     station.tolist(), stations,
                                     "calendar")
        fast_finish, order = lindley(arrival, service, station, stations)
        assert fast_finish.tolist() == finish
        assert order.tolist() == granted

    def test_grant_order_without_ties_is_a_time_sort(self):
        grant = np.array([5.0, 1.0, 3.0])
        order = grant_order(grant, np.array([False, False, True]),
                            np.array([-1, -1, 1]))
        assert order.tolist() == [1, 2, 0]


class TestResidency:
    @pytest.mark.parametrize("share", [0.0, 0.25, 1.0])
    def test_matches_the_scalar_reference(self, share):
        sim = ClusterSim(topology(share), seed=17)
        traffic = sim_traffic(sim, UNDER_QPS)
        expected = {key: sim.pool_resident(key)
                    for key in dict.fromkeys(traffic.keys.tolist())}
        assert sim._residency(traffic) == expected

    def test_key_outside_the_keyspace_is_named(self):
        sim = ClusterSim(topology(), seed=17)
        traffic = sim_traffic(sim, UNDER_QPS)
        bad = sim.topology.total_keys + 5
        traffic.keys = traffic.keys.copy()
        traffic.keys[7] = bad
        traffic.keys[9] = -3
        with pytest.raises(ClusterError, match=f"key {bad} outside"):
            sim._residency(traffic)
