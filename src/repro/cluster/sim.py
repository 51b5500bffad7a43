"""The cluster simulator: N KV shards, one pool, open-loop clients.

Each host runs the kvstore service-time model (CPU work plus dependent
memory misses, log-normal jitter on both) against the perfmodel read
paths of the shared :class:`~repro.cluster.topology.ClusterTopology`:
a record either lives in the host's local DRAM (~106 ns per miss) or
in its CXL pool slice (device path plus a fabric hop).  Which records
are pool-resident is a *stable* per-key decision — counter-based
(:func:`~repro.sim.rng.decision_uniform`, keyed by owner and key), so
the placement never depends on request order and serial/parallel runs
agree byte for byte.

Fault semantics
---------------
Two fault layers compose:

* a per-host :class:`~repro.faults.FaultPlan` perturbs that host's CXL
  (pool) accesses — stalls, transient timeouts, poisoned reads — with
  the same injected/recovered accounting the ``degraded-cxl``
  experiment pins;
* a :class:`LinkDown` event kills one host's CXL link mid-run.  From
  that instant the downed host can no longer reach its pool slice, so
  pool-resident requests owned by it are *rerouted* to a surviving
  host — possible precisely because the pool is shared fabric memory,
  not host-private DRAM.  Every reroute counts one injected fault and,
  on completion at the survivor, one recovery.  Local-DRAM-resident
  keys stay on the downed host (its DRAM is fine; only the link died).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..apps.kvstore.store import (CACHE_HIT_MISS_FACTOR, CPU_BASE_NS,
                                  CPU_JITTER_SIGMA, EFFECTIVE_MISSES_MEAN,
                                  MISS_JITTER_SIGMA, WRITE_MISS_FACTOR)
from ..errors import ClusterError
from ..faults import FaultPlan
from ..faults.injector import FaultInjector, injector_for
from ..sim import Engine, LatencyRecorder, Server
from ..sim.lindley import lindley, p50_p99
from ..sim.rng import decision_uniform, substream
from ..telemetry import NULL_TELEMETRY, Telemetry
from .resilience import (DEADLINE_WAIT, HEDGE_WAIT, RETRY_BACKOFF,
                         SHED_REJECT, SHED_REJECT_NS, CircuitBreaker,
                         ResiliencePolicy, ResilienceStats, RetryBudget,
                         hedge_delay_ns, parse_policy)
from .routing import HashShardRouter, HostView, Router, make_router
from .topology import ClusterTopology
from .traffic import OpenLoopZipfian

CLUSTER_TRACK = "cluster"
"""Telemetry track prefix; per-host spans land on ``cluster.host<i>``."""

REROUTE_HOP_NS = 1_500.0
"""Balancer redirect to a survivor after a link-down routing failure."""


@dataclass(frozen=True)
class LinkDown:
    """Kill one host's CXL link partway through the run.

    ``at_fraction`` places the failure on the arrival timeline (0.5 =
    midway through the trace), so the event scales with offered load
    instead of being pinned to an absolute nanosecond.
    """

    host: int
    at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise ClusterError(
                f"at_fraction must be in (0, 1): {self.at_fraction}")

    def to_dict(self) -> dict:
        return {"host": self.host, "at_fraction": self.at_fraction}


@dataclass(frozen=True)
class HostResult:
    """One host's view of a cluster run."""

    name: str
    index: int
    requests: int                      # requests this host served
    p50_ns: float                      # sojourn percentiles of those
    p99_ns: float
    injected: int                      # plan faults + link-down hits
    recovered: int                     # absorbed plan faults + reroutes
    absorbed: int                      # reroutes this host served
    pool_fraction: float               # shard bytes living in the pool

    @property
    def fault_free(self) -> bool:
        return self.injected == 0 and self.recovered == 0


@dataclass(frozen=True)
class ClusterResult:
    """Cluster-wide outcome of one (QPS, skew, pool-share) point."""

    qps: float
    theta: float
    pool_share: float
    requests: int                      # completed end-to-end
    achieved_qps: float
    p50_ns: float                      # end-to-end sojourn percentiles
    p99_ns: float
    mean_service_ns: float
    pool_utilization: float
    rerouted: int                      # link-down reroutes, fleet-wide
    link_down_host: int | None
    hosts: tuple[HostResult, ...]
    resilience: ResilienceStats | None = None

    @property
    def injected(self) -> int:
        return sum(host.injected for host in self.hosts)

    @property
    def recovered(self) -> int:
        return sum(host.recovered for host in self.hosts)

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1000.0

    @property
    def successes(self) -> int:
        """Requests that got an answer (everything, minus policy
        failures — a policy-free run succeeds by definition)."""
        if self.resilience is None:
            return self.requests
        return self.resilience.successes

    @property
    def goodput_qps(self) -> float:
        """Achieved throughput scaled to successful answers only."""
        if self.requests == 0:
            return 0.0
        return self.achieved_qps * (self.successes / self.requests)


class ClusterSim:
    """Drives a :class:`ClusterTopology` under open-loop zipfian load."""

    def __init__(self, topology: ClusterTopology, *,
                 router: str | Router = "hash-shard", seed: int = 1,
                 fault_plans: Mapping[int, FaultPlan] | None = None,
                 link_down: LinkDown | None = None,
                 policy: ResiliencePolicy | str | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.topology = topology
        self.router = router if isinstance(router, Router) \
            else make_router(router)
        self.seed = seed
        if isinstance(policy, str):
            policy = parse_policy(policy)
        if policy is not None and not policy.active:
            # The all-zero policy changes nothing; normalizing it to
            # None keeps the policy-free fast path byte-identical.
            policy = None
        self.policy = policy
        self.fault_plans = dict(fault_plans) if fault_plans else {}
        for host in self.fault_plans:
            if not 0 <= host < topology.num_hosts:
                raise ClusterError(
                    f"fault plan for unknown host {host}")
        if link_down is not None \
                and not 0 <= link_down.host < topology.num_hosts:
            raise ClusterError(
                f"link_down host {link_down.host} outside the fleet")
        if link_down is not None and topology.num_hosts < 2:
            raise ClusterError(
                "link_down needs a survivor: add at least one more host")
        self.link_down = link_down
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

    # -- stable per-key placement ------------------------------------------

    def pool_resident(self, key: int) -> bool:
        """Whether ``key``'s record spilled to its owner's pool slice.

        Counter-based draw keyed by ``(owner, key)``: the same key is
        resident in every run with this seed, regardless of request
        order, and raising ``pool_share`` only ever *adds* residents
        (nested fault-set property, same as the fault layer).
        """
        owner = self.topology.shard_of(key)
        fraction = self.topology.hosts[owner].pool_fraction
        if fraction <= 0.0:
            return False
        return decision_uniform(self.seed, "resident", owner, key) \
            < fraction

    def _residency(self, traffic: OpenLoopZipfian) -> dict[int, bool]:
        """:meth:`pool_resident` of every distinct key in the trace.

        The decision is a pure function of the key, so one draw per
        distinct key serves every request for it, in any order.  The
        keyspace check and the per-host pool fractions are done once
        per trace instead of once per key.
        """
        topo = self.topology
        keys = traffic.keys
        outside = (keys < 0) | (keys >= topo.total_keys)
        if outside.any():
            raise ClusterError(
                f"key {int(keys[outside.argmax()])} outside keyspace")
        per_host = topo.keys_per_host
        fractions = [host.pool_fraction for host in topo.hosts]
        seed = self.seed
        residency = {}
        for key in dict.fromkeys(keys.tolist()):
            owner = key // per_host
            fraction = fractions[owner]
            residency[key] = fraction > 0.0 and decision_uniform(
                seed, "resident", owner, key) < fraction
        return residency

    def _injectors(self) -> dict[int, FaultInjector]:
        """One fault injector per host with an active plan."""
        injectors = {}
        for index, plan in self.fault_plans.items():
            injector = injector_for(plan, stream=f"host{index}",
                                    telemetry=self.telemetry)
            if injector is not None:
                injectors[index] = injector
        return injectors

    def _host_results(self, injectors: dict[int, FaultInjector],
                      served: list[int],
                      quantiles: list[tuple[float, float]],
                      link_injected: list[int],
                      link_recovered: list[int],
                      absorbed: list[int]) -> tuple[HostResult, ...]:
        hosts = []
        for index, host in enumerate(self.topology.hosts):
            injector = injectors.get(index)
            inj = (injector.injected if injector else 0) \
                + link_injected[index]
            rec = (injector.recovered if injector else 0) \
                + link_recovered[index]
            p50, p99 = quantiles[index]
            hosts.append(HostResult(
                name=host.name, index=index, requests=served[index],
                p50_ns=p50, p99_ns=p99,
                injected=inj, recovered=rec, absorbed=absorbed[index],
                pool_fraction=host.pool_fraction))
        return tuple(hosts)

    def _publish(self, completed: int, p99_ns: float, achieved: float,
                 hosts: tuple[HostResult, ...]) -> None:
        """The run's ``cluster.*`` registry entries."""
        registry = self.telemetry.registry
        registry.counter("cluster.requests").inc(completed)
        registry.gauge("cluster.p99_sojourn_ns").set(p99_ns)
        registry.gauge("cluster.achieved_qps").set(achieved)
        for result in hosts:
            registry.gauge(
                f"cluster.host{result.index}.p99_ns").set(result.p99_ns)

    # -- the run -----------------------------------------------------------

    def run(self, qps: float, *, theta: float = 0.99,
            requests: int = 8_000,
            write_fraction: float = 0.05) -> ClusterResult:
        if self.policy is not None:
            return self._run_resilient(qps, theta=theta,
                                       requests=requests,
                                       write_fraction=write_fraction)
        if (type(self.router) is HashShardRouter
                and all(host.spec.workers == 1
                        for host in self.topology.hosts)
                and not self.telemetry.tracer.enabled
                and not self.telemetry.spans.enabled):
            # Load-blind routing over capacity-1 FIFO hosts needs no
            # event queue: the Lindley recursion replays the DES
            # float for float (docs/PERFORMANCE.md).
            return self._run_lindley(qps, theta=theta, requests=requests,
                                     write_fraction=write_fraction)
        return self._run_des(qps, theta=theta, requests=requests,
                             write_fraction=write_fraction)

    def _run_lindley(self, qps: float, *, theta: float, requests: int,
                     write_fraction: float) -> ClusterResult:
        """The policy-free run without an event queue.

        Exact for hash-shard routing, one worker per host, tracing and
        spans off (the :meth:`run` gate); ``tests/cluster/
        test_fastpath.py`` pins it equal to :meth:`_run_des`:

        * hash-shard routing reads only link state.  The link-down
          event is scheduled before every arrival, so request ``i``
          finds its owner down iff ``arrival_i >= at_fraction *
          duration_ns``, and with one dead host the probe lands on
          ``(host + 1) % num_hosts``;
        * service times are the DES float operations, column-wise;
          fault draws are keyed by request index, so their call order
          does not matter;
        * :func:`lindley` replays each host's FIFO queue, and the mean
          service sums sequentially in the DES grant order.
        """
        topo = self.topology
        traffic = OpenLoopZipfian(
            qps=qps, num_requests=requests, keyspace=topo.total_keys,
            theta=theta, write_fraction=write_fraction, seed=self.seed)
        residency = self._residency(traffic)
        injectors = self._injectors()
        n = requests
        num_hosts = topo.num_hosts
        arrival = traffic.arrival_ns
        keys = traffic.keys
        resident = np.fromiter(map(residency.__getitem__, keys.tolist()),
                               dtype=bool, count=n)
        owner = keys // topo.keys_per_host
        target = owner.copy()
        reroute = np.zeros(n, dtype=bool)
        down = self.link_down
        if down is not None:
            reroute = resident & (owner == down.host) \
                & (arrival >= down.at_fraction * traffic.duration_ns)
            target[reroute] = (down.host + 1) % num_hosts

        cpu = CPU_BASE_NS * substream("cluster/cpu", self.seed).lognormal(
            0.0, CPU_JITTER_SIGMA, size=n)
        misses = EFFECTIVE_MISSES_MEAN * substream(
            "cluster/miss", self.seed).lognormal(
                0.0, MISS_JITTER_SIGMA, size=n)
        misses = np.where(traffic.writes, misses * WRITE_MISS_FACTOR,
                          misses)
        cache_u = substream("cluster/cache", self.seed).random(n)
        misses = np.where(cache_u < topo.cache_hit_prob(theta),
                          misses * CACHE_HIT_MISS_FACTOR, misses)
        pool_ns = np.array([topo.pool_read_ns(host)
                            for host in range(num_hosts)])
        mem = misses * np.where(resident, pool_ns[owner],
                                topo.dram_read_ns())
        extra = np.where(reroute, REROUTE_HOP_NS, 0.0)
        for host, injector in injectors.items():
            for index in np.flatnonzero(resident & (target == host)).tolist():
                parts, pending = injector.request_extras(
                    index, reread_ns=float(mem[index]))
                total = float(extra[index])
                for _, part_ns in parts:
                    total += part_ns
                extra[index] = total
                for _ in range(pending):
                    injector.recovery()
        service = cpu + mem + extra

        finish, order = lindley(arrival, service, target, num_hosts)
        service_total = 0.0
        for value in service[order].tolist():
            service_total += value       # sequential, like the DES
        sojourn = finish - arrival
        last = float(finish.max())

        rerouted = int(reroute.sum())
        link_injected = [0] * num_hosts
        link_recovered = [0] * num_hosts
        absorbed = [0] * num_hosts
        if down is not None:
            link_injected[down.host] = link_recovered[down.host] = rerouted
            absorbed[(down.host + 1) % num_hosts] = rerouted
        served = np.bincount(target, minlength=num_hosts).tolist()
        hosts = self._host_results(
            injectors, served,
            [p50_p99(sojourn[target == host]) for host in range(num_hosts)],
            link_injected, link_recovered, absorbed)

        # Registry parity with the DES: the engine's end-of-run gauges
        # (an arrival and a finish event per request, plus the link
        # kill; the clock left at the last completion), then cluster.*.
        registry = self.telemetry.registry
        registry.gauge("sim.engine.events_processed").set(
            2 * n + (down is not None))
        registry.gauge("sim.engine.now_ns").set(last)
        p50, p99 = p50_p99(sojourn)
        achieved = n / (last / 1e9)
        self._publish(n, p99, achieved, hosts)

        return ClusterResult(
            qps=qps, theta=theta, pool_share=topo.pool_share,
            requests=n, achieved_qps=achieved, p50_ns=p50, p99_ns=p99,
            mean_service_ns=service_total / n,
            pool_utilization=topo.pool_utilization(),
            rerouted=rerouted,
            link_down_host=down.host if down is not None else None,
            hosts=hosts)

    def _run_des(self, qps: float, *, theta: float, requests: int,
                 write_fraction: float) -> ClusterResult:
        """The policy-free request lifecycle on the event engine."""
        topo = self.topology
        traffic = OpenLoopZipfian(
            qps=qps, num_requests=requests, keyspace=topo.total_keys,
            theta=theta, write_fraction=write_fraction, seed=self.seed)
        residency = self._residency(traffic)
        engine = Engine(telemetry=self.telemetry)
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        spans = self.telemetry.spans
        spanned = spans.enabled

        servers = [Server(host.spec.workers, name=host.name)
                   for host in topo.hosts]
        host_sojourn = [LatencyRecorder(f"{host.name}-sojourn")
                        for host in topo.hosts]
        cluster_sojourn = LatencyRecorder("cluster-sojourn")
        injectors = self._injectors()

        dram_ns = topo.dram_read_ns()
        # Per-owner pool path: with one CXL device every entry is the
        # same number (the classic shared path); a heterogeneous pool
        # gives each shard the latency of the device holding its slice.
        pool_ns_by_host = [topo.pool_read_ns(host)
                           for host in range(topo.num_hosts)]
        hit_prob = topo.cache_hit_prob(theta)

        # Per-miss span decomposition of the two read paths; only built
        # (and only consulted) when span recording is on.
        if spanned:
            dram_parts = topo.dram_components()
            pool_parts_by_host = [topo.pool_components(host)
                                  for host in range(topo.num_hosts)]

        # Per-request randomness, pre-drawn and indexed by request so
        # no simulation path can perturb another request's draws.
        n = requests
        cpu_jitter = substream("cluster/cpu", self.seed).lognormal(
            0.0, CPU_JITTER_SIGMA, size=n)
        miss_jitter = substream("cluster/miss", self.seed).lognormal(
            0.0, MISS_JITTER_SIGMA, size=n)
        cache_u = substream("cluster/cache", self.seed).random(n)

        link_up = [True] * topo.num_hosts
        link_injected = [0] * topo.num_hosts
        link_recovered = [0] * topo.num_hosts
        absorbed = [0] * topo.num_hosts
        served = [0] * topo.num_hosts
        rerouted = [0]
        completed = [0]
        service_total = [0.0]
        last_completion = [0.0]

        def submit(index: int, arrival: float, key: int,
                   is_write: bool) -> None:
            owner = topo.shard_of(key)
            resident = residency[key]
            penalty = 0.0
            rerouted_from: int | None = None
            if resident:
                views = [HostView(i, up=link_up[i],
                                  in_flight=servers[i].busy
                                  + servers[i].queue_depth)
                         for i in range(topo.num_hosts)]
                target = self.router.route(key, owner, views)
                if not link_up[owner]:
                    # The owner's link is down; reaching the shared
                    # pool slice from a survivor costs one redirect.
                    link_injected[owner] += 1
                    rerouted[0] += 1
                    rerouted_from = owner
                    penalty = REROUTE_HOP_NS
            else:
                target = owner       # local DRAM keys never move

            def start() -> None:
                cpu = CPU_BASE_NS * float(cpu_jitter[index])
                misses = EFFECTIVE_MISSES_MEAN * float(miss_jitter[index])
                if is_write:
                    misses *= WRITE_MISS_FACTOR
                if float(cache_u[index]) < hit_prob:
                    misses *= CACHE_HIT_MISS_FACTOR
                miss_ns = pool_ns_by_host[owner] if resident \
                    else dram_ns
                extra = penalty
                fault_parts: tuple = ()
                pending_recoveries = 0
                injector = injectors.get(target) if resident else None
                if injector is not None:
                    fault_parts, pending_recoveries = \
                        injector.request_extras(index,
                                                reread_ns=misses * miss_ns)
                    for _, part_ns in fault_parts:
                        extra += part_ns
                service = cpu + misses * miss_ns + extra
                service_total[0] += service

                def finish() -> None:
                    servers[target].release()
                    sojourn = engine.now - arrival
                    cluster_sojourn.record(sojourn)
                    host_sojourn[target].record(sojourn)
                    served[target] += 1
                    completed[0] += 1
                    last_completion[0] = engine.now
                    for _ in range(pending_recoveries):
                        injector.recovery()
                    if rerouted_from is not None:
                        link_recovered[rerouted_from] += 1
                        absorbed[target] += 1
                    if traced:
                        tracer.complete(
                            f"{CLUSTER_TRACK}.host{target}",
                            "put" if is_write else "get",
                            arrival, sojourn, request=index)

                if not spanned:
                    engine.schedule(service, finish)
                    return

                # Spanned path only: the segment builder binds start()'s
                # locals as defaults so the spans-off closure above keeps
                # its exact shape (no extra cells on the hot path).
                def finish_spanned(cpu=cpu, misses=misses,
                                   mem_total=misses * miss_ns,
                                   grant=engine.now,
                                   parts=pool_parts_by_host[owner]
                                   if resident else dram_parts,
                                   fault_parts=fault_parts) -> None:
                    finish()
                    # Ordered waterfall; the memory components use a
                    # residual on the last entry so their sum closes
                    # exactly on misses * miss_ns.
                    segments = [("client.wait", grant - arrival)]
                    if rerouted_from is not None:
                        segments.append(("route.reroute", penalty))
                    segments.append(("shard.cpu", cpu))
                    accounted = 0.0
                    last = len(parts) - 1
                    for pos, (part, per_miss) in enumerate(parts):
                        if pos == last:
                            dur = mem_total - accounted
                        else:
                            dur = misses * per_miss
                            accounted += dur
                        segments.append((part, dur))
                    segments.extend(fault_parts)
                    spans.record(index, arrival, segments,
                                 kind="put" if is_write else "get")

                engine.schedule(service, finish_spanned)

            servers[target].acquire(start)

        if self.link_down is not None:
            down = self.link_down

            def kill_link() -> None:
                link_up[down.host] = False

            engine.schedule_at(down.at_fraction * traffic.duration_ns,
                               kill_link)

        for req in traffic.requests():
            engine.schedule_at(req.arrival_ns, submit, req.index,
                               req.arrival_ns, req.key, req.is_write)
        engine.run()

        if completed[0] != requests:
            raise ClusterError(
                f"only {completed[0]}/{requests} requests completed")

        hosts = self._host_results(
            injectors, served,
            [(recorder.p50(), recorder.p99()) if len(recorder)
             else (0.0, 0.0) for recorder in host_sojourn],
            link_injected, link_recovered, absorbed)

        achieved = completed[0] / (last_completion[0] / 1e9)
        self._publish(completed[0], cluster_sojourn.p99(), achieved, hosts)

        return ClusterResult(
            qps=qps, theta=theta, pool_share=topo.pool_share,
            requests=completed[0], achieved_qps=achieved,
            p50_ns=cluster_sojourn.p50(), p99_ns=cluster_sojourn.p99(),
            mean_service_ns=service_total[0] / completed[0],
            pool_utilization=topo.pool_utilization(),
            rerouted=rerouted[0],
            link_down_host=self.link_down.host
            if self.link_down is not None else None,
            hosts=hosts)

    # -- the resilient run -------------------------------------------------

    def _run_resilient(self, qps: float, *, theta: float,
                       requests: int,
                       write_fraction: float) -> ClusterResult:
        """The policied request lifecycle (docs/CLUSTER.md).

        Each *request* settles exactly once — into one of the outcome
        buckets of :class:`~repro.cluster.resilience.ResilienceStats` —
        but may spawn several *attempts* (retries after a deadline
        expiry, one hedged secondary).  The asymmetry that produces
        retry storms is deliberate: a client abandoning an attempt at
        its deadline cannot reach into the server's queue, so the
        abandoned attempt still consumes a full service slot when
        granted (wasted work); only a *successful* settle actively
        cancels still-queued sibling attempts (first-wins hedging),
        because success is the one outcome the client can signal.
        """
        policy = self.policy
        assert policy is not None
        topo = self.topology
        traffic = OpenLoopZipfian(
            qps=qps, num_requests=requests, keyspace=topo.total_keys,
            theta=theta, write_fraction=write_fraction, seed=self.seed)
        residency = self._residency(traffic)
        engine = Engine(telemetry=self.telemetry)
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        spans = self.telemetry.spans
        spanned = spans.enabled

        servers = [Server(host.spec.workers, name=host.name)
                   for host in topo.hosts]
        host_sojourn = [LatencyRecorder(f"{host.name}-sojourn")
                        for host in topo.hosts]
        cluster_sojourn = LatencyRecorder("cluster-sojourn")
        injectors = self._injectors()

        dram_ns = topo.dram_read_ns()
        pool_ns_by_host = [topo.pool_read_ns(host)
                           for host in range(topo.num_hosts)]
        hit_prob = topo.cache_hit_prob(theta)
        if spanned:
            dram_parts = topo.dram_components()
            pool_parts_by_host = [topo.pool_components(host)
                                  for host in range(topo.num_hosts)]

        n = requests
        cpu_jitter = substream("cluster/cpu", self.seed).lognormal(
            0.0, CPU_JITTER_SIGMA, size=n)
        miss_jitter = substream("cluster/miss", self.seed).lognormal(
            0.0, MISS_JITTER_SIGMA, size=n)
        cache_u = substream("cluster/cache", self.seed).random(n)

        link_up = [True] * topo.num_hosts
        link_injected = [0] * topo.num_hosts
        link_recovered = [0] * topo.num_hosts
        absorbed = [0] * topo.num_hosts
        served = [0] * topo.num_hosts
        rerouted = [0]
        completed = [0]
        service_total = [0.0]
        last_completion = [0.0]

        budget = RetryBudget(policy.retry_budget)
        breaker: CircuitBreaker | None = None
        if policy.breaking:
            # Reference latency: the unloaded mean service of the
            # slowest healthy read path — a host whose EWMA sojourn
            # sits at several multiples of this is sick, not busy.
            breaker = CircuitBreaker(
                policy, topo.num_hosts,
                reference_ns=CPU_BASE_NS
                + EFFECTIVE_MISSES_MEAN * max(pool_ns_by_host))
        hedge_wait = 0.0
        if policy.hedging and topo.num_hosts >= 2:
            hedge_wait = hedge_delay_ns(
                self.seed, policy.hedge_quantile,
                miss_ns=max(pool_ns_by_host))
        deadline = policy.deadline_ns
        counts = {"ok": 0, "ok_retried": 0, "ok_hedged": 0,
                  "deadline_exceeded": 0, "rejected": 0,
                  "hedges": 0, "hedge_wins": 0}
        wasted = [0.0]

        def routable(exclude: frozenset) -> list[HostView]:
            views = [HostView(i, up=link_up[i],
                              in_flight=servers[i].busy
                              + servers[i].queue_depth)
                     for i in range(topo.num_hosts)]
            if breaker is not None:
                views = breaker.filter_views(views, engine.now)
            if exclude:
                masked = [HostView(view.index,
                                   up=view.up
                                   and view.index not in exclude,
                                   in_flight=view.in_flight)
                          for view in views]
                # Prefer an untried host, but a retry with nowhere new
                # to go re-queues at a tried one rather than failing.
                if any(view.up for view in masked):
                    return masked
            return views

        def settle_failure(state: dict, index: int, arrival: float,
                           outcome: str, segments: list,
                           is_write: bool) -> None:
            if state["settled"]:
                return           # a racing hedge won during the window
            state["settled"] = True
            counts[outcome] += 1
            completed[0] += 1
            last_completion[0] = engine.now
            if outcome == "deadline_exceeded":
                # The client *waited* this long for nothing: failures
                # belong in the sojourn tail.  Rejections don't — the
                # balancer turned them around in SHED_REJECT_NS.
                cluster_sojourn.record(engine.now - arrival)
            if spanned:
                spans.record(index, arrival, segments,
                             kind="put" if is_write else "get")

        def launch(state: dict, index: int, arrival: float, key: int,
                   is_write: bool, owner: int, resident: bool,
                   attempt: int, prefix: tuple, issue: float,
                   hedge: bool, exclude: frozenset) -> None:
            if resident:
                target = self.router.route(key, owner,
                                           routable(exclude))
                reroute = not link_up[owner]
            else:
                target = owner       # local DRAM keys never move
                reroute = False

            if policy.shedding and servers[target].busy \
                    + servers[target].queue_depth \
                    >= policy.shed_inflight:
                if hedge:
                    return           # the primary attempt carries on
                segments = list(prefix)
                segments.append((SHED_REJECT, SHED_REJECT_NS))
                engine.schedule(SHED_REJECT_NS, settle_failure, state,
                                index, arrival, "rejected", segments,
                                is_write)
                return
            if attempt == 0 and not hedge:
                budget.note_admitted()
            state["outstanding"] += 1
            state["tried"].add(target)
            if hedge:
                counts["hedges"] += 1
            done = [False]
            abandoned = [False]
            timer = None

            def on_deadline() -> None:
                if state["settled"] or done[0]:
                    return
                abandoned[0] = True
                state["outstanding"] -= 1
                if not hedge and state["chain"] < policy.retries \
                        and budget.allow():
                    state["chain"] += 1
                    chain = state["chain"]
                    # Exponential backoff with full deterministic
                    # jitter in [0.5, 1.5) of the doubled base.
                    backoff = policy.backoff_base_ns \
                        * (2.0 ** (chain - 1)) \
                        * (0.5 + decision_uniform(
                            self.seed, "resil-backoff", index, chain))
                    new_prefix = prefix + ((DEADLINE_WAIT, deadline),
                                           (RETRY_BACKOFF, backoff))
                    state["pending_retry"] = True

                    def relaunch() -> None:
                        state["pending_retry"] = False
                        if state["settled"]:
                            return
                        launch(state, index, arrival, key, is_write,
                               owner, resident, chain, new_prefix,
                               engine.now, False,
                               frozenset(state["tried"]))

                    engine.schedule(backoff, relaunch)
                    return
                if state["outstanding"] == 0 \
                        and not state["pending_retry"]:
                    segments = list(prefix)
                    segments.append((DEADLINE_WAIT, deadline))
                    settle_failure(state, index, arrival,
                                   "deadline_exceeded", segments,
                                   is_write)

            if deadline > 0.0:
                timer = engine.schedule_at(issue + deadline,
                                           on_deadline)

            def start() -> None:
                if state["won"]:
                    # First-wins cancel: the client already has its
                    # answer, so this still-queued attempt vacates the
                    # slot with zero service.  The release is scheduled
                    # rather than called so a long chain of cancelled
                    # waiters cannot recurse through the grant path.
                    done[0] = True
                    if timer is not None:
                        engine.cancel(timer)
                    if not abandoned[0]:
                        state["outstanding"] -= 1
                    engine.schedule(0.0, servers[target].release)
                    return
                cpu = CPU_BASE_NS * float(cpu_jitter[index])
                misses = EFFECTIVE_MISSES_MEAN * float(miss_jitter[index])
                if is_write:
                    misses *= WRITE_MISS_FACTOR
                if float(cache_u[index]) < hit_prob:
                    misses *= CACHE_HIT_MISS_FACTOR
                miss_ns = pool_ns_by_host[owner] if resident \
                    else dram_ns
                extra = REROUTE_HOP_NS if reroute else 0.0
                fault_parts: tuple = ()
                pending_recoveries = 0
                injector = injectors.get(target) if resident else None
                if injector is not None:
                    # Every attempt draws its own faults: a retry hits
                    # fresh device weather, not a replay of the first
                    # attempt's.  Attempt 0 keeps the base-path key so
                    # fault accounting stays comparable across modes.
                    if hedge:
                        fault_key = (index, "h", attempt)
                    elif attempt:
                        fault_key = (index, "a", attempt)
                    else:
                        fault_key = (index,)
                    fault_parts, pending_recoveries = \
                        injector.request_extras(
                            *fault_key, reread_ns=misses * miss_ns)
                    for _, part_ns in fault_parts:
                        extra += part_ns
                service = cpu + misses * miss_ns + extra
                service_total[0] += service
                grant = engine.now

                def finish() -> None:
                    servers[target].release()
                    done[0] = True
                    if timer is not None:
                        engine.cancel(timer)
                    for _ in range(pending_recoveries):
                        injector.recovery()
                    if reroute:
                        # All reroute accounting lands at termination
                        # so abandoned attempts still balance
                        # injected == recovered.
                        link_injected[owner] += 1
                        link_recovered[owner] += 1
                        rerouted[0] += 1
                        absorbed[target] += 1
                    if breaker is not None:
                        breaker.observe(target, engine.now - issue,
                                        engine.now)
                    if state["settled"] or abandoned[0]:
                        # A losing attempt: the server did the work,
                        # nobody was listening.
                        wasted[0] += service
                        if not abandoned[0]:
                            state["outstanding"] -= 1
                        return
                    state["settled"] = True
                    state["won"] = True
                    state["outstanding"] -= 1
                    sojourn = engine.now - arrival
                    cluster_sojourn.record(sojourn)
                    host_sojourn[target].record(sojourn)
                    served[target] += 1
                    completed[0] += 1
                    last_completion[0] = engine.now
                    if hedge:
                        counts["ok_hedged"] += 1
                        counts["hedge_wins"] += 1
                    elif attempt:
                        counts["ok_retried"] += 1
                    else:
                        counts["ok"] += 1
                    if traced:
                        tracer.complete(
                            f"{CLUSTER_TRACK}.host{target}",
                            "put" if is_write else "get",
                            arrival, sojourn, request=index)
                    if not spanned:
                        return
                    segments = list(prefix)
                    segments.append(("client.wait", grant - issue))
                    if reroute:
                        segments.append(("route.reroute",
                                         REROUTE_HOP_NS))
                    segments.append(("shard.cpu", cpu))
                    mem_total = misses * miss_ns
                    parts = pool_parts_by_host[owner] if resident \
                        else dram_parts
                    accounted = 0.0
                    last = len(parts) - 1
                    for pos, (part, per_miss) in enumerate(parts):
                        if pos == last:
                            dur = mem_total - accounted
                        else:
                            dur = misses * per_miss
                            accounted += dur
                        segments.append((part, dur))
                    segments.extend(fault_parts)
                    spans.record(index, arrival, segments,
                                 kind="put" if is_write else "get")

                engine.schedule(service, finish)

            servers[target].acquire(start)

            if not hedge and attempt == 0 and hedge_wait > 0.0 \
                    and resident:
                def maybe_hedge() -> None:
                    if state["settled"] or done[0]:
                        return
                    views = routable(frozenset((target,)))
                    if not any(view.up and view.index != target
                               for view in views):
                        return       # nowhere distinct to hedge to
                    launch(state, index, arrival, key, is_write,
                           owner, resident, 0,
                           prefix + ((HEDGE_WAIT, hedge_wait),),
                           engine.now, True, frozenset((target,)))

                engine.schedule(hedge_wait, maybe_hedge)

        def submit(index: int, arrival: float, key: int,
                   is_write: bool) -> None:
            owner = topo.shard_of(key)
            resident = residency[key]
            state = {"settled": False, "won": False, "outstanding": 0,
                     "tried": set(), "chain": 0,
                     "pending_retry": False}
            launch(state, index, arrival, key, is_write, owner,
                   resident, 0, (), arrival, False, frozenset())

        if self.link_down is not None:
            down = self.link_down

            def kill_link() -> None:
                link_up[down.host] = False

            engine.schedule_at(down.at_fraction * traffic.duration_ns,
                               kill_link)

        for req in traffic.requests():
            engine.schedule_at(req.arrival_ns, submit, req.index,
                               req.arrival_ns, req.key, req.is_write)
        engine.run()

        if completed[0] != requests:
            raise ClusterError(
                f"only {completed[0]}/{requests} requests settled")

        hosts = self._host_results(
            injectors, served,
            [(recorder.p50(), recorder.p99()) if len(recorder)
             else (0.0, 0.0) for recorder in host_sojourn],
            link_injected, link_recovered, absorbed)

        stats = ResilienceStats(
            ok=counts["ok"], ok_retried=counts["ok_retried"],
            ok_hedged=counts["ok_hedged"],
            deadline_exceeded=counts["deadline_exceeded"],
            rejected=counts["rejected"],
            retries_issued=budget.issued,
            retries_suppressed=budget.suppressed,
            hedges_launched=counts["hedges"],
            hedge_wins=counts["hedge_wins"],
            breaker_opens=breaker.opens if breaker is not None else 0,
            wasted_ns=wasted[0])

        achieved = completed[0] / (last_completion[0] / 1e9)
        self._publish(completed[0], cluster_sojourn.p99()
                      if len(cluster_sojourn) else 0.0, achieved, hosts)
        self.telemetry.registry.gauge("cluster.goodput_qps").set(
            achieved * (stats.successes / completed[0]))

        return ClusterResult(
            qps=qps, theta=theta, pool_share=topo.pool_share,
            requests=completed[0], achieved_qps=achieved,
            p50_ns=cluster_sojourn.p50()
            if len(cluster_sojourn) else 0.0,
            p99_ns=cluster_sojourn.p99()
            if len(cluster_sojourn) else 0.0,
            mean_service_ns=service_total[0] / completed[0],
            pool_utilization=topo.pool_utilization(),
            rerouted=rerouted[0],
            link_down_host=self.link_down.host
            if self.link_down is not None else None,
            hosts=hosts, resilience=stats)
