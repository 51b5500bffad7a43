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
from typing import Collection, Mapping

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
                         SHED_REJECT, SHED_REJECT_NS, ZERO_POLICY,
                         CircuitBreaker, ResiliencePolicy, ResilienceStats,
                         RetryBudget, hedge_delay_ns, parse_policy)
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


class _Request:
    """One policied request: settles exactly once, whatever its attempts."""

    __slots__ = ("index", "arrival", "key", "is_write", "owner",
                 "resident", "settled", "won", "outstanding", "tried",
                 "chain", "pending_retry")

    def __init__(self, index: int, arrival: float, key: int,
                 is_write: bool, owner: int, resident: bool) -> None:
        self.index = index
        self.arrival = arrival
        self.key = key
        self.is_write = is_write
        self.owner = owner
        self.resident = resident
        self.settled = False
        self.won = False           # settled by a successful attempt
        self.outstanding = 0       # attempts neither finished nor abandoned
        self.tried: set[int] = set()
        self.chain = 0             # retries issued so far
        self.pending_retry = False


class _Attempt:
    """One attempt of a :class:`_Request` at one host."""

    __slots__ = ("req", "target", "reroute", "attempt", "prefix", "issue",
                 "hedge", "done", "abandoned", "timer", "service",
                 "fault_parts", "pending", "injector", "grant")

    def __init__(self, req: _Request, target: int, reroute: bool,
                 attempt: int, prefix: tuple, issue: float,
                 hedge: bool) -> None:
        self.req = req
        self.target = target
        self.reroute = reroute
        self.attempt = attempt
        self.prefix = prefix       # span segments before this attempt
        self.issue = issue
        self.hedge = hedge
        self.done = False          # granted and finished, or cancelled
        self.abandoned = False     # its deadline expired first
        self.timer = None          # the pending deadline event
        # Set when the attempt is granted a slot.
        self.service = 0.0
        self.fault_parts: tuple = ()
        self.pending = 0           # fault recoveries owed at finish
        self.injector: FaultInjector | None = None
        self.grant = 0.0


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
            # The all-zero policy changes nothing; as None it takes the
            # Lindley gate and reports no resilience stats, exactly like
            # a policy-free run.
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
        if (self.policy is None
                and type(self.router) is HashShardRouter
                and all(host.spec.workers == 1
                        for host in self.topology.hosts)
                and not self.telemetry.tracer.enabled
                and not self.telemetry.spans.enabled):
            # Load-blind routing over capacity-1 FIFO hosts needs no
            # event queue: the Lindley recursion replays the DES
            # float for float (docs/PERFORMANCE.md).
            return self._run_lindley(qps, theta=theta, requests=requests,
                                     write_fraction=write_fraction)
        return self._run_events(qps, theta=theta, requests=requests,
                                write_fraction=write_fraction)

    def _run_lindley(self, qps: float, *, theta: float, requests: int,
                     write_fraction: float) -> ClusterResult:
        """The policy-free run without an event queue.

        Exact for hash-shard routing, one worker per host, tracing and
        spans off (the :meth:`run` gate); ``tests/cluster/
        test_fastpath.py`` pins it equal to :meth:`_run_events`:

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

    # -- the event-driven run ----------------------------------------------

    def _run_events(self, qps: float, *, theta: float, requests: int,
                    write_fraction: float) -> ClusterResult:
        """The request lifecycle on the event engine (docs/CLUSTER.md).

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

        A request is one :class:`_Request` record and an attempt one
        :class:`_Attempt`; the handlers below are built once per run
        and take the record as their event argument, so an attempt
        allocates no closures (docs/PERFORMANCE.md).

        A policy-free run is the :data:`ZERO_POLICY` case: no deadline
        timer, no hedge, no shedding and no breaker, so every request
        settles on its one attempt, and the result carries no
        :class:`ResilienceStats`.
        """
        policy = self.policy or ZERO_POLICY
        topo = self.topology
        traffic = OpenLoopZipfian(
            qps=qps, num_requests=requests, keyspace=topo.total_keys,
            theta=theta, write_fraction=write_fraction, seed=self.seed)
        residency = self._residency(traffic)
        engine = Engine(telemetry=self.telemetry)
        route = self.router.route
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
        # same number; a heterogeneous pool gives each shard the
        # latency of the device holding its slice.
        pool_ns_by_host = [topo.pool_read_ns(host)
                           for host in range(topo.num_hosts)]
        hit_prob = topo.cache_hit_prob(theta)
        if spanned:
            dram_parts = topo.dram_components()
            pool_parts_by_host = [topo.pool_components(host)
                                  for host in range(topo.num_hosts)]

        # Per-request columns.  The service inputs are the DES float
        # operations done column-wise, in the order _run_lindley uses.
        n = requests
        arrivals = traffic.arrival_ns.tolist()
        keys = traffic.keys.tolist()
        writes = traffic.writes.tolist()
        cpu_col = (CPU_BASE_NS * substream("cluster/cpu", self.seed)
                   .lognormal(0.0, CPU_JITTER_SIGMA, size=n)).tolist()
        misses = EFFECTIVE_MISSES_MEAN * substream(
            "cluster/miss", self.seed).lognormal(
                0.0, MISS_JITTER_SIGMA, size=n)
        misses = np.where(traffic.writes, misses * WRITE_MISS_FACTOR,
                          misses)
        cache_u = substream("cluster/cache", self.seed).random(n)
        misses_col = np.where(cache_u < hit_prob,
                              misses * CACHE_HIT_MISS_FACTOR,
                              misses).tolist()
        per_host = topo.keys_per_host

        link_up = [True] * topo.num_hosts
        link_injected = [0] * topo.num_hosts
        link_recovered = [0] * topo.num_hosts
        absorbed = [0] * topo.num_hosts
        served = [0] * topo.num_hosts
        rerouted = 0
        completed = 0
        service_total = 0.0
        last_completion = 0.0
        wasted = 0.0

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

        # One routing view per host, refreshed in place before each
        # route (routers must not keep them; see Router.route).
        views = [HostView(i) for i in range(topo.num_hosts)]

        def routable(exclude: Collection[int]) -> list[HostView]:
            for view, server, up in zip(views, servers, link_up):
                view.up = up
                view.in_flight = server.busy + server.queue_depth
            filtered = views
            if breaker is not None:
                filtered = breaker.filter_views(views, engine.now)
            if exclude:
                masked = [HostView(view.index,
                                   up=view.up
                                   and view.index not in exclude,
                                   in_flight=view.in_flight)
                          for view in filtered]
                # Prefer an untried host, but a retry with nowhere new
                # to go re-queues at a tried one rather than failing.
                if any(view.up for view in masked):
                    return masked
            return filtered

        def settle_failure(req: _Request, outcome: str,
                           segments: list) -> None:
            nonlocal completed, last_completion
            if req.settled:
                return           # a racing hedge won during the window
            req.settled = True
            counts[outcome] += 1
            completed += 1
            last_completion = engine.now
            if outcome == "deadline_exceeded":
                # The client *waited* this long for nothing: failures
                # belong in the sojourn tail.  Rejections don't — the
                # balancer turned them around in SHED_REJECT_NS.
                cluster_sojourn.record(engine.now - req.arrival)
            if spanned:
                spans.record(req.index, req.arrival, segments,
                             kind="put" if req.is_write else "get")

        def launch(req: _Request, attempt: int, prefix: tuple,
                   issue: float, hedge: bool,
                   exclude: Collection[int]) -> None:
            owner = req.owner
            if req.resident:
                target = route(req.key, owner, routable(exclude))
                reroute = not link_up[owner]
            else:
                target = owner       # local DRAM keys never move
                reroute = False

            server = servers[target]
            if policy.shedding and server.busy + server.queue_depth \
                    >= policy.shed_inflight:
                if hedge:
                    return           # the primary attempt carries on
                segments = list(prefix)
                segments.append((SHED_REJECT, SHED_REJECT_NS))
                engine.schedule(SHED_REJECT_NS, settle_failure, req,
                                "rejected", segments)
                return
            if attempt == 0 and not hedge:
                budget.note_admitted()
            req.outstanding += 1
            req.tried.add(target)
            if hedge:
                counts["hedges"] += 1
            att = _Attempt(req, target, reroute, attempt, prefix, issue,
                           hedge)
            if deadline > 0.0:
                att.timer = engine.schedule_at(issue + deadline,
                                               on_deadline, att)
            server.acquire(start, att)
            if not hedge and attempt == 0 and hedge_wait > 0.0 \
                    and req.resident:
                engine.schedule(hedge_wait, maybe_hedge, att)

        def on_deadline(att: _Attempt) -> None:
            # The timer fired; dropping its handle, which holds ``att``
            # as its event argument, leaves no reference cycle behind.
            att.timer = None
            req = att.req
            if req.settled or att.done:
                return
            att.abandoned = True
            req.outstanding -= 1
            if not att.hedge and req.chain < policy.retries \
                    and budget.allow():
                req.chain += 1
                chain = req.chain
                # Exponential backoff with full deterministic jitter in
                # [0.5, 1.5) of the doubled base.
                backoff = policy.backoff_base_ns * (2.0 ** (chain - 1)) \
                    * (0.5 + decision_uniform(
                        self.seed, "resil-backoff", req.index, chain))
                req.pending_retry = True
                engine.schedule(backoff, relaunch, req, chain,
                                att.prefix + ((DEADLINE_WAIT, deadline),
                                              (RETRY_BACKOFF, backoff)))
                return
            if req.outstanding == 0 and not req.pending_retry:
                segments = list(att.prefix)
                segments.append((DEADLINE_WAIT, deadline))
                settle_failure(req, "deadline_exceeded", segments)

        def relaunch(req: _Request, chain: int, prefix: tuple) -> None:
            req.pending_retry = False
            if req.settled:
                return
            # The tried set is only read while routing, before this
            # launch adds its own target.
            launch(req, chain, prefix, engine.now, False, req.tried)

        def maybe_hedge(att: _Attempt) -> None:
            req = att.req
            if req.settled or att.done:
                return
            target = att.target
            exclude = (target,)
            if not any(view.up and view.index != target
                       for view in routable(exclude)):
                return           # nowhere distinct to hedge to
            launch(req, 0, att.prefix + ((HEDGE_WAIT, hedge_wait),),
                   engine.now, True, exclude)

        def start(att: _Attempt) -> None:
            nonlocal service_total
            req = att.req
            if req.won:
                # First-wins cancel: the client already has its answer,
                # so this still-queued attempt vacates the slot with
                # zero service.  The release is scheduled rather than
                # called so a long chain of cancelled waiters cannot
                # recurse through the grant path.
                att.done = True
                if att.timer is not None:
                    engine.cancel(att.timer)
                    att.timer = None
                if not att.abandoned:
                    req.outstanding -= 1
                engine.schedule(0.0, servers[att.target].release)
                return
            index = req.index
            misses = misses_col[index]
            miss_ns = pool_ns_by_host[req.owner] if req.resident \
                else dram_ns
            extra = REROUTE_HOP_NS if att.reroute else 0.0
            injector = injectors.get(att.target) if req.resident \
                else None
            if injector is not None:
                # Every attempt draws its own faults: a retry hits
                # fresh device weather, not a replay of the first
                # attempt's.  Attempt 0 keeps the base-path key so
                # fault accounting stays comparable across modes.
                if att.hedge:
                    fault_key = (index, "h", att.attempt)
                elif att.attempt:
                    fault_key = (index, "a", att.attempt)
                else:
                    fault_key = (index,)
                att.fault_parts, att.pending = injector.request_extras(
                    *fault_key, reread_ns=misses * miss_ns)
                att.injector = injector
                for _, part_ns in att.fault_parts:
                    extra += part_ns
            service = cpu_col[index] + misses * miss_ns + extra
            service_total += service
            att.service = service
            att.grant = engine.now
            engine.schedule(service, finish, att)

        def finish(att: _Attempt) -> None:
            nonlocal rerouted, completed, last_completion, wasted
            target = att.target
            servers[target].release()
            att.done = True
            if att.timer is not None:
                engine.cancel(att.timer)
                att.timer = None
            for _ in range(att.pending):
                att.injector.recovery()
            req = att.req
            if att.reroute:
                # All reroute accounting lands at termination so
                # abandoned attempts still balance injected == recovered.
                link_injected[req.owner] += 1
                link_recovered[req.owner] += 1
                rerouted += 1
                absorbed[target] += 1
            if breaker is not None:
                breaker.observe(target, engine.now - att.issue,
                                engine.now)
            if req.settled or att.abandoned:
                # A losing attempt: the server did the work, nobody was
                # listening.
                wasted += att.service
                if not att.abandoned:
                    req.outstanding -= 1
                return
            req.settled = True
            req.won = True
            req.outstanding -= 1
            sojourn = engine.now - req.arrival
            cluster_sojourn.record(sojourn)
            host_sojourn[target].record(sojourn)
            served[target] += 1
            completed += 1
            last_completion = engine.now
            if att.hedge:
                counts["ok_hedged"] += 1
                counts["hedge_wins"] += 1
            elif att.attempt:
                counts["ok_retried"] += 1
            else:
                counts["ok"] += 1
            if traced:
                tracer.complete(
                    f"{CLUSTER_TRACK}.host{target}",
                    "put" if req.is_write else "get",
                    req.arrival, sojourn, request=req.index)
            if not spanned:
                return
            index = req.index
            misses = misses_col[index]
            segments = list(att.prefix)
            segments.append(("client.wait", att.grant - att.issue))
            if att.reroute:
                segments.append(("route.reroute", REROUTE_HOP_NS))
            segments.append(("shard.cpu", cpu_col[index]))
            if req.resident:
                mem_total = misses * pool_ns_by_host[req.owner]
                parts = pool_parts_by_host[req.owner]
            else:
                mem_total = misses * dram_ns
                parts = dram_parts
            accounted = 0.0
            last = len(parts) - 1
            for pos, (part, per_miss) in enumerate(parts):
                if pos == last:
                    dur = mem_total - accounted
                else:
                    dur = misses * per_miss
                    accounted += dur
                segments.append((part, dur))
            segments.extend(att.fault_parts)
            spans.record(index, req.arrival, segments,
                         kind="put" if req.is_write else "get")

        def submit(index: int) -> None:
            key = keys[index]
            launch(_Request(index, arrivals[index], key, writes[index],
                            key // per_host, residency[key]),
                   0, (), arrivals[index], False, ())

        if self.link_down is not None:
            down = self.link_down

            def kill_link() -> None:
                link_up[down.host] = False

            engine.schedule_at(down.at_fraction * traffic.duration_ns,
                               kill_link)

        for index, arrival in enumerate(arrivals):
            engine.schedule_at(arrival, submit, index)
        engine.run()

        if completed != requests:
            raise ClusterError(
                f"only {completed}/{requests} requests settled")

        hosts = self._host_results(
            injectors, served,
            [(recorder.p50(), recorder.p99()) if len(recorder)
             else (0.0, 0.0) for recorder in host_sojourn],
            link_injected, link_recovered, absorbed)

        stats = None
        if self.policy is not None:
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
                wasted_ns=wasted)

        achieved = completed / (last_completion / 1e9)
        self._publish(completed, cluster_sojourn.p99()
                      if len(cluster_sojourn) else 0.0, achieved, hosts)
        if stats is not None:
            self.telemetry.registry.gauge("cluster.goodput_qps").set(
                achieved * (stats.successes / completed))

        return ClusterResult(
            qps=qps, theta=theta, pool_share=topo.pool_share,
            requests=completed, achieved_qps=achieved,
            p50_ns=cluster_sojourn.p50()
            if len(cluster_sojourn) else 0.0,
            p99_ns=cluster_sojourn.p99()
            if len(cluster_sojourn) else 0.0,
            mean_service_ns=service_total / completed,
            pool_utilization=topo.pool_utilization(),
            rerouted=rerouted,
            link_down_host=self.link_down.host
            if self.link_down is not None else None,
            hosts=hosts, resilience=stats)
