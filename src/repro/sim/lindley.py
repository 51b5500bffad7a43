"""Capacity-1 FIFO stations without an event queue.

The analytic fast paths (``KvServer.run``, the policy-free
``ClusterSim.run``) replace the engine by the Lindley recursion when
nothing in the run reads queue state.  :func:`lindley` performs the
engine's own float operations, :func:`grant_order` recovers the order
in which the engine would have granted the slots, and :func:`p50_p99`
reports what a :class:`~repro.sim.LatencyRecorder` would.
"""

from __future__ import annotations

import numpy as np

from ..telemetry.metrics import interpolate_percentile


def lindley(arrival_ns: np.ndarray, service_ns: np.ndarray,
            station: np.ndarray, stations: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """Finish times and DES grant order of capacity-1 FIFO stations.

    Request ``i`` arrives at ``arrival_ns[i]`` (non-decreasing in
    ``i``) at station ``station[i]`` and holds it for ``service_ns[i]``.
    Each station serves its requests in index order:
    ``start = arrival if idle else previous finish`` and
    ``finish = start + service``, the same float operations the engine
    performs with one arrival event per request (scheduled up front, in
    index order) and one finish event per grant.  Returns ``(finish,
    order)`` with ``order`` from :func:`grant_order`.
    """
    n = len(arrival_ns)
    finish = np.empty(n)
    grant = np.empty(n)
    after_finish = np.zeros(n, dtype=bool)
    predecessor = np.full(n, -1, dtype=np.int64)
    for host in range(stations):
        mine = np.flatnonzero(station == host)
        if not len(mine):
            continue
        grants, finishes, waited = [], [], []
        done = -np.inf
        for arrival, service in zip(arrival_ns[mine].tolist(),
                                    service_ns[mine].tolist()):
            # At an equal instant the arrival event fires first (lower
            # sequence number) and queues; the finish event grants it.
            queued = arrival <= done
            start = done if queued else arrival
            done = start + service
            grants.append(start)
            finishes.append(done)
            waited.append(queued)
        finish[mine] = finishes
        grant[mine] = grants
        after_finish[mine] = waited
        predecessor[mine[1:]] = mine[:-1]
    return finish, grant_order(grant, after_finish, predecessor)


def grant_order(grant_ns: np.ndarray, after_finish: np.ndarray,
                predecessor: np.ndarray) -> np.ndarray:
    """Request indices in the order the DES grants their slots.

    ``grant_ns[i]`` is when request ``i`` got its slot;
    ``after_finish[i]`` marks a grant made by the finish event of
    ``predecessor[i]`` (the request ahead of it on its station) rather
    than by its own arrival event.  The engine fires events by (time,
    sequence number).  Every arrival was scheduled before any finish,
    arrivals in index order, and each finish when its request was
    granted.  So grants sort by time; at one instant arrival grants come
    first, by index, then finish grants by their predecessor's rank.
    """
    n = len(grant_ns)
    order = np.lexsort((np.arange(n), after_finish, grant_ns))
    at = grant_ns[order]
    by_finish = after_finish[order]
    tied = (at[1:] == at[:-1]) & by_finish[1:] & by_finish[:-1]
    if not tied.any():
        return order
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # Runs of finish grants at one instant, earliest first.  A
    # predecessor was granted strictly before it finished, so its rank
    # is final by the time its successor's run is sorted.
    edges = np.diff(np.concatenate(([0], tied.astype(np.int8), [0])))
    for lo, hi in zip(np.flatnonzero(edges == 1).tolist(),
                      np.flatnonzero(edges == -1).tolist()):
        run = order[lo:hi + 1]
        run = run[np.argsort(rank[predecessor[run]], kind="stable")]
        order[lo:hi + 1] = run
        rank[run] = np.arange(lo, hi + 1)
    return order


def p50_p99(samples: np.ndarray) -> tuple[float, float]:
    """What :class:`~repro.sim.LatencyRecorder` reports for ``samples``
    (both 0 when empty)."""
    if not len(samples):
        return 0.0, 0.0
    ordered = np.sort(samples).tolist()
    return (interpolate_percentile(ordered, 50.0),
            interpolate_percentile(ordered, 99.0))
