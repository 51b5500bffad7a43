"""Open-loop zipfian client traffic for the cluster.

The generator models an aggregate fleet of clients pushing a fixed
offered load (QPS) at the cluster, independent of how fast the cluster
answers — the *open-loop* discipline the paper's tail-latency
methodology calls for (a closed loop would self-throttle exactly when
queues build, hiding the p99 knee).

All randomness is **pre-drawn** at construction from named substreams
(:func:`repro.sim.rng.substream`), indexed by request: arrival gaps,
key ranks, and write flags each come from their own stream.  Simulation
order can never perturb the draws, which is what makes serial and
``--jobs N`` cluster runs byte-identical and makes the trace a pure
function of ``(seed, stream, parameters)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ClusterError
from ..sim.rng import DEFAULT_SEED, substream
from ..workloads.distributions import ZipfianKeys


@dataclass(frozen=True)
class Request:
    """One client request, placed on the arrival timeline."""

    index: int
    arrival_ns: float
    key: int                           # global key in [0, keyspace)
    is_write: bool


class OpenLoopZipfian:
    """Poisson arrivals at a fixed QPS over a scrambled-Zipfian keyspace.

    ``qps`` is the *offered* cluster-wide rate: inter-arrival gaps are
    exponential with mean ``1e9 / qps`` nanoseconds.  Keys are drawn
    with Gray et al.'s rejection-free Zipfian (``theta`` = skew, YCSB's
    0.99 by default) and FNV-scrambled across the keyspace, so hot keys
    land uniformly over the cluster's shards.
    """

    def __init__(self, *, qps: float, num_requests: int, keyspace: int,
                 theta: float = 0.99, write_fraction: float = 0.05,
                 seed: int = DEFAULT_SEED, stream: str = "cluster") -> None:
        if qps <= 0:
            raise ClusterError(f"offered qps must be positive: {qps}")
        if num_requests <= 0:
            raise ClusterError(
                f"num_requests must be positive: {num_requests}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ClusterError(
                f"write_fraction must be in [0, 1]: {write_fraction}")
        self.qps = qps
        self.num_requests = num_requests
        self.keyspace = keyspace
        self.theta = theta
        self.write_fraction = write_fraction
        self.seed = seed
        self.stream = stream

        gaps = substream(f"{stream}/arrivals", seed).exponential(
            1e9 / qps, size=num_requests)
        self.arrival_ns = np.cumsum(gaps)

        self.keys = ZipfianKeys(keyspace, theta).next_keys(
            substream(f"{stream}/keys", seed), num_requests)

        self.writes = substream(f"{stream}/writes", seed).random(
            num_requests) < write_fraction

    def requests(self) -> list[Request]:
        """The trace as arrival-ordered :class:`Request` records."""
        return [Request(index=i, arrival_ns=arrival, key=key,
                        is_write=is_write)
                for i, (arrival, key, is_write) in enumerate(zip(
                    self.arrival_ns.tolist(), self.keys.tolist(),
                    self.writes.tolist()))]

    @property
    def duration_ns(self) -> float:
        """Timeline span from t=0 to the last arrival."""
        return float(self.arrival_ns[-1])

    def offered_qps(self) -> float:
        """Realized arrival rate of the drawn trace (≈ ``qps``)."""
        return self.num_requests / (self.duration_ns / 1e9)
