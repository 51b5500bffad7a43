"""``repro.sim.lindley`` against closed-form queueing results.

The fast-path pins compare the Lindley recursion with the event engine,
so a mistake shared by both would pass them.  These tests check it
against queueing theory instead, on one FIFO station with Poisson
arrivals at utilization rho in {0.3, 0.6, 0.85}:

* M/M/1: sojourn ~ Exp(mu - lambda), so the mean is ``1/(mu-lambda)``
  and the p99 is ``ln(100)/(mu-lambda)``;
* M/D/1: mean wait ``rho / (2 mu (1 - rho))``;
* M/G/1 (Pollaczek-Khinchine): mean wait
  ``lambda E[S^2] / (2 (1 - rho))``, with the service times resampled
  from the KV store's own drawn service column.

Each estimate is bounded by batch means: the run (after a warm-up) is
cut into batches, and the theory must lie within four standard errors
of the batch-mean estimate.  Every stream is seeded, so the tests are
deterministic.  Each also asserts that its bound has power: narrower
than 10 % of the theory for a mean, 30 % for the p99 (at rho 0.85 the
per-batch p99 swings with the rare long busy periods; its bound there
is about 26 %).
"""

import math

import numpy as np
import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import RedisYcsbStudy
from repro.sim.lindley import lindley, p50_p99
from repro.workloads import WORKLOADS

RHOS = (0.3, 0.6, 0.85)
WARMUP = 10_000
BATCHES = 20
BATCH = 25_000
N = WARMUP + BATCHES * BATCH
MU = 1.0                      # services per unit time (mean service 1)
STANDARD_ERRORS = 4.0


def sojourn_and_wait(seed: int, rho: float, service: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrivals at ``rho / E[service]`` into one FIFO station;
    per-request sojourn and queue wait, warm-up dropped."""
    rng = np.random.default_rng(seed)
    rate = rho / float(np.mean(service))
    arrival = rng.exponential(1.0 / rate, size=N).cumsum()
    finish, order = lindley(arrival, service, np.zeros(N, dtype=np.int64),
                            1)
    assert order.tolist() == list(range(N))    # one FIFO station
    sojourn = (finish - arrival)[WARMUP:]
    return sojourn, sojourn - service[WARMUP:]


def assert_batch_mean(samples: np.ndarray, theory: float,
                      statistic=np.mean, power: float = 0.1) -> None:
    """``theory`` within a few batch standard errors of the estimate,
    the bound narrower than ``power * theory``."""
    batches = [float(statistic(chunk))
               for chunk in samples.reshape(BATCHES, BATCH)]
    estimate = float(np.mean(batches))
    half_width = STANDARD_ERRORS * float(np.std(batches, ddof=1)) \
        / math.sqrt(BATCHES)
    assert half_width < power * theory
    assert abs(estimate - theory) <= half_width, (estimate, theory,
                                                  half_width)


def p99(chunk: np.ndarray) -> float:
    return p50_p99(chunk)[1]


@pytest.mark.parametrize("rho", RHOS)
def test_mm1_sojourn_mean_and_p99(rho):
    service = np.random.default_rng(101).exponential(1.0 / MU, size=N)
    sojourn, _ = sojourn_and_wait(202, rho, service)
    # E[service] is sampled, so the rate is the one actually offered.
    lam = rho / float(np.mean(service))
    assert_batch_mean(sojourn, 1.0 / (MU - lam))
    assert_batch_mean(sojourn, math.log(100.0) / (MU - lam), p99,
                      power=0.3)


@pytest.mark.parametrize("rho", RHOS)
def test_md1_mean_wait(rho):
    _, wait = sojourn_and_wait(303, rho, np.full(N, 1.0 / MU))
    assert_batch_mean(wait, rho / (2 * MU * (1 - rho)))


@pytest.fixture(scope="module")
def kv_service_column():
    """Service times (ns) of one KV draw pass: YCSB-A at 50 % CXL."""
    study = RedisYcsbStudy(build_system(combined_testbed()),
                           num_keys=60_000, seed=7)
    store = study.build_store(WORKLOADS["A"], 0.5)
    try:
        draws = store.draw_queries(store._rng, 20_000, inserts=False)
        return draws.cpu + draws.misses * store.miss_latency_of(draws.keys)
    finally:
        store.free()


@pytest.mark.parametrize("rho", RHOS)
def test_mg1_pollaczek_khinchine_with_kv_service(rho, kv_service_column):
    # Resampling the drawn column makes it the exact service law G.
    service = np.random.default_rng(404).choice(kv_service_column, size=N)
    mean = float(np.mean(kv_service_column))
    second = float(np.mean(kv_service_column ** 2))
    _, wait = sojourn_and_wait(505, rho, service)
    lam = rho / float(np.mean(service))
    assert_batch_mean(wait, lam * second / (2 * (1 - lam * mean)))
