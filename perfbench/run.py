"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cluster-pool --seed 7 \\
        --seconds 20 --trace 0

The workload's grid (``grids.py``) is built once, run once as a warm-up,
then run pass after pass until ``--seconds`` have gone by.  Every output
of every pass is checked; the digest of each pass must match the first.

``--trace 0`` reports the end-to-end metrics from untraced passes:
``wall_s`` and ``sim_req_per_s`` (medians over the timed passes),
``setup_s`` (median over fresh ``probe.py`` processes that import repro
and build the workload's static objects), ``peak_rss_mb`` and
``ok_share``.  All times are scaled to the reference speed of
``speed.py``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` plus ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GUARDED_ENV = ("REPRO_SIM_SCHEDULER", "REPRO_KV_FASTPATH")
GUARDED_PREFIX = "REPRO_TEST_UNIT_"
MIN_TIMED_PASSES = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def guard_environment() -> None:
    """Refuse to measure a program whose behaviour an env switch changed."""
    bad = sorted(name for name in os.environ
                 if name in GUARDED_ENV or name.startswith(GUARDED_PREFIX))
    if bad:
        fail(f"unset {', '.join(bad)}: these switches change the measured "
             f"program")


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


class Run:
    """Attempted/failed bookkeeping shared by every pass of one run."""

    def __init__(self, workload, host_speed: speed.HostSpeed) -> None:
        self.workload = workload
        self.host_speed = host_speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[str] | None = None   # per-point digests
        self.digest = ""                          # of the first pass

    def execute(self, *, tracer=None) -> tuple[float, list, list]:
        """One pass, each batch timed between reference loops.

        Returns ``(host seconds, reference seconds per batch, outputs)``.
        """
        import grids

        gc.collect()
        host = 0.0
        references, outcomes = [], []
        with (layers.installed(tracer) if tracer is not None
              else contextlib.nullcontext()):
            for batch in grids.batches(self.workload):
                result, batch_host, batch_reference = speed.at_reference(
                    lambda: grids.run_batch(self.workload, batch),
                    self.host_speed)
                outcomes += result
                host += batch_host
                references.append(batch_reference)
        self.judge(outcomes)
        return host, references, [output for output, _error in outcomes]

    def judge(self, outcomes: list, *, against: list[str] | None = None
              ) -> None:
        """Count a pass's points, checking each output and its digest
        against the first pass (or ``against``)."""
        import grids

        digests = [grids.digest([output]) for output, _error in outcomes]
        reference = against if against is not None else self.reference
        if reference is None:
            self.reference = reference = digests
            self.digest = grids.digest([o for o, _error in outcomes])
        for index, (point, (output, error)) in enumerate(
                zip(self.workload.points, outcomes)):
            self.attempted += 1
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                problems = grids.check_point(point, self.workload.seed,
                                             output)
            if digests[index] != reference[index]:
                problems.append("output differs from the reference pass")
            if problems:
                self.failed += 1
                self.problems.append(f"{point.label}: {'; '.join(problems)}")


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh process takes to import repro and run set-up."""
    command = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4g}..{q3:.4g}, n={len(values)}"


def pass_median(passes: list[list[float]]) -> float:
    """A pass's typical time: each batch's median over the passes, summed.

    Taking the median per batch rather than per pass discards a
    disturbance that hit one batch of a pass without discarding the
    rest of that pass.
    """
    return sum(statistics.median(column) for column in zip(*passes))


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for ``seconds``: the end-to-end metrics."""
    import grids

    workload = run.workload
    deadline = time.perf_counter() + seconds
    run.execute()                                   # warm-up, not timed
    hosts, passes = [], []
    while len(passes) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        host, batches, _outputs = run.execute()
        hosts.append(host)
        passes.append(batches)
    if workload.name == "cluster-sharded":
        serial = grids.setup("cluster-pool", workload.seed)
        run.judge(grids.run_pass(serial), against=run.reference)
    rss = peak_rss_mb()
    setups = [probe_setup(workload.name, workload.seed)
              for _ in range(SETUP_PROBES)]
    wall = pass_median(passes)
    values = {"wall_s": wall,
              "sim_req_per_s": workload.sim_requests / wall,
              "setup_s": statistics.median(setups),
              "peak_rss_mb": rss,
              "ok_share": 1.0 - run.failed / run.attempted}
    notes = {"wall_s": f"pass sums {spread([sum(p) for p in passes])}; "
                       f"host seconds {spread(hosts)}",
             "setup_s": spread(setups),
             "sim_req_per_s": f"{workload.sim_requests} requests per pass",
             "ok_share": f"failed_share {run.failed / run.attempted:g} "
                         f"({run.failed} of {run.attempted} points)"}
    return values, notes


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternating untraced and traced passes: the per-layer metrics.

    Layer times are scaled to the reference speed by the traced pass's
    own reference/host ratio.
    """
    deadline = time.perf_counter() + seconds
    run.execute()                                   # warm-up, not timed
    plain, traced, per_pass = [], [], []
    while len(traced) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        plain.append(run.execute()[1])
        tracer = layers.Tracer()
        host, batches, outputs = run.execute(tracer=tracer)
        traced.append(batches)
        metrics = layers.layer_metrics(tracer, outputs)
        for name in layers.TIME_METRICS:
            metrics[name] *= sum(batches) / host
        per_pass.append(metrics)
    first = layers.seed_exact(per_pass[0])
    for metrics in per_pass[1:]:
        again = layers.seed_exact(metrics)
        if again != first:
            changed = sorted(n for n in first if first[n] != again[n])
            run.problems.append(f"counters differ between traced passes: "
                                f"{', '.join(changed)}")
    values = {name: (first[name] if name in first else
                     statistics.median(m[name] for m in per_pass))
              for name in per_pass[0]}
    values["trace.overhead_ratio"] = pass_median(traced) / pass_median(plain)
    notes = {"trace.overhead_ratio":
             f"traced {spread([sum(p) for p in traced])}; "
             f"untraced {spread([sum(p) for p in plain])}"}
    return values, notes


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    guard_environment()
    import_program()
    import grids
    from repro.parallel.runner import effective_cpu_count
    from repro.sim.engine import scheduler_mode

    if args.workload not in grids.NAMES:
        fail(f"unknown workload {args.workload!r}; expected one of "
             f"{', '.join(grids.NAMES)}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = grids.setup(args.workload, args.seed)
    with speed.HostSpeed(workload.cpus) as host_speed:
        run = Run(workload, host_speed)
        if args.trace:
            values, notes = measure_layers(run, args.seconds)
            metrics = contract["per_layer"]
        else:
            values, notes = measure(run, args.seconds)
            metrics = contract["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in metrics}

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run.workload.points)} points per pass")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {values[name]:.6g} {unit}{note}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print(f"digest {args.workload} seed={args.seed}: {run.digest}")
    print("context " + json.dumps({
        "scheduler": scheduler_mode(), "effective_cpus": effective_cpu_count(),
        "python": platform.python_version()}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))


if __name__ == "__main__":
    main()
