"""Host-speed calibration with a fixed pure-Python reference loop.

On a shared host the speed available to one process drifts, by up to 2x
over tens of seconds, with every kind of Python code slowing alike.  A
single wall-clock reading then says as much about the neighbours as
about the program.  The benchmark therefore brackets each timed unit of
work with two readings of :class:`HostSpeed` and reports the unit's host
seconds scaled to a fixed reference speed::

    seconds_at_reference = host_seconds * mean(REFERENCE_S / loop time)

Work spread over several worker processes is bracketed by loops running
at once in as many helper processes, so a neighbour that slows only one
of the CPUs is seen too.

The loop is part of the benchmark, not of the program, so no change to
``src/`` can move it; it runs with the garbage collector off, so the
program's collector settings cannot move it either.
"""

from __future__ import annotations

import gc
import heapq
import os
import sys
import time

REFERENCE_S = 0.0032
"""Seconds :func:`reference_loop` takes at the reference speed (about a
quiet 2-CPU x86 VM core running CPython 3.11)."""

LOOP_STEPS = 5000


def reference_loop() -> float:
    """Host seconds one fixed event-queue-shaped loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap = [((index * 7919) % 257 / 257.0, index) for index in range(256)]
        heapq.heapify(heap)
        counts: dict[int, int] = {}
        start = time.perf_counter()
        for step in range(LOOP_STEPS):
            now, key = heapq.heappop(heap)
            counts[key & 511] = counts.get(key & 511, 0) + 1
            heapq.heappush(heap, (now + (step * 40503 % 1009) / 1009.0,
                                  step))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def serve() -> None:
    """Helper-process body: one reference loop per input line, its time
    printed as one line, until standard input closes."""
    for _request in sys.stdin:
        print(repr(reference_loop()), flush=True)


class HostSpeed:
    """Reads the host's speed relative to the reference, over ``cpus``
    CPUs: 1.0 at the reference speed, 0.5 when everything takes twice as
    long.

    With one CPU the loop runs in this process.  With more, each reading
    runs the loop at once in ``cpus`` helper processes (started once,
    stopped and waited for by :meth:`close`) and averages their speeds.
    The helpers are plain ``python3 speed.py --serve`` processes on
    pipes, not ``multiprocessing`` ones, so no ``multiprocessing``
    resource-tracker process is started that could outlive the run.
    """

    def __init__(self, cpus: int = 1) -> None:
        self._procs = []
        if cpus <= 1:
            return
        import subprocess          # only here: the set-up probe times
        #                            imports and must not pre-load it
        try:
            for _ in range(cpus):
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--serve"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, bufsize=1))
        except BaseException:
            self.close()
            raise

    def __call__(self) -> float:
        if not self._procs:
            return REFERENCE_S / reference_loop()
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = [float(proc.stdout.readline()) for proc in self._procs]
        return sum(REFERENCE_S / t for t in times) / len(times)

    def close(self) -> None:
        if not self._procs:
            return
        import subprocess

        for proc in self._procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._procs = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def at_reference(work, speed: HostSpeed):
    """Run ``work()`` between two readings of ``speed``.

    Returns ``(result, host_seconds, reference_seconds)``.
    """
    before = speed()
    start = time.perf_counter()
    result = work()
    host = time.perf_counter() - start
    after = speed()
    return result, host, host * (before + after) / 2.0


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit("usage: python3 speed.py --serve")
    serve()
