"""Set-up probe, run by ``run.py`` in a fresh process.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED``.  Prints the seconds
this process took to import repro and build the workload's static model
objects, at the reference speed of ``speed.py``.  Nothing beyond what
the timing itself needs is imported before the clock starts, so every
import the program pays for falls inside the timed region.
"""

import os
import sys

import speed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])

    def work() -> None:
        sys.path.insert(0, SRC)
        import grids

        grids.setup(workload, seed)

    print(speed.at_reference(work, speed.HostSpeed())[2])


if __name__ == "__main__":
    main()
