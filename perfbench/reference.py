"""Host speed probe: a fixed pure-Python work unit, timed over and over.

    python3 perfbench/reference.py OUT.txt

The benchmark starts this at the lowest priority on the CPU that runs
the measured processes, so it takes a few slices of every second the
program runs and times the same work in them.  Each line of OUT.txt is
"<monotonic end time> <CPU seconds for UNITS work units>".  On a
shared virtual machine the speed of a CPU can swing by 2x within
minutes, for the program and this probe alike; dividing a measured
time by the probe's slowdown over the same interval removes that
swing.  The probe exits when its parent does.
"""

from __future__ import annotations

import os
import sys
import time

UNITS = 10


def _merge(u: dict[int, int], g: int, e: int) -> dict[int, int]:
    out = dict(u)
    v = out.get(g, 0) + e
    if v:
        out[g] = v
    else:
        del out[g]
    return out


def work_unit() -> dict[int, int]:
    """Copy-and-update of small dicts through function calls: the shape of lpres's collector."""
    u: dict[int, int] = {}
    for i in range(60):
        u = _merge(u, (i * 7) % 13, 1 if i % 3 else -1)
        if len(u) > 8:
            u = {k: v // 2 for k, v in u.items() if v // 2}
    return u


def main(path: str) -> int:
    os.nice(19)
    parent = os.getppid()
    clock, cpu = time.monotonic, time.process_time
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent:
            start = cpu()
            for _ in range(UNITS):
                work_unit()
            out.write("%.6f %.9f\n" % (clock(), cpu() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
