"""A fixed pure-Python reference load that gauges the speed of the core.

On a shared host the speed of one core changes by up to twofold, for
seconds to minutes at a time, with the load of other tenants.  The
benchmark runs this load right before and right after every op and
reports the op at a fixed speed: its wall time times ``NOMINAL_S`` over
the mean of the two load times.  The load touches no ``edd`` code, so a
change to the program moves the scaled times exactly as it moves the
wall times.

The load does what ``edd`` spends its time on: it splits text, parses
integers, fills a dict and a list, sorts and joins strings.  The cyclic
garbage collector is off while it runs, so its time does not grow with
whatever the program leaves on the heap.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# Wall time of one load on an idle core of the machine the README's
# numbers come from (a 2-core shared Xeon VM), in seconds.
NOMINAL_S = 0.025

_rng = random.Random(20011)
_TEXT = "\n".join(" ".join(str(_rng.randrange(10**12)) for _ in range(20))
                  for _ in range(1500))


def load_seconds() -> float:
    """Wall time of one run of the reference load."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        rows = [list(map(int, line.split())) for line in _TEXT.split("\n")]
        where = {}
        for i, row in enumerate(rows):
            for value in row:
                where[value] = i
        "\n".join(f"{value}:{where[value]}" for value in sorted(where))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
