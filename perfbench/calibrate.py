"""Time a fixed piece of interpreter work, in a fresh process.

The machine's speed swings by a fifth within seconds and drifts by a
quarter over tens of minutes; so ``run.py`` starts this script before
each repetition and after the last (twice at once for a workload that
keeps both vCPUs busy), and scales each repetition's times by the
samples taken just before and just after it.  The work touches
none of the program's code, and no sample runs in a process that holds
the program's objects or runs beside it.  The neighbours on the host
slow work that stays in the caches and work that does not by different
amounts, and the workloads range from the one (the mesh's small shards)
to the other (Dijkstra's 145 MB heap); so a sample times both, in
about equal parts: a small dict and sort three times over, then a
200,000-entry dict of tuples and strings (some 50 MB).  Prints the mean
of its samples, in seconds.
"""

from __future__ import annotations

import json
import statistics
import time

perf = time.perf_counter
SAMPLES = 2


def _in_cache() -> None:
    d = {}
    for i in range(25_000):
        d[(i % 997, i)] = str(i)
    keys = sorted(d, key=lambda k: (k[1] % 89, k[0]))
    sum(len(d[k]) for k in keys)


def _out_of_cache() -> None:
    d = {}
    for i in range(200_000):
        d[(i * 7919) % 1_000_003] = (i, str(i))
    total = 0
    for k in sorted(d)[::3]:
        total += d[k][0]


def calibrate() -> float:
    """Seconds for the in-cache work three times, then the rest."""
    t0 = perf()
    for _ in range(3):
        _in_cache()
    _out_of_cache()
    return perf() - t0


if __name__ == "__main__":
    print(json.dumps(statistics.fmean(calibrate() for _ in range(SAMPLES))))
