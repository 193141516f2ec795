"""Host speed, gauged with a fixed unit of pure-Python work.

The reference machine is a virtual machine on a shared host whose speed
drifts by up to 1.4x over tens of seconds, so the mean time of a call
over one 35 s run moves by a fifth from run to run with the program
unchanged.  The worker times 16 units of fixed work before each instance
and once at the end, untimed, and a workload can report its times scaled
to a reference speed:

    scaled time = wall time * REFERENCE_UNIT_S / mean unit time

The unit is small-integer ``Fraction`` arithmetic, a dict and a sort.  In
three sets of ten runs on seeds 0 to 9 (the third cut short at six), the
spread of the mean solve time (quartile distance over median) went from
0.150, 0.121, 0.096 in wall time to 0.044, 0.052, 0.049 scaled on
certify-64, and from 0.208, 0.086, 0.131 to 0.100, 0.063, 0.081 on
dense-800.  On sparse-4k it went from 0.079, 0.102, 0.063 to 0.046,
0.154, 0.249: a run there has only four or five gauge samples, and some
runs' samples caught a fast moment that its solves did not share, so
sparse-4k reports wall time.  The unit never calls the package, so a
change to the program does not move the factor.
"""
from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# Mean unit time in a fast phase of the reference machine (2-core Xeon
# VM, 2.1 GHz, CPython 3.11); the scaled times are seconds at that speed.
REFERENCE_UNIT_S = 0.0015
UNITS_PER_SAMPLE = 16


def unit() -> int:
    rng = random.Random(7)
    counts: dict[int, int] = {}
    total = Fraction(0)
    for i in range(400):
        key = rng.randrange(1000)
        counts[key] = counts.get(key, 0) + i
        total += Fraction(i % 17, 1 + key % 13)
    ordered = sorted(counts.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    return len(ordered) + total.denominator


def sample(units: int = UNITS_PER_SAMPLE) -> list[float]:
    """Wall time of each of ``units`` units, the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(units):
            started = time.perf_counter()
            unit()
            times.append(time.perf_counter() - started)
        return times
    finally:
        if enabled:
            gc.enable()


def scale(unit_times: list[float]) -> float:
    """Factor that turns wall time into seconds at the reference speed."""
    return REFERENCE_UNIT_S * len(unit_times) / sum(unit_times)
