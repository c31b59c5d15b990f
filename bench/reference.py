"""Fixed reference work that measures the machine's speed during a run.

On the 2-vCPU virtual machine this benchmark was written on, the speed of
the same code drifts by more than 2x over minutes: one process knitting
the same Kronecker component over and over took between 0.7 and 1.7 s per
knit, and raw figures of ten consecutive runs spread by up to 42 %.  So
every run also times this fixed work just before and just after its ops,
and each op is quoted at the speed at which one sample takes NOMINAL_S
(about the speed at which that knit takes 1.5 s).

The work builds, groups, sums and sorts many small tuples of Fractions.
Of the candidates tried, its speed tracked arknit's best: dividing each
knit by the mean of the samples around it cut the spread of eleven-knit
medians from 13-23 % to 3-8 %, where a cache-resident Fraction
elimination loop did about half as well.  It does not use arknit, so a
change to arknit cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.2
INTERVAL_S = 0.1  # op time after which the next op gets a fresh sample
OBJECTS = 12000
ROUNDS = 2


def sample() -> float:
    """Seconds taken by one run of the reference work."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        objs = [(Fraction(i % 7, 1 + i % 5), ("v", i % 11), i)
                for i in range(OBJECTS)]
        groups = {}
        for obj in objs:
            groups.setdefault(obj[1], []).append(obj[0])
        sum(sum(vals) for vals in groups.values())
        sorted(objs, key=lambda obj: (obj[1], obj[2]))
    return time.perf_counter() - t0
