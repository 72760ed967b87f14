"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a shared VM whose speed moves by up to half between
phases that last from seconds to minutes.  A pass samples this kernel before
every item and after the last one; ``run.py`` divides each item's time by the
kernel's time around it, so a slow phase slows both and cancels out.

The kernel uses no ``ospq`` code, so an optimisation of the program never
changes it.  It mixes the two kinds of work the program does: exact series
arithmetic (dicts keyed by ``Fraction`` exponents, integer coefficients) and
256-bit ``mpmath`` arithmetic (trigonometric sums, as in an S-matrix).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from mpmath import mp

# the kernel's median sample on the reference host (2-vCPU VM, Intel Xeon at
# 2.1 GHz, Python 3.11, mpmath 1.3 on its python backend), over 1,517 samples
# taken in 15 runs; times are reported in seconds of that host at that speed
REFERENCE_S = 0.002
# a sample is the fastest of this many back-to-back calls, so a garbage
# collection or an interrupt that lands in one call does not count
REPEATS = 3

_A = {Fraction(i, 3): (i * 7919) % 101 - 50 for i in range(24)}
_B = {Fraction(i, 4): (i * 104729) % 97 - 48 for i in range(24)}


def kernel():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = ea + eb
            if e < 6:
                out[e] = out.get(e, 0) + ca * cb
    with mp.workprec(256):
        x = mp.mpf(0)
        for j in range(1, 9):
            x += mp.sinpi(mp.mpf(j) / 17) * mp.cospi(mp.mpf(j * j) / 23)
    return len(out), x


def sample() -> float:
    """Seconds of one kernel call, the fastest of ``REPEATS`` in a row."""
    best = None
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best
