#!/usr/bin/env python3
"""Round-trip the lattice-coset construction at one integer level.

Three independent routes are exercised for every sector: the direct slice
extraction, the charge-phase projection sum, and (for odd module indices)
the reassembly of the one-variable character from the sectors.  The sector
S and T matrices are then checked against the modular-group relation and
the parafermion fusion ring.

Usage: python3 scripts/coset_roundtrip.py -k 2 -N 8
"""

import argparse
import time
from fractions import Fraction

import mpmath as mp

from ospq.coset import (
    coset_char_direct,
    coset_char_phase_sum,
    coset_reassembly,
    coset_smatrix,
)
from ospq.fusion import coset_labels, parafermion_fusion
from ospq.modular import st_cube_defect, t_matrix, verlinde_standard
from ospq.qseries import qs_equal_below


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=2)
    ap.add_argument("-N", "--order", type=Fraction, default=Fraction(8))
    args = ap.parse_args()
    k, N = args.k, args.order

    print("sector characters, direct vs phase-projected (order %s)" % N)
    for label in coset_labels(k):
        t0 = time.time()
        direct = coset_char_direct(k, label, N)
        phased = coset_char_phase_sum(k, label, N, variant="plus")
        ok, bad = qs_equal_below(direct, phased, order=N)
        print("  nu=%d r=%d  %-5s  lowest exponent %-8s  %5.2fs" % (
            label.nu, label.r, "agree" if ok else "DIFFER",
            direct.min_q(), time.time() - t0))
        if not ok:
            raise SystemExit("route mismatch at %s: %s" % (label, bad))

    print("reassembly of the one-variable characters")
    for r in range(1, 2 * k + 3, 2):
        for signed in (False, True):
            rep = coset_reassembly(k, r, N, signed=signed)
            print("  r=%d signed=%-5s  %s" % (r, signed,
                                              "ok" if rep.ok else "FAIL"))
            if not rep.ok:
                raise SystemExit(rep.detail)

    print("modular data over the sectors")
    S = coset_smatrix(k)  # verified: unitary, Verlinde ring is the parafermion ring
    T = t_matrix("coset", k)
    print("  unitarity defect     ", mp.nstr(S.unitarity_defect(), 5))
    print("  (ST)^3 vs S^2 defect ", mp.nstr(st_cube_defect(S, T), 5))
    print("  Verlinde == parafermion ring:",
          verlinde_standard(S) == parafermion_fusion(k))


if __name__ == "__main__":
    main()
