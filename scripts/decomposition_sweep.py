#!/usr/bin/env python3
"""Sweep the exact character-decomposition identity across the level family.

For every admissible level of the acceptance gate (``selftest.LEVEL_SET``)
and every module label, the superalgebra character is compared against the
sum of (affine sl2) x (Virasoro) component products, exactly, to the
requested order.

Usage: python3 scripts/decomposition_sweep.py -N 10
"""

import argparse
import time
from fractions import Fraction

from ospq.characters import AdmissibleLevel, verify_decomposition, verify_theta_identity
from ospq.selftest import LEVEL_SET


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-N", "--order", type=Fraction, default=Fraction(10))
    ap.add_argument("--numerator-only", action="store_true",
                    help="check the theta-numerator identity instead "
                         "(much faster at large orders)")
    args = ap.parse_args()

    check = verify_theta_identity if args.numerator_only else verify_decomposition
    failures = 0
    for p, pp in LEVEL_SET:
        level = AdmissibleLevel(p, pp)
        for label in level.osp_labels():
            t0 = time.time()
            rep = check(level, label, args.order)
            status = "ok" if rep.ok else "FAIL"
            print("%-4s %-18s label (%d,%d)  order %-6s  %5.2fs" % (
                status, str(level), label.r, label.s, args.order,
                time.time() - t0))
            if not rep.ok:
                failures += 1
                print("     first discrepancy:", rep.first_discrepancy)
    if failures:
        raise SystemExit("%d identity checks failed" % failures)
    print("all decompositions hold to order", args.order)


if __name__ == "__main__":
    main()
