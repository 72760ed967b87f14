#!/usr/bin/env python3
"""Tabulate the Frobenius-Perron dimension identities over a range of levels.

Each row reports the computed quantity, the closed form, and their difference
at the working precision; all six identity items must hold for every level,
and the script exits with status 1 if any level fails.

Usage: python3 scripts/fp_dimension_table.py --kmax 12 --precision 256
"""

import argparse

import mpmath as mp

from ospq.modular import fp_dimension_report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=int, default=1)
    ap.add_argument("--kmax", type=int, default=12)
    ap.add_argument("--precision", type=int, default=256, help="bits")
    args = ap.parse_args()

    worst = mp.mpf(0)
    failed = []
    for k in range(args.kmin, args.kmax + 1):
        rep = fp_dimension_report(k, args.precision)
        print("k = %d  (%s)" % (k, "all identities hold" if rep.ok else "FAILURE"))
        if not rep.ok:
            failed.append(k)
        for item in rep.items:
            print("  %-14s computed %-24s closed %-24s diff %s" % (
                item.name,
                mp.nstr(mp.mpf(item.computed), 16),
                mp.nstr(mp.mpf(item.closed_form), 16),
                mp.nstr(mp.mpf(item.difference), 3),
            ))
            if item.difference > worst:
                worst = item.difference
    print("worst difference across the sweep:", mp.nstr(worst, 5))
    if failed:
        raise SystemExit("identities fail at k = %s" % ", ".join(map(str, failed)))


if __name__ == "__main__":
    main()
