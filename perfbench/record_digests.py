"""Write digests.json: the reference digest of every exact item output.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs every item the strata of each workload can produce (for both sizes),
checks its numeric gates, and records the digest of its exact output.  Run it
only when a change is meant to alter exact results; the benchmark counts any
digest mismatch as a failed item.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import SIZES, WORKLOADS, digest, make_items


def main() -> int:
    out = {}
    bad = 0
    for size in SIZES:
        table = {}
        for workload in WORKLOADS:
            for item in make_items(workload, None, size):
                problems, exact = item.check(item.run())
                if problems:
                    bad += 1
                    print("FAILED %s: %s" % (item.key, "; ".join(problems)), file=sys.stderr)
                if exact is not None:
                    table[item.key] = digest(exact)
        out[size] = dict(sorted(table.items()))
        print("%s: %d digests" % (size, len(table)))
    if bad:
        print("not written: %d items failed their gates" % bad, file=sys.stderr)
        return 1
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
