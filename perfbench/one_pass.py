"""One pass of a workload in a fresh process; prints one JSON line.

Started by ``run.py`` with ``src`` on PYTHONPATH, so a pass never inherits an
earlier pass's state.  ``--spawned`` is the parent's monotonic clock reading
just before the process was started; set-up time runs from there to the start
of the first item and covers interpreter start, imports and input generation.
With ``--setup-only`` the pass stops there.  A sample of the reference
kernel (``calibrate.py``) is taken after set-up and after every item, outside
the item's time, so each item has one sample on either side of it.  With
``--trace`` spans are recorded around every layer call and written to
``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import ospq
    src = os.environ.get("PERFBENCH_SRC")
    if src and not os.path.realpath(ospq.__file__).startswith(os.path.realpath(src)):
        print("ospq imported from %s, not from %s" % (ospq.__file__, src), file=sys.stderr)
        return 2
    from calibrate import sample
    from workloads import digest, make_items

    items = make_items(args.workload, args.seed, args.size)
    ref_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
    with open(ref_path) as fh:
        reference = json.load(fh)[args.size]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    first = perf_counter()
    cal = [sample()]
    for idx, item in enumerate(items):
        if args.setup_only:
            break
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_item(idx)
        try:
            out, error = item.run(), None
        except Exception as ex:  # a raising item is a failed item, not a crash
            out, error = None, "%s: %s" % (type(ex).__name__, ex)
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.end_item()
        t1 = perf_counter()
        cal.append(sample())
        problems = [error] if error else []
        if not error:
            gate_problems, exact = item.check(out)
            problems += gate_problems
            if exact is not None:
                want = reference.get(item.key)
                got = digest(exact)
                if want != got:
                    problems.append("digest %s, reference %s" % (got, want))
        results.append({"key": item.key, "s": t1 - t0, "problems": problems})

    report = {
        "setup_s": first - args.spawned,
        "items": results,
        "cal": cal,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics
        tracer.uninstall()
        report["layers"] = layer_metrics(tracer.spans)
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed,
                                      "size": args.size,
                                      "items": [it.key for it in items]})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
