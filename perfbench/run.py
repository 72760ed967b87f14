"""Benchmark of ospq: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 28 --trace 0

Load model: a closed loop with one caller, one process and one thread at a
time.  Each pass runs every generated item of the workload back to back in a
fresh Python process (``one_pass.py``), so a pass pays its own imports and
never inherits another pass's state; reuse inside a pass counts.  Passes run
one after another until ``--seconds`` have elapsed.

Times are reported in seconds of the reference host.  The host is shared and
its speed moves in phases, so each pass samples a fixed kernel
(``calibrate.py``) before and after every item, and an item's wall time is
scaled by ``REFERENCE_S`` over the mean of the two samples around it.  A slow
phase slows the kernel and the item alike and cancels; the kernel runs no
``ospq`` code, so a change to the program moves only the item.  Raw wall
times are printed beside the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (medians over the
traced passes) and the tracing overhead.  Human-readable lines come first;
the last line of standard output is the JSON result.  ``--size smoke`` runs
a miniature of each workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("identities", "coset", "modular", "s-transform")
DEFAULT_SEED = 1
SETUP_PROBES = 4  # extra set-up-only processes per untraced run
HARD_LIMIT_S = 170.0  # the whole run ends within this, whatever --seconds says

# (metric, unit, better) of the untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_s", "s", "lower"),
    ("item_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("verified_frac", "ratio", "higher"),
)


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, orders) -> dict:
    import mpmath.libmp
    return {
        "python": platform.python_version(),
        "mpmath": "%s (backend %s)" % (mpmath.__version__, mpmath.libmp.BACKEND),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "orders": orders,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(args, deadline: float, setup_only: bool = False, spans: str = None) -> dict:
    """One fresh-process pass, traced when ``spans`` names the span file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PERFBENCH_SRC"] = str(SRC)
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--trace", "--spans", spans]
    spawned = perf_counter()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"crashed": "pass overran the run's hard limit"}
    if proc.returncode != 0:
        return {"crashed": "pass exited with code %d" % proc.returncode}
    try:
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": "pass printed no result"}


def scaled_items(p):
    """(item, seconds of the reference host) for each item of a pass."""
    cal = p["cal"]
    return [(it, it["s"] * 2 * REFERENCE_S / (cal[i] + cal[i + 1]))
            for i, it in enumerate(p["items"])]


def scaled_pass(p) -> float:
    return sum(s for _, s in scaled_items(p))


def scaled_setup(p) -> float:
    return p["setup_s"] * REFERENCE_S / p["cal"][0]


def item_latencies(passes):
    """Each item's scaled latency: its median over the passes, in item order."""
    by_key = {}
    for p in passes:
        for it, s in scaled_items(p):
            by_key.setdefault(it["key"], []).append(s)
    return [statistics.median(v) for v in by_key.values()]


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    start = perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    if not (SRC / "ospq" / "__init__.py").is_file():
        print("error: the ospq sources are missing (%s); run from a full checkout"
              % (SRC / "ospq"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SIZES
    env = environment(args, {k: repr(v) for k, v in SIZES[args.size][args.workload].items()})
    print("env " + json.dumps(env))

    passes, traced = [], []
    setups = []
    crashed = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_pass(args, hard_deadline, setup_only=True)
            if "crashed" in probe:
                crashed.append(probe["crashed"])
            else:
                setups.append(probe)
    OUT.mkdir(exist_ok=True)
    n_items = None
    walls = []  # process wall time of each pass, to end the run near --seconds
    while perf_counter() < hard_deadline - 1 and len(crashed) < 3:
        elapsed = perf_counter() - start
        # stop at --seconds, or earlier when the next pass would end past it
        # by more than half a pass; every run makes at least one untraced
        # pass, and a traced run at least one traced pass too
        if passes and (traced or not args.trace) and (
                elapsed >= args.seconds or (len(walls) >= 2 and elapsed
                                            + statistics.median(walls) / 2 > args.seconds)):
            break
        trace_this = bool(args.trace) and len(passes) > len(traced)
        spans = str(OUT / ("%s-%s.pass%d.spans.jsonl" % (
            args.workload, args.size, len(traced)))) if trace_this else None
        t0 = perf_counter()
        res = run_pass(args, hard_deadline, spans=spans)
        walls.append(perf_counter() - t0)
        if "crashed" in res:
            crashed.append(res["crashed"])
            print("pass crashed: %s" % res["crashed"], file=sys.stderr)
            continue
        n_items = len(res["items"])
        (traced if trace_this else passes).append(res)

    every = passes + traced
    items = [it for p in every for it in p["items"]]
    failed_items = [it for it in items if it["problems"]]
    for it in failed_items:
        print("FAILED %s: %s" % (it["key"], "; ".join(it["problems"])), file=sys.stderr)
    # a crashed pass counts all of its items as attempted and failed
    lost = len(crashed) * (n_items or 1)
    attempted = len(items) + lost
    failed = len(failed_items) + lost
    verified = len(items) - len(failed_items)

    def per_pass_rate(ps):
        seconds = sum(scaled_pass(p) for p in ps)
        ok = sum(1 for p in ps for it in p["items"] if not it["problems"])
        return ok / seconds if seconds > 0 else 0.0

    metrics = {}
    lines = []
    if passes:
        latencies = item_latencies(passes)
        setups += passes
        if len(latencies) > 10:
            t_value, t_pct, t_n = tail(latencies)
            t_basis = "items, each the median of its passes"
        else:
            # too few items for a tail: take it over every item of every pass
            t_value, t_pct, t_n = tail([s for p in passes for _, s in scaled_items(p)])
            t_basis = "item latencies over all passes"
        item_walls = [sum(it["s"] for it in p["items"]) for p in passes]
        values = {
            "setup_s": statistics.median(scaled_setup(p) for p in setups),
            "pass_s": statistics.median(scaled_pass(p) for p in passes),
            "items_per_s": per_pass_rate(passes),
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": t_value,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "verified_frac": verified / attempted if attempted else 0.0,
        }
        notes = {
            "setup_s": "median of %d set-ups; wall %.3f s" % (
                len(setups), statistics.median(p["setup_s"] for p in setups)),
            "pass_s": "median of %d passes: %s; wall %s s" % (
                len(passes), " ".join("%.3f" % scaled_pass(p) for p in passes),
                " ".join("%.3f" % w for w in item_walls)),
            "item_p50_s": "%d items, each the median of its passes" % len(latencies),
            "item_tail_s": "p%.1f of %d %s" % (t_pct, t_n, t_basis),
            "verified_frac": "%d of %d" % (verified, attempted),
        }
        if not args.trace:
            for name, unit, _ in END_TO_END:
                metrics[name] = {"value": values[name], "unit": unit}
        for name, unit, _ in END_TO_END:
            lines.append("%-14s %.6g %s  %s" % (name, values[name], unit, notes.get(name, "")))
        lines.append("%-14s %.6g %s  (1 - verified_frac)"
                     % ("failed_frac", failed / attempted if attempted else 0.0, "ratio"))
    if args.trace:
        from tracer import PER_LAYER, median_metrics
        if traced and passes:
            layers = median_metrics([p["layers"] for p in traced])
            untraced_rate = per_pass_rate(passes)
            layers["trace.overhead_frac"] = (1.0 - per_pass_rate(traced) / untraced_rate
                                             if untraced_rate else 0.0)
            for name, unit, _ in PER_LAYER:
                metrics[name] = {"value": layers[name], "unit": unit}
                lines.append("%-44s %.6g %s" % (name, layers[name], unit))
    for line in lines:
        print(line)
    result_ok = bool(metrics) and failed == 0
    print(json.dumps({"correct": result_ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
