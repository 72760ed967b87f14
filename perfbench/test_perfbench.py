"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ospq  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from run import END_TO_END, OUT, WORKLOADS, scaled_pass, scaled_setup  # noqa: E402
from tracer import ITEM, PER_LAYER, Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every end-to-end metric the benchmark reports in its human-readable lines
REPORTED = [name for name, _, _ in END_TO_END] + ["failed_frac"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=str(cwd), capture_output=True, text=True, timeout=170)


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_scaling_cancels_a_uniform_slowdown():
    fast = {"setup_s": 0.1, "cal": [REFERENCE_S] * 3,
            "items": [{"s": 1.0}, {"s": 2.0}]}
    slow = {"setup_s": 0.15, "cal": [1.5 * REFERENCE_S] * 3,
            "items": [{"s": 1.5}, {"s": 3.0}]}
    assert scaled_pass(fast) == pytest.approx(3.0) == pytest.approx(scaled_pass(slow))
    assert scaled_setup(fast) == pytest.approx(0.1) == pytest.approx(scaled_setup(slow))
    # an item takes the mean of the samples on either side of it
    mixed = {"cal": [REFERENCE_S, 3 * REFERENCE_S], "items": [{"s": 2.0}]}
    assert scaled_pass(mixed) == pytest.approx(1.0)


def test_tracer_rebinds_every_import_site():
    original = ospq.characters.osp_char
    tracer = Tracer()
    tracer.install()
    try:
        # the package, characters and coset each hold their own binding
        assert ospq.coset.osp_char.__wrapped__ is original
        assert ospq.osp_char is ospq.characters.osp_char is ospq.coset.osp_char
        tracer.begin_item(0)
        ospq.coset_char_direct(1, ospq.CosetLabel(0, 1), 1)
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert ospq.coset.osp_char is original
    names = [s[0] for s in tracer.spans]
    direct = names.index("coset.coset_char_direct")
    chars = [i for i, s in enumerate(tracer.spans)
             if s[0] == "characters.osp_char" and s[3] == direct]
    assert chars, "coset_char_direct recorded no osp_char child"
    assert any(s[0] == "theta.wq_invert" and s[3] in chars for s in tracer.spans)
    assert tracer.spans[0][0] == ITEM and all(s[4] == 0 for s in tracer.spans)
    layers = layer_metrics(tracer.spans)
    assert layers["coset.coset_char_direct.calls"] == 1
    assert layers["characters.osp_char.distinct"] == layers["characters.osp_char.calls"] >= 1
    assert 0 < layers["theta.wq_invert.share"] < 1


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert "FAILED" not in proc.stderr  # a digest mismatch or gate violation
    text = "\n".join(lines[:-1])
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert {"python", "mpmath", "nproc", "git_sha", "seed", "orders"} <= set(env)
    for name in REPORTED:
        row = [ln for ln in text.splitlines() if ln.split()[:1] == [name]]
        assert row and len(row[0].split()) >= 3, name  # name, value, unit
    failed_frac = [ln for ln in text.splitlines() if ln.startswith("failed_frac")][0]
    assert float(failed_frac.split()[1]) == 0.0


def test_without_the_program_it_fails_without_a_result():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "identities", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
