"""The scripts under scripts/: smoke runs and their exit codes."""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_decomposition_sweep_smoke():
    res = run_script("decomposition_sweep.py", "-N", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.rstrip().endswith("all decompositions hold to order 2")


def test_fp_dimension_table_smoke():
    res = run_script("fp_dimension_table.py", "--kmax", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("all identities hold") == 2


def test_fp_dimension_table_exits_nonzero_on_a_failed_level(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "fp_dimension_table", ROOT / "scripts" / "fp_dimension_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = script.fp_dimension_report

    def report(k, precision=256):
        rep = real(k, precision)
        if k != 2:
            return rep
        bad = dataclasses.replace(rep.items[0], ok=False)
        return dataclasses.replace(rep, items=(bad,) + rep.items[1:])

    monkeypatch.setattr(script, "fp_dimension_report", report)
    monkeypatch.setattr(sys, "argv", ["fp_dimension_table.py", "--kmax", "3"])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code not in (None, 0)
    assert "k = 2  (FAILURE)" in capsys.readouterr().out
