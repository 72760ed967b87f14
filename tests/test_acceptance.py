"""Acceptance gate: every numbered criterion at full size, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines
as they complete; ``ospq selftest`` exposes the same gate on the command line.
"""

import sys

import pytest

from ospq.selftest import CRITERIA, run_all

NAMES = {
    1: "theta-identity",
    2: "decomposition",
    3: "verlinde-equivalence",
    4: "modular-axioms",
    5: "fp-dimensions",
    6: "minimal-weight",
    7: "central-charge",
    8: "locality",
    9: "s-transform-numeric",
    10: "coset-roundtrip",
}


@pytest.mark.parametrize(
    "number,fn",
    CRITERIA,
    ids=["c%02d-%s" % (n, NAMES[n]) for n, _ in CRITERIA],
)
def test_criterion(number, fn):
    result = fn(False)  # full-size run, stated tolerances
    print(result.line(), file=sys.stderr)
    assert result.passed, result.line()


def test_run_all_rejects_unknown_numbers_before_running_any():
    ran = []
    with pytest.raises(ValueError, match="unknown criterion 0, 11"):
        run_all(fast=True, only=[11, 4, 0], report=ran.append)
    assert ran == []
