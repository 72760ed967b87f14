"""Lattice coset sectors: branchings, phase sums, reassembly, modular data."""

import os
import subprocess
import sys
from fractions import Fraction as QQ
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import ospq.characters as characters
import ospq.coset as coset
import ospq.modular as modular
from ospq.characters import AdmissibleLevel, InvalidLabel, VirLabel, char_w1, vir_char
from ospq.coset import (
    CosetLabel,
    InconsistentBranching,
    coset_char_direct,
    coset_char_phase_sum,
    coset_labels,
    coset_reassembly,
    coset_smatrix,
    lattice_theta,
)
from ospq.fusion import OutOfRange, parafermion_fusion
from ospq.modular import derived_tolerance, s_small, st_cube_defect, t_matrix, verlinde_standard
from ospq.qseries import qs_equal_below, qs_scalar
from ospq.theta import WQSeries

st_k = st.integers(min_value=1, max_value=4)


# -- labels and lattice bookkeeping ------------------------------------------------


def test_label_grid():
    assert coset_labels(1) == (
        CosetLabel(0, 1),
        CosetLabel(0, 3),
        CosetLabel(1, 1),
        CosetLabel(1, 3),
    )
    assert len(coset_labels(2)) == 12
    assert len(coset_labels(3)) == 24  # 2k charges x (k+1) odd module indices


def test_label_validation():
    with pytest.raises(InvalidLabel):
        coset_char_direct(1, (0, 2), 4)  # even module index
    with pytest.raises(InvalidLabel):
        coset_char_direct(1, (0, 5), 4)  # outside the window
    with pytest.raises(OutOfRange):
        coset_labels(0)


@settings(max_examples=40, deadline=None)
@given(st_k, st.integers(min_value=-8, max_value=8))
def test_charge_is_periodic_mod_2k(k, nu):
    r = 1
    a = coset_char_direct(k, (nu % (2 * k), r), 3)
    b = coset_char_direct(k, (nu, r), 3)
    ok, bad = qs_equal_below(a, b, order=3)
    assert ok, bad


# -- frozen lattice thetas ------------------------------------------------------------


def test_rank_one_lattice_theta():
    t0 = lattice_theta(1, 0, 6)
    assert t0.terms == {QQ(0): QQ(1), QQ(1): QQ(2), QQ(4): QQ(2)}
    t1 = lattice_theta(1, 1, 6)
    assert t1.terms == {QQ(1, 4): QQ(2), QQ(9, 4): QQ(2)}


@settings(max_examples=30, deadline=None)
@given(st_k, st.integers(min_value=0, max_value=7))
def test_lattice_theta_charge_conjugation(k, nu):
    a = lattice_theta(k, nu % (2 * k), 5)
    b = lattice_theta(k, (-nu) % (2 * k), 5)
    ok, bad = qs_equal_below(a, b, order=5)
    assert ok, bad


# -- sector characters ------------------------------------------------------------------


def test_level_one_sectors_are_the_u3_p5_minimal_model():
    lvl = AdmissibleLevel.from_integer_level(1)
    correspondence = {
        (0, 1): VirLabel(1, 1),
        (1, 1): VirLabel(1, 4),
        (0, 3): VirLabel(1, 3),
        (1, 3): VirLabel(1, 2),
    }
    for lab, vlab in correspondence.items():
        sector = coset_char_direct(1, lab, 10)
        minimal = vir_char(lvl, vlab, 10)
        ok, bad = qs_equal_below(sector, minimal, order=10)
        assert ok, (lab, bad)


def test_vacuum_sector_leading_exponent():
    ch = coset_char_direct(1, (0, 1), 6)
    assert ch.min_exp() == QQ(1, 40)  # -c/24 with c = -3/5
    assert ch.coeff(QQ(1, 40)) == 1
    # no weight-one current survives in the quotient
    assert ch.coeff(QQ(41, 40)) == 0


def test_charge_conjugation_symmetry():
    for k, nu, r in ((2, 1, 3), (3, 2, 5)):
        a = coset_char_direct(k, (nu, r), 4)
        b = coset_char_direct(k, (2 * k - nu, r), 4)
        ok, bad = qs_equal_below(a, b, order=4)
        assert ok, bad


def test_phase_sum_route_agrees_with_direct():
    for k, N in ((1, 6), (2, 6), (3, 4)):
        for lab in coset_labels(k):
            direct = coset_char_direct(k, lab, N)
            for variant in ("plus", "minus"):
                phased = coset_char_phase_sum(k, lab, N, variant=variant)
                assert phased.trunc == N
                ok, bad = qs_equal_below(direct, phased, order=N)
                assert ok, (k, lab, variant, bad)


def test_phase_sum_integer_gate_fires(monkeypatch):
    # twice the class theta halves every sector coefficient: the vacuum's 1/2
    real = coset.lattice_theta
    monkeypatch.setattr(coset, "lattice_theta",
                        lambda k, nu, N: qs_scalar(real(k, nu, N), 2))
    with pytest.raises(InconsistentBranching, match="not an integer"):
        coset_char_phase_sum(1, (0, 1), 3)


def test_phase_sum_rationality_gate_fires(monkeypatch):
    # w^(1/3) lives on zeta_6: its phase average 1 + zeta_6^2 = zeta_6 is not
    # rational, so the projection cannot be a q-series coefficient
    monkeypatch.setattr(coset, "_full_char",
                        lambda k, r, M: WQSeries([(0, QQ(1, 3), 1)], M, None))
    with pytest.raises(InconsistentBranching, match="not rational"):
        coset_char_phase_sum(1, (0, 1), 3)


def test_cyclotomic_polynomials():
    assert coset._cyclotomic(1) == [-1, 1]
    assert coset._cyclotomic(2) == [1, 1]
    assert coset._cyclotomic(4) == [1, 0, 1]
    assert coset._cyclotomic(6) == [1, -1, 1]
    assert coset._cyclotomic(8) == [1, 0, 0, 0, 1]
    assert coset._cyclotomic(12) == [1, 0, -1, 0, 1]


def test_phase_sum_margin_failure_is_a_branching_error(monkeypatch):
    # a character whose box falls short by as much as the order grows
    monkeypatch.setattr(coset, "_full_char", lambda k, r, M: WQSeries((), -M, None))
    with pytest.raises(InconsistentBranching):
        coset_char_phase_sum(1, (0, 1), 3)


# -- sector T phases -----------------------------------------------------------------


def _coset_t_phase(k: int, label, precision: int = 256):
    """T-matrix phase of a coset sector, e^{2 pi i (h - c_coset/24)}: the
    independent reference for t_matrix("coset").

    The weight is the local-component weight minus the Heisenberg weight
    nu^2/(4k); the phase exponent is cross-checked (mod 1, exactly) against
    the lowest exponent of the sector character itself.
    """
    label = coset._check_label(k, label)
    level = AdmissibleLevel.from_integer_level(k)
    exponent = (level.component_weight(1, label.r)
                - QQ(label.nu ** 2, 4 * k) - (level.c_osp - 1) / 24)
    order = QQ(2)
    for _ in range(4):
        ch = coset_char_direct(k, label, order)
        if not ch.is_zero:
            break
        order *= 2
    else:
        raise InconsistentBranching(
            "sector character vanishes to order %s" % order)
    low = ch.min_exp()
    if (low - exponent).denominator != 1:
        raise InconsistentBranching(
            "T exponent %s does not match lowest series exponent %s mod 1"
            % (exponent, low))
    with mp.workprec(precision + 16):
        return mp.expjpi(2 * modular._mpq(exponent))


def test_t_phase_frozen_values():
    with mp.workprec(300):
        vac = _coset_t_phase(1, (0, 1))
        assert abs(vac - mp.expjpi(QQ(1, 20))) < mp.mpf(10) ** -60
        charged = _coset_t_phase(1, (1, 1))
        assert abs(charged - mp.expjpi(2 * QQ(-9, 40))) < mp.mpf(10) ** -60
        assert abs(abs(charged) - 1) < mp.mpf(10) ** -60


def test_t_phase_matches_t_matrix_family():
    T = t_matrix("coset", 2)
    with mp.workprec(300):
        for lab in coset_labels(2):
            assert abs(T.phase(lab) - _coset_t_phase(2, lab)) < mp.mpf(10) ** -60


# -- reassembly of the one-variable characters ------------------------------------------


@pytest.mark.parametrize("signed", [False, True])
def test_reassembly_identity(signed):
    for k, r in ((1, 1), (1, 3), (2, 3)):
        rep = coset_reassembly(k, r, 8, signed=signed)
        assert rep.ok, (k, r, rep.detail)


def test_reassembly_builds_the_local_character_once(monkeypatch):
    calls = []
    real = coset.osp_char
    monkeypatch.setattr(coset, "osp_char",
                        lambda *args: calls.append(args) or real(*args))
    assert coset_reassembly(2, 3, 4).ok
    assert len(calls) == 1


@pytest.mark.parametrize("k, label", [(1, CosetLabel(1, 1)), (2, CosetLabel(1, 3))])
def test_both_sector_routes_build_the_local_character_once(k, label):
    built = characters._osp_char.cache_info
    direct = coset_char_direct(k, label, 3)
    for variant in ("plus", "minus"):
        ok, bad = qs_equal_below(coset_char_phase_sum(k, label, 3, variant), direct, 3)
        assert ok, (variant, bad)
    assert (built().misses, built().hits) == (1, 2)


def test_reassembly_covers_local_modules_only():
    with pytest.raises(InvalidLabel):
        coset_reassembly(1, 2, 4)


def test_reassembly_checks_the_label_before_building_the_target(monkeypatch):
    calls = []
    real = coset.char_w1
    monkeypatch.setattr(coset, "char_w1",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    with pytest.raises(InvalidLabel):
        coset_reassembly(1, 2, 4)
    with pytest.raises(InvalidLabel, match="module index must be odd"):
        coset_reassembly(1, 7, 4)
    with pytest.raises(OutOfRange):
        coset_reassembly(0, 1, 4)
    assert calls == []


def test_reassembly_matches_specialised_character():
    # independent cross-check of the identity's left side at one data point
    ch = char_w1(AdmissibleLevel.from_integer_level(1), 1, 6)
    assert ch.coeff(QQ(-1, 60)) == 1


# -- modular data over the sectors --------------------------------------------------------


def test_coset_smatrix_frozen_entries():
    S = coset_smatrix(1, verify=False)
    with mp.workprec(300):
        root2 = mp.sqrt(mp.mpf(2))
        eps = mp.mpf(10) ** -60
        assert abs(S.entry((0, 1), (0, 1)) - root2 * s_small(1, 1, 1)) < eps
        # opposite-parity charges flip the sign; the pairing phase is trivial
        assert abs(S.entry((0, 1), (1, 1)) + root2 * s_small(1, 1, 1)) < eps
        # equal odd charges contribute the exact pairing phase e^{i pi}
        assert abs(S.entry((1, 1), (1, 1)) + root2 * s_small(1, 1, 1)) < eps
        assert abs(S.entry((0, 1), (0, 3)) - root2 * s_small(1, 1, 3)) < eps


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coset_modular_consistency(k):
    S = coset_smatrix(k)  # verify=True: unitarity gate and Verlinde ring inside
    assert S.unitarity_defect() < derived_tolerance(S.precision)
    assert verlinde_standard(S) == parafermion_fusion(k)
    T = t_matrix("coset", k)
    assert st_cube_defect(S, T) < mp.mpf(10) ** -60


def test_coset_smatrix_squares_to_charge_conjugation():
    S = coset_smatrix(2, verify=False)
    with mp.workprec(300):
        M = mp.matrix([list(r) for r in S.rows])
        sq = M * M
        eps = mp.mpf(10) ** -60
        for i, a in enumerate(S.labels):
            ones = []
            for j, b in enumerate(S.labels):
                v = sq[i, j]
                near_one = abs(v - 1) < eps
                near_zero = abs(v) < eps
                assert near_one or near_zero, (a, b, v)
                if near_one:
                    ones.append(b)
            # exactly one partner: the conjugate sector (-nu, r)
            assert ones == [CosetLabel((-a.nu) % 4, a.r)], (a, ones)


# -- the round-trip script -------------------------------------------------------------


def test_roundtrip_script_runs():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run(
        [sys.executable, str(root / "scripts" / "coset_roundtrip.py"), "-k", "1", "-N", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.rstrip().endswith("Verlinde == parafermion ring: True")
