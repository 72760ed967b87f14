"""Modular data: S/T matrices, Verlinde rings, dimension identities, S-transform."""

import math
from collections import Counter
from fractions import Fraction as QQ

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import ospq.modular as modular
from ospq.characters import AdmissibleLevel, VirLabel
from ospq.coset import _coset_ring, coset_labels, coset_smatrix
from ospq.fusion import (FusionTensor, OutOfRange, check_level, osp_fusion,
                         parafermion_fusion, sl2_fusion, vir_fusion)
from ospq.modular import (
    NonIntegralFusion,
    SMatrix,
    check_s_transform_numeric,
    derived_tolerance,
    extended_labels,
    extended_smatrix,
    fp_dimension_report,
    min_conformal_weight,
    s_small,
    s_table,
    sl2_smatrix,
    st_cube_defect,
    t_matrix,
    verlinde_standard,
    verlinde_super,
    vir_smatrix,
    vir_weight_map,
)
from ospq.qseries import NonconvergentDomain, VerificationError, qs_eval

st_k = st.integers(min_value=1, max_value=4)


def test_derived_tolerance_scales_with_precision():
    tol = derived_tolerance(256)
    assert mp.mpf("0.9e-63") < tol < mp.mpf("1.1e-63")
    assert derived_tolerance(128) < derived_tolerance(64)
    assert derived_tolerance(5) < 1
    for precision in (1, 2, 4):  # 10^(1 - p/4) >= 1: no check could fail
        with pytest.raises(ValueError, match="not below 1"):
            derived_tolerance(precision)


# -- frozen S-matrix entries ------------------------------------------------------


def test_small_smatrix_frozen_entries():
    with mp.workprec(320):
        assert abs(s_small(1, 1, 1) - mp.mpf("0.4253254041760200")) < 1e-15
        assert abs(s_small(1, 1, 3) - mp.mpf("-0.2628655560595668")) < 1e-15
        # closed form: (-1)^{r+r'} sqrt(1/5) sin(3 pi r r'/5)
        closed = mp.sqrt(mp.mpf(1) / 5) * mp.sinpi(mp.mpf(12) / 5)
        assert abs(s_small(1, 2, 2) - closed) < mp.mpf(10) ** -60
        closed13 = mp.sqrt(mp.mpf(1) / 5) * mp.sinpi(mp.mpf(9) / 5)
        assert abs(s_small(1, 1, 3) - closed13) < mp.mpf(10) ** -60


@pytest.mark.parametrize("precision", [64, 256])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_s_table_is_s_small_bit_for_bit(k, precision):
    table = s_table(k, precision)
    assert len(table) == 2 * k + 2
    for r, row in enumerate(table, 1):
        assert len(row) == 2 * k + 2
        for t, v in enumerate(row, 1):
            assert v._mpf_ == s_small(k, r, t, precision)._mpf_, (r, t)


def test_small_smatrix_window():
    with pytest.raises(OutOfRange):
        s_small(1, 0, 1)
    with pytest.raises(OutOfRange):
        s_small(1, 1, 5)


def test_affine_sl2_level_one_matrix():
    S = sl2_smatrix(1)
    with mp.workprec(320):
        h = mp.sqrt(mp.mpf(1) / 2)
        want = [[h, h], [h, -h]]
        for i, a in enumerate(S.labels):
            for j, b in enumerate(S.labels):
                assert abs(S.entry(a, b) - want[i][j]) < mp.mpf(10) ** -40


def test_virasoro_smatrix_representative_independence():
    # entries must not depend on which Kac-box representative labels the row
    S = vir_smatrix(3, 5)
    assert S.labels == tuple(sorted(vir_weight_map(3, 5), key=lambda l: (l.r, l.s)))
    assert S.unitarity_defect() < derived_tolerance(S.precision)
    assert S.symmetry_defect() < derived_tolerance(S.precision)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extended_matrix_structure(k):
    S = extended_smatrix(k)
    labels = extended_labels(k)
    assert S.labels == tuple(labels)
    assert len(labels) == 2 * (2 * k + 2)
    assert S.unitarity_defect() < derived_tolerance(S.precision)
    assert S.symmetry_defect() < derived_tolerance(S.precision)
    assert S.square_defect_from_identity() < derived_tolerance(S.precision)
    with mp.workprec(320):
        eps = mp.mpf(10) ** -70
        # even-even block is the plain small matrix
        for r in range(1, 2 * k + 3):
            for t in range(1, 2 * k + 3):
                assert abs(S.entry((r, "even"), (t, "even")) - s_small(k, r, t)) < eps
        # odd-odd block carries the sign (-1)^{r+t}
        for r in (1, 2):
            for t in (1, 2):
                want = (-1) ** (r + t) * s_small(k, r, t)
                assert abs(S.entry((r, "odd"), (t, "odd")) - want) < eps


# -- Verlinde rings ---------------------------------------------------------------------


def test_verlinde_matches_combinatorial_rings():
    assert verlinde_standard(sl2_smatrix(1)) == sl2_fusion(1)
    assert verlinde_standard(sl2_smatrix(3)) == sl2_fusion(3)
    assert verlinde_standard(vir_smatrix(3, 5)) == vir_fusion(3, 5)
    assert verlinde_standard(vir_smatrix(4, 7)) == vir_fusion(4, 7)


def test_verlinde_rejects_non_modular_input():
    base = sl2_smatrix(1, precision=128)
    rows = [[base.entry(a, b) for b in base.labels] for a in base.labels]
    rows[0][0] += mp.mpf("1e-3")
    broken = SMatrix(base.labels, rows, 0, 128)
    with pytest.raises(NonIntegralFusion):
        verlinde_standard(broken)


_LU_GATE = 1e-6


def _lu_verlinde(S):
    """Independent reference: all O(n^4) Verlinde sums
    N_ab^c = sum_x S_ax S_bx (S^-1)_xc / S_vac,x over mpmath's LU inverse,
    each read off under a 1e-6 gate; None when a sum is not a
    nonnegative integer within the gate or the vacuum row vanishes."""
    n, vac, rows = S.n, S.vacuum_index, S.rows
    with mp.workprec(S.precision + 16):
        if any(abs(v) < mp.mpf(10) ** (-S.precision // 4) for v in rows[vac]):
            return None
        Minv = mp.matrix([list(r) for r in rows]) ** -1
        P_col = [[Minv[x, c] / rows[vac][x] for x in range(n)] for c in range(n)]
        coeffs = {}
        for a in range(n):
            for b in range(a, n):
                prod = [u * v for u, v in zip(rows[a], rows[b])]
                for c in range(n):
                    v = mp.fdot(prod, P_col[c])
                    m = int(mp.nint(mp.re(v)))
                    if abs(v - m) > _LU_GATE or m < 0:
                        return None
                    if m:
                        coeffs[(S.labels[a], S.labels[b], S.labels[c])] = m
                        coeffs[(S.labels[b], S.labels[a], S.labels[c])] = m
    return FusionTensor(S.labels, S.labels[vac], coeffs)


@pytest.mark.parametrize("S", [
    lambda: sl2_smatrix(1), lambda: sl2_smatrix(2), lambda: sl2_smatrix(3),
    lambda: sl2_smatrix(6), lambda: sl2_smatrix(8), lambda: vir_smatrix(3, 4),
    lambda: vir_smatrix(3, 5), lambda: vir_smatrix(4, 7), lambda: vir_smatrix(5, 8),
    lambda: vir_smatrix(5, 9), lambda: coset_smatrix(2, verify=False),
    lambda: coset_smatrix(3, verify=False)],
    ids=["sl2-1", "sl2-2", "sl2-3", "sl2-6", "sl2-8", "vir-3-4", "vir-3-5",
         "vir-4-7", "vir-5-8", "vir-5-9", "coset-2", "coset-3"])
def test_verlinde_standard_is_the_lu_reference(S):
    S = S()
    assert verlinde_standard(S) == _lu_verlinde(S)


_VIR_PAIRS = [(2, 3), (2, 5), (2, 9), (3, 4), (3, 5), (3, 8), (4, 5), (4, 7),
              (5, 6), (5, 8), (5, 9), (6, 7), (7, 12), (8, 15)]


@pytest.mark.parametrize("u,p", _VIR_PAIRS)
def test_vir_ring_is_the_fusion_oracle(u, p):
    S = vir_smatrix(u, p)
    ring = S.ring()
    assert ring == vir_fusion(u, p)
    assert ring.labels == S.labels and ring.unit == S.labels[S.vacuum_index]


@pytest.mark.parametrize("k", range(1, 9))
def test_sl2_ring_is_the_fusion_oracle(k):
    S = sl2_smatrix(k)
    assert S.ring() == sl2_fusion(k)
    assert S.ring().labels == S.labels


@pytest.mark.parametrize("k", range(1, 7))
def test_coset_ring_is_the_fusion_oracle(k):
    ring = _coset_ring(k)
    assert ring == parafermion_fusion(k)
    assert ring.labels == coset_labels(k)


def test_a_matrix_without_a_ring_is_refused():
    S = sl2_smatrix(2)
    raw = SMatrix(S.labels, S.rows, S.vacuum_index, S.precision)
    assert raw.ring is None
    with pytest.raises(ValueError, match="no closed form"):
        verlinde_standard(raw)
    with pytest.raises(ValueError):
        verlinde_standard(extended_smatrix(1))


def _moved(tensor, key, step):
    coeffs = dict(tensor.items())
    coeffs[key] = coeffs.get(key, 0) + step
    return FusionTensor(tensor.labels, tensor.unit, coeffs)


def _matrix_and_ring(family, k):
    if family == "coset":
        return coset_smatrix(k, verify=False), parafermion_fusion(k)
    if family == "vir":
        return vir_smatrix(k + 2, 2 * k + 3), vir_fusion(k + 2, 2 * k + 3)
    return sl2_smatrix(k), sl2_fusion(k)


@pytest.mark.parametrize("family,k", [
    ("coset", 1), ("coset", 2), ("coset", 3), ("vir", 1), ("vir", 2),
    ("sl2", 1), ("sl2", 3)])
def test_verlinde_matches_accepts_the_fusion_rings(family, k):
    S, ring = _matrix_and_ring(family, k)
    assert verlinde_standard(S) == ring == _lu_verlinde(S)


@pytest.mark.parametrize("family,k", [("coset", 1), ("coset", 2), ("vir", 1), ("sl2", 2)])
def test_verlinde_matches_rejects_a_wrong_tensor(family, k):
    S, ring = _matrix_and_ring(family, k)
    key = sorted(ring.items(), key=repr)[len(ring.items()) // 2][0]
    a, b, _ = key
    absent = next((a, b, c) for c in ring.labels if not ring.coeff(a, b, c))
    counted = verlinde_standard(S)
    for wrong in (_moved(ring, key, 1), _moved(ring, key, -1),
                  _moved(ring, absent, 1)):
        assert counted != wrong and _lu_verlinde(S) != wrong


@pytest.mark.parametrize("family,k", [("coset", 2), ("vir", 1), ("sl2", 3)])
def test_verlinde_matches_rejects_a_non_unitary_matrix(family, k):
    S, ring = _matrix_and_ring(family, k)
    # one non-vacuum row scaled by 1.01, built with the ring of S: the rows
    # no longer follow the closed form the ring is counted from
    i = (S.vacuum_index + 1) % S.n
    rows = [[v * mp.mpf("1.01") if j == i else v for v in row]
            for j, row in enumerate(S.rows)]
    bent = SMatrix(S.labels, rows, S.vacuum_index, S.precision, ring=S.ring)
    assert bent.unitarity_defect() > mp.mpf("0.01")
    assert _lu_verlinde(bent) is None
    with pytest.raises(NonIntegralFusion, match="unitarity defect"):
        verlinde_standard(bent)


def test_verlinde_matches_rejects_another_unit_or_label_set():
    S, ring = _matrix_and_ring("sl2", 2)
    counted = verlinde_standard(S)
    assert counted != FusionTensor(ring.labels, 2, dict(ring.items()))
    assert counted != sl2_fusion(3)
    assert counted != _moved(ring, (1, 1, 1), -2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_refined_verlinde_agrees_with_parity_ring(k):
    sv = verlinde_super(k)
    ft = osp_fusion(k)
    gate = derived_tolerance(sv.precision)
    assert sv.stilde_involution_defect < gate
    assert sv.stilde_inverse_defect < gate
    # the reported defect is a bound on the distance of the LU inverse
    St = sv.stilde
    with mp.workprec(sv.precision + 16):
        M = mp.matrix([list(r) for r in St.rows])
        lu = M ** -1 - M
        assert sv.stilde_inverse_defect >= max(
            abs(lu[i, j]) for i in range(St.n) for j in range(St.n))
    assert sv.n_plus == sv.n_minus
    assert sv.n_plus == {key: ft.coeff(*key) for key in sv.n_plus}
    # parity split reproduces the decorated ring on a few sign patterns
    from ospq.fusion import super_fusion

    for key in list(sv.n_plus)[:12]:
        r, r2, r3 = key
        for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, -1)):
            want = super_fusion(k, r, signs[0], r2, signs[1], r3, signs[2])
            assert sv.entry(r, signs[0], r2, signs[1], r3, signs[2]) == want


def test_refined_verlinde_frozen_values():
    sv = verlinde_super(1)
    assert sv.n_plus[(1, 1, 1)] == 1
    assert sv.n_plus[(2, 2, 3)] == 1
    assert sv.n_plus.get((2, 2, 2), 0) == 0


def _gated_refined_counts(k, precision=256):
    """The refined read-off by fixed-point sums: N^+ and N^- as 4 times the
    sum over even, and over odd, t of s_{r,t} s_{r',t} s_{r'',t} / s_{1,t},
    each an exact dot product rounded once and gated to an integer within
    1e-6."""
    nmax = 2 * k + 2
    s = s_table(k, precision)
    counts = ({}, {})
    with mp.workprec(precision + 16):
        # 0-based t of the even and of the odd labels
        ts = (range(1, nmax, 2), range(0, nmax, 2))
        cols = [[modular._fixed([s[t][c] for t in tp]) for c in range(nmax)]
                for tp in ts]
        for r in range(1, nmax + 1):
            for r2 in range(1, nmax + 1):
                weights = [modular._fixed([s[r - 1][t] * s[r2 - 1][t] / s[0][t]
                                           for t in tp]) for tp in ts]
                for r3 in range(1, nmax + 1):
                    if (r + r2 + r3) % 2 == 0:
                        continue
                    for parity, store in enumerate(counts):
                        v = 4 * modular._dot(weights[parity], cols[parity][r3 - 1])
                        nint = int(mp.nint(v))
                        assert abs(v - nint) <= 1e-6 and nint >= 0, (r, r2, r3)
                        if nint:
                            store[(r, r2, r3)] = nint
    return counts


@pytest.mark.parametrize("k", range(1, 8))
def test_refined_count_is_the_gated_fixed_point_read_off(k):
    sv = verlinde_super(k)
    assert (sv.n_plus, sv.n_minus) == _gated_refined_counts(k)


@pytest.mark.parametrize("k", range(1, 9))
def test_refined_count_is_the_parity_ring(k):
    sv = verlinde_super(k)
    assert sv.n_plus == dict(osp_fusion(k).items())
    assert sv.n_minus == sv.n_plus and sv.n_minus is not sv.n_plus


def _stilde_matrix(k, precision=256):
    """verlinde_super's basis-changed matrix, without the refined count."""
    return modular._stilde_from_table(s_table(k, precision), precision)


def test_stilde_matrix_shape():
    S = _stilde_matrix(1)
    assert S.labels == tuple((r, e) for e in ("+", "-") for r in (1, 2, 3, 4))
    assert S.unitarity_defect() < derived_tolerance(S.precision)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stilde_parity_rule_is_the_four_case_rule(k):
    s = s_table(k)
    S = modular._stilde_from_table(s, 256)
    for (r, a), row in zip(S.labels, S.rows):
        for (t, b), v in zip(S.labels, row):
            re, te = r % 2 == 0, t % 2 == 0
            hit = ((a == "+" and b == "+" and re and te)
                   or (a == "+" and b == "-" and not re and te)
                   or (a == "-" and b == "+" and re and not te)
                   or (a == "-" and b == "-" and not re and not te))
            with mp.workprec(256 + 16):
                want = 2 * s[r - 1][t - 1] if hit else mp.mpf(0)
            assert v._mpf_ == want._mpf_, ((r, a), (t, b))


# -- dimension identities ------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_dimension_report_passes(k):
    rep = fp_dimension_report(k)
    assert rep.ok
    names = [item.name for item in rep.items]
    assert names == [
        "sin2_odd_sum",
        "sin2_full_sum",
        "dim_even",
        "fp_ambient",
        "fp_extended",
        "fp_quotient",
    ]
    for item in rep.items:
        assert item.difference < item.tolerance, item.name


def test_dimension_report_frozen_values():
    rep = fp_dimension_report(1)
    with mp.workprec(320):
        golden = mp.mpf(10) + 2 * mp.sqrt(mp.mpf(5))
        assert abs(rep.item("fp_extended").computed - golden) < mp.mpf(10) ** -50
        # k = 1 even subalgebra has quantum dimension exactly 1
        assert abs(rep.item("dim_even").computed - 1) < mp.mpf(10) ** -60


def _fp_ratios(S, ref_label):
    """The ring character X -> S[X, Z] / S[vac, Z] at reference column Z."""
    z, vac = S.index(ref_label), S.vacuum_index
    return {a: row[z] / S.rows[vac][z] for a, row in zip(S.labels, S.rows)}


def test_fp_ratios_reference_column():
    S = sl2_smatrix(2)
    ratios = _fp_ratios(S, S.labels[0])
    assert abs(ratios[S.labels[0]] - 1) < 1e-60
    assert all(mp.re(v) > 0 for v in ratios.values())


def _fp_report_from_full_matrices(k, precision):
    """fp_dimension_report's items with every column read off a full matrix."""
    u, p = k + 2, 2 * k + 3
    with mp.workprec(precision + 16):
        fp_sl2 = _fp_ratios(sl2_smatrix(k, precision), 1)
        fp_vir = _fp_ratios(vir_smatrix(u, p, precision), min_conformal_weight(u, p))
        fp_ext = _fp_ratios(extended_smatrix(k, precision), (2, "even"))
        dim_even = mp.fsum(fp_sl2[l] * fp_vir[modular.vir_canonical(u, p, l, 1)]
                           for l in range(1, u) if l % 2 == 1)
        amb = (mp.fsum(v ** 2 for v in fp_sl2.values())
               * mp.fsum(v ** 2 for v in fp_vir.values()))
        ext = mp.fsum(v ** 2 for v in fp_ext.values())
        return {"dim_even": dim_even, "fp_ambient": amb, "fp_extended": ext,
                "fp_quotient": amb / dim_even ** 2}


@pytest.mark.parametrize("precision", [64, 256])
@pytest.mark.parametrize("k", range(1, 13))
def test_dimension_report_columns_are_the_full_matrix_columns(k, precision):
    # the report builds only the S columns it reads; its values must be
    # those of the full sl2, vir and extended matrices, bit for bit
    rep = fp_dimension_report(k, precision)
    want = _fp_report_from_full_matrices(k, precision)
    for name in ("dim_even", "fp_ambient", "fp_extended"):
        assert rep.item(name).computed._mpf_ == want[name]._mpf_, name
    assert rep.item("fp_quotient").closed_form._mpf_ == want["fp_quotient"]._mpf_


def test_min_conformal_weight_unique():
    for k in (1, 2, 3, 4, 5):
        u, p = k + 2, 2 * k + 3
        lab = min_conformal_weight(u, p)
        assert lab == VirLabel(1, 2)
        weights = sorted(vir_weight_map(u, p).values())
        assert weights[0] < weights[1]  # strict: the minimizer is unique
        assert weights[0] == QQ(-k, 4 * (2 * k + 3))
    assert min_conformal_weight(3, 5) == VirLabel(1, 2)


def test_one_level_check_everywhere():
    for bad in (0, -2, 1.5):
        for fn in (check_level, sl2_fusion, sl2_smatrix, verlinde_super,
                   fp_dimension_report, coset_labels):
            with pytest.raises(OutOfRange):
                fn(bad)


def _vir_entry_per_formula(u, p, a, b, precision):
    """One S entry straight from its formula, with its own two sines."""
    with mp.workprec(precision + 16):
        pref = -2 / mp.sqrt(mp.mpf(u * p) / 2)
        sign = -1 if (a.r * b.s + a.s * b.r) % 2 else 1
        return (pref * sign
                * mp.sinpi(mp.mpf(p * a.r * b.r) / u)
                * mp.sinpi(mp.mpf(u * a.s * b.s) / p))


@pytest.mark.parametrize("precision", [64, 256])
@pytest.mark.parametrize("u,p", [(3, 4), (2, 5), (4, 9), (5, 7), (3, 5), (8, 13)])
def test_vir_smatrix_matches_per_entry_formula(u, p, precision):
    # the sine tables must not move a single bit of any entry
    S = vir_smatrix(u, p, precision)
    for i, a in enumerate(S.labels):
        for j, b in enumerate(S.labels):
            want = _vir_entry_per_formula(u, p, a, b, precision)
            assert S.rows[i][j]._mpf_ == want._mpf_, (a, b)


@pytest.mark.parametrize("build", [
    vir_smatrix, vir_fusion, lambda u, p: t_matrix("vir", (u, p))],
    ids=["smatrix", "fusion", "tmatrix"])
@pytest.mark.parametrize("u,p", [(4, 6), (1, 3), (3, 1)])
def test_vir_pair_without_a_model_is_rejected(build, u, p):
    with pytest.raises(ValueError, match="coprime"):
        build(u, p)


def test_representative_dependence_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(modular, "derived_tolerance", lambda precision: -1)
    with pytest.raises(VerificationError):
        vir_smatrix(3, 5)


def test_kac_reflection_is_checked_on_the_sine_tables(monkeypatch):
    # one sine at r = u - 1 moved by a relative 1e-40 breaks the reflection
    # sr[u-1][1] = (-1)^(p+1) sr[1][1]; the real tolerance (1e-63) catches it
    u, p = 3, 5
    sinpi = modular.mp.sinpi

    def bent_sinpi(x):
        v = sinpi(x)
        if x == modular.mp.mpf(p * (u - 1)) / u:
            v = v * (1 + modular.mp.mpf(10) ** -40)
        return v

    vir_smatrix(u, p)
    monkeypatch.setattr(modular.mp, "sinpi", bent_sinpi)
    with pytest.raises(VerificationError, match="representative-independent"):
        vir_smatrix(u, p)


def test_kac_reflection_is_checked_on_the_fp_column(monkeypatch):
    # fp_dimension_report(1) tables the Virasoro column at (1, 2); the sine
    # at r = u - 1, r' = 1 bent as above must fail its reflection check there
    u, p = 3, 5
    sinpi = modular.mp.sinpi

    def bent_sinpi(x):
        v = sinpi(x)
        if x == modular.mp.mpf(p * (u - 1)) / u:
            v = v * (1 + modular.mp.mpf(10) ** -40)
        return v

    assert fp_dimension_report(1).ok
    monkeypatch.setattr(modular.mp, "sinpi", bent_sinpi)
    with pytest.raises(VerificationError, match="representative-independent"):
        fp_dimension_report(1)


def test_min_conformal_weight_requires_coset_shape():
    with pytest.raises(ValueError):
        min_conformal_weight(4, 9)
    with pytest.raises(ValueError):
        min_conformal_weight(2, 3)


# -- T matrices and the modular group ------------------------------------------------


def test_extended_t_matrix_weights():
    T = t_matrix("extended", 1)
    expected = {
        (1, "even"): QQ(0),
        (2, "even"): QQ(-1, 20),
        (3, "even"): QQ(1, 5),
        (4, "even"): QQ(3, 4),
        (1, "odd"): QQ(1),
        (2, "odd"): QQ(9, 20),
        (3, "odd"): QQ(1, 5),
        (4, "odd"): QQ(1, 4),
    }
    c = AdmissibleLevel.from_integer_level(1).c_osp
    for lab, h in expected.items():
        assert T.exponent(lab) == h - c / 24, lab
        assert abs(abs(T.phase(lab)) - 1) < 1e-60
    # locality flags (keyed by module index): integer weight gap <-> local
    assert T.label_flags == {1: "local", 2: "twisted", 3: "local", 4: "twisted"}


@pytest.mark.parametrize(
    "family,params", [("vir", (3, 5)), ("sl2", 1), ("extended", 1), ("extended", 2)]
)
def test_st_cube_collapses_to_charge_conjugation(family, params):
    if family == "vir":
        S = vir_smatrix(*params)
    elif family == "sl2":
        S = sl2_smatrix(params)
    else:
        S = extended_smatrix(params)
    T = t_matrix(family, params)
    assert st_cube_defect(S, T) < mp.mpf(10) ** -60
    assert S.unitarity_defect() < derived_tolerance(S.precision)


def test_st_cube_rejects_label_mismatch():
    S = sl2_smatrix(1)
    T = t_matrix("vir", (3, 5))
    with pytest.raises(ValueError):
        st_cube_defect(S, T)


def _dense_st_cube_defect(S, T):
    """(ST)^3 - S^2 with T as a dense diagonal matrix."""
    with mp.workprec(S.precision + 16):
        M = mp.matrix([list(r) for r in S.rows])
        ST = M * mp.diag([T.phase(a) for a in T.labels])
        P = ST * ST * ST
        Q = M * M
        return max(abs(P[i, j] - Q[i, j]) for i in range(S.n) for j in range(S.n))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("family", ["vir", "sl2", "extended", "coset"])
def test_st_cube_defect_is_the_dense_product_bit_for_bit(family, k):
    params = (k + 2, 2 * k + 3) if family == "vir" else k
    S = {"vir": lambda: vir_smatrix(*params), "sl2": lambda: sl2_smatrix(k),
         "extended": lambda: extended_smatrix(k),
         "coset": lambda: coset_smatrix(k, verify=False)}[family]()
    T = t_matrix(family, params)
    got, want = st_cube_defect(S, T), _dense_st_cube_defect(S, T)
    assert got._mpf_ == want._mpf_
    assert repr(got) == repr(want)


def _bits(v):
    return ("mpc", v._mpc_) if hasattr(v, "_mpc_") else ("mpf", v._mpf_)


_KERNEL_FAMILIES = {
    "vir": lambda k, prec: vir_smatrix(k + 2, 2 * k + 3, prec),
    "sl2": sl2_smatrix,
    "extended": extended_smatrix,
    "coset": lambda k, prec: coset_smatrix(k, prec, verify=False),
    "stilde": _stilde_matrix,
}


@pytest.mark.parametrize("precision", [8, 53, 256])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(_KERNEL_FAMILIES))
def test_exact_dot_kernel_is_fdot_and_the_matrix_product(family, k, precision):
    # every dot product of a row with a column is mp.fdot's, and every entry
    # of S S and S S^dagger is mpmath's matrix product's, tuple for tuple
    S = _KERNEL_FAMILIES[family](k, precision)
    rows = [list(r) for r in S.rows]
    cols = [list(c) for c in zip(*rows)]
    with mp.workprec(precision + 16):
        fixed_rows = [modular._fixed(r) for r in rows]
        fixed_cols = [modular._fixed(c) for c in cols]
        for r, fr in zip(rows, fixed_rows):
            for c, fc in zip(cols, fixed_cols):
                assert _bits(modular._dot(fr, fc)) == _bits(mp.fdot(r, c))
        M = mp.matrix(rows)
        for got, want in ((modular._product(rows, rows), M * M),
                          (modular._product(rows, rows, adjoint=True),
                           M * M.transpose_conj())):
            for i in range(S.n):
                for j in range(S.n):
                    w = want[i, j]
                    # the matrix stores no zeros and reads one back as mpf 0
                    g = got[i][j] if got[i][j] else mp.mpf(0)
                    assert _bits(g) == _bits(w), (i, j)


# Random kernel data.  A part is a full-width or short mantissa scaled into
# [2^(-wp/4 - 1), 1), so every product fdot sums lies within 2 wp bits of the
# others and fdot adds them exactly, as it does for S-matrix data.  "exact"
# draws a zero or one of the identity's ints.
_KINDS = ("real", "complex", "zero-real", "zero-imag", "exact")


@st.composite
def _number(draw, wp, kinds=_KINDS):
    kind = draw(st.sampled_from(kinds))

    def part():
        man = draw(st.integers(min_value=1, max_value=2 ** wp - 1))
        v = mp.ldexp(mp.mpf(man), -man.bit_length() - draw(st.integers(0, wp // 4)))
        return -v if draw(st.booleans()) else v

    with mp.workprec(wp):
        if kind == "real":
            return part()
        if kind == "exact":
            return draw(st.sampled_from((mp.mpf(0), mp.mpc(0), 0, 1)))
        re = mp.mpf(0) if kind == "zero-real" else part()
        im = mp.mpf(0) if kind == "zero-imag" else part()
        return mp.mpc(re, im)


@st.composite
def _matrix(draw, wp, rows, cols, kinds=_KINDS):
    return [[draw(_number(wp, kinds)) for _ in range(cols)] for _ in range(rows)]


def _no_ints(rows):
    return [[mp.mpf(v) if isinstance(v, int) else v for v in r] for r in rows]


_PRECISIONS = st.sampled_from((8, 53, 256))


@settings(max_examples=120, deadline=None)
@given(_PRECISIONS, st.integers(1, 4), st.integers(1, 4), st.data())
def test_max_defect_is_the_max_of_abs_bit_for_bit(precision, n, m, data):
    # B may hold ints, as the identity does; A holds products
    wp = precision + 16
    A = _no_ints(data.draw(_matrix(wp, n, m)))
    B = data.draw(_matrix(wp, n, m))
    with mp.workprec(wp):
        want = max([mp.mpf(0)] + [abs(a - b) for ra, rb in zip(A, B)
                                  for a, b in zip(ra, rb)])
        assert modular._max_defect(A, B)._mpf_ == want._mpf_


def test_max_defect_refuses_a_shape_mismatch():
    A = [[mp.mpf(1), mp.mpf(2)], [mp.mpf(3), mp.mpf(4)]]
    for B in (A[:1], [A[0], A[1][:1]], A + [A[0]]):
        with pytest.raises(ValueError):
            modular._max_defect(A, B)
        with pytest.raises(ValueError):
            modular._max_defect(B, A)


@settings(max_examples=150, deadline=None)
@given(_PRECISIONS, st.integers(1, 8), st.booleans(), st.data())
def test_three_sum_dot_is_fdot_bit_for_bit(precision, n, conj, data):
    wp = precision + 16
    x, y = _no_ints([[data.draw(_number(wp)) for _ in range(n)] for _ in "xy"])
    with mp.workprec(wp):
        got = modular._dot(modular._fixed(x), modular._fixed(y, conj=conj))
        want = mp.fdot(x, [mp.conj(v) for v in y] if conj else y)
        assert _bits(got) == _bits(want)


def _square_matrix(draw, wp, n, real, symmetric):
    """n x n rows of mpf (``real``) or mixed mpf/mpc entries, mirrored
    across the diagonal when ``symmetric``."""
    rows = _no_ints(draw(_matrix(wp, n, n, ("real", "exact") if real else _KINDS)))
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return rows


@settings(max_examples=60, deadline=None)
@given(_PRECISIONS, st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_defects_do_not_depend_on_their_order(precision, n, real, symmetric, data):
    # S S^dagger is kept after first use and S S read off it for real
    # symmetric rows: every defect has the bits of its own fresh products,
    # whichever is asked first
    wp = precision + 16
    rows = _square_matrix(data.draw, wp, n, real, symmetric)
    weights = [data.draw(st.fractions(-3, 3, max_denominator=12)) for _ in range(n)]
    T = modular.TMatrix(range(n), weights, QQ(1, 2), precision)
    with mp.workprec(wp):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        unitarity = modular._max_defect(modular._product(rows, rows, adjoint=True), eye)
        square = modular._product(rows, rows)
        ST = [[v * T.phase(a) for v, a in zip(r, T.labels)] for r in rows]
        cube = modular._max_defect(
            modular._product(modular._product(ST, ST), ST), square)
        involution = modular._max_defect(square, eye)
    first = SMatrix(range(n), rows, 0, precision)
    got_first = (first.unitarity_defect(), st_cube_defect(first, T),
                 first.square_defect_from_identity())
    second = SMatrix(range(n), rows, 0, precision)
    got_second = (second.square_defect_from_identity(),
                  st_cube_defect(second, T), second.unitarity_defect())
    want = [v._mpf_ for v in (unitarity, cube, involution)]
    assert [v._mpf_ for v in got_first] == want
    assert [v._mpf_ for v in got_second[::-1]] == want


def _brute_count(m, h, a, b, c, shift=0):
    """The defining sum of ``_count``, term by term."""
    return sum(e * e2 for e in (1, -1) for e2 in (1, -1) for j in range(c)
               if (h * (e * a + e2 * b + c - 1 - 2 * j) + shift) % (2 * m) == 0)


def test_count_closed_form_is_the_brute_force_sum():
    for m in range(2, 14):
        rng = range(1, m)
        for h in range(1, 2 * m):
            if math.gcd(h, m) != 1:
                continue
            for shift in (0, m):
                for a in rng:
                    for b in rng:
                        for c in rng:
                            assert (modular._count(m, h, a, b, c, shift)
                                    == _brute_count(m, h, a, b, c, shift)), (m, h, a, b, c, shift)


def test_count_needs_h_prime_to_m():
    with pytest.raises(ValueError):
        modular._count(6, 4, 1, 1, 1)


# -- numeric S-transform of the one-variable characters --------------------------------


def test_s_transform_small_order():
    rep = check_s_transform_numeric(1, 1j, 14, precision=192)
    assert rep.ok
    assert len(rep.entries) == 2 * (2 * 1 + 2)
    assert rep.max_residual < 1e-4
    for e in rep.entries:
        assert e.variant in ("plus", "minus")
        assert e.ok


@pytest.mark.parametrize("N", [0, -1])
def test_s_transform_rejects_a_non_positive_order(N):
    # an empty series has a tail bound of at least 1/(1 - |q|), so a check
    # at such an order would pass on residuals of order one
    with pytest.raises(ValueError, match="truncation order must be positive"):
        check_s_transform_numeric(1, 1j, N)


def test_s_transform_rejects_lower_half_plane():
    with pytest.raises(NonconvergentDomain):
        check_s_transform_numeric(1, -1j, 8, precision=128)


@pytest.mark.parametrize("k", [1, 2])
def test_s_transform_calls_qs_eval_once_per_series_and_tau(monkeypatch, k):
    # the benchmark tracer counts qs_eval through this binding, so its memos
    # must sit below it: one call per series at tau0 and one at -1/tau0; a
    # warm second check returns the cold first check's entries bit for bit
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return qs_eval(*args, **kwargs)

    monkeypatch.setattr(modular, "qs_eval", counting)
    tau0 = mp.mpc(-0.277839, 1.725435)
    reports = []
    for _ in range(2):
        calls.clear()
        reports.append(check_s_transform_numeric(k, tau0, 12))
        assert len(calls) == 2 * (4 * k + 4)
        assert sorted(Counter(calls).values()) == [4 * k + 4] * 2
    cold, warm = ([(e.r, e.variant, e.residual._mpf_, e.tail_bound._mpf_,
                    e.tolerance._mpf_) for e in rep.entries] for rep in reports)
    assert warm == cold
    assert reports[0].ok
