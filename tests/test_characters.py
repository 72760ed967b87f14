"""Admissible levels, module labels, characters, and the branching identities."""

import hashlib
import math
import re
import sys
from fractions import Fraction as QQ

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import ospq.characters as characters
import ospq.coset as coset
from ospq.characters import (
    AdmissibleLevel,
    InvalidLabel,
    OspLabel,
    Sl2Label,
    VirLabel,
    char_w1,
    component_chars_w1,
    is_integer_graded,
    osp_char,
    osp_vacuum_central_charge,
    sl2_char,
    verify_decomposition,
    verify_theta_identity,
    vir_canonical,
    vir_char,
    vir_labels,
)
from ospq.qseries import (QSeries, VerificationError, qs_equal_below, qs_eta,
                          qs_eval, qs_invert, qs_mul)
from ospq.theta import (WQSeries, vartheta1_times_i, weyl_denominator, wq_div,
                        wq_equal_on_box, wq_mul, wq_specialize_w1)
from test_theta import wq_specialize_w_signed

LEVELS = (
    AdmissibleLevel(5, 1),
    AdmissibleLevel(7, 1),
    AdmissibleLevel(9, 1),
    AdmissibleLevel(3, 5),
)

st_level = st.sampled_from(LEVELS)


def sl2_labels(lvl):
    """The affine sl2 labels (r, s) of a level: r in [1, u-1], and s = 0 at
    integer level, s in [0, p'-1] otherwise."""
    smax = 1 if lvl.is_integer_level else lvl.p_prime
    return [Sl2Label(r, s) for r in range(1, lvl.u) for s in range(smax)]


def minimal_model_char(u, p, r, s, N):
    """Kac character of the (u, p) Virasoro minimal model, written from the
    classical alternating theta sum over the affine Weyl group (fresh route)."""
    N = QQ(N)
    numerator = {}
    n = 0
    while True:
        grew = False
        for sign in (1, -1) if n else (1,):
            m = sign * n
            for pm in (1, -1):
                e = QQ((2 * u * p * m + p * r - pm * u * s) ** 2, 4 * u * p)
                if e < N + 1:
                    numerator[e] = numerator.get(e, QQ(0)) + pm
                    grew = True
        if n and not grew:
            break
        n += 1
    num = QSeries(numerator, N + 1)
    return qs_mul(num, qs_invert(qs_eta(N + 1))).truncate(N)


# -- level arithmetic ----------------------------------------------------------


def test_integer_level_constructor():
    for k, pair in ((1, (5, 1)), (2, (7, 1)), (3, (9, 1))):
        lvl = AdmissibleLevel.from_integer_level(k)
        assert (lvl.p, lvl.p_prime) == pair
        assert lvl.k == k
        assert lvl.is_integer_level


def test_fractional_level_data():
    lvl = AdmissibleLevel(3, 5)
    assert lvl.k == QQ(-6, 5)
    assert lvl.u == 4
    assert lvl.c_osp == -4
    assert not lvl.is_integer_level


def test_level_validation():
    with pytest.raises(ValueError):
        AdmissibleLevel(4, 1)  # p + p' odd
    with pytest.raises(ValueError):
        AdmissibleLevel(6, 2)  # not coprime
    with pytest.raises(ValueError):
        AdmissibleLevel(1, 1)  # p must exceed 1
    with pytest.raises(ValueError):
        AdmissibleLevel.from_integer_level(0)
    with pytest.raises(ValueError):
        AdmissibleLevel.from_integer_level(-2)


def test_central_charges_split_additively():
    for lvl in LEVELS:
        assert lvl.c_osp == lvl.c_sl2 + lvl.c_vir


def test_frozen_central_charges():
    assert [AdmissibleLevel.from_integer_level(k).c_osp for k in (1, 2, 3, 4)] == [
        QQ(2, 5),
        QQ(4, 7),
        QQ(2, 3),
        QQ(8, 11),
    ]
    assert AdmissibleLevel(3, 5).c_vir == QQ(1, 2)


def test_label_windows():
    assert [len(lvl.osp_labels()) for lvl in LEVELS] == [2, 3, 4, 5]
    lvl = LEVELS[0]
    assert lvl.osp_labels() == [OspLabel(1, 0), OspLabel(3, 0)]
    assert sl2_labels(lvl) == [Sl2Label(1, 0), Sl2Label(2, 0)]
    assert len(vir_labels(lvl.u, lvl.p)) == 4
    frac = LEVELS[3]
    assert OspLabel(2, 1) in frac.osp_labels()
    assert all((lab.r + lab.s) % 2 == 1 for lab in frac.osp_labels())


def test_label_validation():
    lvl = LEVELS[0]
    with pytest.raises(InvalidLabel):
        lvl.check_osp(OspLabel(2, 0))  # even index sum
    with pytest.raises(InvalidLabel):
        lvl.check_osp(OspLabel(5, 0))  # out of window
    with pytest.raises(InvalidLabel):
        lvl.check_osp(OspLabel(1, 1))  # integer level has s = 0 only
    with pytest.raises(InvalidLabel):
        lvl.check_sl2(Sl2Label(3, 0))
    with pytest.raises(InvalidLabel):
        lvl.check_vir(VirLabel(0, 1))
    with pytest.raises(InvalidLabel):
        lvl.check_vir(VirLabel(1, 5))


def test_weight_tables_at_level_one():
    lvl = LEVELS[0]
    assert lvl.h_sl2(1) == 0 and lvl.h_sl2(2) == QQ(1, 4)
    expected_h = {
        (1, 1): QQ(0),
        (1, 2): QQ(-1, 20),
        (1, 3): QQ(1, 5),
        (1, 4): QQ(3, 4),
        (2, 1): QQ(3, 4),
        (2, 2): QQ(1, 5),
        (2, 3): QQ(-1, 20),
        (2, 4): QQ(0),
    }
    for (r, s), h in expected_h.items():
        assert lvl.h_vir(r, s) == h, (r, s)
    assert lvl.component_weight(1, 2) == QQ(-1, 20)
    assert lvl.component_weight(2, 1) == QQ(1)
    with pytest.raises(InvalidLabel):
        LEVELS[3].component_weight(1, 1)


def test_kac_table_symmetry_picks_canonical():
    lvl = LEVELS[0]
    assert vir_canonical(lvl.u, lvl.p, 2, 4) == VirLabel(1, 1)
    assert vir_canonical(lvl.u, lvl.p, 2, 1) == VirLabel(1, 4)
    assert vir_canonical(lvl.u, lvl.p, 1, 2) == VirLabel(1, 2)


# -- frozen character slices -----------------------------------------------------


def test_vacuum_character_slices():
    lvl = LEVELS[0]
    v = osp_char(lvl, OspLabel(1, 0), 3)
    assert v.min_q() == QQ(-1, 60)  # = -c/24 with c = 2/5
    assert v.q_slice(QQ(-1, 60)) == {QQ(0): QQ(1)}
    # grade-1 slice: the five adjoint states (three even, two odd)
    assert v.q_slice(QQ(59, 60)) == {
        QQ(-1): QQ(1),
        QQ(-1, 2): QQ(1),
        QQ(0): QQ(1),
        QQ(1, 2): QQ(1),
        QQ(1): QQ(1),
    }


def test_affine_sl2_component_slices():
    lvl = LEVELS[0]
    vac = sl2_char(lvl, Sl2Label(1, 0), 3)
    assert vac.min_q() == QQ(-1, 24)
    assert vac.q_slice(QQ(-1, 24)) == {QQ(0): QQ(1)}
    assert vac.q_slice(QQ(23, 24)) == {QQ(-1): QQ(1), QQ(0): QQ(1), QQ(1): QQ(1)}
    spin = sl2_char(lvl, Sl2Label(2, 0), 3)
    assert spin.min_q() == QQ(5, 24)  # h = 1/4 on top of -c/24
    assert spin.q_slice(QQ(5, 24)) == {QQ(-1, 2): QQ(1), QQ(1, 2): QQ(1)}


def test_virasoro_component_lowest_exponents():
    lvl = LEVELS[0]
    ch = vir_char(lvl, VirLabel(1, 2), 6)
    assert ch.min_q() == QQ(-1, 40)
    assert ch.coeff(QQ(-1, 40)) == 1
    vac = vir_char(lvl, VirLabel(1, 1), 6)
    assert vac.min_q() == QQ(1, 40)  # h = 0, c = -3/5
    # no level-one descendant in the Virasoro vacuum module
    assert vac.coeff(QQ(1) + QQ(1, 40)) == 0


def test_virasoro_characters_match_classical_kac_sum():
    for lvl in (LEVELS[0], LEVELS[3]):
        for lab in vir_labels(lvl.u, lvl.p):
            mine = vir_char(lvl, lab, 10)
            classical = minimal_model_char(lvl.u, lvl.p, lab.r, lab.s, 10)
            ok, bad = qs_equal_below(mine, classical, order=10)
            assert ok, (lvl, lab, bad)


def test_vacuum_central_charge_read_from_character():
    for lvl in LEVELS:
        assert osp_vacuum_central_charge(lvl) == lvl.c_osp


BOX_LEVELS = (
    AdmissibleLevel(5, 1),
    AdmissibleLevel(7, 1),
    AdmissibleLevel(3, 5),
    AdmissibleLevel(5, 3),
)
QUOTIENTS = [
    (lvl, lab, osp_char, characters.osp_numerator, weyl_denominator)
    for lvl in BOX_LEVELS for lab in lvl.osp_labels()
] + [
    (lvl, lab, sl2_char, characters.sl2_numerator, vartheta1_times_i)
    for lvl in BOX_LEVELS for lab in sl2_labels(lvl)
]


@pytest.mark.parametrize(
    "lvl, label, char, numerator, denominator", QUOTIENTS,
    ids=["%s-%d-%d-%d-%d" % (q[2].__name__, q[0].p, q[0].p_prime, q[1].r, q[1].s)
         for q in QUOTIENTS])
def test_character_is_the_exact_quotient_on_its_box(lvl, label, char, numerator,
                                                    denominator):
    N = QQ(6)
    ch = char(lvl, label, N)
    assert ch.n_terms() > 0 and ch.q_trunc == N
    ok, bad, box = wq_equal_on_box(wq_mul(denominator(N + 2), ch),
                                   numerator(lvl, label, N + 1))
    assert ok, bad
    assert box[0] >= N
    if lvl.is_integer_level:
        # complete w-support inside the isospin + depth bound
        assert ch.w_floor is None
        bound = QQ(lvl.p, 2) + N + 1
        assert all(abs(we) <= bound for _, we, _ in ch.items())
    else:
        # the division cut three w-steps lower agrees above the fixed floor
        lower = wq_div(numerator(lvl, label, N + 1), denominator(N + 2),
                       q_trunc=N, w_floor=ch.w_floor - 3)
        assert lower.w_floor == ch.w_floor - 3
        above = {qe: {we: c for we, c in sl.items() if we >= ch.w_floor}
                 for qe, sl in lower.terms.items()}
        assert {qe: sl for qe, sl in above.items() if sl} == ch.terms


@pytest.mark.parametrize("char, label, numerator, empty", [
    (osp_char, OspLabel(1, 0), "osp_numerator", lambda: WQSeries((), 1, None)),
    (sl2_char, Sl2Label(1, 0), "sl2_numerator", lambda: WQSeries((), 1, None)),
    (vir_char, VirLabel(1, 1), "vir_numerator", lambda: QSeries({}, 1)),
], ids=["osp", "sl2", "vir"])
def test_an_empty_numerator_short_of_its_order_is_refused(monkeypatch, char, label,
                                                          numerator, empty):
    # no term below q^1 proves nothing about q^1 .. q^N: the empty character
    # must not claim the box q < 4
    monkeypatch.setattr(characters, numerator, lambda level, label, N: empty())
    with pytest.raises(VerificationError,
                       match=r"^the numerator is exact only below q\^1, short of order"):
        char(LEVELS[0], label, 4)


@pytest.mark.parametrize("char, label", [(osp_char, OspLabel(1, 4)), (sl2_char, Sl2Label(1, 4))],
                         ids=["osp", "sl2"])
def test_an_empty_fractional_character_keeps_its_w_floor(char, label):
    # at (3, 5) the label's numerator starts beyond N + beta, so the quotient
    # has no term on the box, which still reaches w = -(N+4)
    ch = char(AdmissibleLevel(3, 5), label, QQ(1, 4))
    assert ch.is_zero
    assert (ch.q_trunc, ch.w_floor) == (QQ(1, 4), QQ(-17, 4))


# -- the character memos -------------------------------------------------------------

MEMO_LEVELS = (
    AdmissibleLevel(5, 1),
    AdmissibleLevel(7, 1),
    AdmissibleLevel(9, 1),
    AdmissibleLevel(3, 5),
    AdmissibleLevel(5, 3),
    AdmissibleLevel(7, 3),
)


def _all_vir_labels(lvl):
    return [VirLabel(r, s) for r in range(1, lvl.u) for s in range(1, lvl.p)]


def _public_floor(lvl, N):
    """The floor argument the public osp_char and sl2_char pass their memos."""
    return (None if lvl.is_integer_level else -(N + 4),)


MEMOS = (
    (osp_char, characters._osp_char, AdmissibleLevel.osp_labels, _public_floor),
    (sl2_char, characters._sl2_char, sl2_labels, _public_floor),
    (vir_char, characters._vir_char, _all_vir_labels, lambda lvl, N: ()),
)


def _bits(x):
    """Everything a series stores, slice order included."""
    fields = ("q_trunc", "w_floor", "_q_lo") if hasattr(x, "w_floor") else ("trunc",)
    return (type(x), [(q, list(sl.items())) for q, sl in x._s.items()], x.D, x.W,
            [getattr(x, f) for f in fields])


@pytest.mark.parametrize("lvl", MEMO_LEVELS, ids=lambda l: "%d-%d" % (l.p, l.p_prime))
def test_memoised_characters_are_the_uncached_builds_bit_for_bit(lvl):
    for N in (3, QQ(7, 2), 4):
        for char, memo, labels, floor in MEMOS:
            for lab in labels(lvl):
                kept = char(lvl, lab, N)
                # built from the label as given, not from its Kac class
                fresh = memo.__wrapped__(lvl, lab, QQ(N), *floor(lvl, QQ(N)))
                assert _bits(kept) == _bits(fresh), (char.__name__, lvl, lab, N)
                assert char(lvl, lab, QQ(N)) is kept
        for lab in _all_vir_labels(lvl):
            twin = VirLabel(lvl.u - lab.r, lvl.p - lab.s)
            assert vir_char(lvl, lab, N) is vir_char(lvl, twin, N)


def _box_digest(lvl):
    """sha256 of the bits and the q-support bound of every osp, sl2 and
    Virasoro character at the level, at N = 3, 7/2 and 4."""
    text = repr([(char.__name__, lab, N, _bits(x), x._support_lo())
                 for N in (3, QQ(7, 2), 4) for char, _, labels, _ in MEMOS
                 for lab in labels(lvl) for x in (char(lvl, lab, N),)])
    return hashlib.sha256(text.encode()).hexdigest()


BOX_DIGESTS = {
    '5-1': '9c8e0c4a43e929c4b7ee4b7e9d6eb6e6a268c660339e364a38974b80c5932ea3',
    '7-1': 'f41f403a614d1c7c0b9eae3a24802eb8e04c58a562564d284f079fdf71220035',
    '9-1': '75b220b6500cd3386066959f1a00bcf1a0b508089acc18aeb043aecf36e334e2',
    '3-5': '64f8a6c0f8051663630529183e6e360fc685e5fe7aef8cf1e262638862fc940a',
    '5-3': '832a9e9a1d790842efc0256ae12f5e98ce11e89f5855859cb48da08720a83d73',
    '7-3': '291617c1a7456bc6a83f7b14826813d9feedbe089d7a3eab8511145a405cd94a',
}


@pytest.mark.parametrize("lvl", MEMO_LEVELS, ids=lambda l: "%d-%d" % (l.p, l.p_prime))
def test_characters_keep_their_stored_boxes(lvl):
    """Each character's store, lattice, box and q-support bound, pinned
    across changes to how the kernels read the box.  Re-record with
    ``PYTHONPATH=src python3 tests/test_characters.py``."""
    assert _box_digest(lvl) == BOX_DIGESTS["%d-%d" % (lvl.p, lvl.p_prime)]


@pytest.mark.parametrize("char, memo, good, outside", [
    (osp_char, characters._osp_char, OspLabel(1, 0), OspLabel(5, 0)),
    (sl2_char, characters._sl2_char, Sl2Label(1, 0), Sl2Label(3, 0)),
    (vir_char, characters._vir_char, VirLabel(1, 1), VirLabel(1, 5)),
], ids=["osp", "sl2", "vir"])
def test_memoised_characters_raise_on_every_call(char, memo, good, outside):
    lvl = AdmissibleLevel(5, 1)
    char(lvl, good, 4)
    size = memo.cache_info().currsize
    # 1.0 equals 1, so such a label would find the integer label's entry
    inexact = type(good)(1.0, good.s)
    for _ in range(2):
        for label in (outside, inexact):
            with pytest.raises(InvalidLabel):
                char(lvl, label, 4)
        with pytest.raises(TypeError):
            char(lvl, good, 4.0)
        for N in (0, -1):
            with pytest.raises(ValueError, match="truncation order must be positive"):
                char(lvl, good, N)
    assert memo.cache_info().currsize == size


# -- branching identities ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st_level, st.integers(min_value=0, max_value=4))
def test_theta_identity_all_labels(lvl, pick):
    labels = lvl.osp_labels()
    label = labels[pick % len(labels)]
    rep = verify_theta_identity(lvl, label, 6)
    assert rep.ok, rep.detail
    assert bool(rep)
    assert rep.first_discrepancy is None


def test_decomposition_all_levels_small_order():
    for lvl in LEVELS:
        for label in lvl.osp_labels():
            rep = verify_decomposition(lvl, label, 4)
            assert rep.ok, rep.detail


def test_decomposition_failure_is_pinpointed(monkeypatch):
    lvl = LEVELS[0]
    real = characters.vir_char

    def corrupted(level, label, N):
        ch = real(level, label, N)
        e0 = ch.min_q()
        bad = dict(ch.terms)
        bad[e0 + 2] = bad.get(e0 + 2, QQ(0)) + 1
        return QSeries(bad, ch.trunc)

    monkeypatch.setattr(characters, "vir_char", corrupted)
    rep = verify_decomposition(lvl, OspLabel(1, 0), 4)
    assert not rep.ok
    qe, we, lhs, rhs = rep.first_discrepancy
    assert lhs != rhs
    assert qe < 4
    assert str(qe) in rep.detail


def test_characters_distinguish_labels():
    lvl = LEVELS[0]
    a = osp_char(lvl, OspLabel(1, 0), 4)
    b = osp_char(lvl, OspLabel(3, 0), 4)
    ok, bad, _ = wq_equal_on_box(a, b)
    assert not ok and bad is not None


# -- one-variable specialisations ----------------------------------------------------


def test_char_w1_routes_agree():
    lvl = LEVELS[1]  # k = 2
    table = component_chars_w1(lvl, 6)
    assert set(table) == {1, 2, 3, 4, 5, 6}
    for r, (plus, minus) in table.items():
        assert char_w1(lvl, r, 6) is plus and char_w1(lvl, r, 6, signed=True) is minus
    for r in (1, 3, 5):  # local modules: specialise the osp character directly
        direct = wq_specialize_w1(osp_char(lvl, OspLabel(r, 0), 6))
        ok, bad = qs_equal_below(direct, table[r][0], order=6)
        assert ok, (r, bad)


def test_w1_table_builds_each_factor_once(monkeypatch):
    # a Virasoro factor is built once per Kac class, by its memo
    sl2_calls = []
    real = characters.sl2_char
    monkeypatch.setattr(characters, "sl2_char",
                        lambda *args: sl2_calls.append(args) or real(*args))
    vir_built = characters._vir_char.cache_info
    lvl = LEVELS[1]  # k = 2: (u, p) = (4, 7)
    table = component_chars_w1(lvl, 4)
    assert (vir_built().misses, len(sl2_calls)) == ((4 - 1) * (7 - 1) // 2, 4 - 1)
    table.clear()
    again = component_chars_w1(lvl, 4)
    assert set(again) == set(range(1, 7))
    for r in again:
        for signed in (False, True):
            assert char_w1(lvl, r, 4, signed) is again[r][signed]
    with pytest.raises(InvalidLabel):
        char_w1(lvl, 7, 5)  # the label is checked before any table is built
    assert (vir_built().misses, len(sl2_calls)) == (9, 3)


def test_signed_specialisation_direct_route():
    lvl = LEVELS[0]
    for r in (1, 3):  # local modules
        direct = wq_specialize_w_signed(osp_char(lvl, OspLabel(r, 0), 6))
        built = char_w1(lvl, r, 6, signed=True)
        ok, bad = qs_equal_below(direct, built, order=6)
        assert ok, (r, bad)


def test_integer_grading_follows_label_parity():
    for k in (1, 2):
        lvl = AdmissibleLevel.from_integer_level(k)
        for r in range(1, lvl.p):
            assert is_integer_graded(lvl, r) == (r % 2 == 1), (k, r)


def test_w1_requires_integer_level():
    with pytest.raises(InvalidLabel):
        char_w1(LEVELS[3], 1, 4)
    with pytest.raises(InvalidLabel):
        component_chars_w1(LEVELS[3], 4)
    with pytest.raises(InvalidLabel):
        char_w1(LEVELS[0], 5, 4)


@pytest.mark.parametrize("r", [1.5, 2.0, QQ(2)], ids=["1.5", "2.0", "Fraction-2"])
def test_char_w1_refuses_a_module_index_that_is_not_an_integer(r):
    # 1.5 is in the window but names no module; 2.0 and 2 would name module 2
    with pytest.raises(InvalidLabel, match="module index"):
        char_w1(LEVELS[0], r, 4)


# -- Kac labels and truncation orders ---------------------------------------------------


def test_kac_labels_are_one_sorted_table():
    for u, p in ((3, 4), (2, 5), (5, 7), (4, 9)):  # coprime, not all admissible
        labels = vir_labels(u, p)
        assert labels == sorted(labels, key=lambda l: (l.r, l.s))
        assert len(labels) == (u - 1) * (p - 1) // 2
        assert [vir_canonical(u, p, u - l.r, p - l.s) for l in labels] == labels


def test_kac_labels_are_the_canonicalised_table_in_first_met_order():
    # the labels are listed by the rule (r, s) <= (u-r, p-s); canonicalising
    # every (r, s) and keeping each class where first met gives the same list
    for u in range(2, 31):
        for p in range(2, 31):
            if math.gcd(u, p) == 1:
                old = list(dict.fromkeys(vir_canonical(u, p, r, s)
                                         for r in range(1, u) for s in range(1, p)))
                assert vir_labels(u, p) == old, (u, p)


@pytest.mark.parametrize("N", [0, -1, QQ(-1, 2)])
def test_decomposition_rejects_a_non_positive_order(N):
    with pytest.raises(ValueError, match="truncation order must be positive"):
        verify_decomposition(LEVELS[0], OspLabel(1, 0), N)


def test_order_shortfall_is_a_verification_error(monkeypatch):
    # a Virasoro factor whose box falls short by as much as the order grows;
    # the decomposition must not report "holds to order 3" on a smaller box
    monkeypatch.setattr(characters, "vir_char", lambda level, label, N: QSeries({}, -N))
    with pytest.raises(VerificationError):
        verify_decomposition(LEVELS[0], OspLabel(1, 0), 3)
    with pytest.raises(VerificationError):
        char_w1(LEVELS[0], 1, 3)
    with pytest.raises(VerificationError):
        component_chars_w1(LEVELS[0], 3)


@pytest.mark.parametrize("lvl, box", [
    (AdmissibleLevel(3, 5), (4, -12)),
    (AdmissibleLevel(7, 3), (4, -12)),
    (AdmissibleLevel(5, 1), (4, None)),
], ids=["3-5", "7-3", "5-1"])
def test_decomposition_compares_q_below_N_and_w_from_minus_N_minus_8(monkeypatch, lvl, box):
    # the factors are built at order N + 1/8, yet the box compared is
    # q < N and, at fractional level, w >= -(N+8)
    boxes = []
    real = characters.wq_equal_on_box

    def spy(a, b, order=None):
        out = real(a, b, order=order)
        boxes.append(out[2])
        return out

    monkeypatch.setattr(characters, "wq_equal_on_box", spy)
    for label in lvl.osp_labels():
        assert verify_decomposition(lvl, label, 4).ok
    assert len(boxes) == len(lvl.osp_labels()) and set(boxes) == {box}


def _characters_at(char, labels):
    return [lambda lvl=lvl, lab=lab: char(lvl, lab, 4) for lvl in LEVELS for lab in labels(lvl)]


_COSET_SECTORS = [lambda k=k, nu=nu, r=r: coset.coset_char_direct(k, (nu, r), 3)
                  for k in (1, 2) for r in range(1, 2 * k + 3, 2) for nu in range(2 * k)]
_REASSEMBLIES = [lambda k=k, r=r: coset.coset_reassembly(k, r, 3)
                 for k in (1, 2) for r in range(1, 2 * k + 3, 2)]

# each planned order: (module, the function that builds at it, {builder:
# position of its order argument}, inputs); the decomposition's factors and
# the w -> 1 table rest on the uniform -1/8 bound, which no input attains
PLANNED_ORDERS = {
    "osp-numerator": (characters, "_quotient_char", {"osp_numerator": 2},
                      _characters_at(osp_char, AdmissibleLevel.osp_labels)),
    "weyl-denominator": (characters, "_quotient_char", {"weyl_denominator": 0},
                         _characters_at(osp_char, AdmissibleLevel.osp_labels)),
    "sl2-numerator": (characters, "_quotient_char", {"sl2_numerator": 2},
                      _characters_at(sl2_char, sl2_labels)),
    "theta1-denominator": (characters, "_quotient_char", {"vartheta1_times_i": 0},
                           _characters_at(sl2_char, sl2_labels)),
    "vir-numerator": (characters, "_quotient_char", {"vir_numerator": 2},
                      _characters_at(vir_char, _all_vir_labels)),
    "eta-denominator": (characters, "_quotient_char", {"qs_eta": 0},
                        _characters_at(vir_char, _all_vir_labels)),
    "coset-character": (coset, "coset_char_direct", {"_full_char": 2}, _COSET_SECTORS),
    "sector-eta": (coset, "_sector_from_slice", {"qs_eta": 0}, _COSET_SECTORS),
    "reassembly-sectors": (coset, "_reassembly_pieces", {"coset_char_direct": 2},
                           _REASSEMBLIES),
    "reassembly-theta": (coset, "_reassembly_pieces", {"lattice_theta": 2}, _REASSEMBLIES),
    "reassembly-eta": (coset, "_reassembly_pieces", {"qs_eta": 0}, _REASSEMBLIES),
}


@pytest.mark.parametrize("site", list(PLANNED_ORDERS))
def test_each_planned_order_is_the_least_its_bound_allows(monkeypatch, site):
    # 1/1000 below the planned order, the achieved box falls short of the
    # order asked: _require_order or _div's achievable-order check refuses
    module, caller, builders, inputs = PLANNED_ORDERS[site]
    for name, pos in builders.items():
        real = getattr(module, name)

        def shorter(*args, real=real, pos=pos):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension
                frame = frame.f_back
            if frame.f_code.co_name == caller:
                args = args[:pos] + (args[pos] - QQ(1, 1000),) + args[pos + 1:]
            return real(*args)

        monkeypatch.setattr(module, name, shorter)
    for build in inputs:
        try:
            build()
        except ValueError as ex:
            assert re.search("exact only below|exceeds the achievable", str(ex)), ex
            return
    pytest.fail("no input is refused 1/1000 below the planned %s" % site)


# -- the series the s-transform check evaluates ----------------------------------------


def _w1_digest(k, N):
    """sha256 of the stored terms, in order, with trunc and D, of every plain
    and signed w -> 1 character at integer level k to order N."""
    chars = component_chars_w1(AdmissibleLevel.from_integer_level(k), N)
    text = repr([(r, [(list(x.terms.items()), x.trunc, x.D) for x in pair])
                 for r, pair in sorted(chars.items())])
    return hashlib.sha256(text.encode()).hexdigest()


W1_DIGESTS = {
    (1, 24): '8894a4c28b9bec9c868d4d0c58fe5e0786db1200909598d98b9f75bfb5f815f4',
    (2, 20): 'bd4e886c111a26ef59fd9b98a2c1d1a9ad4932ab6544202884d19a93ba34d9d6',
}


@pytest.mark.parametrize("k, N", list(W1_DIGESTS))
def test_evaluated_characters_keep_their_stored_order(k, N):
    """The s-transform check evaluates these series; (k, N) are its benchmark
    orders.  qs_eval sums by ascending key, so its value does not depend on
    the stored order; the digest pins the terms, that order, trunc and D
    together.  Re-record with ``PYTHONPATH=src python3 tests/test_characters.py``."""
    assert _w1_digest(k, N) == W1_DIGESTS[(k, N)]


# tau0 and -1/tau0 of the s-transform check at tau0 = 0.3 + 1.1i
W1_TAUS = (mpmath.mpc(0.3, 1.1), -1 / mpmath.mpc(0.3, 1.1))


def _w1_content_digest(k, N):
    """sha256 of the sorted terms, trunc and D of every plain and signed
    w -> 1 character at integer level k to order N, with the bits of its
    value and tail bound from qs_eval at both W1_TAUS: all that the series
    hold, whatever order they are stored in."""
    chars = component_chars_w1(AdmissibleLevel.from_integer_level(k), N)
    text = repr([(r, [(sorted(x.terms.items()), x.trunc, x.D,
                       [(v.value._mpc_, v.tail_bound._mpf_)
                        for v in (qs_eval(x, t, precision=128) for t in W1_TAUS)])
                      for x in pair])
                 for r, pair in sorted(chars.items())])
    return hashlib.sha256(text.encode()).hexdigest()


W1_CONTENT_DIGESTS = {
    (1, 24): '98bf70152976b299d9509b5c08aef249c9fe0b4fb56c70e0c9f2a771b9e18179',
    (2, 20): '29a3db7718e7ab9d7afa55369cd0f0255fd4430015adf3897c913f7b9930bcb5',
    (1, 40): 'a39482e9abe18c57413ab8f9016103e3596fe92dc67aa8eb0a1af54a9d60696f',
    (3, 16): '0975768f21a01866b11bba5a8443bea1475420eb326bca21694565d0099772da',
}


@pytest.mark.parametrize("k, N", list(W1_CONTENT_DIGESTS))
def test_evaluated_characters_keep_their_content(k, N):
    """The terms, boxes and evaluated values of the w -> 1 characters,
    pinned apart from the order they are stored in.  Re-record with
    ``PYTHONPATH=src python3 tests/test_characters.py``."""
    assert _w1_content_digest(k, N) == W1_CONTENT_DIGESTS[(k, N)]


if __name__ == "__main__":
    print("W1_DIGESTS")
    for k, N in W1_DIGESTS:
        print("    (%d, %d):\n        %r," % (k, N, _w1_digest(k, N)))
    print("W1_CONTENT_DIGESTS")
    for k, N in W1_CONTENT_DIGESTS:
        print("    (%d, %d): %r," % (k, N, _w1_content_digest(k, N)))
    print("BOX_DIGESTS")
    for lvl in MEMO_LEVELS:
        print("    '%d-%d': %r," % (lvl.p, lvl.p_prime, _box_digest(lvl)))
