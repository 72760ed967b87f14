"""Two-variable theta series: frozen slices, box bookkeeping, product identities."""

from fractions import Fraction as QQ

import pytest
from hypothesis import example, given, settings, strategies as st

from ospq.qseries import EmptySeries, QSeries, qs_eta
from ospq.theta import (
    IncompleteQuotient,
    InvalidIndex,
    WQSeries,
    theta_big,
    theta_q,
    vartheta1_times_i,
    vartheta2,
    weyl_denominator,
    wq_add,
    wq_div,
    wq_equal_on_box,
    wq_from_q,
    wq_invert,
    wq_mul,
    wq_scalar,
    wq_specialize_w1,
    wq_specialize_w_signed,
    wq_to_q,
)
from test_qseries import assert_same_series, st_lattice_series

st_qexp = st.fractions(min_value=QQ(0), max_value=QQ(4), max_denominator=2)
st_wexp = st.fractions(min_value=QQ(-2), max_value=QQ(2), max_denominator=2)
st_coeff = st.fractions(min_value=QQ(-4), max_value=QQ(4), max_denominator=3)
st_laurent = st.dictionaries(st.tuples(st_qexp, st_wexp), st_coeff, max_size=6)


def make_wq(pairs, q_trunc=None, w_floor=None):
    return WQSeries(((qe, we, c) for (qe, we), c in pairs.items()), q_trunc, w_floor)


def brute_product(pa, pb):
    """Dense dict-of-dict convolution oracle for finite Laurent polynomials."""
    out = {}
    for (qa, wa), ca in pa.items():
        for (qb, wb), cb in pb.items():
            key = (qa + qb, wa + wb)
            out[key] = out.get(key, QQ(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def ref_wq_mul(a, b):
    """Product by a Fraction-keyed slice convolution, with wq_mul's box rule and
    term order (a's slices in stored order against b's sorted)."""
    ma, mb = a._support_lo(), b._support_lo()
    if ma is None or mb is None:
        return WQSeries((), None, None)
    cands = []
    if a.q_trunc is not None:
        cands.append(a.q_trunc + mb)
    if b.q_trunc is not None:
        cands.append(b.q_trunc + ma)
    T = min(cands) if cands else None
    # a floored factor's hidden terms reach up to the other factor's top
    # stored w, or to its floor when it stores none; an unfloored factor
    # without terms is zero on its box and bounds nothing
    fc = []
    for x, y in ((a, b), (b, a)):
        if x.w_floor is None:
            continue
        if y.terms:
            fc.append(x.w_floor + max(w for sl in y.terms.values() for w in sl))
        elif y.w_floor is not None:
            fc.append(x.w_floor + y.w_floor)
    F = max(fc, default=None)
    acc = {}
    b_slices = sorted(b.terms.items())
    for qa, sla in a.terms.items():
        for qb, slb in b_slices:
            qc = qa + qb
            if T is not None and qc >= T:
                break
            out = acc.setdefault(qc, {})
            for wa, ca in sla.items():
                for wb, cb in slb.items():
                    wc = wa + wb
                    if F is not None and wc < F:
                        continue
                    s = out.get(wc)
                    s = ca * cb if s is None else s + ca * cb
                    if s == 0:
                        del out[wc]
                    else:
                        out[wc] = s
            if not out:  # an empty slice re-enters at the end when produced again
                del acc[qc]
    return WQSeries(acc, T, F)


# built once, as in test_qseries: q-exponents per dq, w-exponents per dw,
# the (q, w) -> coefficient dictionaries per (dq, dw), and the boxes
WQ_Q_EXPS = {dq: st.tuples(st.integers(0, 3), st.integers(0, 1)).map(
                 lambda t, dq=dq: t[0] + QQ(t[1], dq)) for dq in range(1, 25)}
WQ_W_EXPS = {dw: st.integers(-2 * dw, 2 * dw).map(lambda k, dw=dw: QQ(k, dw))
             for dw in range(1, 7)}
WQ_PAIRS = {(dq, dw): st.dictionaries(st.tuples(qe, we), st_coeff, max_size=10)
            for dq, qe in WQ_Q_EXPS.items() for dw, we in WQ_W_EXPS.items()}
WQ_Q_TRUNC = st.none() | st.fractions(QQ(1, 2), QQ(5), max_denominator=24)
WQ_W_FLOOR = st.none() | st.fractions(QQ(-2), QQ(1), max_denominator=6)


@st.composite
def st_lattice_wq(draw):
    """A series on one lattice (q in Z/dq, dq <= 24; w in Z/dw, dw <= 6),
    complete, truncated, floored or both.  Its q-exponents m + j/dq (m < 4,
    j < 2) are few, so that slices hold several w-terms."""
    dq, dw = draw(st.integers(1, 24)), draw(st.integers(1, 6))
    pairs = draw(WQ_PAIRS[dq, dw])
    q_trunc = draw(WQ_Q_TRUNC)
    w_floor = draw(WQ_W_FLOOR)
    return make_wq(pairs, q_trunc, w_floor)


def slices_in_order(x):
    return [(qe, list(sl.items())) for qe, sl in x.terms.items()]


# -- frozen theta slices --------------------------------------------------------


def test_square_lattice_theta_slices():
    th = theta_big(0, 1, 1, 1, 5)
    assert th.q_slice(QQ(0)) == {QQ(0): QQ(1)}
    assert th.q_slice(QQ(1)) == {QQ(1): QQ(1), QQ(-1): QQ(1)}
    assert th.q_slice(QQ(4)) == {QQ(2): QQ(1), QQ(-2): QQ(1)}
    assert set(th.terms) == {QQ(0), QQ(1), QQ(4)}
    assert th.q_trunc == QQ(5)
    assert th.w_floor is None


def test_shifted_theta_slices():
    # index (1, 2): w-exponent 2(m + 1/4), q-exponent 2(m + 1/4)^2
    th = theta_big(1, 2, 1, 1, 4)
    assert th.q_slice(QQ(1, 8)) == {QQ(1, 2): QQ(1)}
    assert th.q_slice(QQ(9, 8)) == {QQ(-3, 2): QQ(1)}
    assert th.q_slice(QQ(25, 8)) == {QQ(5, 2): QQ(1)}
    assert set(th.terms) == {QQ(1, 8), QQ(9, 8), QQ(25, 8)}


def test_theta_index_validation():
    with pytest.raises(InvalidIndex):
        theta_big(1, 0, 1, 1, 4)
    with pytest.raises(InvalidIndex):
        theta_big(QQ(1, 2), 2, 1, 1, 4)
    with pytest.raises(ValueError):
        theta_big(1, 2, 1, -1, 4)
    with pytest.raises(ValueError):
        theta_big(1, 2, 1, 1, 0)


def test_theta_q_is_classical_sum_of_squares_series():
    t3 = theta_q(0, 1, 1, 12)
    assert t3.terms == {QQ(0): QQ(1), QQ(1): QQ(2), QQ(4): QQ(2), QQ(9): QQ(2)}


def test_half_integer_thetas():
    t2 = vartheta2(3)
    assert t2.q_slice(QQ(1, 8)) == {QQ(1, 2): QQ(1), QQ(-1, 2): QQ(1)}
    assert t2.q_slice(QQ(9, 8)) == {QQ(3, 2): QQ(1), QQ(-3, 2): QQ(1)}
    t1 = vartheta1_times_i(3)
    assert t1.q_slice(QQ(1, 8)) == {QQ(1, 2): QQ(1), QQ(-1, 2): QQ(-1)}
    assert t1.q_slice(QQ(9, 8)) == {QQ(3, 2): QQ(-1), QQ(-3, 2): QQ(1)}


def test_odd_weyl_denominator_leading_slice():
    pi = weyl_denominator(4)
    assert pi.min_q() == QQ(1, 24)
    assert pi.q_slice(QQ(1, 24)) == {QQ(1, 4): QQ(1), QQ(-1, 4): QQ(-1)}


def test_weyl_denominator_product_form_matches_theta_form():
    ok, bad, box = wq_equal_on_box(
        weyl_denominator(10, "theta"), weyl_denominator(10, "product")
    )
    assert ok, bad
    assert box[0] == QQ(10)
    with pytest.raises(ValueError):
        weyl_denominator(4, "series")


def test_denominator_bridge_identity():
    # product of the odd denominator with the half-argument even theta equals
    # the alternating half-integer theta times eta, exactly on the common box
    N = QQ(8)
    lhs = wq_mul(weyl_denominator(N), vartheta2(N, w_scale=QQ(1, 2)))
    rhs = wq_mul(vartheta1_times_i(N), wq_from_q(qs_eta(N)))
    ok, bad, _ = wq_equal_on_box(lhs, rhs)
    assert ok, bad


# -- structural operations --------------------------------------------------------


def test_items_ordering_q_ascending_w_descending():
    a = make_wq({(1, -1): QQ(2), (1, 1): QQ(3), (0, 0): QQ(1)}, q_trunc=4)
    assert list(a.items()) == [
        (QQ(0), QQ(0), QQ(1)),
        (QQ(1), QQ(1), QQ(3)),
        (QQ(1), QQ(-1), QQ(2)),
    ]


def test_min_q_raises_on_empty():
    empty = WQSeries((), 3, None)
    with pytest.raises(EmptySeries):
        empty.min_q()
    assert empty.min_q_bound() == QQ(3)


def test_w_slice_and_q_slice():
    a = make_wq({(0, 0): QQ(1), (1, 0): QQ(5), (1, 2): QQ(7)}, q_trunc=3)
    ws = a.w_slice(QQ(0))
    assert ws.terms == {QQ(0): QQ(1), QQ(1): QQ(5)}
    assert ws.trunc == QQ(3)
    assert a.q_slice(QQ(1)) == {QQ(0): QQ(5), QQ(2): QQ(7)}
    assert a.q_slice(QQ(2)) == {}


def test_monomial_product_moves_both_exponents():
    a = make_wq({(0, 0): QQ(1)}, q_trunc=2)
    m = make_wq({(QQ(1, 3), QQ(-1, 2)): QQ(5)})
    b = wq_mul(a, m)
    assert b.q_slice(QQ(1, 3)) == {QQ(-1, 2): QQ(5)}
    assert b.q_trunc == QQ(2) + QQ(1, 3)


def test_specializations():
    t2 = vartheta2(3)
    w1 = wq_specialize_w1(t2)
    assert w1.terms == {QQ(1, 8): QQ(2), QQ(9, 8): QQ(2)}
    signed = wq_specialize_w_signed(t2)
    # w-exponents are half-odd integers, so every term flips sign
    assert signed.terms == {QQ(1, 8): QQ(-2), QQ(9, 8): QQ(-2)}
    floored = WQSeries(((0, 0, 1),), 2, w_floor=0)
    with pytest.raises(ValueError):
        wq_specialize_w1(floored)


def test_to_q_round_trip_and_rejection():
    a = QSeries({QQ(0): 1, QQ(1, 2): 3}, trunc=QQ(2))
    back = wq_to_q(wq_from_q(a))
    assert back == a
    with pytest.raises(ValueError):
        wq_to_q(make_wq({(0, 1): QQ(1)}, q_trunc=2))


# -- multiplication against a dense oracle ----------------------------------------


@settings(max_examples=100, deadline=None)
@given(st_laurent, st_laurent)
def test_complete_product_matches_dense_convolution(pa, pb):
    a, b = make_wq(pa), make_wq(pb)
    prod = wq_mul(a, b)
    expected = brute_product(pa, pb)
    got = {
        (qe, we): c for qe, sl in prod.terms.items() for we, c in sl.items()
    }
    assert got == expected
    assert prod.q_trunc is None and prod.w_floor is None


@settings(max_examples=100, deadline=None)
@given(st_laurent, st_laurent, st_qexp, st_wexp)
# a's w^-2 term hides below the floor and b's q^2 term above the truncation;
# their product q^2 w^-1 lies inside the box q < 3 that the stored minima give
@example({(0, -2): 1, (1, 0): 1}, {(1, 0): 1, (2, 1): 1}, QQ(1), QQ(-1))
# a stores no term above the floor; its w^-2 times b's w^1 lands at w^-1
@example({(0, -2): 1}, {(0, 1): 1, (1, 0): 1}, QQ(1), QQ(-1))
def test_boxed_product_is_sound(pa, pb, t, f):
    """Multiplying floored/truncated inputs agrees with the dense product on the box."""
    t = t + 1
    a = make_wq(pa, q_trunc=t, w_floor=f)
    b = make_wq(pb, q_trunc=t, w_floor=f)
    prod = wq_mul(a, b)
    dense = make_wq(brute_product(pa, pb))
    ok, bad, _ = wq_equal_on_box(prod, dense)
    assert ok, bad


@settings(max_examples=100, deadline=None)
@given(st_lattice_wq(), st_lattice_wq())
# a floor off the w-lattice of the product: the cut must round up
@example(make_wq({(0, 0): 1}, w_floor=QQ(-1, 3)), make_wq({(0, 0): 1, (0, -1): 1}))
# the q^2 slice cancels to zero and is produced again after the q^3 slice
@example(make_wq({(0, 0): 1, (1, 0): 1, (2, 0): 2}), make_wq({(0, 0): 1, (1, 0): -1, (2, 0): 1}))
def test_mul_matches_the_fraction_keyed_convolution(a, b):
    want = ref_wq_mul(a, b)
    got = wq_mul(a, b)
    assert slices_in_order(got) == slices_in_order(want)
    assert all(type(x) is QQ for qe, we, c in got.items() for x in (qe, we, c))
    assert (got.q_trunc, got.w_floor) == (want.q_trunc, want.w_floor)


def test_product_with_a_factor_without_terms_is_zero_on_its_box():
    empty = WQSeries((), 2, None)
    floored = WQSeries([(0, -1, 1)], 3, -2)
    # every term of `hidden` lies below its floor w = -2, so its products
    # lie below -2 plus the other factor's top stored w, or its floor
    hidden = make_wq({(0, -3): 1}, q_trunc=3, w_floor=-2)
    for a, b, box in ((empty, floored, (2, None)), (floored, empty, (2, None)),
                      (empty, hidden, (2, None)), (hidden, empty, (2, None)),
                      (hidden, floored, (3, -3)), (floored, hidden, (3, -3)),
                      (hidden, hidden, (3, -4))):
        prod = wq_mul(a, b)
        assert prod.is_zero
        assert (prod.q_trunc, prod.w_floor) == box


@settings(max_examples=100, deadline=None)
@given(st_laurent, st_laurent)
def test_add_commutes(pa, pb):
    a, b = make_wq(pa, q_trunc=3), make_wq(pb, q_trunc=4)
    ok, bad, _ = wq_equal_on_box(wq_add(a, b), wq_add(b, a))
    assert ok, bad


@settings(max_examples=100, deadline=None)
@given(st_laurent)
def test_scalar_distributes_over_slices(pa):
    a = make_wq(pa, q_trunc=5)
    tripled = wq_scalar(a, 3)
    ok, bad, _ = wq_equal_on_box(tripled, wq_add(a, wq_add(a, a)))
    assert ok, bad


def ref_support_lo(x, *summands):
    """The q-support bound of a sum x: its stored minimum (q_trunc when it
    has no terms) and the bounds of the summands it came from."""
    bounds = [y._support_lo() for y in summands if y._support_lo() is not None]
    own = min(x.terms) if x.terms else x.q_trunc
    return min(bounds + ([] if own is None else [own]), default=None)


def ref_w1(x, sign):
    """The q-series of x at w^e -> sign(e), summed per slice in stored order."""
    coeffs = {}
    for qe, sl in x.terms.items():
        s = sum(c * sign(we) for we, c in sl.items())
        if s:
            coeffs[qe] = s
    return QSeries(coeffs, x.q_trunc)


def half_integer_sign(we):
    if (2 * we).denominator != 1:
        raise ValueError("off the half-integer grid")
    return -1 if (2 * we).numerator % 2 else 1


@settings(max_examples=100, deadline=None)
@given(st_lattice_wq(), st_lattice_wq())
# the q^1 slice cancels at w^0, and w^1 re-enters it at the end of the sum
@example(make_wq({(0, 0): 1, (1, 0): 1}), make_wq({(1, 0): -1, (1, 1): 1, (0, 1): 2}))
def test_add_matches_the_fraction_keyed_merge(a, b):
    qt = [t for t in (a.q_trunc, b.q_trunc) if t is not None]
    wf = [f for f in (a.w_floor, b.w_floor) if f is not None]
    terms = [(qe, we, c) for x in (a, b) for qe, sl in x.terms.items()
             for we, c in sl.items()]
    want = WQSeries(terms, min(qt, default=None), max(wf, default=None))
    assert_same_series(wq_add(a, b), want, ref_support_lo(want, a, b))


@settings(max_examples=100, deadline=None)
@given(st_lattice_wq(), st.fractions(QQ(-3), QQ(3), max_denominator=6))
@example(make_wq({(0, -2): 1, (1, 0): 1}, w_floor=-1), QQ(0))
def test_scalar_matches_the_termwise_product(a, c):
    got = wq_scalar(a, c)
    if c == 0:
        assert_same_series(got, WQSeries((), a.q_trunc, a.w_floor))
        return
    want = WQSeries({qe: {we: x * c for we, x in sl.items()}
                     for qe, sl in a.terms.items()}, a.q_trunc, a.w_floor)
    assert_same_series(got, want, a._support_lo())


@settings(max_examples=100, deadline=None)
@given(st_lattice_series())
def test_from_q_and_back_keep_the_terms(a):
    emb = wq_from_q(a)
    want = WQSeries([(e, 0, c) for e, c in a.terms.items()], a.trunc, None)
    assert_same_series(emb, want)
    back = wq_to_q(emb)
    assert_same_series(back, QSeries(a.terms, a.trunc))


@settings(max_examples=100, deadline=None)
@given(st_lattice_wq())
@example(make_wq({(0, 0): 1, (1, 0): 2}, q_trunc=3))
def test_to_q_matches_the_w0_terms(a):
    if any(we != 0 for sl in a.terms.values() for we in sl):
        with pytest.raises(ValueError):
            wq_to_q(a)
        return
    want = QSeries({qe: sl[QQ(0)] for qe, sl in a.terms.items()}, a.q_trunc)
    assert_same_series(wq_to_q(a), want)


@settings(max_examples=100, deadline=None)
@given(st_lattice_wq())
# w^1/2 and w^-1/2 cancel at w -> 1 and add at w -> -1
@example(make_wq({(0, QQ(1, 2)): 1, (0, QQ(-1, 2)): -1, (1, 0): 3}, q_trunc=2))
def test_specialisations_match_the_slice_sums(a):
    for spec, sign in ((wq_specialize_w1, lambda we: 1),
                       (wq_specialize_w_signed, half_integer_sign)):
        try:
            if a.w_floor is not None:
                raise ValueError("floored")
            want = ref_w1(a, sign)
        except ValueError:
            with pytest.raises(ValueError):
                spec(a)
            continue
        assert_same_series(spec(a), want)


@settings(max_examples=100, deadline=None)
@given(st_lattice_wq(), st.integers(-12, 12), st.integers(1, 6))
def test_w_slice_matches_the_slice_lookup(a, num, den):
    we = QQ(num, den)
    if a.w_floor is not None and we < a.w_floor:
        with pytest.raises(ValueError):
            a.w_slice(we)
        return
    want = QSeries({qe: sl[we] for qe, sl in a.terms.items() if we in sl}, a.q_trunc)
    assert_same_series(a.w_slice(we), want)


# -- inversion and division --------------------------------------------------------


def test_invert_theta_on_box():
    b = weyl_denominator(6)
    inv = wq_invert(b, w_floor=QQ(-8))
    prod = wq_mul(b, inv)
    one = WQSeries(((0, 0, 1),), None, None)
    ok, bad, box = wq_equal_on_box(prod, one)
    assert ok, bad
    assert box[0] is not None and box[0] > 0


def test_invert_requires_floor_for_multiterm_lead():
    with pytest.raises(ValueError):
        wq_invert(weyl_denominator(6))
    with pytest.raises(EmptySeries):
        wq_invert(WQSeries((), 3, None))


def test_invert_monomial_is_exact():
    m = WQSeries(((QQ(1, 8), QQ(1, 2), QQ(2)),), None, None)
    inv = wq_invert(m, q_trunc=QQ(3))
    assert inv.q_slice(QQ(-1, 8)) == {QQ(-1, 2): QQ(1, 2)}


def test_division_round_trip():
    N = QQ(6)
    a = vartheta2(N, w_scale=QQ(1, 2))
    b = weyl_denominator(N)
    quot = wq_div(a, b, w_floor=QQ(-6))
    back = wq_mul(b, quot)
    ok, bad, _ = wq_equal_on_box(back, a)
    assert ok, bad


def test_unfloored_division_with_infinite_quotient_raises():
    # 1 / (w^{1/2} - w^{-1/2}) = w^{-1/2} + w^{-3/2} + ... never terminates
    one = WQSeries(((0, 0, 1),), None, None)
    b = WQSeries(((0, QQ(1, 2), 1), (0, QQ(-1, 2), -1)), None, None)
    with pytest.raises(IncompleteQuotient):
        wq_div(one, b, q_trunc=1)
    floored = wq_div(one, b, q_trunc=1, w_floor=-3)
    assert floored.terms == {QQ(0): {QQ(-1, 2): QQ(1), QQ(-3, 2): QQ(1), QQ(-5, 2): QQ(1)}}
    assert (floored.q_trunc, floored.w_floor) == (QQ(1), QQ(-3))
