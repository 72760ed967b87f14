"""Two-variable theta series: frozen slices, box bookkeeping, product identities."""

import inspect
import math
import re
from fractions import Fraction as QQ

import pytest
from hypothesis import example, given, settings, strategies as st

from ospq import qseries, theta
from ospq.qseries import EmptySeries, QSeries, qs_eta, qs_mul
from ospq.theta import (
    IncompleteQuotient,
    InvalidIndex,
    WQSeries,
    _theta_difference,
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
    wq_specialize_w1,
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


def weyl_denominator_product(N):
    """The odd Weyl denominator in product form: w^{1/4} q^{1/24} (1 - w^{-1/2})
    times the infinite product over n >= 1 of (1-q^n)(1-w q^n)(1-w^{-1} q^n)
    divided by (1+w^{1/2} q^n)(1+w^{-1/2} q^n), with the division realised by
    per-slice geometric expansion (exact: every q-slice of each inverse factor
    is a single w-monomial)."""
    N = QQ(N)
    acc = WQSeries(
        (
            (QQ(1, 24), QQ(1, 4), QQ(1)),
            (QQ(1, 24), QQ(-1, 4), QQ(-1)),
        ),
        N,
        None,
    )
    n = 1
    while n < N:
        zero = QQ(0)
        factors = [
            WQSeries(((zero, zero, 1), (QQ(n), zero, -1)), N, None),
            WQSeries(((zero, zero, 1), (QQ(n), QQ(1), -1)), N, None),
            WQSeries(((zero, zero, 1), (QQ(n), QQ(-1), -1)), N, None),
        ]
        # geometric inverses of (1 + w^{+-1/2} q^n): alternating monomial towers
        for half in (QQ(1, 2), QQ(-1, 2)):
            def tower(h=half, base=n):
                j = 0
                while j * base < N:
                    yield QQ(j * base), h * j, QQ(-1) ** j
                    j += 1
            factors.append(WQSeries(tower(), N, None))
        for f in factors:
            acc = wq_mul(acc, f)
        n += 1
    return acc


def test_weyl_denominator_product_form_matches_theta_form():
    ok, bad, box = wq_equal_on_box(weyl_denominator(10), weyl_denominator_product(10))
    assert ok, bad
    assert box[0] == QQ(10)


def test_denominator_bridge_identity():
    # product of the odd denominator with the half-argument even theta equals
    # the alternating half-integer theta times eta, exactly on the common box
    N = QQ(8)
    lhs = wq_mul(weyl_denominator(N), vartheta2(N, w_scale=QQ(1, 2)))
    rhs = wq_mul(vartheta1_times_i(N), wq_from_q(qs_eta(N)))
    ok, bad, _ = wq_equal_on_box(lhs, rhs)
    assert ok, bad


# -- the signed coset walk against what it replaced ----------------------------


@pytest.mark.parametrize("a, b, c, w_scale, N", [
    (15, 6, 5, QQ(1, 6), QQ(33, 8)),  # osp numerator, level (5, 3), label (2, 1)
    (12, 6, 8, QQ(1, 6), QQ(9)),  # sl2 numerator, level (5, 3), label (1, 2)
    (35, 14, 6, 0, QQ(21)),  # Virasoro numerator of u = 6, p = 7 at (2, 1)
    (3, 1, 0, QQ(1, 2), QQ(7, 3)),  # the Weyl denominator
    (15, 6, 5, QQ(1, 10), QQ(1, 2)),  # only the first coset has a term below N
    (15, 6, 5, QQ(1, 2), QQ(1, 200)),  # neither coset has a term below N
    (3, 3, 1, QQ(1, 2), QQ(10)),  # b = 0 mod a: the cosets coincide and cancel
    (3, 1, 3, 0, QQ(10)),  # c = 0 mod a at w^0: the cosets mirror and cancel
])
def test_theta_difference_is_the_difference_of_two_thetas(a, b, c, w_scale, N):
    got = _theta_difference(a, b, c, w_scale, N)
    want = (theta_big(b - c, a, w_scale, QQ(1, 2), N)
            - theta_big(-b - c, a, w_scale, QQ(1, 2), N))
    assert_same_series(got, want)
    assert (got.D, got.W) == (want.D, want.W)


def ref_eta_store(N):
    """Euler's pentagonal sum with its terms in ascending order: sign (-1)^m at
    (6m - 1)^2 / 24, over m = 0, 1, -1, 2, -2, ..."""
    cut, s, j = math.ceil(24 * N), {}, 0
    while True:
        for m in (j, -j) if j else (0,):
            e = (6 * m - 1) ** 2
            if e >= cut:
                return s
            s[e] = {0: (-1) ** j}
        j += 1


@pytest.mark.parametrize("N", [QQ(1, 24), QQ(1, 8), QQ(1), QQ(7, 3), QQ(30), QQ(60)])
def test_eta_is_the_pentagonal_sum(N):
    eta, want = qs_eta(N), QSeries._of(ref_eta_store(N), 24, 1, N)
    assert sorted(eta.terms.items()) == sorted(want.terms.items())
    assert (eta.trunc, eta.D) == (want.trunc, want.D)


@pytest.mark.parametrize("N, w_scale, q_scale", [
    (QQ(3), 1, 1), (QQ(33, 8), QQ(1, 2), QQ(1, 2)), (QQ(20), QQ(1, 6), QQ(3, 2)),
    (QQ(1, 8), 1, 1), (QQ(5), 0, 1)])
def test_vartheta1_times_i_follows_the_per_term_sign(N, w_scale, q_scale):
    # t = 2n + 1 carries (-1)^n, that is -1 on t = 3 mod 4
    top = math.isqrt(int(8 * N / q_scale)) + 1
    want = WQSeries(((q_scale * QQ(t * t, 8), w_scale * QQ(t, 2), -1 if t % 4 == 3 else 1)
                     for t in range(-top, top + 1) if t % 2), N, None)
    got = vartheta1_times_i(N, w_scale, q_scale)
    assert sorted(got.items()) == sorted(want.items())
    assert (got.q_trunc, got.w_floor) == (N, None)
    # the lowest q walked bounds the support, cancelled terms included
    assert got._support_lo() == min(N, q_scale / 8)


def test_every_theta_constructor_refuses_a_non_positive_q_scale():
    # a theta walk at q scale <= 0 never stops, so the refusal must come
    # before it: call the constructors only once the walk's wrapper holds it
    assert "q scaling factor must be positive" in inspect.getsource(theta._theta)
    for build in (lambda: vartheta2(3, q_scale=0), lambda: vartheta1_times_i(3, q_scale=-1),
                  lambda: theta_big(1, 2, 1, 0, 4)):
        with pytest.raises(ValueError, match="q scaling factor must be positive"):
            build()


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


def wq_specialize_w_signed(a):
    """Specialise w^x -> (-1)^{2x} (the w -> -1 slice on the half-integer grid),
    each slice summed in stored order; requires complete w-support."""
    if a.w_floor is not None:
        raise ValueError("signed specialisation needs the complete w-support "
                         "(w_floor is set)")
    W = a.W

    def sign(w):
        two_x, r = divmod(2 * w, W)
        if r:
            raise ValueError("w-exponent %s is not on the half-integer grid" % QQ(w, W))
        return -1 if two_x % 2 else 1

    s = {}
    for q, sl in a._s.items():
        c = sum(sign(w) * c for w, c in sl.items())
        if c:
            s[q] = {0: c}
    return QSeries._of(s, a.D, 1, a.q_trunc)


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


def test_equal_series_hash_alike_whatever_their_stored_order(monkeypatch):
    q1 = QSeries({QQ(1, 2): 3, 0: 1}, 4)
    q2 = QSeries([(0, 1), (QQ(1, 2), 3)], 4)
    w1 = WQSeries({1: {QQ(1, 2): 2}, 0: {0: 1}}, 3, -1)
    w2 = WQSeries([(0, 0, 1), (1, QQ(1, 2), 2)], 3, -1)
    # a sum whose q^(1/2) terms cancel keeps its denominator D = 2
    w3 = (WQSeries([(0, 0, 1), (QQ(1, 2), 0, 1), (1, QQ(1, 2), 2)], 3, -1)
          - WQSeries([(QQ(1, 2), 0, 1)], 3))
    assert (list(q1._s), list(w1._s), w3.D) == ([1, 0], [1, 0], 2)
    for a, b in ((q1, q2), (w1, w2), (w1, w3)):
        assert a == b and hash(a) == hash(b)
    assert q1 != wq_from_q(q1) and wq_from_q(q1) != q1
    assert q1 != QSeries(q1.terms, 5) and w1 != WQSeries(w1.terms, 3, -2)
    # the hash reads the integer store, never the Fraction view
    for cls, x in ((QSeries, q1), (WQSeries, w1)):
        monkeypatch.setattr(cls, "terms", property(lambda self: pytest.fail("terms built")))
        hash(x)


def test_an_operation_refuses_series_of_two_classes():
    # a result takes its first operand's class, so a q-series would drop the
    # w-terms of a two-variable operand: the operations refuse the pair
    q = QSeries({0: 1, 1: 2}, 3)
    w = WQSeries([(0, QQ(1, 2), 5), (1, 0, 2)], 3)
    for op in (lambda: q + w, lambda: w - q, lambda: q * w, lambda: qs_mul(q, w),
               lambda: wq_mul(w, q), lambda: wq_div(w, q, 2), lambda: wq_equal_on_box(w, q)):
        with pytest.raises(TypeError, match="cannot combine"):
            op()


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
    tripled = 3 * a
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
    got = c * a
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


# -- the box read on int keys, against the Fraction formulas -----------------------


def _fmin(*xs):
    """The least of the bounds given, None standing for no bound."""
    return min((x for x in xs if x is not None), default=None)


def _fmax(*xs):
    return max((x for x in xs if x is not None), default=None)


def ref_support_bound(x):
    """_support_lo by its Fraction formula: the least stored q-exponent, else
    q_trunc, and the hidden bound _q_lo."""
    lo = QQ(min(x._s), x.D) if x._s else x.q_trunc
    return lo if x._q_lo is None else _fmin(lo, x._q_lo)


def ref_add_box(a, b):
    lo = None if type(a) is QSeries else _fmin(ref_support_bound(a), ref_support_bound(b))
    return _fmin(a.q_trunc, b.q_trunc), _fmax(a.w_floor, b.w_floor), lo


def ref_scale_box(x, c, e):
    lo = None if c == 0 or x._q_lo is None else x._q_lo + e
    return None if x.q_trunc is None else x.q_trunc + e, x.w_floor, lo


def ref_mul_box(a, b):
    ma, mb = ref_support_bound(a), ref_support_bound(b)
    if ma is None or mb is None:
        return None, None, None
    T = _fmin(None if a.q_trunc is None else a.q_trunc + mb,
              None if b.q_trunc is None else b.q_trunc + ma)
    F = None
    for x, y in ((a, b), (b, a)):
        if x.w_floor is not None:
            top = QQ(max(map(max, y._s.values())), y.W) if y._s else y.w_floor
            if top is not None:
                F = _fmax(F, x.w_floor + top)
    return T, F, None if type(a) is QSeries else ma + mb


def ref_div_box(a, b, T, F):
    """The box of _div(a, b, T, F), or the exception it raises."""
    if a.w_floor is not None:
        return ValueError("dividing a w-floored series is not supported")
    if b.w_floor is not None:
        return ValueError("dividing by a w-floored series is not supported")
    ta, tb = a.q_trunc, b.q_trunc
    if not a._s and ta is None:
        return None, None, None
    if not b._s:
        return EmptySeries("cannot divide by a series with no terms")
    beta = QQ(min(b._s), b.D)
    ma = QQ(min(a._s), a.D) if a._s else ta
    limits = [t for t in (None if ta is None else ta - beta,
                          None if tb is None else tb - 2 * beta + ma) if t is not None]
    if T is None:
        if not limits:
            return ValueError("a quotient of complete series needs a truncation order")
        T = min(limits)
    elif limits and T > min(limits):
        return ValueError("requested quotient order %s exceeds the achievable %s"
                          % (T, min(limits)))
    return T, F, None if type(a) is QSeries else ma - beta


def typed(*xs):
    return [(type(x), x) for x in xs]


def assert_box(got, want):
    """got's box and q-support bound are want's box and the Fraction rule's
    bound, of the same types (a Fraction or None)."""
    assert typed(got.q_trunc, got.w_floor, got._q_lo) == typed(*want)
    assert typed(got._support_lo()) == typed(ref_support_bound(got))


PAIRS = (st.tuples(st_lattice_series(), st_lattice_series())
         | st.tuples(st_lattice_wq(), st_lattice_wq()))
ORDERS = st.none() | st.fractions(QQ(-1), QQ(6), max_denominator=24)
SHIFTS = st.fractions(QQ(-3), QQ(3), max_denominator=12)
FLOORS = st.fractions(QQ(-2), QQ(1), max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(PAIRS, SHIFTS, ORDERS, FLOORS)
# an order off the lattice (7/3 on D = 8) against a complete series
@example((QSeries({QQ(1, 8): 1, QQ(3, 4): -2}, QQ(7, 3)), QSeries({0: 1, QQ(1, 8): 1})),
         QQ(1, 3), None, QQ(-1))
# an empty store with an order, and the complete zero series
@example((QSeries((), QQ(7, 3)), QSeries({0: 2}, 3)), QQ(0), QQ(5, 2), QQ(0))
@example((QSeries({QQ(1, 2): 1}, 4), QSeries(())), QQ(-1, 2), None, QQ(0))
# negative floors off the w-lattice, one factor storing nothing above its floor
@example((make_wq({(0, -2): 1, (QQ(1, 2), 1): 3}, q_trunc=QQ(7, 3), w_floor=QQ(-5, 3)),
          make_wq({(0, 0): 1, (1, -1): 2}, w_floor=QQ(-1, 2))), QQ(-2, 3), QQ(2), QQ(-4, 3))
@example((make_wq({(0, -2): 1}, q_trunc=QQ(7, 3), w_floor=QQ(-1)),
          WQSeries((), None, QQ(-1, 2))), QQ(1, 6), None, QQ(-1))
# complete boxes, and a division on an empty numerator store with an order
@example((make_wq({(0, 0): 1, (1, QQ(1, 2)): -1}), make_wq({(0, 0): 1, (0, -1): -1})),
         QQ(0), QQ(3), QQ(-2))
@example((WQSeries((), QQ(7, 3)), make_wq({(QQ(1, 8), 0): 1}, q_trunc=QQ(5, 2))),
         QQ(1), None, QQ(-1, 6))
def test_box_on_int_keys_is_the_fraction_rule(pair, e, order, floor):
    a, b = pair
    for x in (a, b):
        assert typed(x._support_lo()) == typed(ref_support_bound(x))
    assert_box(qseries._add(a, b), ref_add_box(a, b))
    for c in (0, QQ(-3, 2)):
        assert_box(qseries._scale(a, c, e), ref_scale_box(a, c, e))
    assert_box(qseries._mul(a, b), ref_mul_box(a, b))
    F = None if type(a) is QSeries else floor
    want = ref_div_box(a, b, order, F)
    if isinstance(want, Exception):
        with pytest.raises(type(want), match="^%s$" % re.escape(str(want))):
            qseries._div(a, b, order, F)
    else:
        assert_box(qseries._div(a, b, order, F), want)
    _, box = qseries._compare(a, b, order)
    assert typed(*box) == typed(_fmin(a.q_trunc, b.q_trunc, order),
                                _fmax(a.w_floor, b.w_floor))


# -- the sum merges store to store ---------------------------------------------------


def add_by_collect(a, b):
    """a + b as one :func:`ospq.qseries._collect` of a's terms, then b's, on
    the common box: the sum as it was written before it copied a's slices,
    kept as the oracle of the stored order."""
    T, F, lo = ref_add_box(a, b)
    D, W = math.lcm(a.D, b.D), math.lcm(a.W, b.W)
    terms = ((q, w, c) for x in (a, b) for q, sl in x._on(D, W).items()
             for w, c in sl.items())
    s = qseries._collect(terms, None if T is None else math.ceil(T * D),
                         None if F is None else math.ceil(F * W))[0]
    return a._of(s, D, W, T, F, lo)


def store_bits(x):
    """Everything a series stores, slice, term and coefficient type order
    included, with its box and q-support bound."""
    return (type(x), [(q, [(w, type(c), c) for w, c in sl.items()]) for q, sl in x._s.items()],
            x.D, x.W, typed(x.q_trunc, x.w_floor, x._q_lo, x._support_lo()))


SUM_CASES = {
    "b-cancels-a-term": (make_wq({(0, 0): 1, (1, 0): 1, (1, 1): 2}), make_wq({(1, 0): -1})),
    # q^1 is emptied, and its w^1 term re-enters after the q^2 slice
    "b-empties-a-slice": (make_wq({(0, 0): 1, (1, 0): 1, (2, 0): 5}),
                          make_wq({(1, 0): -1, (1, 1): 3, (0, -1): 2})),
    "b-cuts-a-q": (make_wq({(0, 0): 1, (2, 0): 1, (1, -1): 4}, q_trunc=3),
                   make_wq({(1, 0): 1}, q_trunc=QQ(3, 2))),
    "b-cuts-a-w": (make_wq({(0, -1): 1, (0, 1): 2, (1, -2): 4}),
                   make_wq({(1, 0): 1}, w_floor=QQ(-1, 2))),
    "b-cuts-a-slice-away": (make_wq({(0, 0): 1, (1, -2): 4, (1, -1): 1}, q_trunc=QQ(7, 3)),
                            make_wq({(0, 0): -1}, w_floor=QQ(-1, 3))),
    "a-empty": (WQSeries((), QQ(7, 3), QQ(-1)), make_wq({(0, 0): 1, (1, -2): 2})),
    "b-empty": (make_wq({(0, 0): 1, (1, -2): 2}), WQSeries((), QQ(7, 3), QQ(-1))),
    "both-empty": (WQSeries((), 2), WQSeries(())),
    "lattices-3-2-and-8-6": (make_wq({(QQ(1, 3), QQ(1, 2)): 1, (QQ(2, 3), -1): 2, (1, 0): 3}),
                             make_wq({(QQ(1, 8), QQ(1, 6)): 4, (1, 0): -3,
                                      (QQ(5, 8), QQ(-5, 6)): 1})),
    "q-cancels": (QSeries({0: 1, QQ(1, 3): 2, 1: 1}, 3), QSeries({QQ(1, 3): -2, QQ(1, 8): 1})),
    "q-empty": (QSeries((), QQ(7, 3)), QSeries({QQ(1, 8): 1, 2: 1, 3: 1})),
}


@pytest.mark.parametrize("a, b", list(SUM_CASES.values()), ids=list(SUM_CASES))
def test_sum_merges_store_to_store_in_the_collected_order(a, b):
    assert store_bits(qseries._add(a, b)) == store_bits(add_by_collect(a, b))
    assert store_bits(a - b) == store_bits(add_by_collect(a, -b))


@settings(max_examples=100, deadline=None)
@given(PAIRS)
def test_sum_keeps_the_collected_order(pair):
    a, b = pair
    assert store_bits(a + b) == store_bits(add_by_collect(a, b))


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
