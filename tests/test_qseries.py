"""Exact truncated q-series arithmetic: ring laws, eta, inversion, evaluation."""

from fractions import Fraction as QQ

import functools
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from ospq import qseries
from ospq.qseries import (
    EmptySeries,
    NonconvergentDomain,
    QSeries,
    qs_equal_below,
    qs_eta,
    qs_eval,
    qs_invert,
    qs_mul,
    qs_shift,
)

st_exponent = st.fractions(min_value=QQ(-4), max_value=QQ(8), max_denominator=6)
st_coeff = st.fractions(min_value=QQ(-5), max_value=QQ(5), max_denominator=4)
st_trunc = st.fractions(min_value=QQ(2), max_value=QQ(9), max_denominator=3)
st_terms = st.dictionaries(st_exponent, st_coeff, max_size=6)


def st_series():
    return st.builds(QSeries, st_terms, st_trunc)


def partition_numbers(n_max):
    """Partition counts via the pentagonal-number recurrence (independent route)."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


# -- Fraction-keyed reference kernels --------------------------------------------


def ref_mul(a, b):
    """Product by a Fraction-keyed convolution, with qs_mul's truncation rule and
    term order (a's terms in stored order against b's sorted)."""
    ma, mb = a.min_q_bound(), b.min_q_bound()
    if ma is None or mb is None:
        return QSeries((), None)
    cands = []
    if a.trunc is not None:
        cands.append(a.trunc + mb)
    if b.trunc is not None:
        cands.append(b.trunc + ma)
    T = min(cands) if cands else None
    if len(a.terms) > len(b.terms):
        a, b = b, a
    acc = {}
    b_items = sorted(b.terms.items())
    for ea, ca in a.terms.items():
        for eb, cb in b_items:
            e = ea + eb
            if T is not None and e >= T:
                break
            s = acc.get(e)
            s = ca * cb if s is None else s + ca * cb
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
    return QSeries(acc, T)


def ref_invert(a):
    """Inverse by the (1 + u)^{-1} recursion on Fraction-keyed exponents."""
    if not a.terms:
        raise EmptySeries("cannot invert a series with no terms")
    e0 = a.min_q()
    c0 = a.terms[e0]
    rel = {e - e0: c / c0 for e, c in a.terms.items() if e != e0}
    if a.trunc is None:
        if rel:
            raise ValueError("cannot invert an untruncated non-monomial series")
        return QSeries.monomial(1 / c0, -e0, None)
    T_rel = a.trunc - e0
    inv = {QQ(0): QQ(1)}
    if rel:
        L = math.lcm(*(e.denominator for e in rel))
        steps = sorted(rel.items())
        j = 1
        while QQ(j, L) < T_rel:
            n = QQ(j, L)
            s = QQ(0)
            for m, cm in steps:
                if m > n:
                    break
                prev = inv.get(n - m)
                if prev is not None:
                    s -= cm * prev
            if s != 0:
                inv[n] = s
            j += 1
    return QSeries({n - e0: c / c0 for n, c in inv.items()}, T_rel - e0)


# built once: a strategy built inside a draw is built and validated anew on
# every draw, which costs more than the kernels under test
LATTICE_TERMS = {d: st.dictionaries(st.integers(-3 * d, 6 * d).map(lambda k, d=d: QQ(k, d)),
                                    st_coeff, max_size=8)
                 for d in range(1, 25)}
LATTICE_TRUNC = st.none() | st.fractions(QQ(-1), QQ(9), max_denominator=24)


@st.composite
def st_lattice_series(draw):
    """A series on one lattice 1/d (d <= 24), complete or truncated."""
    d = draw(st.integers(1, 24))
    terms = draw(LATTICE_TERMS[d])
    trunc = draw(LATTICE_TRUNC)
    return QSeries(terms, trunc)


def assert_same_series(got, want, support_lo=None):
    """Equal terms in the same stored order, all Fractions, and equal boxes:
    trunc and D of a QSeries; q_trunc, w_floor and the q-support bound of a
    WQSeries (``support_lo`` if given, else want's), whose w-terms must keep
    their order within each q-slice too."""
    assert type(got) is type(want)
    if isinstance(want, QSeries):
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(e) is QQ and type(c) is QQ for e, c in got.terms.items())
        assert (got.trunc, got.D) == (want.trunc, want.D)
        return
    def flat(x):
        return [(qe, list(sl.items())) for qe, sl in x.terms.items()]
    assert flat(got) == flat(want)
    assert all(type(x) is QQ for qe, sl in got.terms.items()
               for we, c in sl.items() for x in (qe, we, c))
    assert (got.q_trunc, got.w_floor) == (want.q_trunc, want.w_floor)
    assert got._support_lo() == (want._support_lo() if support_lo is None else support_lo)


# -- construction and bookkeeping ---------------------------------------------


def test_constructor_drops_zero_and_truncates():
    a = QSeries({QQ(0): 1, QQ(1): 0, QQ(5): 7}, trunc=QQ(3))
    assert a.terms == {QQ(0): QQ(1)}
    assert a.trunc == QQ(3)


def test_constructor_merges_duplicate_exponents():
    a = QSeries([(QQ(1, 2), 1), (QQ(1, 2), 2), (QQ(1), -1), (QQ(1), 1)], trunc=5)
    assert a.terms == {QQ(1, 2): QQ(3)}


def test_monomial_and_units():
    m = QSeries.monomial(3, QQ(-1, 24))
    assert m.terms == {QQ(-1, 24): QQ(3)}
    assert QSeries.one(5).terms == {QQ(0): QQ(1)}
    assert QSeries((), 5).is_zero


def test_min_exp_empty_raises():
    with pytest.raises(EmptySeries):
        QSeries((), 4).min_q()
    assert QSeries((), 4).min_q_bound() == QQ(4)


def test_truncate_shrinks_only():
    a = QSeries({QQ(0): 1, QQ(2): 5}, trunc=QQ(4))
    b = a.truncate(QQ(1))
    assert b.terms == {QQ(0): QQ(1)}
    assert b.trunc == QQ(1)


def test_shift_and_scalar():
    a = QSeries({QQ(0): 1, QQ(1): 2}, trunc=QQ(3))
    b = qs_shift(a, QQ(1, 2), coeff=QQ(-3))
    assert b.terms == {QQ(1, 2): QQ(-3), QQ(3, 2): QQ(-6)}
    assert b.trunc == QQ(7, 2)
    c = QQ(1, 3) * a
    assert c.terms == {QQ(0): QQ(1, 3), QQ(1): QQ(2, 3)}
    assert c.trunc == QQ(3)


# -- ring laws under truncation (property tests) -------------------------------


@settings(max_examples=120, deadline=None)
@given(st_series(), st_series())
def test_add_commutes(a, b):
    ok, bad = qs_equal_below(a + b, b + a)
    assert ok, bad


@settings(max_examples=120, deadline=None)
@given(st_series(), st_series())
def test_mul_commutes(a, b):
    ok, bad = qs_equal_below(qs_mul(a, b), qs_mul(b, a))
    assert ok, bad


@settings(max_examples=80, deadline=None)
@given(st_series(), st_series(), st_series())
def test_mul_associates_on_common_box(a, b, c):
    lhs = qs_mul(qs_mul(a, b), c)
    rhs = qs_mul(a, qs_mul(b, c))
    ok, bad = qs_equal_below(lhs, rhs)
    assert ok, bad


@settings(max_examples=80, deadline=None)
@given(st_series(), st_series(), st_series())
def test_mul_distributes_on_common_box(a, b, c):
    lhs = qs_mul(a, b + c)
    rhs = qs_mul(a, b) + qs_mul(a, c)
    ok, bad = qs_equal_below(lhs, rhs)
    assert ok, bad


@settings(max_examples=120, deadline=None)
@given(st_series())
def test_one_is_multiplicative_unit(a):
    ok, bad = qs_equal_below(qs_mul(a, QSeries.one(a.trunc)), a)
    assert ok, bad


@settings(max_examples=120, deadline=None)
@given(st_series(), st_trunc)
def test_truncation_is_consistent_with_mul(a, t):
    """Truncating an operand never changes coefficients inside the result box."""
    b = QSeries({QQ(0): 1, QQ(1): -1, QQ(2): 1}, trunc=QQ(6))
    full = qs_mul(a, b)
    cut = qs_mul(a.truncate(t), b)
    ok, bad = qs_equal_below(full, cut)
    assert ok, bad


def test_mul_trunc_bookkeeping():
    a = QSeries({QQ(1, 2): 1}, trunc=QQ(4))
    b = QSeries({QQ(2): 1}, trunc=QQ(5))
    prod = qs_mul(a, b)
    # min(T_a + min_b, T_b + min_a) = min(4 + 2, 5 + 1/2) = 11/2
    assert prod.trunc == QQ(11, 2)
    assert prod.terms == {QQ(5, 2): QQ(1)}


@settings(max_examples=100, deadline=None)
@given(st_lattice_series(), st_lattice_series())
# q^2 cancels to zero and is produced again after q^3: it re-enters at the end
@example(QSeries({0: 1, 1: 1, 2: 2}), QSeries({0: 1, 1: -1, 2: 1}))
def test_mul_matches_the_fraction_keyed_convolution(a, b):
    assert_same_series(qs_mul(a, b), ref_mul(a, b))


def ref_add(a, b):
    """Sum by a Fraction-keyed merge: a's terms, then b's, a term that cancels
    leaving and re-entering at the end."""
    cands = [t for t in (a.trunc, b.trunc) if t is not None]
    T = min(cands) if cands else None
    acc = dict(a.terms)
    for e, c in b.terms.items():
        s = acc.get(e, 0) + c
        if s == 0:
            del acc[e]
        else:
            acc[e] = s
    return QSeries({e: c for e, c in acc.items() if T is None or e < T}, T)


def ref_scaled(a, c, exp=0):
    """c * q^exp * a, term by term in a's order."""
    T = None if a.trunc is None else a.trunc + exp
    if c == 0:
        return QSeries({}, T)
    return QSeries({e + exp: x * c for e, x in a.terms.items()}, T)


st_rational = st.fractions(min_value=QQ(-3), max_value=QQ(3), max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st_lattice_series(), st_lattice_series())
# q^1 cancels and q^1/2 is new: the sum keeps a's order, then b's new terms
@example(QSeries({0: 1, 1: 2}), QSeries({QQ(1, 2): 1, 1: -2, 2: 1}, 3))
def test_add_matches_the_fraction_keyed_merge(a, b):
    assert_same_series(a + b, ref_add(a, b))


@settings(max_examples=100, deadline=None)
@given(st_lattice_series(), st_rational | st.integers(-3, 3))
@example(QSeries({QQ(1, 2): 1}, 4), 0)
def test_scalar_matches_the_termwise_product(a, c):
    assert_same_series(c * a, ref_scaled(a, c))


@settings(max_examples=100, deadline=None)
@given(st_lattice_series(), st_rational, st_rational)
@example(QSeries({QQ(1, 2): 1, 1: 1}, 4), QQ(1, 2), 1)
def test_shift_matches_the_termwise_shift(a, exp, c):
    if c == 0:
        c = 1
    assert_same_series(qs_shift(a, exp, c), ref_scaled(a, c, exp))


# negative, zero-crossing and large-denominator box values, on small and
# large lattices
BOX_VALUES = (st.fractions(QQ(-5), QQ(5), max_denominator=48)
              | st.fractions(QQ(-10**6), QQ(10**6), max_denominator=10**12))


@settings(max_examples=300, deadline=None)
@given(BOX_VALUES, BOX_VALUES, st.integers(1, 48) | st.integers(1, 10**9))
@example(QQ(0), QQ(0), 1)
@example(QQ(7, 3), QQ(-7, 3), 8)
@example(QQ(-1, 3), QQ(-1, 2), 3)
@example(QQ(-6, 8), QQ(1, 10**12 - 1), 8)
def test_int_cut_and_order_are_the_fraction_rule(x, y, L):
    cut = qseries._cut(x, L)
    assert type(cut) is int and cut == math.ceil(x * L)
    assert qseries._lt(x, y) is (x < y)
    assert qseries._at(x, L * x.denominator) == x * L * x.denominator
    assert qseries._cut(None, L) is None


@settings(max_examples=100, deadline=None)
@given(st_lattice_series(), st.fractions(QQ(-2), QQ(9), max_denominator=24))
@example(QSeries({QQ(1, 2): 1, 1: 1}, None), QQ(1))
def test_truncate_matches_the_filtered_terms(a, t):
    T = t if a.trunc is None else min(a.trunc, t)
    want = QSeries({e: c for e, c in a.terms.items() if e < T}, T)
    assert_same_series(a.truncate(t), want)


# -- eta and partition numbers --------------------------------------------------


def test_eta_coefficients_match_euler_product_signs():
    # q^{-1/24} * eta = 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    eta = qs_eta(20)
    shifted = qs_shift(eta, QQ(-1, 24))
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    assert shifted.terms == {QQ(e): QQ(c) for e, c in expected.items()}


def test_inverse_eta_generates_partition_numbers():
    n_max = 24
    inv = qs_invert(qs_eta(n_max + 2))
    shifted = qs_shift(inv, QQ(1, 24))
    expected = partition_numbers(n_max)
    for n, pn in enumerate(expected):
        assert shifted.coeff(QQ(n)) == pn, n


def test_eta_at_tau_i_matches_gamma_closed_form():
    res = qs_eval(qs_eta(60), 1j, precision=256)
    with mp.workprec(300):
        target = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf(0.75))
        assert abs(res.value - target) < mp.mpf(10) ** -60
    assert res.tail_bound < mp.mpf(10) ** -100


@pytest.mark.parametrize("N", [QQ(1, 3), QQ(1, 24), QQ(25, 24), QQ(3), QQ(7, 2),
                               QQ(13, 3), QQ(23), QQ(101, 4), QQ(80)])
def test_eta_is_the_truncated_euler_product(N):
    prod = QSeries.one(N)
    n = 1
    while n < N:
        prod = ref_mul(prod, QSeries({QQ(0): QQ(1), QQ(n): QQ(-1)}))
        n += 1
    want = qs_shift(prod, QQ(1, 24)).truncate(N)
    eta = qs_eta(N)
    assert eta.terms == want.terms
    assert (eta.trunc, eta.D) == (want.trunc, want.D)
    assert eta.trunc == N
    assert eta.is_zero == (N <= QQ(1, 24))


# -- inversion contract ---------------------------------------------------------


def test_invert_monomial_exact():
    m = QSeries.monomial(QQ(2), QQ(-1, 3))
    inv = qs_invert(m)
    assert inv.terms == {QQ(1, 3): QQ(1, 2)}


def test_invert_empty_raises():
    with pytest.raises(EmptySeries):
        qs_invert(QSeries((), 4))


def test_invert_untruncated_multiterm_raises():
    a = QSeries({QQ(0): 1, QQ(1): 1})
    with pytest.raises(ValueError):
        qs_invert(a)


@settings(max_examples=100, deadline=None)
@given(st_terms, st_trunc)
def test_invert_contract_product_is_one(terms, t):
    a = QSeries(terms, trunc=t)
    if a.is_zero:
        return
    e0 = a.min_q()
    guaranteed = a.trunc - 2 * e0
    if guaranteed <= 0:
        return
    prod = qs_mul(a, qs_invert(a))
    one = QSeries.one(None)
    ok, bad = qs_equal_below(prod, one, order=guaranteed)
    assert ok, bad
    assert prod.coeff(QQ(0)) == 1


@settings(max_examples=100, deadline=None)
@given(st_lattice_series())
def test_invert_matches_the_fraction_keyed_recursion(a):
    try:
        want = ref_invert(a)
    except (EmptySeries, ValueError) as exc:  # no terms; complete multi-term
        with pytest.raises(type(exc)):
            qs_invert(a)
        return
    assert_same_series(qs_invert(a), want)


# -- numeric evaluation ----------------------------------------------------------


def test_eval_rejects_lower_half_plane():
    a = qs_eta(6)
    with pytest.raises(NonconvergentDomain):
        qs_eval(a, -2j)
    with pytest.raises(NonconvergentDomain):
        qs_eval(a, 0.5)


def test_eval_tail_bound_is_honest_for_eta():
    tau = 1j
    small = qs_eval(qs_eta(12), tau, precision=256)
    big = qs_eval(qs_eta(80), tau, precision=256)
    assert abs(small.value - big.value) <= small.tail_bound


def test_eval_complete_series_has_zero_tail():
    m = QSeries.monomial(3, QQ(1, 2))  # no truncation: exact evaluation
    res = qs_eval(m, 1j, precision=128)
    assert res.tail_bound == 0
    with mp.workprec(160):
        assert abs(res.value - 3 * mp.exp(-mp.pi)) < mp.mpf(10) ** -30


# -- comparison helper -----------------------------------------------------------


def test_equal_below_reports_lowest_mismatch():
    a = QSeries({QQ(0): 1, QQ(1): 2, QQ(2): 3}, trunc=QQ(4))
    b = QSeries({QQ(0): 1, QQ(1): 5, QQ(2): 9}, trunc=QQ(4))
    ok, bad = qs_equal_below(a, b)
    assert not ok
    assert bad == (QQ(1), QQ(2), QQ(5))


def test_equal_below_respects_order_cap():
    a = QSeries({QQ(0): 1, QQ(3): 7}, trunc=QQ(5))
    b = QSeries({QQ(0): 1}, trunc=QQ(5))
    ok, _ = qs_equal_below(a, b, order=QQ(2))
    assert ok
    ok, bad = qs_equal_below(a, b, order=QQ(4))
    assert not ok and bad[0] == QQ(3)


# -- evaluation against the per-term sum -----------------------------------------


def ref_eval(a, tau, precision):
    """(value, tail bound) by the per-term sum qs_eval was first written as:
    one mpmath.exp per stored term, summed in stored order at precision + 16
    bits, with the same heuristic tail bound."""
    with mp.workprec(precision + 16):
        t = mp.mpmathify(tau)
        z = 2j * mp.pi * t
        val = mp.mpc(0)
        big = mp.mpf(1)
        for e, c in a.terms.items():
            ce = mp.mpf(c.numerator) / c.denominator
            val += ce * mp.exp(z * mp.mpf(e.numerator) / e.denominator)
            if abs(ce) > big:
                big = abs(ce)
        if a.trunc is None:
            tail = mp.mpf(0)
        else:
            qabs = mp.exp(-2 * mp.pi * mp.im(t))
            tt = a.trunc
            tail = big * qabs ** (mp.mpf(tt.numerator) / tt.denominator) / (1 - qabs)
        return +val, +tail


def eval_error_bounds(a, tau, precision):
    """Bounds on |value - sum of c q^e| for qs_eval and for ``ref_eval``.

    qs_eval's is the one its docstring proves: |head| n 2^(1-P) (1 + sum|c|)
    with P = precision + 48, n terms and head = q^(least exponent), plus
    2^-(precision + 14) of the value.  The per-term sum rounds each argument
    2 pi i tau e to a relative error of about 5u (u = 2^-(precision + 16)),
    so its term c q^e is off by at most (5 |2 pi tau e| + 4) u of itself, and
    each of the n additions by u of the running sum; both are doubled."""
    with mp.workprec(precision + 64):
        t = mp.mpmathify(tau)
        terms = [(mp.mpf(e.numerator) / e.denominator, mp.mpf(c.numerator) / c.denominator)
                 for e, c in a.terms.items()]
        n = len(terms)
        if not n:
            return mp.mpf(0), mp.mpf(0)
        qabs = mp.exp(-2 * mp.pi * mp.im(t))
        head = qabs ** min(e for e, _ in terms)
        value = abs(sum(c * mp.exp(2j * mp.pi * t * e) for e, c in terms))
        kernel = (head * n * mp.ldexp(1, 1 - precision - 48)
                  * (1 + sum(abs(c) for _, c in terms))
                  + mp.ldexp(value, -precision - 14))
        u = mp.ldexp(1, -precision - 16)
        per_term = sum(abs(c) * qabs ** e * (5 * abs(2 * mp.pi * t * e) + 4 + n)
                       for e, c in terms)
        return kernel, 2 * u * per_term


TAU0 = mp.mpc(-0.277839, 1.725435)
with mp.workprec(256 + 16):
    S_TAU0 = -1 / TAU0  # as check_s_transform_numeric forms -1/tau0


def _chars(k, N):
    from ospq.characters import AdmissibleLevel, component_chars_w1
    chars = component_chars_w1(AdmissibleLevel.from_integer_level(k), N)
    return [x for r in sorted(chars) for x in chars[r]]


EVAL_SERIES = {
    "fractions": QSeries({QQ(-1, 3): QQ(2, 7), QQ(0): QQ(-5, 3), QQ(1, 2): QQ(1, 1000),
                          QQ(7, 4): QQ(22, 7), QQ(5): QQ(-9, 2)}, trunc=QQ(11, 2)),
    "negative-and-zero": QSeries({QQ(-7, 6): 4, QQ(-1, 2): -1, QQ(0): 13, QQ(3, 2): 2},
                                 trunc=3),
    "single-term": QSeries.monomial(QQ(-3, 5), QQ(-7, 6), trunc=2),
    "complete": QSeries({QQ(-1, 2): 3, QQ(0): -1, QQ(5, 3): 4}),
    "empty": QSeries((), 4),
    "empty-complete": QSeries((), None),
    "eta": qs_eta(30),
}
EVAL_TAUS = {"tau0": TAU0, "-1/tau0": S_TAU0, "0.05i": 0.05j, "8i": 8j}


def _eval_cases():
    for name, a in EVAL_SERIES.items():
        for tname, tau in EVAL_TAUS.items():
            yield pytest.param(lambda a=a: [a], tau, id="%s@%s" % (name, tname))
    for k, N in ((1, 24), (2, 20)):
        for tname, tau in EVAL_TAUS.items():
            yield pytest.param(lambda k=k, N=N: _chars(k, N), tau,
                               id="chars-k%d-N%d@%s" % (k, N, tname))


@pytest.mark.parametrize("series, tau", list(_eval_cases()))
def test_eval_agrees_with_the_per_term_sum(series, tau):
    for a in series():
        got = qs_eval(a, tau, precision=256)
        value, tail = ref_eval(a, tau, 256)
        kernel, per_term = eval_error_bounds(a, tau, 256)
        assert abs(got.value - value) <= kernel + per_term
        assert got.tail_bound == tail and got.tail_bound._mpf_ == tail._mpf_
        assert got.precision == 256


@pytest.mark.parametrize("series, tau", list(_eval_cases()))
def test_eval_is_within_its_rounding_bound(series, tau):
    # against the per-term sum 80 bits finer, whose own error is then far
    # below the bound qs_eval's docstring proves
    for a in series():
        got = qs_eval(a, tau, precision=256)
        value, _ = ref_eval(a, tau, 256 + 80)
        kernel, _ = eval_error_bounds(a, tau, 256)
        _, fine = eval_error_bounds(a, tau, 256 + 80)
        assert abs(got.value - value) <= kernel + fine


# -- the evaluation memos -----------------------------------------------------------


EVAL_MEMOS = (qseries._exp_step, qseries._fixed_power, qseries._tail_factors)


# the same int keys and box on the lattices 1/2 and 1/3: only D tells them apart
LATTICE_TWINS = (QSeries({QQ(1, 2): 1, QQ(1): -2}, trunc=3),
                 QSeries({QQ(1, 3): 1, QQ(2, 3): -2}, trunc=3))


@functools.lru_cache(maxsize=None)
def _memo_groups():
    return (tuple(EVAL_SERIES.values()) + LATTICE_TWINS,
            tuple(_chars(1, 24)), tuple(_chars(2, 20)))


def _clear_eval_memos():
    for memo in EVAL_MEMOS:
        memo.cache_clear()


def _bits(a, tau, precision):
    got = qs_eval(a, tau, precision)
    return got.value._mpc_, got.tail_bound._mpf_


@pytest.mark.parametrize("precision", [128, 256])
@pytest.mark.parametrize("tau", list(EVAL_TAUS.values()), ids=list(EVAL_TAUS))
def test_eval_memo_is_transparent_bit_for_bit(tau, precision):
    groups = _memo_groups()
    series = [a for group in groups for a in group]
    cold = []
    for a in series:
        _clear_eval_memos()
        cold.append(_bits(a, tau, precision))
    # warm: forwards and backwards, each series comes after every other at tau
    for order in (range(len(series)), range(len(series) - 1, -1, -1)):
        _clear_eval_memos()
        for i in order:
            assert _bits(series[i], tau, precision) == cold[i]
    # after every series at the same tau and the other precision, and after
    # every series at every other tau and at -conj(tau), which has the same
    # |tau| and Im(tau) and so the same working precision and tail factors
    taus = list(EVAL_TAUS.values()) + [-mp.conj(tau)]
    for others in ([(tau, 384 - precision)],
                   [(u, precision) for u in taus if u is not tau]):
        _clear_eval_memos()
        for u, prec in others:
            for a in series:
                qs_eval(a, u, prec)
        for a, want in zip(series, cold):
            assert _bits(a, tau, precision) == want
    # a module's minus series shares its head, step and tail with the plus one
    for chars in groups[1:]:
        _clear_eval_memos()
        qs_eval(chars[0], tau, precision)
        before = [memo.cache_info().hits for memo in EVAL_MEMOS]
        qs_eval(chars[1], tau, precision)
        assert all(memo.cache_info().hits > hits
                   for memo, hits in zip(EVAL_MEMOS, before))
