"""Two-variable (w, q) Jacobi-form expansions with exact arithmetic.

A :class:`WQSeries` stores exact coefficients at rational (q-exponent,
w-exponent) pairs, organised by q-slice, in the integer-lattice store of
:mod:`ospq.qseries`: int keys over one q- and one w-denominator, Fractions
only in the ``terms`` view and the other accessors.  Each series carries a
*guarantee box*:

* ``q_trunc``  -- coefficients are correct at every q-exponent < q_trunc
  (None = no q-truncation, a finite exact object);
* ``w_floor``  -- coefficients are correct at every w-exponent >= w_floor
  (None = the full w-support is stored).

Stored terms are exactly the true nonzero coefficients inside the box and
nothing is stored outside it.  All operations propagate the box honestly,
including the floor degradation of slice convolutions.  A series also
records a lower bound of its q-support that its stored terms may not show,
as for terms hidden below the floor; products take their q-truncation from
it.

Sums, products and quotients run on the store and kernels of
:mod:`ospq.qseries`, the same ones that serve one-variable series; this
module adds the box.  The theta constructors emit int keys directly.
Division (:func:`wq_div`) solves D * chi = num one q-slice at a time, each
by descending long division by the leading w-polynomial of D.  Without a
floor every slice must divide with a zero remainder, which proves the
quotient's w-support complete.  A floor is unavoidable when the quotient is
an infinite *descending* series in w, as for the characters at fractional
level: in the expansion domain 1 <= |w| <= |q|^{-1} dividing by a multi-term
leading w-slice such as w^a (1 - w^{-step}) never terminates.  Then each
slice is computed down to the floor minus the w-extent that the slices above
it can still read, so that the returned window w >= floor is exact.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from .qseries import (
    QQ,
    EmptySeries,
    IncompleteQuotient,  # raised by wq_div
    QSeries,
    Rat,
    as_fraction,
    _collect,
    _cut,
    _first_mismatch,
    _int,
    _Lattice,
    _merge,
    _min_trunc,
    _positive_order,
    _product_trunc,
    _scaled,
    _slice_div,
    _slice_mul,
    _Store,
)


class InvalidIndex(ValueError):
    """Raised for theta functions with a non-positive second index."""


Slice = Dict[QQ, QQ]  # w-exponent -> coefficient


class WQSeries(_Lattice):
    """Truncated two-variable series, organised as q-slice -> w-polynomial."""

    __slots__ = ("q_trunc", "w_floor", "_q_lo")

    def __init__(self, terms=(), q_trunc: Optional[Rat] = None,
                 w_floor: Optional[Rat] = None):
        if q_trunc is not None:
            q_trunc = as_fraction(q_trunc)
        if w_floor is not None:
            w_floor = as_fraction(w_floor)
        if isinstance(terms, dict):
            terms = ((qe, we, c) for qe, sl in terms.items() for we, c in sl.items())
        terms = [(as_fraction(qe), as_fraction(we), as_fraction(c)) for qe, we, c in terms]
        D = math.lcm(*(qe.denominator for qe, _, _ in terms))
        W = math.lcm(*(we.denominator for _, we, _ in terms))
        s, lo = _collect(((qe.numerator * (D // qe.denominator),
                           we.numerator * (W // we.denominator), _int(c))
                          for qe, we, c in terms), _cut(q_trunc, D), _cut(w_floor, W))
        # lo: the lowest q of the terms dropped below the floor
        self._set(s, D, W, q_trunc, w_floor, None if lo is None else QQ(lo, D))

    def _set(self, s: _Store, D: int, W: int, q_trunc: Optional[QQ],
             w_floor: Optional[QQ], q_lo: Optional[QQ]) -> None:
        self._s, self.D, self.W = s, D, W
        self.q_trunc, self.w_floor, self._q_lo = q_trunc, w_floor, q_lo

    @classmethod
    def _of(cls, s: _Store, D: int, W: int, q_trunc: Optional[QQ],
            w_floor: Optional[QQ], q_lo: Optional[QQ]) -> "WQSeries":
        """The series of the store ``s`` over keys q/D, w/W, which holds exactly
        its nonzero terms, with q_lo a lower bound of its q-support (None:
        the stored one)."""
        out = cls.__new__(cls)
        out._set(s, D, W, q_trunc, w_floor, q_lo)
        return out

    # -- accessors ----------------------------------------------------------

    @property
    def terms(self) -> Dict[QQ, Slice]:
        """A Fraction copy {q: {w: coefficient}} of the terms, in stored order."""
        D, W = self.D, self.W
        return {QQ(q, D): {QQ(w, W): QQ(c) for w, c in sl.items()}
                for q, sl in self._s.items()}

    def n_terms(self) -> int:
        return sum(len(sl) for sl in self._s.values())

    def coeff(self, qe: Rat, we: Rat) -> QQ:
        return self.q_slice(qe).get(as_fraction(we), QQ(0))

    def min_q(self) -> QQ:
        if not self._s:
            raise EmptySeries("series has no stored terms")
        return QQ(min(self._s), self.D)

    def min_q_bound(self) -> Optional[QQ]:
        if self._s:
            return self.min_q()
        return self.q_trunc

    def _support_lo(self) -> Optional[QQ]:
        """A lower bound of the whole q-support, terms hidden below the floor
        included; None for the exact zero series."""
        return _min_trunc(self.min_q_bound(), self._q_lo)

    def wmax(self) -> Optional[QQ]:
        if not self._s:
            return None
        return QQ(max(max(sl) for sl in self._s.values()), self.W)

    def w_slice(self, we: Rat) -> QSeries:
        """The q-series multiplying w^we (guaranteed to order q_trunc)."""
        we = as_fraction(we)
        if self.w_floor is not None and we < self.w_floor:
            raise ValueError("w-exponent %s is below the floor %s" % (we, self.w_floor))
        w = we * self.W
        s = {} if w.denominator != 1 else {
            q: {0: sl[w.numerator]} for q, sl in self._s.items() if w.numerator in sl}
        return QSeries._of(s, self.D, self.q_trunc)

    def q_slice(self, qe: Rat) -> Slice:
        q = as_fraction(qe) * self.D
        sl = self._s.get(q.numerator, {}) if q.denominator == 1 else {}
        return {QQ(w, self.W): QQ(c) for w, c in sl.items()}

    def items(self):
        D, W = self.D, self.W
        for q in sorted(self._s):
            sl = self._s[q]
            for w in sorted(sl, reverse=True):
                yield QQ(q, D), QQ(w, W), QQ(sl[w])

    def __eq__(self, other):
        if not isinstance(other, WQSeries):
            return NotImplemented
        return (self.terms == other.terms and self.q_trunc == other.q_trunc
                and self.w_floor == other.w_floor)

    def __hash__(self):
        return hash((self.q_trunc, self.w_floor, self.n_terms()))

    def __repr__(self):
        bits = []
        for qe, we, c in list(self.items())[:5]:
            bits.append("%s*w^(%s)q^(%s)" % (c, we, qe))
        body = " + ".join(bits) if bits else "0"
        if self.n_terms() > 5:
            body += " + ... (%d terms)" % self.n_terms()
        return "WQSeries(%s; q<%s, w>=%s)" % (body, self.q_trunc, self.w_floor)

    def __add__(self, other):
        return wq_add(self, other)

    def __sub__(self, other):
        return wq_add(self, wq_scalar(other, -1))

    def __neg__(self):
        return wq_scalar(self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, QQ)):
            return wq_scalar(self, other)
        return wq_mul(self, other)

    __rmul__ = __mul__


def _max_floor(fa: Optional[QQ], fb: Optional[QQ]) -> Optional[QQ]:
    if fa is None:
        return fb
    if fb is None:
        return fa
    return max(fa, fb)


def wq_add(a: WQSeries, b: WQSeries) -> WQSeries:
    T = _min_trunc(a.q_trunc, b.q_trunc)
    F = _max_floor(a.w_floor, b.w_floor)
    s, D, W = _merge(a, b, T, F)
    return WQSeries._of(s, D, W, T, F, _min_trunc(a._support_lo(), b._support_lo()))


def wq_scalar(a: WQSeries, c: Rat) -> WQSeries:
    s, D = _scaled(a, c)
    return WQSeries._of(s, D, a.W, a.q_trunc, a.w_floor, a._q_lo if c else None)


def wq_mul(a: WQSeries, b: WQSeries) -> WQSeries:
    # the q-support bounds count the terms hidden below a floor
    ma, mb = a._support_lo(), b._support_lo()
    if ma is None or mb is None:
        return WQSeries((), None, None)  # exact zero factor
    T = _product_trunc(a.q_trunc, ma, b.q_trunc, mb)
    # the terms hidden below one factor's floor meet the other's terms, which
    # lie at w <= its top stored w, or below its floor if it stores none; an
    # unfloored factor with no stored terms is zero below its q_trunc at
    # every w and bounds no floor
    fc = []
    for x, y in ((a, b), (b, a)):
        top = y.wmax() if y._s else y.w_floor
        if x.w_floor is not None and top is not None:
            fc.append(x.w_floor + top)
    F = max(fc, default=None)
    return WQSeries._of(*_slice_mul(a, b, T, F), T, F, ma + mb)


def _specialized(a: WQSeries, sign, what: str) -> QSeries:
    """The q-series of a at w^e -> sign(e * W), each slice summed in order;
    requires complete w-support."""
    if a.w_floor is not None:
        raise ValueError("%s needs the complete w-support (w_floor is set)" % what)
    s = {}
    for q, sl in a._s.items():
        c = sum(sign(w) * c for w, c in sl.items())
        if c:
            s[q] = {0: c}
    return QSeries._of(s, a.D, a.q_trunc)


def wq_specialize_w1(a: WQSeries) -> QSeries:
    """Specialise w -> 1 (sum of all w-slices); requires complete w-support."""
    return _specialized(a, lambda w: 1, "w -> 1 specialisation")


def wq_specialize_w_signed(a: WQSeries) -> QSeries:
    """Specialise w^x -> (-1)^{2x} (the w -> -1 slice on the half-integer grid)."""
    W = a.W

    def sign(w):
        two_x, r = divmod(2 * w, W)
        if r:
            raise ValueError("w-exponent %s is not on the half-integer grid" % QQ(w, W))
        return -1 if two_x % 2 else 1

    return _specialized(a, sign, "signed specialisation")


def wq_from_q(a: QSeries) -> WQSeries:
    """Embed a pure q-series at w^0."""
    return WQSeries._of(a._s, a.D, 1, a.trunc, None, None)


def wq_to_q(a: WQSeries) -> QSeries:
    """Collapse a series supported on w^0 only back to a QSeries."""
    for sl in a._s.values():
        for w in sl:
            if w:
                raise ValueError("series has w-exponent %s; not a pure q-series"
                                 % QQ(w, a.W))
    return QSeries._of(a._s, a.D, a.q_trunc)


def wq_equal_on_box(a: WQSeries, b: WQSeries, order: Optional[Rat] = None):
    """Exact comparison on the intersection of the two guarantee boxes.

    Returns (ok, first_discrepancy, box) where the discrepancy is
    (q_exp, w_exp, coeff_a, coeff_b) at the smallest q (largest w within it)
    that mismatches, and box = (q_trunc, w_floor) actually compared on.
    """
    T = _min_trunc(a.q_trunc, b.q_trunc)
    if order is not None:
        T = _min_trunc(T, as_fraction(order))
    F = _max_floor(a.w_floor, b.w_floor)
    bad = _first_mismatch(a, b, T, F)
    return bad is None, bad, (T, F)


# -- division ---------------------------------------------------------------


def wq_div(a: WQSeries, b: WQSeries, q_trunc: Optional[Rat] = None,
           w_floor: Optional[Rat] = None) -> WQSeries:
    """a / b on the box q < q_trunc, w >= w_floor, by the slice recursion of
    :func:`ospq.qseries._slice_div`; neither a nor b may be w-floored.

    ``q_trunc`` defaults to, and may not exceed, the order that the boxes of
    a and b support.  Without ``w_floor`` a quotient with unbounded
    descending w-support raises :class:`IncompleteQuotient`.
    """
    if a.w_floor is not None:
        raise ValueError("dividing a w-floored series is not supported")
    if b.w_floor is not None:
        raise ValueError("dividing by a w-floored series is not supported")
    F = None if w_floor is None else as_fraction(w_floor)
    T, s, D, W = _slice_div(a, a.q_trunc, b, b.q_trunc, q_trunc, F)
    if T is None:
        return WQSeries((), None, None)  # exact zero numerator
    # the quotient starts at the lowest slice y0 = min q(a) - min q(b)
    return WQSeries._of(s, D, W, T, F, a.min_q_bound() - b.min_q())


def wq_invert(b: WQSeries, q_trunc: Optional[Rat] = None,
              w_floor: Optional[Rat] = None) -> WQSeries:
    """Inverse of b on a requested guarantee box: ``wq_div(1, b, ...)``.

    The expansion domain has |w| >= 1, so the leading monomial is the
    maximal-w term of the minimal-q slice.  If the leading slice has further
    terms the inverse has unbounded descending w-support, and without a
    ``w_floor`` the division raises :class:`IncompleteQuotient`.
    """
    return wq_div(WQSeries(((0, 0, 1),)), b, q_trunc, w_floor)


# -- theta constructors ------------------------------------------------------


def _theta(t0: int, step: int, den: int, w_scale: QQ, q_scale: QQ, N: QQ,
           coeff) -> WQSeries:
    """The series of coeff(t) w^(w_scale t/2) q^(q_scale t^2/den) at q < N,
    over t = t0, t0 + step, ... and then t0 - step, t0 - 2 step, ...; each
    walk stops at the first t with q >= N that lies past the vertex t = 0."""
    D, W = den * q_scale.denominator, 2 * w_scale.denominator
    cut = math.ceil(N * D)

    def gen():
        for t, dt in ((t0, step), (t0 - step, -step)):
            while True:
                q = q_scale.numerator * t * t
                if q < cut:
                    yield q, w_scale.numerator * t, coeff(t)
                elif dt * t >= 0:  # the exponent grows from here on
                    break
                t += dt

    return WQSeries._of(_collect(gen())[0], D, W, N, None, None)


def theta_big(r: int, s: int, w_scale: Rat, q_scale: Rat, N: Rat) -> WQSeries:
    """Indexed theta sum with scaled arguments.

    Term for each integer m: w-exponent w_scale*s*(m + r/2s), q-exponent
    q_scale*s*(m + r/2s)^2, keeping q-exponents < N.  Scaling the first
    argument by w_scale and the second by q_scale is realised purely on the
    exponents.  w_scale = 0 collapses to the z = 0 slice (coefficients on
    w^0 accumulate).
    """
    if not isinstance(s, int) or s <= 0:
        raise InvalidIndex("second theta index must be a positive integer, got %r" % (s,))
    if not isinstance(r, int):
        raise InvalidIndex("first theta index must be an integer, got %r" % (r,))
    w_scale, q_scale, N = as_fraction(w_scale), as_fraction(q_scale), _positive_order(N)
    if q_scale <= 0:
        raise ValueError("q scaling factor must be positive")
    # with t = 2s(m + r/2s): q-exponent q_scale t^2/4s, w-exponent w_scale t/2
    return _theta(-(-r % (2 * s)), -2 * s, 4 * s, w_scale, q_scale, N, lambda t: 1)


def _half_integer_theta(N: Rat, w_scale: Rat, q_scale: Rat, alternating: bool) -> WQSeries:
    w_scale, q_scale, N = as_fraction(w_scale), as_fraction(q_scale), _positive_order(N)
    # with t = 2n + 1: q-exponent q_scale t^2/8, w-exponent w_scale t/2
    return _theta(-1, -2, 8, w_scale, q_scale, N,
                  lambda t: -1 if alternating and (t - 1) % 4 else 1)


def vartheta2(N: Rat, w_scale: Rat = 1, q_scale: Rat = 1) -> WQSeries:
    """Sum over n of w^{n+1/2} q^{(n+1/2)^2/2} (argument scalings on exponents)."""
    return _half_integer_theta(N, w_scale, q_scale, alternating=False)


def vartheta1_times_i(N: Rat, w_scale: Rat = 1, q_scale: Rat = 1) -> WQSeries:
    """The real-coefficient series sum of (-1)^n w^{n+1/2} q^{(n+1/2)^2/2}.

    The overall sign is pinned so that the affine sl2 vacuum character it
    divides comes out with leading coefficient +1.
    """
    return _half_integer_theta(N, w_scale, q_scale, alternating=True)


def theta_q(b: int, a: int, q_scale: Rat, N: Rat) -> QSeries:
    """Pure q-series theta: sum over m of q^{q_scale * a * (m + b/2a)^2}."""
    return wq_to_q(theta_big(b, a, 0, q_scale, N))


def weyl_denominator(N: Rat, form: str = "theta") -> WQSeries:
    """The odd superalgebra Weyl denominator in theta or product form.

    theta form:   difference of the two index-(+-1, 3) thetas at scaled
                  arguments (1/2, 1/2);
    product form: w^{1/4} q^{1/24} (1 - w^{-1/2}) times the infinite product
                  over n >= 1 of (1-q^n)(1-w q^n)(1-w^{-1} q^n) divided by
                  (1+w^{1/2} q^n)(1+w^{-1/2} q^n), with the division realised
                  by per-slice geometric expansion (exact: every q-slice of
                  each inverse factor is a single w-monomial).

    Both forms agree exactly to order N; that agreement is a regression test.
    """
    N = _positive_order(N)
    if form == "theta":
        h = QQ(1, 2)
        return wq_add(
            theta_big(1, 3, h, h, N),
            wq_scalar(theta_big(-1, 3, h, h, N), -1),
        )
    if form != "product":
        raise ValueError("form must be 'theta' or 'product', got %r" % (form,))
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
