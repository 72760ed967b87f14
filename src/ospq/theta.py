"""Two-variable (w, q) Jacobi-form expansions with exact arithmetic.

A :class:`WQSeries` stores exact coefficients on the grid of rational
(q-exponent, w-exponent) pairs, organised by q-slice.  Each series carries a
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

Products and quotients run on the slice kernels of :mod:`ospq.qseries`,
the same ones that serve one-variable series; this module adds the box.
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
    _min_trunc,
    _product_trunc,
    _slice_div,
    _slice_mul,
)


class InvalidIndex(ValueError):
    """Raised for theta functions with a non-positive second index."""


Slice = Dict[QQ, QQ]  # w-exponent -> coefficient


class WQSeries:
    """Truncated two-variable series, organised as q-slice -> w-polynomial."""

    __slots__ = ("terms", "q_trunc", "w_floor", "_q_lo")

    def __init__(self, terms=(), q_trunc: Optional[Rat] = None,
                 w_floor: Optional[Rat] = None):
        if q_trunc is not None:
            q_trunc = as_fraction(q_trunc)
        if w_floor is not None:
            w_floor = as_fraction(w_floor)
        acc: Dict[QQ, Slice] = {}
        lo = None  # lowest q of the terms dropped below the floor
        if isinstance(terms, dict):
            items = (
                (qe, we, c) for qe, sl in terms.items() for we, c in sl.items()
            )
        else:
            items = terms
        for qe, we, c in items:
            qe, we, c = as_fraction(qe), as_fraction(we), as_fraction(c)
            if c == 0:
                continue
            if q_trunc is not None and qe >= q_trunc:
                continue
            if w_floor is not None and we < w_floor:
                if lo is None or qe < lo:
                    lo = qe
                continue
            sl = acc.setdefault(qe, {})
            s = sl.get(we)
            s = c if s is None else s + c
            if s == 0:
                del sl[we]
                if not sl:
                    del acc[qe]
            else:
                sl[we] = s
        self.terms = acc
        self.q_trunc = q_trunc
        self.w_floor = w_floor
        self._q_lo = lo

    # -- accessors ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def n_terms(self) -> int:
        return sum(len(sl) for sl in self.terms.values())

    def coeff(self, qe: Rat, we: Rat) -> QQ:
        sl = self.terms.get(as_fraction(qe))
        if not sl:
            return QQ(0)
        return sl.get(as_fraction(we), QQ(0))

    def min_q(self) -> QQ:
        if not self.terms:
            raise EmptySeries("series has no stored terms")
        return min(self.terms)

    def min_q_bound(self) -> Optional[QQ]:
        if self.terms:
            return min(self.terms)
        return self.q_trunc

    def _support_lo(self) -> Optional[QQ]:
        """A lower bound of the whole q-support, terms hidden below the floor
        included; None for the exact zero series."""
        return _min_trunc(self.min_q_bound(), self._q_lo)

    def wmax(self) -> Optional[QQ]:
        out = None
        for sl in self.terms.values():
            m = max(sl)
            if out is None or m > out:
                out = m
        return out

    def w_exponents(self):
        out = set()
        for sl in self.terms.values():
            out.update(sl)
        return out

    def w_slice(self, we: Rat) -> QSeries:
        """The q-series multiplying w^we (guaranteed to order q_trunc)."""
        we = as_fraction(we)
        if self.w_floor is not None and we < self.w_floor:
            raise ValueError("w-exponent %s is below the floor %s" % (we, self.w_floor))
        coeffs = {}
        for qe, sl in self.terms.items():
            c = sl.get(we)
            if c is not None:
                coeffs[qe] = c
        return QSeries(coeffs, self.q_trunc)

    def q_slice(self, qe: Rat) -> Slice:
        return dict(self.terms.get(as_fraction(qe), {}))

    def items(self):
        for qe in sorted(self.terms):
            sl = self.terms[qe]
            for we in sorted(sl, reverse=True):
                yield qe, we, sl[we]

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


def _slices(x: WQSeries):
    """The (q-exponent, w-terms) pairs in which the kernels take a series."""
    return [(qe, sl.items()) for qe, sl in x.terms.items()]


def _wq(slices, q_trunc: Optional[QQ], w_floor: Optional[QQ],
        q_lo: Optional[QQ]) -> WQSeries:
    """A series from (q-exponent, w-terms) pairs that hold exactly its nonzero
    terms, with q_lo a lower bound of its q-support (None: the stored one)."""
    out = WQSeries.__new__(WQSeries)
    out.terms = {qe: dict(sl) for qe, sl in slices}
    out.q_trunc = q_trunc
    out.w_floor = w_floor
    out._q_lo = q_lo
    return out


def _max_floor(fa: Optional[QQ], fb: Optional[QQ]) -> Optional[QQ]:
    if fa is None:
        return fb
    if fb is None:
        return fa
    return max(fa, fb)


def wq_add(a: WQSeries, b: WQSeries) -> WQSeries:
    T = _min_trunc(a.q_trunc, b.q_trunc)
    F = _max_floor(a.w_floor, b.w_floor)

    def gen():
        for qe, sl in a.terms.items():
            for we, c in sl.items():
                yield qe, we, c
        for qe, sl in b.terms.items():
            for we, c in sl.items():
                yield qe, we, c

    out = WQSeries(gen(), T, F)
    out._q_lo = _min_trunc(a._support_lo(), b._support_lo())
    return out


def wq_scalar(a: WQSeries, c: Rat) -> WQSeries:
    c = as_fraction(c)
    if c == 0:
        return WQSeries((), a.q_trunc, a.w_floor)
    terms = [(qe, [(we, x * c) for we, x in sl.items()]) for qe, sl in a.terms.items()]
    return _wq(terms, a.q_trunc, a.w_floor, a._q_lo)


def wq_mul(a: WQSeries, b: WQSeries) -> WQSeries:
    for x, name in ((a, "left"), (b, "right")):
        if not x.terms and x.w_floor is not None:
            raise ValueError("%s factor is empty but w-floored; product undefined" % name)
    # the q-support bounds count the terms hidden below a floor
    ma, mb = a._support_lo(), b._support_lo()
    if ma is None or mb is None:
        return WQSeries((), None, None)  # exact zero factor
    T = _product_trunc(a.q_trunc, ma, b.q_trunc, mb)
    # a factor with no stored terms is zero below its q_trunc at every w
    fc = []
    if a.w_floor is not None and b.terms:
        fc.append(a.w_floor + b.wmax())
    if b.w_floor is not None and a.terms:
        fc.append(b.w_floor + a.wmax())
    F = max(fc, default=None)
    return _wq(_slice_mul(_slices(a), _slices(b), T, F), T, F, ma + mb)


def wq_specialize_w1(a: WQSeries) -> QSeries:
    """Specialise w -> 1 (sum of all w-slices); requires complete w-support."""
    if a.w_floor is not None:
        raise ValueError(
            "w -> 1 specialisation needs the complete w-support (w_floor is set)"
        )
    coeffs: Dict[QQ, QQ] = {}
    for qe, sl in a.terms.items():
        s = sum(sl.values())
        if s:
            coeffs[qe] = s
    return QSeries(coeffs, a.q_trunc)


def wq_specialize_w_signed(a: WQSeries) -> QSeries:
    """Specialise w^x -> (-1)^{2x} (the w -> -1 slice on the half-integer grid)."""
    if a.w_floor is not None:
        raise ValueError(
            "signed specialisation needs the complete w-support (w_floor is set)"
        )
    coeffs: Dict[QQ, QQ] = {}
    for qe, sl in a.terms.items():
        s = QQ(0)
        for we, c in sl.items():
            two_x = 2 * we
            if two_x.denominator != 1:
                raise ValueError("w-exponent %s is not on the half-integer grid" % we)
            s += c if two_x.numerator % 2 == 0 else -c
        if s:
            coeffs[qe] = s
    return QSeries(coeffs, a.q_trunc)


def wq_from_q(a: QSeries) -> WQSeries:
    """Embed a pure q-series at w^0."""
    return WQSeries(((e, QQ(0), c) for e, c in a.terms.items()), a.trunc, None)


def wq_to_q(a: WQSeries) -> QSeries:
    """Collapse a series supported on w^0 only back to a QSeries."""
    coeffs = {}
    for qe, sl in a.terms.items():
        for we, c in sl.items():
            if we != 0:
                raise ValueError("series has w-exponent %s; not a pure q-series" % we)
            coeffs[qe] = c
    return QSeries(coeffs, a.q_trunc)


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
    bad = []
    qkeys = set(a.terms) | set(b.terms)
    for qe in qkeys:
        if T is not None and qe >= T:
            continue
        sla = a.terms.get(qe, {})
        slb = b.terms.get(qe, {})
        for we in set(sla) | set(slb):
            if F is not None and we < F:
                continue
            ca, cb = sla.get(we, QQ(0)), slb.get(we, QQ(0))
            if ca != cb:
                bad.append((qe, -we, ca, cb))
    if bad:
        bad.sort()
        qe, nwe, ca, cb = bad[0]
        return False, (qe, -nwe, ca, cb), (T, F)
    return True, None, (T, F)


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
    T, terms = _slice_div(_slices(a), a.q_trunc, _slices(b), b.q_trunc, q_trunc, F)
    if T is None:
        return WQSeries((), None, None)  # exact zero numerator
    # the quotient starts at the lowest slice y0 = min q(a) - min q(b)
    return _wq(terms, T, F, a.min_q_bound() - b.min_q())


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
    w_scale, q_scale, N = as_fraction(w_scale), as_fraction(q_scale), as_fraction(N)
    if q_scale <= 0:
        raise ValueError("q scaling factor must be positive")
    if N <= 0:
        raise ValueError("truncation order must be positive")
    base = QQ(r, 2 * s)

    def gen():
        for start, step in ((math.floor(-base), -1), (math.floor(-base) + 1, 1)):
            m = start
            while True:
                t = m + base
                qe = q_scale * s * t * t
                if qe >= N:
                    # past the vertex the exponent grows monotonically
                    if (step > 0 and t > 0) or (step < 0 and t < 0) or t == 0:
                        break
                else:
                    yield qe, w_scale * s * t, QQ(1)
                m += step

    return WQSeries(gen(), N, None)


def _half_integer_theta(N: Rat, w_scale: Rat, q_scale: Rat, alternating: bool) -> WQSeries:
    w_scale, q_scale, N = as_fraction(w_scale), as_fraction(q_scale), as_fraction(N)
    if N <= 0:
        raise ValueError("truncation order must be positive")

    def gen():
        for start, step in ((-1, -1), (0, 1)):
            n = start
            while True:
                t = n + QQ(1, 2)
                qe = q_scale * t * t / 2
                if qe >= N:
                    if (step > 0 and t > 0) or (step < 0 and t < 0):
                        break
                else:
                    c = QQ(-1) if (alternating and n % 2) else QQ(1)
                    yield qe, w_scale * t, c
                n += step

    return WQSeries(gen(), N, None)


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
    N = as_fraction(N)
    if N <= 0:
        raise ValueError("truncation order must be positive")
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
