"""Two-variable (w, q) Jacobi-form expansions with exact arithmetic.

A :class:`WQSeries` stores exact coefficients at rational (q-exponent,
w-exponent) pairs, organised by q-slice, in the integer-lattice store of
:mod:`ospq.qseries`: int keys over one q- and one w-denominator, Fractions
only in the ``terms`` view and the other accessors.  Each series carries a
*guarantee box*, kept on the same lattice base (``qseries._Lattice``) as
for one-variable series:

* ``q_trunc``  -- coefficients are correct at every q-exponent < q_trunc
  (None = no q-truncation, a finite exact object);
* ``w_floor``  -- coefficients are correct at every w-exponent >= w_floor
  (None = the full w-support is stored).

Stored terms are exactly the true nonzero coefficients inside the box and
nothing is stored outside it.  All operations propagate the box honestly,
including the floor degradation of slice convolutions.  A series also
records a lower bound of its q-support that its stored terms may not show,
as for terms hidden below the floor; products take their q-truncation from
it.  The box is kept as Fractions and read on int keys inside each kernel,
as :mod:`ospq.qseries` describes; a theta constructor cuts its order N to
the int key of its walk.

Sum, scaling, product (with its floor rule), quotient and comparison are
each written once in :mod:`ospq.qseries` for both classes; the dunders,
``wq_add``, ``wq_mul``, ``wq_div``, ``wq_invert`` and ``wq_equal_on_box``
are thin calls of them.  Every theta series here is a signed sum of
q^(Q(t)) w^(l(t)) over cosets t0 + step Z: a constructor names its cosets
((t0, sign), ...) and step, and one walk (``qseries._theta_walk``) emits
the int keys of them all -- the numerators (two cosets of opposite sign),
the Weyl denominator, both varthetas and, in :mod:`ospq.qseries`, eta.
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

from typing import Dict, Optional

from .qseries import (
    QQ,
    IncompleteQuotient,  # raised by wq_div
    QSeries,
    Rat,
    as_fraction,
    _add,
    _compare,
    _div,
    _Lattice,
    _cut,
    _mul,
    _positive_order,
    _theta_walk,
)


class InvalidIndex(ValueError):
    """Raised for theta functions with a non-positive second index."""


Slice = Dict[QQ, QQ]  # w-exponent -> coefficient
_HALF = QQ(1, 2)  # the q scale of every theta difference


class WQSeries(_Lattice):
    """Truncated two-variable series, organised as q-slice -> w-polynomial."""

    __slots__ = ()

    def __init__(self, terms=(), q_trunc: Optional[Rat] = None,
                 w_floor: Optional[Rat] = None):
        if isinstance(terms, dict):
            terms = ((qe, we, c) for qe, sl in terms.items() for we, c in sl.items())
        super().__init__(terms, q_trunc, w_floor)

    # -- accessors ----------------------------------------------------------

    @property
    def terms(self) -> Dict[QQ, Slice]:
        """A Fraction copy {q: {w: coefficient}} of the terms, in stored order."""
        D, W = self.D, self.W
        return {QQ(q, D): {QQ(w, W): QQ(c) for w, c in sl.items()}
                for q, sl in self._s.items()}

    def coeff(self, qe: Rat, we: Rat) -> QQ:
        return self.q_slice(qe).get(as_fraction(we), QQ(0))

    def w_slice(self, we: Rat) -> QSeries:
        """The q-series multiplying w^we (guaranteed to order q_trunc)."""
        we = as_fraction(we)
        if self.w_floor is not None and we < self.w_floor:
            raise ValueError("w-exponent %s is below the floor %s" % (we, self.w_floor))
        w = we * self.W
        s = {} if w.denominator != 1 else {
            q: {0: sl[w.numerator]} for q, sl in self._s.items() if w.numerator in sl}
        return QSeries._of(s, self.D, 1, self.q_trunc)

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

    def __repr__(self):
        bits = []
        for qe, we, c in list(self.items())[:5]:
            bits.append("%s*w^(%s)q^(%s)" % (c, we, qe))
        body = " + ".join(bits) if bits else "0"
        if self.n_terms() > 5:
            body += " + ... (%d terms)" % self.n_terms()
        return "WQSeries(%s; q<%s, w>=%s)" % (body, self.q_trunc, self.w_floor)


def wq_add(a: WQSeries, b: WQSeries) -> WQSeries:
    return _add(a, b)


def wq_mul(a: WQSeries, b: WQSeries) -> WQSeries:
    """a * b, a's slices in stored order against b's in ascending q, on the
    box that :func:`ospq.qseries._mul` derives, floors included."""
    return _mul(a, b)


def wq_specialize_w1(a: WQSeries) -> QSeries:
    """Specialise w -> 1 (sum of all w-slices, each in stored order);
    requires complete w-support."""
    if a.w_floor is not None:
        raise ValueError("w -> 1 specialisation needs the complete w-support "
                         "(w_floor is set)")
    s = {}
    for q, sl in a._s.items():
        c = sum(sl.values())
        if c:
            s[q] = {0: c}
    return QSeries._of(s, a.D, 1, a.q_trunc)


def wq_from_q(a: QSeries) -> WQSeries:
    """Embed a pure q-series at w^0."""
    return WQSeries._of(a._s, a.D, 1, a.q_trunc)


def wq_to_q(a: WQSeries) -> QSeries:
    """Collapse a series supported on w^0 only back to a QSeries."""
    for sl in a._s.values():
        for w in sl:
            if w:
                raise ValueError("series has w-exponent %s; not a pure q-series"
                                 % QQ(w, a.W))
    return QSeries._of(a._s, a.D, 1, a.q_trunc)


def wq_equal_on_box(a: WQSeries, b: WQSeries, order: Optional[Rat] = None):
    """Exact comparison on the intersection of the two guarantee boxes.

    Returns (ok, first_discrepancy, box) where the discrepancy is
    (q_exp, w_exp, coeff_a, coeff_b) at the smallest q (largest w within it)
    that mismatches, and box = (q_trunc, w_floor) actually compared on.
    """
    bad, box = _compare(a, b, order)
    return bad is None, bad, box


# -- division ---------------------------------------------------------------


def wq_div(a: WQSeries, b: WQSeries, q_trunc: Optional[Rat] = None,
           w_floor: Optional[Rat] = None) -> WQSeries:
    """a / b on the box q < q_trunc, w >= w_floor, by the slice recursion of
    :func:`ospq.qseries._slice_div`; neither a nor b may be w-floored.

    ``q_trunc`` defaults to, and may not exceed, the order that the boxes of
    a and b support.  Without ``w_floor`` a quotient with unbounded
    descending w-support raises :class:`IncompleteQuotient`.
    """
    return _div(a, b, q_trunc, w_floor)


def wq_invert(b: WQSeries, q_trunc: Optional[Rat] = None,
              w_floor: Optional[Rat] = None) -> WQSeries:
    """Inverse of b on a requested guarantee box: 1 / b as :func:`wq_div`.

    The expansion domain has |w| >= 1, so the leading monomial is the
    maximal-w term of the minimal-q slice.  If the leading slice has further
    terms the inverse has unbounded descending w-support, and without a
    ``w_floor`` the division raises :class:`IncompleteQuotient`.
    """
    return _div(WQSeries(((0, 0, 1),)), b, q_trunc, w_floor)


# -- theta constructors ------------------------------------------------------


def _theta(cosets, step: int, den: int, w_scale: Rat, q_scale: Rat,
           N: Rat) -> WQSeries:
    """The signed theta series sum of sign * w^(w_scale t/2) q^(q_scale t^2/den)
    at q < N over (t0, sign) in cosets and t in t0 + step Z, by
    :func:`ospq.qseries._theta_walk`; it records the lowest q walked as a
    bound of its q-support, which a cancelled term may not show."""
    w_scale, q_scale, N = as_fraction(w_scale), as_fraction(q_scale), _positive_order(N)
    if q_scale.numerator <= 0:
        raise ValueError("q scaling factor must be positive")
    D, W = den * q_scale.denominator, 2 * w_scale.denominator
    s, lo = _theta_walk(cosets, step, q_scale.numerator, w_scale.numerator, _cut(N, D))
    return WQSeries._of(s, D, W, N, None, None if lo is None else QQ(lo, D))


def theta_big(r: int, s: int, w_scale: Rat, q_scale: Rat, N: Rat) -> WQSeries:
    """Indexed theta sum with scaled arguments.

    Term for each integer m: w-exponent w_scale*s*(m + r/2s), q-exponent
    q_scale*s*(m + r/2s)^2, keeping q-exponents < N.  Scaling the first
    argument by w_scale and the second by q_scale is realised purely on the
    exponents.  w_scale = 0 collapses to the z = 0 slice (coefficients on
    w^0 accumulate).
    """
    if type(s) is not int or s <= 0:
        raise InvalidIndex("second theta index must be a positive integer, got %r" % (s,))
    if type(r) is not int:
        raise InvalidIndex("first theta index must be an integer, got %r" % (r,))
    # with t = 2s(m + r/2s): q-exponent q_scale t^2/4s, w-exponent w_scale t/2
    return _theta(((-(-r % (2 * s)), 1),), -2 * s, 4 * s, w_scale, q_scale, N)


def _theta_difference(a: int, b: int, c: int, w_scale: Rat, N: Rat) -> WQSeries:
    """theta_(b-c, a) - theta_(-b-c, a) at scaled arguments (w_scale, 1/2):
    the two cosets of :func:`theta_big` in one walk."""
    cosets = ((-(-(b - c) % (2 * a)), 1), (-((b + c) % (2 * a)), -1))
    return _theta(cosets, -2 * a, 4 * a, w_scale, _HALF, N)


def vartheta2(N: Rat, w_scale: Rat = 1, q_scale: Rat = 1) -> WQSeries:
    """Sum over n of w^{n+1/2} q^{(n+1/2)^2/2} (argument scalings on exponents)."""
    # with t = 2n + 1: q-exponent q_scale t^2/8, w-exponent w_scale t/2
    return _theta(((-1, 1),), -2, 8, w_scale, q_scale, N)


def vartheta1_times_i(N: Rat, w_scale: Rat = 1, q_scale: Rat = 1) -> WQSeries:
    """The real-coefficient series sum of (-1)^n w^{n+1/2} q^{(n+1/2)^2/2}.

    The overall sign is pinned so that the affine sl2 vacuum character it
    divides comes out with leading coefficient +1.
    """
    # t = 2n + 1 as in vartheta2, with sign -1 on t = -1 + 4Z, +1 on t = 1 + 4Z
    return _theta(((-1, -1), (-3, 1)), -4, 8, w_scale, q_scale, N)


def theta_q(b: int, a: int, q_scale: Rat, N: Rat) -> QSeries:
    """Pure q-series theta: sum over m of q^{q_scale * a * (m + b/2a)^2}."""
    return wq_to_q(theta_big(b, a, 0, q_scale, N))


def weyl_denominator(N: Rat) -> WQSeries:
    """The odd superalgebra Weyl denominator: the difference of the two
    index-(+-1, 3) thetas at scaled arguments (1/2, 1/2).  It equals the
    product w^{1/4} q^{1/24} (1 - w^{-1/2}) prod_{n>=1} (1-q^n)(1-w q^n)
    (1-w^{-1} q^n) / ((1+w^{1/2} q^n)(1+w^{-1/2} q^n)) to every order, which
    a regression test checks."""
    return _theta_difference(3, 1, 0, QQ(1, 2), N)
