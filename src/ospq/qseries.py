"""Exact truncated formal q-series.

A :class:`QSeries` is a finite map exponent -> coefficient with exact
rational entries, exponents on a lattice (1/D)*Z, together with a
truncation order ``trunc``: the stored terms are exactly the nonzero
coefficients of the underlying series at every exponent below ``trunc``.
``trunc=None`` means the series is complete (all nonzero terms stored).

Operations propagate the guaranteed order honestly and never extend it.
Coefficients are exact; numeric evaluation (``qs_eval``) is a separate,
explicitly lossy operation.

One- and two-variable series share one store and one guarantee box,
:class:`_Lattice`.  The store is the integer lattice the kernels compute
on: q-slices {q: {w: c}} at exponents q/D and w/W, with int keys and a
coefficient an int when it is integral.  The box is ``q_trunc``,
``w_floor`` and a hidden bound ``_q_lo`` of the q-support.  A QSeries is
the w-free, unfloored case: W = 1, one slice {0: c} per exponent, no floor
and no hidden bound, D the least denominator of its stored exponents, and
``trunc`` its q_trunc.  Each series operation is written once and returns
the class of its first operand: sum (``_add``), scale-and-shift
(``_scale``), product (``_mul``, one slice convolution ``_slice_mul``),
quotient (``_div``, one slice recursion ``_slice_div``) and comparison
(``_compare``).  The arithmetic dunders of both classes and the public
functions here and in :mod:`ospq.theta` are thin calls of them, so
``qs_mul`` and ``qs_invert`` are the one-variable cases of
``theta.wq_mul`` and ``theta.wq_div``.  Rescaling to a common lattice
multiplies the int keys.  Fractions appear only at the edge: the
constructor takes them, and the ``terms`` view, ``coeff``, ``items`` and
the discrepancy tuples return them.  The box is kept on the series as
Fractions, and each kernel reads it on ints: a truncation or floor is cut
to an int key of the common lattice (``_cut``), bounds are compared by
cross-multiplying (``_lt``) or added as keys over one lattice (``_at``),
and a kernel builds one Fraction only for each box value it returns.  A sum
copies the first operand's slices, cut to the common box, and merges the
second's terms into that store by ``_collect``.  One signed coset walk
(``_theta_walk``) builds every theta series: the two-variable numerators
and denominators of :mod:`ospq.theta`, and Dedekind eta, summed in closed
form from Euler's pentagonal number theorem rather than multiplied out
factor by factor.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

import mpmath
from mpmath.libmp import from_man_exp, to_fixed

QQ = Fraction
Rat = Union[int, Fraction]


class EmptySeries(ArithmeticError):
    """Raised when inversion is asked of a series with no stored terms."""


class VerificationError(ValueError):
    """Raised when an internal check of a computed result fails, as opposed to
    bad input; the CLI reports it with exit code 1."""


class IncompleteQuotient(VerificationError):
    """Raised when an unfloored division leaves a nonzero remainder: the
    quotient has unbounded descending w-support, so a ``w_floor`` is needed."""


class NonconvergentDomain(ValueError):
    """Raised when numeric evaluation is requested outside Im(tau) > 0."""


def as_fraction(x: Rat) -> QQ:
    if isinstance(x, QQ):
        return x
    if type(x) is int:
        return QQ(x)
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


def _positive_order(N: Rat) -> QQ:
    """N as a Fraction; ValueError unless it is positive, since the box
    below q^N then holds no term.  The one refusal of such an order."""
    N = as_fraction(N)
    if N.numerator <= 0:
        raise ValueError("truncation order must be positive")
    return N


def _require_order(achieved: Optional[QQ], N: QQ, what: str, error) -> None:
    """Raise ``error`` unless a box exact below ``achieved`` (None:
    complete) reaches order N.  The one refusal of a short box."""
    if achieved is not None and achieved < N:
        raise error("%s is exact only below q^%s, short of order %s"
                    % (what, achieved, N))


def _lt(x: Rat, y: Rat) -> bool:
    """x < y, by cross-multiplying numerators and denominators."""
    return x.numerator * y.denominator < y.numerator * x.denominator


def _min_trunc(ta: Optional[Rat], tb: Optional[Rat]) -> Optional[Rat]:
    """The lower of two orders or keys, None standing for no cut."""
    if ta is None:
        return tb
    if tb is None:
        return ta
    return tb if _lt(tb, ta) else ta


def _max_floor(fa: Optional[Rat], fb: Optional[Rat]) -> Optional[Rat]:
    """The higher of two floors or keys, None standing for no cut."""
    if fa is None:
        return fb
    if fb is None:
        return fa
    return fb if _lt(fa, fb) else fa


def _over(L: int, *xs: Optional[QQ]) -> int:
    """The least multiple of L over which every x (None: none) is a key."""
    return math.lcm(L, *(x.denominator for x in xs if x is not None))


def _at(x: Optional[QQ], L: int) -> Optional[int]:
    """The key x * L of x, for L a multiple of its denominator (None: None)."""
    return None if x is None else x.numerator * (L // x.denominator)


def _product_trunc(ta: Optional[int], ma: int, tb: Optional[int], mb: int) -> Optional[int]:
    """The key below which a product is exact, for factors exact below the
    keys ta and tb (None: complete) whose supports start at the keys ma and
    mb, all over one lattice."""
    return _min_trunc(None if ta is None else ta + mb, None if tb is None else tb + ma)


def _factor_order(N: QQ, lo: QQ) -> QQ:
    """The least order of a factor whose product with one starting at q^lo
    is exact below q^N: :func:`_product_trunc` solved for ta."""
    return N - lo


def _quotient_orders(N: QQ, beta: QQ, lo: Optional[QQ]) -> Tuple[QQ, Optional[QQ]]:
    """The least orders (ta, tb) for a quotient exact below q^N of a numerator from
    q^lo (None: unbuilt, no tb) by a denominator from q^beta: ``_slice_div`` solved."""
    ta = N + beta
    return ta, None if lo is None else ta + beta - lo


_Store = Dict[int, Dict[int, Rat]]  # q-key -> {w-key: coefficient}


def _cut(x: Optional[QQ], L: int) -> Optional[int]:
    """The least key n with n/L >= x (None: no cut)."""
    return None if x is None else -(-x.numerator * L // x.denominator)


def _int(c: QQ) -> Rat:
    return c.numerator if c.denominator == 1 else c


def _collect(terms: Iterable[Tuple[int, int, Rat]], Ti: Optional[int] = None,
             Fi: Optional[int] = None, acc: Optional[_Store] = None
             ) -> Tuple[_Store, Optional[int]]:
    """The store of (q, w, c) key terms at q < Ti and w >= Fi, merged in
    order into ``acc`` (None: an empty store); a term or a whole slice that
    cancels leaves, and re-enters at the end if it is produced again.  Also
    the lowest q dropped below Fi."""
    if acc is None:
        acc = {}
    lo = None
    for q, w, c in terms:
        if not c or (Ti is not None and q >= Ti):
            continue
        if Fi is not None and w < Fi:
            if lo is None or q < lo:
                lo = q
            continue
        sl = acc.get(q)
        if sl is None:
            sl = acc[q] = {}
        s = sl.get(w)
        s = c if s is None else s + c
        if s:
            sl[w] = s
        else:
            del sl[w]
            if not sl:
                del acc[q]
    return acc, lo


def _theta_walk(cosets: Iterable[Tuple[int, int]], step: int, qn: int, wn: int,
                cut: int) -> Tuple[_Store, Optional[int]]:
    """The store of a signed theta series: sign * w^(wn t) q^(qn t^2) over
    (t0, sign) in cosets and t in t0 + step Z, at q < cut, with qn > 0.
    Each coset is walked along t0, t0 + step, ... and then t0 - step,
    t0 - 2 step, ..., each walk stopping at the first t with q >= cut that
    lies past the vertex t = 0; the terms are merged by :func:`_collect` in
    that order.  Also the lowest q walked below cut (None: none), a lower
    bound of the support that a cancelled term may not show."""
    lo = None

    def walk():
        nonlocal lo
        for t0, sign in cosets:
            for t, dt in ((t0, step), (t0 - step, -step)):
                while True:
                    q = qn * t * t
                    if q < cut:
                        if lo is None or q < lo:
                            lo = q
                        yield q, wn * t, sign
                    elif dt * t >= 0:  # the exponent grows from here on
                        break
                    t += dt

    return _collect(walk())[0], lo


class _Lattice:
    """A truncated series on the integer lattice, with its guarantee box.

    The store ``_s`` holds the q-slices {q: {w: c}} at exponents q/D and
    w/W.  The box: coefficients are exact at every q-exponent < ``q_trunc``
    (None: no q-truncation) and at every w-exponent >= ``w_floor`` (None:
    the full w-support is stored), and the store holds exactly the nonzero
    ones inside it.  ``_q_lo`` is a lower bound of the q-support that the
    stored terms may not show, as for terms hidden below the floor or
    cancelled (None: the stored one).  The operations take two series of one
    class and return that class.
    """

    __slots__ = ("_s", "D", "W", "q_trunc", "w_floor", "_q_lo")

    def __init__(self, terms: Iterable[Tuple[Rat, Rat, Rat]], T: Optional[Rat],
                 F: Optional[Rat]):
        """The series of the (q-exponent, w-exponent, coefficient) ``terms``,
        merged in order, on the box q < T, w >= F (None: no cut there)."""
        T = None if T is None else as_fraction(T)
        F = None if F is None else as_fraction(F)
        terms = [(as_fraction(qe), as_fraction(we), as_fraction(c)) for qe, we, c in terms]
        D = math.lcm(*(qe.denominator for qe, _, _ in terms))
        W = math.lcm(*(we.denominator for _, we, _ in terms))
        s, lo = _collect(((qe.numerator * (D // qe.denominator),
                           we.numerator * (W // we.denominator), _int(c))
                          for qe, we, c in terms), _cut(T, D), _cut(F, W))
        # lo: the lowest q of the terms dropped below the floor
        self._set(s, D, W, T, F, None if lo is None else QQ(lo, D))

    def _set(self, s: _Store, D: int, W: int, T: Optional[QQ], F: Optional[QQ],
             lo: Optional[QQ]) -> None:
        self._s, self.D, self.W = s, D, W
        self.q_trunc, self.w_floor, self._q_lo = T, F, lo

    @classmethod
    def _of(cls, s: _Store, D: int, W: int, T: Optional[QQ], F: Optional[QQ] = None,
            lo: Optional[QQ] = None):
        """The series of the store ``s`` over keys q/D and w/W, which holds
        exactly its nonzero terms on the box q < T, w >= F, with lo a lower
        bound of its q-support (None: the stored one)."""
        out = cls.__new__(cls)
        out._set(s, D, W, T, F, lo)
        return out

    # -- accessors ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._s

    def n_terms(self) -> int:
        return sum(len(sl) for sl in self._s.values())

    def min_q(self) -> QQ:
        if not self._s:
            raise EmptySeries("series has no stored terms")
        return QQ(min(self._s), self.D)

    def min_q_bound(self) -> Optional[QQ]:
        """The least stored q-exponent, else q_trunc: a lower bound of every
        nonzero exponent in the box; None for the complete zero series."""
        return QQ(min(self._s), self.D) if self._s else self.q_trunc

    def _support_lo(self) -> Optional[QQ]:
        """A lower bound of the whole q-support, terms hidden below the floor
        included; None for the exact zero series."""
        L = _over(self.D, self.q_trunc, self._q_lo)
        lo = self._lo_at(L)
        return None if lo is None else QQ(lo, L)

    def _lo_at(self, L: int) -> Optional[int]:
        """The key of :meth:`_support_lo` over L, a multiple of D and of the
        denominators of q_trunc and _q_lo."""
        return _min_trunc(self._bound_at(L), _at(self._q_lo, L))

    def _bound_at(self, L: int) -> Optional[int]:
        """The key of :meth:`min_q_bound` over L, a multiple of D and of the
        denominator of q_trunc."""
        return min(self._s) * (L // self.D) if self._s else _at(self.q_trunc, L)

    def _on(self, D: int, W: int) -> _Store:
        """The store with keys over D and W, multiples of the series' own."""
        fq, fw = D // self.D, W // self.W
        if fw == 1:
            return self._s if fq == 1 else {q * fq: sl for q, sl in self._s.items()}
        return {q * fq: {w * fw: c for w, c in sl.items()} for q, sl in self._s.items()}

    # -- equality and arithmetic sugar, of the first operand's class ----------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.q_trunc == other.q_trunc and self.w_floor == other.w_floor
                and _compare(self, other)[0] is None)

    def __hash__(self):
        return hash((self.q_trunc, self.w_floor, self.n_terms()))

    def __add__(self, other):
        return _add(self, other)

    def __sub__(self, other):
        return _add(self, _scale(other, -1))

    def __neg__(self):
        return _scale(self, -1)

    def __mul__(self, other):
        if type(other) is int or isinstance(other, QQ):
            return _scale(self, other)
        return _mul(self, other)

    __rmul__ = __mul__


class QSeries(_Lattice):
    """Truncated series in q with exact rational coefficients/exponents: the
    w-free, unfloored lattice series, exact below ``trunc``."""

    __slots__ = ()
    W, w_floor, _q_lo = 1, None, None  # no w, no floor, no hidden support bound

    def __init__(self, terms=(), trunc: Optional[Rat] = None):
        items = terms.items() if isinstance(terms, Mapping) else terms
        super().__init__(((e, 0, c) for e, c in items), trunc, None)

    def _set(self, s: _Store, D: int, W: int, T: Optional[QQ], F: Optional[QQ],
             lo: Optional[QQ]) -> None:
        """Store the w^0 slices ``s`` over the least denominator their keys
        need; D is a multiple of it.  W, F and lo are the class's own."""
        g = math.gcd(D, *s)
        self._s = s if g == 1 else {q // g: sl for q, sl in s.items()}
        self.D, self.q_trunc = D // g, T

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, trunc: Optional[Rat] = None) -> "QSeries":
        return cls({QQ(0): QQ(1)}, trunc)

    @classmethod
    def monomial(cls, coeff: Rat, exp: Rat, trunc: Optional[Rat] = None) -> "QSeries":
        return cls({as_fraction(exp): as_fraction(coeff)}, trunc)

    # -- accessors ---------------------------------------------------------

    @property
    def trunc(self) -> Optional[QQ]:
        """The order below which the series is exact: its q_trunc."""
        return self.q_trunc

    @property
    def terms(self) -> Dict[QQ, QQ]:
        """A Fraction copy {exponent: coefficient} of the terms, in stored order."""
        D = self.D
        return {QQ(q, D): QQ(sl[0]) for q, sl in self._s.items()}

    def coeff(self, exp: Rat) -> QQ:
        q = as_fraction(exp) * self.D
        sl = self._s.get(q.numerator) if q.denominator == 1 else None
        return QQ(sl[0]) if sl else QQ(0)

    def items(self):
        return sorted(self.terms.items())

    def truncate(self, T: Rat) -> "QSeries":
        T = _min_trunc(self.q_trunc, as_fraction(T))
        Ti = _cut(T, self.D)
        return QSeries._of({q: sl for q, sl in self._s.items() if q < Ti}, self.D, 1, T)

    def __repr__(self):
        if not self._s:
            body = "0"
        else:
            bits = []
            for e, c in self.items()[:6]:
                bits.append("%s*q^(%s)" % (c, e))
            body = " + ".join(bits)
            if len(self._s) > 6:
                body += " + ... (%d terms)" % len(self._s)
        return "QSeries(%s; trunc=%s)" % (body, self.q_trunc)


# -- the series operations, each of its first operand's class --------------------


def _common(a: _Lattice, b: _Lattice) -> Tuple[int, int]:
    """The lattice (D, W) of a and b; TypeError unless they are of one class."""
    if type(b) is not type(a):
        raise TypeError("cannot combine %s with %s" % (type(a).__name__, type(b).__name__))
    return math.lcm(a.D, b.D), math.lcm(a.W, b.W)


def _add(a: _Lattice, b: _Lattice) -> _Lattice:
    """a + b on the common box: a copy of a's slices, cut to the box, then
    b's terms merged in by :func:`_collect`."""
    T = _min_trunc(a.q_trunc, b.q_trunc)
    F = _max_floor(a.w_floor, b.w_floor)
    D, W = _common(a, b)
    Ti, Fi = _cut(T, D), _cut(F, W)
    s: _Store = {}
    for q, sl in a._on(D, W).items():
        if Ti is not None and q >= Ti:
            continue
        sl = dict(sl) if Fi is None else {w: c for w, c in sl.items() if w >= Fi}
        if sl:
            s[q] = sl
    _collect(((q, w, c) for q, sl in b._on(D, W).items() for w, c in sl.items()),
             Ti, Fi, s)
    lo = None
    if type(a) is not QSeries:  # a q-series keeps no hidden support bound
        L = _over(D, a.q_trunc, a._q_lo, b.q_trunc, b._q_lo)
        lo = _min_trunc(a._lo_at(L), b._lo_at(L))
        lo = None if lo is None else QQ(lo, L)
    return a._of(s, D, W, T, F, lo)


def _scale(x: _Lattice, c: Rat, e: QQ = QQ(0)) -> _Lattice:
    """c * q^e * x in x's order, over lcm(D, denominator(e)); the shift moves
    the box and the hidden support bound with it."""
    c = _int(as_fraction(c))
    D = math.lcm(x.D, e.denominator)
    T, lo = x.q_trunc, x._q_lo
    if e:
        T = None if T is None else T + e
        lo = None if lo is None else lo + e
    if not c:
        return x._of({}, D, x.W, T, x.w_floor)
    f, o = D // x.D, e.numerator * (D // e.denominator)
    return x._of({q * f + o: {w: v * c for w, v in sl.items()} for q, sl in x._s.items()},
                 D, x.W, T, x.w_floor, lo)


def _mul(a: _Lattice, b: _Lattice) -> _Lattice:
    """a * b on the box its factors support, by :func:`_slice_mul`.

    The q-support bounds count the terms hidden below a floor.  Those terms
    meet the other factor's terms, which lie at w <= its top stored w, or
    below its floor if it stores none; an unfloored factor with no stored
    terms is zero below its q_trunc at every w and bounds no floor.
    """
    L = _over(math.lcm(a.D, b.D), a.q_trunc, a._q_lo, b.q_trunc, b._q_lo)
    ma, mb = a._lo_at(L), b._lo_at(L)
    if ma is None or mb is None:
        return a._of({}, 1, 1, None)  # exact zero factor
    T = _product_trunc(_at(a.q_trunc, L), ma, _at(b.q_trunc, L), mb)
    T = None if T is None else QQ(T, L)
    F = None
    if a.w_floor is not None or b.w_floor is not None:
        LW = _over(math.lcm(a.W, b.W), a.w_floor, b.w_floor)
        for x, y in ((a, b), (b, a)):
            if x.w_floor is not None:
                top = (max(map(max, y._s.values())) * (LW // y.W) if y._s
                       else _at(y.w_floor, LW))
                if top is not None:
                    F = _max_floor(F, _at(x.w_floor, LW) + top)
        F = None if F is None else QQ(F, LW)
    s, D, W = _slice_mul(a, b, T, F)
    return a._of(s, D, W, T, F, None if type(a) is QSeries else QQ(ma + mb, L))


def _div(a: _Lattice, b: _Lattice, T: Optional[Rat] = None,
         F: Optional[Rat] = None) -> _Lattice:
    """a / b on the box q < T, w >= F by the slice recursion of
    :func:`_slice_div`; neither a nor b may be w-floored."""
    if a.w_floor is not None:
        raise ValueError("dividing a w-floored series is not supported")
    if b.w_floor is not None:
        raise ValueError("dividing by a w-floored series is not supported")
    F = None if F is None else as_fraction(F)
    T, s, D, W = _slice_div(a, b, T, F)
    if T is None:
        return a._of({}, 1, 1, None)  # exact zero numerator
    lo = None
    if type(a) is not QSeries:
        # the quotient starts at the lowest slice y0 = min q(a) - min q(b)
        L = _over(D, a.q_trunc)
        lo = QQ(a._bound_at(L) - min(b._s) * (L // b.D), L)
    return a._of(s, D, W, T, F, lo)


def _compare(a: _Lattice, b: _Lattice, order: Optional[Rat] = None):
    """(mismatch, (T, F)): the box q < T, w >= F that a and b share, cut
    below q^order, and the first (q, w, c_a, c_b) in it, as Fractions, where
    they differ: at the lowest q, and the highest w within it; None if
    nowhere."""
    T = _min_trunc(a.q_trunc, b.q_trunc)
    if order is not None:
        T = _min_trunc(T, as_fraction(order))
    F = _max_floor(a.w_floor, b.w_floor)
    D, W = _common(a, b)
    A, B = a._on(D, W), b._on(D, W)
    Ti, Fi = _cut(T, D), _cut(F, W)
    for q in sorted(A.keys() | B.keys()):
        if Ti is not None and q >= Ti:
            break
        sa, sb = A.get(q, {}), B.get(q, {})
        if sa == sb:
            continue
        bad = [w for w in sa.keys() | sb.keys()
               if (Fi is None or w >= Fi) and sa.get(w, 0) != sb.get(w, 0)]
        if bad:
            w = max(bad)
            return (QQ(q, D), QQ(w, W), QQ(sa.get(w, 0)), QQ(sb.get(w, 0))), (T, F)
    return None, (T, F)


def qs_shift(a: QSeries, exp: Rat, coeff: Rat = 1) -> QSeries:
    """Multiply by the monomial coeff*q^exp (exact; shifts the truncation)."""
    return _scale(a, coeff, as_fraction(exp))


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """a * b: the factor with fewer terms meets the other in stored order."""
    return _mul(b, a) if len(a._s) > len(b._s) else _mul(a, b)


def qs_invert(a: QSeries) -> QSeries:
    """Inverse series: factor the minimal monomial, invert the unit part.

    The result r satisfies qs_mul(a, r) = 1 up to the guaranteed order
    trunc(a) - 2*min_q(a).  A complete (untruncated) input must be a pure
    monomial; truncate first to invert a complete multi-term series.
    """
    if a.q_trunc is None and len(a._s) == 1:
        (e0, c0), = a.terms.items()
        return QSeries.monomial(1 / c0, -e0, None)
    return _div(QSeries.one(None), a)


# -- the integer-lattice kernels of products and quotients ----------------------


def _slice_mul(a: _Lattice, b: _Lattice, T: Optional[QQ], F: Optional[QQ]
               ) -> Tuple[_Store, int, int]:
    """The store of a * b at q < T and w >= F (None: no cut there), and
    the denominators D and W of its keys.

    The slices of a, in stored order, meet those of b in ascending q.  A term
    or a whole slice that cancels to zero leaves the product, and re-enters
    at its end if it is produced again.
    """
    D, W = _common(a, b)
    Ti, Fi = _cut(T, D), _cut(F, W)
    acc: _Store = {}
    b_sorted = [(q, list(sl.items())) for q, sl in sorted(b._on(D, W).items())]
    for qa, sla in a._on(D, W).items():
        sla = list(sla.items())
        for qb, slb in b_sorted:
            qc = qa + qb
            if Ti is not None and qc >= Ti:
                break
            out = acc.get(qc)
            if out is None:
                out = acc[qc] = {}
            for wa, ca in sla:
                for wb, cb in slb:
                    wc = wa + wb
                    if Fi is not None and wc < Fi:
                        continue
                    s = out.get(wc)
                    s = ca * cb if s is None else s + ca * cb
                    if s == 0:
                        del out[wc]
                    else:
                        out[wc] = s
            if not out:
                del acc[qc]
    return acc, D, W


def _slice_div(a: _Lattice, b: _Lattice, T: Optional[Rat] = None,
               F: Optional[QQ] = None) -> Tuple[Optional[QQ], _Store, int, int]:
    """a / b on the box q < T, w >= F by one slice recursion, for a and b
    exact below q^ta and q^tb, their q_trunc.  Returns the quotient's
    order, None for the exact zero quotient, its store and the denominators
    D and W of its keys.

    With b = sum over m >= 0 of D_m q^(beta + m) and leading slice
    D_0 = c0 w^alpha + (lower w-powers), the quotient solves

        chi_y = (a_(y + beta) - sum over m > 0 of D_m chi_(y - m)) / D_0

    slice by slice, and ``/ D_0`` is descending long division: the quotient
    term at w^e reads only remainder exponents >= e + alpha.  q-slices are
    integer steps from the lowest quotient slice y0 = min q(a) - beta, and
    integral coefficients stay Python ints while c0 = +-1.

    T defaults to, and may not exceed, min(ta - beta, tb - 2 beta + min q(a)).
    Without F every slice must divide with a zero remainder, which proves the
    returned w-support complete; a nonzero remainder raises
    :class:`IncompleteQuotient`.  With F, slice y is computed down to
    F - slack(n), where n is its distance to the top slice and slack(n) is
    the largest sum of the positive w-extents max_w(D_m) - alpha over chains
    of steps m > 0 totalling <= n: that is as far below F as the slices
    above y read it, so the returned terms are exact at every w >= F.
    """
    D, W = _common(a, b)
    A, B = a._on(D, W), b._on(D, W)
    ta, tb = a.q_trunc, b.q_trunc
    if not A and ta is None:
        return None, {}, D, W  # exact zero numerator
    if not B:
        raise EmptySeries("cannot divide by a series with no terms")
    bi = min(B)
    # the orders as keys over L, a multiple of D by f
    T = None if T is None else as_fraction(T)
    L = _over(D, ta, tb, T)
    f = L // D
    mi = min(A) if A else None
    limits = []
    if ta is not None:
        limits.append(_at(ta, L) - bi * f)
    if tb is not None:
        limits.append(_at(tb, L) - 2 * bi * f + (_at(ta, L) if mi is None else mi * f))
    if T is None:
        if not limits:
            raise ValueError("a quotient of complete series needs a truncation order")
        Ti = min(limits)
        T = QQ(Ti, L)
    else:
        Ti = _at(T, L)
        if limits and Ti > min(limits):
            raise ValueError("requested quotient order %s exceeds the achievable %s"
                             % (T, QQ(min(limits), L)))
    if not A:
        return T, {}, D, W

    # q-slices are steps of g/D from y0 = (mi - bi)/D; y0 is the only one if g = 0
    g = math.gcd(*(q - mi for q in A), *(q - bi for q in B))
    D0 = B[bi]
    alpha, dmin = max(D0), min(D0)
    c0 = D0[alpha]
    lower = [(d, c) for d, c in D0.items() if d != alpha]
    inv_c0 = c0 if c0 in (1, -1) else 1 / QQ(c0)
    steps = sorted(((q - bi) // g, list(sl.items())) for q, sl in B.items() if q != bi)
    J = max(-(((mi - bi) * f - Ti) // (f * g)), 0) if g else int((mi - bi) * f < Ti)
    Fi = _cut(F, W)
    if Fi is not None:
        ext = [(m, max(sl)[0] - alpha) for m, sl in steps if max(sl)[0] > alpha]
        slack = [0] * max(J, 1)
        for n in range(1, J):
            slack[n] = max([e + slack[n - m] for m, e in ext if m <= n], default=0)

    chi: Dict[int, Dict[int, Rat]] = {}
    for j in range(J):
        rem = dict(A.get(mi + j * g, ()))
        # remainder exponents below lo are never read inside the box
        lo = None if Fi is None else Fi - slack[J - 1 - j] + alpha
        for m, Dm in steps:
            if m > j:
                break
            for d, dc in Dm:
                for e, c in chi.get(j - m, {}).items():
                    h = d + e
                    if lo is None or h >= lo:
                        rem[h] = rem.get(h, 0) - dc * c
        rem = {h: c for h, c in rem.items() if c}
        if not rem:
            continue
        # without a floor a finite quotient ends at w^(min(rem) - min(D_0))
        stop = min(rem) - dmin + alpha if lo is None else lo
        heap = [-h for h in rem]
        heapq.heapify(heap)
        sl = chi[j] = {}
        while heap:
            h = -heapq.heappop(heap)
            c = rem.pop(h)
            if not c:
                continue
            if h < stop:
                if lo is None:
                    raise IncompleteQuotient(
                        "q-slice %s leaves a nonzero remainder below w^%s: the "
                        "quotient has unbounded descending w-support, so a "
                        "w_floor is required" % (QQ(mi - bi + j * g, D), QQ(stop - alpha, W)))
                break
            e = h - alpha
            sl[e] = qc = c * inv_c0
            for d, dc in lower:
                k = e + d
                if k in rem:
                    rem[k] -= qc * dc
                else:
                    rem[k] = -qc * dc
                    heapq.heappush(heap, -k)
    out: _Store = {}
    for j, sl in chi.items():
        if Fi is not None:
            sl = {e: c for e, c in sl.items() if e >= Fi}
        if sl:
            out[mi - bi + j * g] = sl
    return T, out, D, W


def qs_eta(N: Rat) -> QSeries:
    """Dedekind eta q^{1/24} * prod_{n>=1} (1 - q^n) to order N, from Euler's
    pentagonal number theorem: q^{1/24} * sum over m of (-1)^m q^{m(3m-1)/2},
    whose exponents are (6m - 1)^2 / 24.  So eta is the signed theta series
    of t = 6m - 1 over q^(t^2/24): sign +1 on the coset -1 + 12Z (m even)
    and -1 on 5 + 12Z (m odd), built by :func:`_theta_walk`."""
    N = _positive_order(N)
    s, _ = _theta_walk(((-1, 1), (5, -1)), -12, 1, 0, _cut(N, 24))
    return QSeries._of(s, 24, 1, N)


@dataclass(frozen=True)
class EvalResult:
    """Numeric value of a truncated series with a crude tail bound."""

    value: object  # mpmath mpc
    tail_bound: object  # mpmath mpf (0 for complete series)
    precision: int

    def __complex__(self):
        return complex(self.value)


# qs_eval's transcendentals, each a function of exact, hashable inputs: a
# rounded tau as its ``_mpc_`` tuple, ints, a Fraction and bit counts
_EVAL_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_EVAL_MEMO_SIZE)
def _exp_step(t, D: int, m: int, wp: int):
    """exp(z m) with z = 2 pi i tau / D, tau = t, both at wp bits."""
    with mpmath.workprec(wp):
        z = 2j * mpmath.pi * mpmath.mp.make_mpc(t) / D
        return mpmath.exp(z * m)


@functools.lru_cache(maxsize=_EVAL_MEMO_SIZE)
def _fixed_power(t, D: int, g: int, d: int, wp: int, P: int) -> Tuple[int, int]:
    """y^d at wp bits, y = exp(z g), floored to P fractional bits per part."""
    with mpmath.workprec(wp):
        return tuple(to_fixed(x, P) for x in (_exp_step(t, D, g, wp) ** d)._mpc_)


@functools.lru_cache(maxsize=_EVAL_MEMO_SIZE)
def _tail_factors(im_t, T: QQ, prec: int):
    """(|q|^T, 1 - |q|) at prec bits, |q| = exp(-2 pi Im tau), Im tau = im_t."""
    with mpmath.workprec(prec):
        qabs = mpmath.exp(-2 * mpmath.pi * mpmath.mp.make_mpf(im_t))
        return qabs ** (mpmath.mpf(T.numerator) / T.denominator), 1 - qabs


def qs_eval(a: QSeries, tau, precision: int = 256) -> EvalResult:
    """Evaluate at q = exp(2 pi i tau), Im(tau) > 0, in binary precision bits.

    With the keys ascending from q0 and g the gcd of their gaps, the stored
    terms are c q^(q0/D) y^m with y = q^(g/D) and int m, so the value is
    head * sum c y^m with head = q^(q0/D): two exp per series.  The sum runs
    by Horner from the top key down on ints with P = precision + 48
    fractional bits, s <- (s Y_d >> P) + c 2^P, where d is the gap to the key
    above and Y_d is y^d floored to P bits per part, once per distinct d; a
    Fraction c is rounded to nearest.  The result is converted once and
    multiplied by head at precision + 16 bits.

    Rounding bound.  Im(tau) > 0 gives |y^d| <= 1, so every exact partial
    sum has modulus at most sum|c|.  y, head and y^d are computed with
    enough guard bits for the size of tau and of the keys that Y_d is within
    sqrt(2) + 1/8 units of 2^-P of y^d; the shift floors each part (under
    sqrt(2) units together) and a Fraction c is off by 1/2 unit.  A step
    therefore adds under (1.6 sum|c| + 1.9) 2^-P < 2^(1-P) (1 + sum|c|) to
    the error it carries, which it multiplies by |Y_d| 2^-P <= 1 + 2^(1-P).
    For n < 2^(P-8) terms the sum is within n 2^(1-P) (1 + sum|c|) of
    sum c y^m, and the value within |head| times that plus 2^-(precision+14)
    of its modulus for the conversion, head and the product.

    The tail bound is heuristic: C * |q|^T / (1 - |q|) with C the largest
    stored |coefficient| (at least 1); it is 0 for complete series.  A tau
    that is not finite or leaves 1 - |q| = 0 under a tail raises ValueError.

    Memoised.  Series evaluated at the same tau share their transcendentals,
    so three bounded private memos (``functools.lru_cache``) keep them:
    exp(z m), for head (m = q0) and y (m = g), keyed by (tau, D, m, wp) with
    tau rounded as here and wp the working precision of z; Y_d keyed by
    (tau, D, g, d, wp, P); and the tail factors |q|^T and 1 - |q| keyed by
    (Im tau, T, precision + 16), the tail still formed as C |q|^T / (1 - |q|).
    A key holds every input its value is computed from, and a hit returns
    what the same operations at the same precision on the same inputs
    returned before, so every result is the same bit for bit as with an
    empty memo.
    """
    with mpmath.workprec(precision + 16):
        t = mpmath.mpmathify(tau)
        if mpmath.im(t) <= 0:
            raise NonconvergentDomain("evaluation requires Im(tau) > 0, got %s" % tau)
        if not mpmath.isfinite(t):
            raise ValueError("evaluation requires a finite tau, got %s" % tau)
        val = mpmath.mpc(0)
        keys = sorted(a._s)
        if keys:
            q0, P = keys[0], precision + 48
            g = math.gcd(*(q - q0 for q in keys)) or 1
            gaps = [(hi - lo) // g for lo, hi in zip(keys, keys[1:])] + [0]
            # the rounding of 2 pi i tau grows with |tau| and the key span
            span = max(keys[-1] - q0, abs(q0), 1) * (2 + int(8 * abs(t)))
            wp = P + 8 + span.bit_length()
            head = _exp_step(t._mpc_, a.D, q0, wp)
            Y = {d: _fixed_power(t._mpc_, a.D, g, d, wp, P) for d in set(gaps)}
            sr = si = 0
            for q, d in zip(reversed(keys), reversed(gaps)):
                yr, yi = Y[d]
                c = a._s[q][0]
                c = (c << P if type(c) is int
                     else ((c.numerator << (P + 1)) // c.denominator + 1) >> 1)
                sr, si = ((sr * yr - si * yi) >> P) + c, (sr * yi + si * yr) >> P
            prec, rnd = mpmath.mp._prec_rounding
            val = mpmath.mp.make_mpc((from_man_exp(sr, -P, prec, rnd),
                                      from_man_exp(si, -P, prec, rnd))) * head
        if a.q_trunc is None:
            tail = mpmath.mpf(0)
        else:
            # rounding is monotone, so this is the largest of the rounded |c|
            c = max((abs(sl[0]) for sl in a._s.values()), default=0)
            big = max(mpmath.mpf(1), mpmath.mpf(c.numerator) / c.denominator)
            pw, den = _tail_factors(t.imag._mpf_, a.q_trunc, precision + 16)
            if not den:
                raise ValueError("1 - |q| rounds to 0 at tau = %s" % mpmath.nstr(t, 8))
            tail = big * pw / den
        return EvalResult(+val, +tail, precision)


def qs_equal_below(a: QSeries, b: QSeries, order: Optional[Rat] = None):
    """Compare two series on all exponents below min(truncs, order).

    Returns (ok, first_discrepancy) where the discrepancy is
    (exponent, coeff_a, coeff_b) at the smallest mismatched exponent.
    """
    bad, _ = _compare(a, b, order)
    return (True, None) if bad is None else (False, (bad[0],) + bad[2:])
