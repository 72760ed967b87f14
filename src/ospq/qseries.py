"""Exact truncated formal q-series.

A :class:`QSeries` is a finite map exponent -> coefficient with exact
``Fraction`` entries, exponents on a lattice (1/D)*Z, together with a
truncation order ``trunc``: the stored terms are exactly the nonzero
coefficients of the underlying series at every exponent below ``trunc``.
``trunc=None`` means the series is complete (all nonzero terms stored).

Operations propagate the guaranteed order honestly and never extend it.
Coefficients are exact; numeric evaluation (``qs_eval``) is a separate,
explicitly lossy operation.

Products and quotients of one- and two-variable series share two kernels
on an integer exponent lattice: one slice convolution (``_slice_mul``) and
one slice recursion for division (``_slice_div``).  Both work on q-slices
{q-exponent: {w-exponent: coefficient}}; a QSeries is the w-free case, one
w^0 term per slice, so ``qs_mul`` and ``qs_invert`` are the one-variable
cases of ``theta.wq_mul`` and ``theta.wq_div``.  Exponents are scaled to
ints, integral coefficients stay Python ints, and Fractions are built only
for the returned series, whose terms keep the order in which the kernels
first produced them.  Dedekind eta is summed in closed form from Euler's
pentagonal number theorem rather than multiplied out factor by factor.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Dict, Mapping, Optional, Tuple, Union

import mpmath

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
    if isinstance(x, int):
        return QQ(x)
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


def _min_trunc(ta: Optional[QQ], tb: Optional[QQ]) -> Optional[QQ]:
    if ta is None:
        return tb
    if tb is None:
        return ta
    return min(ta, tb)


def _product_trunc(ta: Optional[QQ], ma: QQ, tb: Optional[QQ], mb: QQ) -> Optional[QQ]:
    """The order below which a product is exact, for factors exact below ta
    and tb (None: complete) whose supports start at ma and mb."""
    return _min_trunc(None if ta is None else ta + mb, None if tb is None else tb + ma)


class QSeries:
    """Truncated series in q with exact rational coefficients/exponents."""

    __slots__ = ("terms", "trunc", "D")

    def __init__(self, terms=(), trunc: Optional[Rat] = None, D: Optional[int] = None):
        if trunc is not None:
            trunc = as_fraction(trunc)
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            e = as_fraction(e)
            c = as_fraction(c)
            if c == 0:
                continue
            if trunc is not None and e >= trunc:
                continue
            s = acc.get(e)
            s = c if s is None else s + c
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
        if D is None:
            D = 1
            for e in acc:
                D = math.lcm(D, e.denominator)
        else:
            for e in acc:
                if (e * D).denominator != 1:
                    raise ValueError("exponent %s not on lattice 1/%d" % (e, D))
        self.terms = acc
        self.trunc = trunc
        self.D = D

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: Optional[Rat] = None) -> "QSeries":
        return cls((), trunc)

    @classmethod
    def one(cls, trunc: Optional[Rat] = None) -> "QSeries":
        return cls({QQ(0): QQ(1)}, trunc)

    @classmethod
    def monomial(cls, coeff: Rat, exp: Rat, trunc: Optional[Rat] = None) -> "QSeries":
        return cls({as_fraction(exp): as_fraction(coeff)}, trunc)

    # -- accessors ---------------------------------------------------------

    def coeff(self, exp: Rat) -> QQ:
        return self.terms.get(as_fraction(exp), QQ(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> QQ:
        if not self.terms:
            raise EmptySeries("series has no stored terms")
        return min(self.terms)

    def min_exp_bound(self) -> Optional[QQ]:
        """Lower bound for any (stored or unknown) nonzero exponent.

        Returns None for the complete zero series (no nonzero term exists).
        """
        if self.terms:
            return min(self.terms)
        return self.trunc  # may be None: complete zero

    def items(self):
        return sorted(self.terms.items())

    def truncate(self, T: Rat) -> "QSeries":
        T = _min_trunc(self.trunc, as_fraction(T))
        return QSeries(self.terms, T)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.trunc))

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            bits = []
            for e, c in self.items()[:6]:
                bits.append("%s*q^(%s)" % (c, e))
            body = " + ".join(bits)
            if len(self.terms) > 6:
                body += " + ... (%d terms)" % len(self.terms)
        return "QSeries(%s; trunc=%s)" % (body, self.trunc)

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return qs_add(self, other)

    def __sub__(self, other):
        return qs_add(self, qs_scalar(other, -1))

    def __neg__(self):
        return qs_scalar(self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, QQ)):
            return qs_scalar(self, other)
        return qs_mul(self, other)

    __rmul__ = __mul__


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    T = _min_trunc(a.trunc, b.trunc)
    acc = dict(a.terms)
    for e, c in b.terms.items():
        s = acc.get(e)
        s = c if s is None else s + c
        if s == 0:
            acc.pop(e, None)
        else:
            acc[e] = s
    return QSeries(acc, T)


def qs_scalar(a: QSeries, c: Rat) -> QSeries:
    c = as_fraction(c)
    if c == 0:
        return QSeries.zero(a.trunc)
    return QSeries({e: x * c for e, x in a.terms.items()}, a.trunc)


def qs_shift(a: QSeries, exp: Rat, coeff: Rat = 1) -> QSeries:
    """Multiply by the monomial coeff*q^exp (exact; shifts the truncation)."""
    exp = as_fraction(exp)
    coeff = as_fraction(coeff)
    T = None if a.trunc is None else a.trunc + exp
    return QSeries({e + exp: c * coeff for e, c in a.terms.items()}, T)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    ma, mb = a.min_exp_bound(), b.min_exp_bound()
    if ma is None or mb is None:
        # one factor is the complete zero series: product is exactly zero
        return QSeries.zero(None)
    T = _product_trunc(a.trunc, ma, b.trunc, mb)
    if len(a.terms) > len(b.terms):
        a, b = b, a
    return _qseries(_slice_mul(_slices(a), _slices(b), T, None), T)


def qs_invert(a: QSeries) -> QSeries:
    """Inverse series: factor the minimal monomial, invert the unit part.

    The result r satisfies qs_mul(a, r) = 1 up to the guaranteed order
    trunc(a) - 2*min_exp(a).  A complete (untruncated) input must be a pure
    monomial; truncate first to invert a complete multi-term series.
    """
    if a.trunc is None and len(a.terms) == 1:
        (e0, c0), = a.terms.items()
        return QSeries.monomial(1 / c0, -e0, None)
    return _qs_div(QSeries.one(None), a)


def _qs_div(a: QSeries, b: QSeries, trunc: Optional[QQ] = None) -> QSeries:
    """a / b below q^trunc, which defaults to the order a and b support."""
    T, slices = _slice_div(_slices(a), a.trunc, _slices(b), b.trunc, trunc)
    return QSeries.zero(None) if T is None else _qseries(slices, T)


# -- the integer-lattice kernels of products and quotients ----------------------

# A series enters and leaves the kernels as (q-exponent, w-terms) pairs, its
# w-terms as (w-exponent, coefficient) pairs.
Slices = Collection[Tuple[QQ, Collection[Tuple[Rat, Rat]]]]


def _slices(a: QSeries) -> Slices:
    """The q-slices of a QSeries: one w^0 term each."""
    return [(e, ((0, c),)) for e, c in a.terms.items()]


def _qseries(slices: Slices, trunc: Optional[QQ]) -> QSeries:
    """The QSeries of w^0 slices that hold exactly its nonzero terms."""
    out = QSeries.__new__(QSeries)
    out.terms = {e: c for e, sl in slices for _, c in sl}
    out.trunc = trunc
    out.D = math.lcm(*(e.denominator for e in out.terms))
    return out


def _grid(q0: QQ, step: QQ) -> Tuple[int, int, int]:
    """(o, s, Q) with q0 = o/Q and step = s/Q."""
    Q = math.lcm(q0.denominator, step.denominator)
    return q0.numerator * (Q // q0.denominator), step.numerator * (Q // step.denominator), Q


def _to_lattice(slices: Slices, q0: QQ, step: QQ, W: int) -> Dict[int, list]:
    """``slices`` keyed by (q - q0) / step, their w-terms as (w * W, c):
    both exponents become ints, and integral coefficients Python ints."""
    o, s, Q = _grid(q0, step)
    return {(qe.numerator * (Q // qe.denominator) - o) // s: [
        (we.numerator * (W // we.denominator), c.numerator if c.denominator == 1 else c)
        for we, c in sl] for qe, sl in slices}


def _from_lattice(acc: Mapping[int, Mapping[int, Rat]], q0: QQ, step: QQ, W: int,
                  Fi: Optional[int] = None) -> Slices:
    """The Fraction slices of ``acc`` without its terms at w * W < Fi;
    slices left empty are dropped, the rest keep their order."""
    o, s, Q = _grid(q0, step)
    wk = {w: QQ(w, W) for w in {w for sl in acc.values() for w in sl}}
    out = []
    for j, sl in acc.items():
        sl = [(wk[w], QQ(c)) for w, c in sl.items() if Fi is None or w >= Fi]
        if sl:
            out.append((QQ(o + j * s, Q), sl))
    return out


def _slice_mul(a: Slices, b: Slices, T: Optional[QQ], F: Optional[QQ]) -> Slices:
    """The terms of a * b at q < T and w >= F (None: no cut there).

    The slices of a, in stored order, meet those of b in ascending q.  A term
    or a whole slice that cancels to zero leaves the product, and re-enters
    at its end if it is produced again.
    """
    Q = math.lcm(*(qe.denominator for x in (a, b) for qe, _ in x))
    W = math.lcm(*(we.denominator for x in (a, b) for _, sl in x for we, _ in sl))
    Ti = None if T is None else math.ceil(T * Q)
    Fi = None if F is None else math.ceil(F * W)
    step = QQ(1, Q)
    acc: Dict[int, Dict[int, Rat]] = {}
    b_slices = sorted(_to_lattice(b, QQ(0), step, W).items())
    for qa, sla in _to_lattice(a, QQ(0), step, W).items():
        for qb, slb in b_slices:
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
    return _from_lattice(acc, QQ(0), step, W)


def _slice_div(a: Slices, ta: Optional[QQ], b: Slices, tb: Optional[QQ],
               T: Optional[QQ] = None, F: Optional[QQ] = None
               ) -> Tuple[Optional[QQ], Slices]:
    """a / b on the box q < T, w >= F by one slice recursion, for a exact
    below q^ta and b below q^tb (None: complete).  Returns the quotient's
    order, None for the exact zero quotient, and its slices.

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
    ma = min((qe for qe, _ in a), default=ta)
    if ma is None:
        return None, []  # exact zero numerator
    if not b:
        raise EmptySeries("cannot divide by a series with no terms")
    beta = min(qe for qe, _ in b)
    limits = []
    if ta is not None:
        limits.append(ta - beta)
    if tb is not None:
        limits.append(tb - 2 * beta + ma)
    if T is None:
        if not limits:
            raise ValueError("a quotient of complete series needs a truncation order")
        T = min(limits)
    else:
        T = as_fraction(T)
        if limits and T > min(limits):
            raise ValueError(
                "requested quotient order %s exceeds the achievable %s" % (T, min(limits))
            )
    if not a:
        return T, []

    y0 = ma - beta
    offsets = [qe - ma for qe, _ in a] + [qe - beta for qe, _ in b]
    L = math.lcm(*(o.denominator for o in offsets))
    step = QQ(math.gcd(*(o.numerator * (L // o.denominator) for o in offsets)) or 1, L)
    Lw = math.lcm(*(we.denominator for x in (a, b) for _, sl in x for we, _ in sl))
    A = _to_lattice(a, ma, step, Lw)
    D = _to_lattice(b, beta, step, Lw)
    D0 = dict(D.pop(0))
    alpha, dmin = max(D0), min(D0)
    c0 = D0[alpha]
    lower = [(d, c) for d, c in D0.items() if d != alpha]
    inv_c0 = c0 if c0 in (1, -1) else 1 / QQ(c0)
    steps = sorted(D.items())
    J = max(math.ceil((T - y0) / step), 0)
    Fi = None if F is None else math.ceil(F * Lw)
    if Fi is not None:
        ext = [(m, max(sl)[0] - alpha) for m, sl in steps if max(sl)[0] > alpha]
        slack = [0] * max(J, 1)
        for n in range(1, J):
            slack[n] = max([e + slack[n - m] for m, e in ext if m <= n], default=0)

    chi: Dict[int, Dict[int, Rat]] = {}
    for j in range(J):
        rem = dict(A.get(j, ()))
        # remainder exponents below lo are never read inside the box
        lo = None if Fi is None else Fi - slack[J - 1 - j] + alpha
        for m, Dm in steps:
            if m > j:
                break
            for d, dc in Dm:
                for e, c in chi.get(j - m, {}).items():
                    g = d + e
                    if lo is None or g >= lo:
                        rem[g] = rem.get(g, 0) - dc * c
        rem = {g: c for g, c in rem.items() if c}
        if not rem:
            continue
        # without a floor a finite quotient ends at w^(min(rem) - min(D_0))
        stop = min(rem) - dmin + alpha if lo is None else lo
        heap = [-g for g in rem]
        heapq.heapify(heap)
        sl = chi[j] = {}
        while heap:
            g = -heapq.heappop(heap)
            c = rem.pop(g)
            if not c:
                continue
            if g < stop:
                if lo is None:
                    raise IncompleteQuotient(
                        "q-slice %s leaves a nonzero remainder below w^%s: the "
                        "quotient has unbounded descending w-support, so a "
                        "w_floor is required" % (y0 + j * step, QQ(stop - alpha, Lw)))
                break
            e = g - alpha
            sl[e] = qc = c * inv_c0
            for d, dc in lower:
                h = e + d
                if h in rem:
                    rem[h] -= qc * dc
                else:
                    rem[h] = -qc * dc
                    heapq.heappush(heap, -h)
    return T, _from_lattice(chi, y0, step, Lw, Fi)


def qs_eta(N: Rat) -> QSeries:
    """Dedekind eta q^{1/24} * prod_{n>=1} (1 - q^n) to order N, from Euler's
    pentagonal number theorem: q^{1/24} * sum over m of (-1)^m q^{m(3m-1)/2},
    whose exponents are (6m - 1)^2 / 24.  They grow along m = 0, 1, -1, 2,
    -2, ..., so the terms are stored in ascending order."""
    N = as_fraction(N)
    if N <= 0:
        raise ValueError("truncation order must be positive")
    cut = math.ceil(24 * N)
    slices = []
    j = 0
    while True:
        for m in (j, -j) if j else (0,):
            e = (6 * m - 1) ** 2
            if e >= cut:
                return _qseries(slices, N)
            slices.append((QQ(e, 24), ((0, QQ((-1) ** j)),)))
        j += 1


@dataclass(frozen=True)
class EvalResult:
    """Numeric value of a truncated series with a crude tail bound."""

    value: object  # mpmath mpc
    tail_bound: object  # mpmath mpf (0 for complete series)
    precision: int

    def __complex__(self):
        return complex(self.value)


def qs_eval(a: QSeries, tau, precision: int = 256) -> EvalResult:
    """Evaluate at q = exp(2 pi i tau), Im(tau) > 0, in binary precision bits.

    The tail bound is heuristic: C * |q|^T / (1 - |q|) with C the largest
    stored |coefficient| (at least 1); it is 0 for complete series.
    """
    with mpmath.workprec(precision + 16):
        t = mpmath.mpmathify(tau)
        if mpmath.im(t) <= 0:
            raise NonconvergentDomain("evaluation requires Im(tau) > 0, got %s" % tau)
        z = 2j * mpmath.pi * t
        val = mpmath.mpc(0)
        big = mpmath.mpf(1)
        for e, c in a.terms.items():
            ce = mpmath.mpf(c.numerator) / c.denominator
            val += ce * mpmath.exp(z * mpmath.mpf(e.numerator) / e.denominator)
            if abs(ce) > big:
                big = abs(ce)
        if a.trunc is None:
            tail = mpmath.mpf(0)
        else:
            qabs = mpmath.exp(-2 * mpmath.pi * mpmath.im(t))
            tt = a.trunc
            tail = big * qabs ** (mpmath.mpf(tt.numerator) / tt.denominator) / (1 - qabs)
        return EvalResult(+val, +tail, precision)


def qs_equal_below(a: QSeries, b: QSeries, order: Optional[Rat] = None):
    """Compare two series on all exponents below min(truncs, order).

    Returns (ok, first_discrepancy) where the discrepancy is
    (exponent, coeff_a, coeff_b) at the smallest mismatched exponent.
    """
    T = _min_trunc(a.trunc, b.trunc)
    if order is not None:
        T = _min_trunc(T, as_fraction(order))
    exps = set(a.terms) | set(b.terms)
    bad = []
    for e in exps:
        if T is not None and e >= T:
            continue
        ca, cb = a.terms.get(e, QQ(0)), b.terms.get(e, QQ(0))
        if ca != cb:
            bad.append((e, ca, cb))
    if bad:
        bad.sort()
        return False, bad[0]
    return True, None
