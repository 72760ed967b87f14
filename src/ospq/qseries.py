"""Exact truncated formal q-series.

A :class:`QSeries` is a finite map exponent -> coefficient with exact
``Fraction`` entries, exponents on a lattice (1/D)*Z, together with a
truncation order ``trunc``: the stored terms are exactly the nonzero
coefficients of the underlying series at every exponent below ``trunc``.
``trunc=None`` means the series is complete (all nonzero terms stored).

Operations propagate the guaranteed order honestly and never extend it.
Coefficients are exact; numeric evaluation (``qs_eval``) is a separate,
explicitly lossy operation.

Products and inverses run on an integer exponent lattice: exponents are
scaled to ints over a common denominator, integral coefficients stay Python
ints, and Fractions are built only for the returned series, whose terms keep
the order in which the loops first produced them.  Dedekind eta is summed in
closed form from Euler's pentagonal number theorem rather than multiplied
out factor by factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

import mpmath

QQ = Fraction
Rat = Union[int, Fraction]


class EmptySeries(ArithmeticError):
    """Raised when inversion is asked of a series with no stored terms."""


class VerificationError(ValueError):
    """Raised when an internal check of a computed result fails, as opposed to
    bad input; the CLI reports it with exit code 1."""


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


def _from_lattice(acc: Mapping[int, Rat], D: int, trunc: Optional[QQ]) -> QSeries:
    """The series sum of c * q^(e/D) over the nonzero int-keyed ``acc``, whose
    exponents all lie below ``trunc``; the terms keep the order of ``acc``."""
    out = QSeries.__new__(QSeries)
    out.terms = {QQ(e, D): QQ(c) for e, c in acc.items()}
    out.trunc = trunc
    out.D = D // math.gcd(D, *acc)
    return out


def _scaled(a: QSeries, D: int):
    """(e * D, c) pairs of ``a`` in stored order; integral coefficients
    become Python ints."""
    return [(e.numerator * (D // e.denominator),
             c.numerator if c.denominator == 1 else c) for e, c in a.terms.items()]


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    ma, mb = a.min_exp_bound(), b.min_exp_bound()
    if ma is None or mb is None:
        # one factor is the complete zero series: product is exactly zero
        return QSeries.zero(None)
    cands = []
    if a.trunc is not None:
        cands.append(a.trunc + mb)
    if b.trunc is not None:
        cands.append(b.trunc + ma)
    T = min(cands) if cands else None
    if len(a.terms) > len(b.terms):
        a, b = b, a
    D = math.lcm(a.D, b.D)
    Ti = None if T is None else math.ceil(T * D)
    acc: dict = {}
    b_items = sorted(_scaled(b, D))
    for ea, ca in _scaled(a, D):
        for eb, cb in b_items:
            e = ea + eb
            if Ti is not None and e >= Ti:
                break
            s = acc.get(e)
            s = ca * cb if s is None else s + ca * cb
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
    return _from_lattice(acc, D, T)


def qs_invert(a: QSeries) -> QSeries:
    """Inverse series: factor the minimal monomial, invert the unit part.

    The result r satisfies qs_mul(a, r) = 1 up to the guaranteed order
    trunc(a) - 2*min_exp(a).  A complete (untruncated) input must be a pure
    monomial; truncate first to invert a complete multi-term series.
    """
    if not a.terms:
        raise EmptySeries("cannot invert a series with no terms")
    e0 = a.min_exp()
    c0 = a.terms[e0]
    if a.trunc is None:
        if len(a.terms) > 1:
            raise ValueError(
                "cannot invert an untruncated non-monomial series; truncate first"
            )
        return QSeries.monomial(1 / c0, -e0, None)
    T_rel = a.trunc - e0
    # coefficient recursion for (1 + u)^{-1} on int steps n of u's lattice 1/L
    L = math.lcm(*((e - e0).denominator for e in a.terms))
    steps = []
    for e, c in a.terms.items():
        if e != e0:
            cm = c / c0
            steps.append((int((e - e0) * L), cm.numerator if cm.denominator == 1 else cm))
    steps.sort()
    inv = [1] + [0] * (math.ceil(T_rel * L) - 1)
    for n in range(1, len(inv)):
        s = 0
        for m, cm in steps:
            if m > n:
                break
            prev = inv[n - m]
            if prev:
                s -= cm * prev
        inv[n] = s
    E = math.lcm(L, e0.denominator)
    shift = int(e0 * E)
    return _from_lattice({n * (E // L) - shift: c / c0 for n, c in enumerate(inv) if c},
                         E, T_rel - e0)


def qs_eta(N: Rat) -> QSeries:
    """Dedekind eta q^{1/24} * prod_{n>=1} (1 - q^n) to order N, from Euler's
    pentagonal number theorem: q^{1/24} * sum over m of (-1)^m q^{m(3m-1)/2},
    whose exponents are (6m - 1)^2 / 24.  They grow along m = 0, 1, -1, 2,
    -2, ..., so the terms are stored in ascending order."""
    N = as_fraction(N)
    if N <= 0:
        raise ValueError("truncation order must be positive")
    cut = math.ceil(24 * N)
    acc = {}
    j = 0
    while True:
        for m in (j, -j) if j else (0,):
            e = (6 * m - 1) ** 2
            if e >= cut:
                return _from_lattice(acc, 24, N)
            acc[e] = (-1) ** j
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
