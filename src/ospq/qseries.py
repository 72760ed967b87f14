"""Exact truncated formal q-series.

A :class:`QSeries` is a finite map exponent -> coefficient with exact
rational entries, exponents on a lattice (1/D)*Z, together with a
truncation order ``trunc``: the stored terms are exactly the nonzero
coefficients of the underlying series at every exponent below ``trunc``.
``trunc=None`` means the series is complete (all nonzero terms stored).

Operations propagate the guaranteed order honestly and never extend it.
Coefficients are exact; numeric evaluation (``qs_eval``) is a separate,
explicitly lossy operation.

One- and two-variable series share one store, the integer lattice the
kernels compute on: q-slices {q: {w: c}} at exponents q/D and w/W, with
int keys and a coefficient an int when it is integral.  A QSeries is the
w-free case, W = 1 and one slice {0: c} per exponent, and D is the lcm of
its exponents' denominators unless the constructor was given one.  Sums,
scalings, shifts and comparisons share one merge, one scaling and one
first-mismatch scan; products and quotients share one slice convolution
(``_slice_mul``) and one slice recursion (``_slice_div``), so ``qs_mul``
and ``qs_invert`` are the one-variable cases of ``theta.wq_mul`` and
``theta.wq_div``.  Rescaling to a common lattice multiplies the int keys.
Fractions appear only at the edge: the constructor takes them, and the
``terms`` view, ``coeff``, ``items`` and the discrepancy tuples return
them.  Dedekind eta is summed in closed form from Euler's pentagonal number
theorem rather than multiplied out factor by factor.
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
    if isinstance(x, int):
        return QQ(x)
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


def _positive_order(N: Rat) -> QQ:
    """N as a Fraction; ValueError unless it is positive, since the box
    below q^N then holds no term.  The one refusal of such an order."""
    N = as_fraction(N)
    if N <= 0:
        raise ValueError("truncation order must be positive")
    return N


def _require_order(achieved: Optional[QQ], N: QQ, what: str, error) -> None:
    """Raise ``error`` unless a box exact below ``achieved`` (None:
    complete) reaches order N.  The one refusal of a short box."""
    if achieved is not None and achieved < N:
        raise error("%s is exact only below q^%s, short of order %s"
                    % (what, achieved, N))


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


_Store = Dict[int, Dict[int, Rat]]  # q-key -> {w-key: coefficient}


def _cut(x: Optional[QQ], L: int) -> Optional[int]:
    """The least key n with n/L >= x (None: no cut)."""
    return None if x is None else math.ceil(x * L)


def _int(c: QQ) -> Rat:
    return c.numerator if c.denominator == 1 else c


def _collect(terms: Iterable[Tuple[int, int, Rat]], Ti: Optional[int] = None,
             Fi: Optional[int] = None) -> Tuple[_Store, Optional[int]]:
    """The store of (q, w, c) key terms at q < Ti and w >= Fi, merged in
    order; a term or a whole slice that cancels leaves, and re-enters at the
    end if it is produced again.  Also the lowest q dropped below Fi."""
    acc: _Store = {}
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


class _Lattice:
    """The store ``_s`` of a series and its denominators D (q) and W (w)."""

    __slots__ = ("_s", "D", "W")

    @property
    def is_zero(self) -> bool:
        return not self._s

    def _on(self, D: int, W: int) -> _Store:
        """The store with keys over D and W, multiples of the series' own."""
        fq, fw = D // self.D, W // self.W
        if fw == 1:
            return self._s if fq == 1 else {q * fq: sl for q, sl in self._s.items()}
        return {q * fq: {w * fw: c for w, c in sl.items()} for q, sl in self._s.items()}


def _merge(a: _Lattice, b: _Lattice, T: Optional[QQ], F: Optional[QQ]
           ) -> Tuple[_Store, int, int]:
    """The store of a + b at q < T and w >= F: a's terms, then b's merged in."""
    D, W = math.lcm(a.D, b.D), math.lcm(a.W, b.W)
    terms = ((q, w, c) for x in (a, b) for q, sl in x._on(D, W).items()
             for w, c in sl.items())
    return _collect(terms, _cut(T, D), _cut(F, W))[0], D, W


def _scaled(x: _Lattice, c: Rat, e: QQ = QQ(0)) -> Tuple[_Store, int]:
    """The store of c * q^e * x, in x's order, over lcm(D, denominator(e))."""
    c = _int(as_fraction(c))
    D = math.lcm(x.D, e.denominator)
    if not c:
        return {}, D
    f, o = D // x.D, e.numerator * (D // e.denominator)
    return {q * f + o: {w: v * c for w, v in sl.items()} for q, sl in x._s.items()}, D


def _first_mismatch(a: _Lattice, b: _Lattice, T: Optional[QQ], F: Optional[QQ]):
    """(q, w, c_a, c_b) as Fractions where a and b first differ on q < T,
    w >= F: at the lowest q, and the highest w within it; None if nowhere."""
    D, W = math.lcm(a.D, b.D), math.lcm(a.W, b.W)
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
            return QQ(q, D), QQ(w, W), QQ(sa.get(w, 0)), QQ(sb.get(w, 0))
    return None


class QSeries(_Lattice):
    """Truncated series in q with exact rational coefficients/exponents."""

    __slots__ = ("trunc",)

    def __init__(self, terms=(), trunc: Optional[Rat] = None, D: Optional[int] = None):
        if trunc is not None:
            trunc = as_fraction(trunc)
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = [(as_fraction(e), as_fraction(c)) for e, c in items]
        L = math.lcm(*(e.denominator for e, _ in pairs))
        acc, _ = _collect(((e.numerator * (L // e.denominator), 0, _int(c))
                           for e, c in pairs), _cut(trunc, L))
        if D is None:
            self._set(acc, L, trunc)
            return
        for q in acc:
            if q * D % L:
                raise ValueError("exponent %s not on lattice 1/%d" % (QQ(q, L), D))
        self._s = {q * D // L: sl for q, sl in acc.items()}
        self.D, self.W, self.trunc = D, 1, trunc

    def _set(self, s: _Store, D: int, trunc: Optional[QQ]) -> None:
        """Store the w^0 slices ``s`` over the least denominator their keys
        need; D is a multiple of it."""
        g = math.gcd(D, *s)
        self._s = s if g == 1 else {q // g: sl for q, sl in s.items()}
        self.D, self.W, self.trunc = D // g, 1, trunc

    @classmethod
    def _of(cls, s: _Store, D: int, trunc: Optional[QQ]) -> "QSeries":
        """The series of the w^0 slices ``s``, which hold exactly its nonzero
        terms, over keys q/D."""
        out = cls.__new__(cls)
        out._set(s, D, trunc)
        return out

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

    @property
    def terms(self) -> Dict[QQ, QQ]:
        """A Fraction copy {exponent: coefficient} of the terms, in stored order."""
        D = self.D
        return {QQ(q, D): QQ(sl[0]) for q, sl in self._s.items()}

    def coeff(self, exp: Rat) -> QQ:
        q = as_fraction(exp) * self.D
        sl = self._s.get(q.numerator) if q.denominator == 1 else None
        return QQ(sl[0]) if sl else QQ(0)

    def min_exp(self) -> QQ:
        if not self._s:
            raise EmptySeries("series has no stored terms")
        return QQ(min(self._s), self.D)

    def min_exp_bound(self) -> Optional[QQ]:
        """Lower bound for any (stored or unknown) nonzero exponent.

        Returns None for the complete zero series (no nonzero term exists).
        """
        if self._s:
            return self.min_exp()
        return self.trunc  # may be None: complete zero

    def items(self):
        return sorted(self.terms.items())

    def truncate(self, T: Rat) -> "QSeries":
        T = _min_trunc(self.trunc, as_fraction(T))
        Ti = _cut(T, self.D)
        return QSeries._of({q: sl for q, sl in self._s.items() if q < Ti}, self.D, T)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.trunc))

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
    s, D, _ = _merge(a, b, T, None)
    return QSeries._of(s, D, T)


def qs_scalar(a: QSeries, c: Rat) -> QSeries:
    return QSeries._of(*_scaled(a, c), a.trunc)


def qs_shift(a: QSeries, exp: Rat, coeff: Rat = 1) -> QSeries:
    """Multiply by the monomial coeff*q^exp (exact; shifts the truncation)."""
    exp = as_fraction(exp)
    T = None if a.trunc is None else a.trunc + exp
    return QSeries._of(*_scaled(a, coeff, exp), T)


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    ma, mb = a.min_exp_bound(), b.min_exp_bound()
    if ma is None or mb is None:
        # one factor is the complete zero series: product is exactly zero
        return QSeries.zero(None)
    T = _product_trunc(a.trunc, ma, b.trunc, mb)
    if len(a._s) > len(b._s):
        a, b = b, a
    s, D, _ = _slice_mul(a, b, T, None)
    return QSeries._of(s, D, T)


def qs_invert(a: QSeries) -> QSeries:
    """Inverse series: factor the minimal monomial, invert the unit part.

    The result r satisfies qs_mul(a, r) = 1 up to the guaranteed order
    trunc(a) - 2*min_exp(a).  A complete (untruncated) input must be a pure
    monomial; truncate first to invert a complete multi-term series.
    """
    if a.trunc is None and len(a._s) == 1:
        (e0, c0), = a.terms.items()
        return QSeries.monomial(1 / c0, -e0, None)
    return _qs_div(QSeries.one(None), a)


def _qs_div(a: QSeries, b: QSeries, trunc: Optional[QQ] = None) -> QSeries:
    """a / b below q^trunc, which defaults to the order a and b support."""
    T, s, D, _ = _slice_div(a, a.trunc, b, b.trunc, trunc)
    return QSeries.zero(None) if T is None else QSeries._of(s, D, T)


# -- the integer-lattice kernels of products and quotients ----------------------


def _slice_mul(a: _Lattice, b: _Lattice, T: Optional[QQ], F: Optional[QQ]
               ) -> Tuple[_Store, int, int]:
    """The store of a * b at q < T and w >= F (None: no cut there), and
    the denominators D and W of its keys.

    The slices of a, in stored order, meet those of b in ascending q.  A term
    or a whole slice that cancels to zero leaves the product, and re-enters
    at its end if it is produced again.
    """
    D, W = math.lcm(a.D, b.D), math.lcm(a.W, b.W)
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


def _slice_div(a: _Lattice, ta: Optional[QQ], b: _Lattice, tb: Optional[QQ],
               T: Optional[QQ] = None, F: Optional[QQ] = None
               ) -> Tuple[Optional[QQ], _Store, int, int]:
    """a / b on the box q < T, w >= F by one slice recursion, for a exact
    below q^ta and b below q^tb (None: complete).  Returns the quotient's
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
    D, W = math.lcm(a.D, b.D), math.lcm(a.W, b.W)
    A, B = a._on(D, W), b._on(D, W)
    if not A and ta is None:
        return None, {}, D, W  # exact zero numerator
    if not B:
        raise EmptySeries("cannot divide by a series with no terms")
    bi = min(B)
    beta = QQ(bi, D)
    ma = QQ(min(A), D) if A else ta
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
    if not A:
        return T, {}, D, W

    mi = min(A)
    # q-slices are steps of g/D from y0 = (mi - bi)/D
    g = math.gcd(*(q - mi for q in A), *(q - bi for q in B)) or 1
    D0 = B[bi]
    alpha, dmin = max(D0), min(D0)
    c0 = D0[alpha]
    lower = [(d, c) for d, c in D0.items() if d != alpha]
    inv_c0 = c0 if c0 in (1, -1) else 1 / QQ(c0)
    steps = sorted(((q - bi) // g, list(sl.items())) for q, sl in B.items() if q != bi)
    J = max(math.ceil((T * D - mi + bi) / g), 0)
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
    whose exponents are (6m - 1)^2 / 24.  They grow along m = 0, 1, -1, 2,
    -2, ..., so the terms are stored in ascending order."""
    N = _positive_order(N)
    cut = math.ceil(24 * N)
    s: _Store = {}
    j = 0
    while True:
        for m in (j, -j) if j else (0,):
            e = (6 * m - 1) ** 2
            if e >= cut:
                return QSeries._of(s, 24, N)
            s[e] = {0: (-1) ** j}
        j += 1


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
    stored |coefficient| (at least 1); it is 0 for complete series.

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
                c = (c << P if isinstance(c, int)
                     else ((c.numerator << (P + 1)) // c.denominator + 1) >> 1)
                sr, si = ((sr * yr - si * yi) >> P) + c, (sr * yi + si * yr) >> P
            prec, rnd = mpmath.mp._prec_rounding
            val = mpmath.mp.make_mpc((from_man_exp(sr, -P, prec, rnd),
                                      from_man_exp(si, -P, prec, rnd))) * head
        if a.trunc is None:
            tail = mpmath.mpf(0)
        else:
            # rounding is monotone, so this is the largest of the rounded |c|
            c = max((abs(sl[0]) for sl in a._s.values()), default=0)
            big = max(mpmath.mpf(1), mpmath.mpf(c.numerator) / c.denominator)
            pw, den = _tail_factors(t.imag._mpf_, a.trunc, precision + 16)
            tail = big * pw / den
        return EvalResult(+val, +tail, precision)


def qs_equal_below(a: QSeries, b: QSeries, order: Optional[Rat] = None):
    """Compare two series on all exponents below min(truncs, order).

    Returns (ok, first_discrepancy) where the discrepancy is
    (exponent, coeff_a, coeff_b) at the smallest mismatched exponent.
    """
    T = _min_trunc(a.trunc, b.trunc)
    if order is not None:
        T = _min_trunc(T, as_fraction(order))
    bad = _first_mismatch(a, b, T, None)
    return (True, None) if bad is None else (False, (bad[0],) + bad[2:])
