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
including the floor degradation of slice convolutions.

Division (:func:`wq_div`) solves D * chi = num one q-slice at a time,
chi_y = (num_(y+beta) - sum over m > 0 of D_m chi_(y-m)) / D_0, with the
step ``/ D_0`` done as descending long division by the leading w-polynomial
of the denominator, on exponents scaled to an integer lattice.  Without a
floor every slice must divide with a zero remainder, which proves the
quotient's w-support complete.  A floor is unavoidable when the quotient is
an infinite *descending* series in w, as for the characters at fractional
level: in the expansion domain 1 <= |w| <= |q|^{-1} dividing by a multi-term
leading w-slice such as w^a (1 - w^{-step}) never terminates.  Then each
slice is computed down to the floor minus the w-extent that the slices above
it can still read, so that the returned window w >= floor is exact.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Optional

from .qseries import (
    QQ,
    EmptySeries,
    QSeries,
    Rat,
    VerificationError,
    as_fraction,
    _min_trunc,
)


class InvalidIndex(ValueError):
    """Raised for theta functions with a non-positive second index."""


Slice = Dict[QQ, QQ]  # w-exponent -> coefficient


class WQSeries:
    """Truncated two-variable series, organised as q-slice -> w-polynomial."""

    __slots__ = ("terms", "q_trunc", "w_floor")

    def __init__(self, terms=(), q_trunc: Optional[Rat] = None,
                 w_floor: Optional[Rat] = None):
        if q_trunc is not None:
            q_trunc = as_fraction(q_trunc)
        if w_floor is not None:
            w_floor = as_fraction(w_floor)
        acc: Dict[QQ, Slice] = {}
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

    return WQSeries(gen(), T, F)


def wq_scalar(a: WQSeries, c: Rat) -> WQSeries:
    c = as_fraction(c)
    if c == 0:
        return WQSeries((), a.q_trunc, a.w_floor)
    terms = {qe: {we: x * c for we, x in sl.items()} for qe, sl in a.terms.items()}
    out = WQSeries.__new__(WQSeries)
    out.terms = terms
    out.q_trunc = a.q_trunc
    out.w_floor = a.w_floor
    return out


def wq_shift(a: WQSeries, q_exp: Rat, w_exp: Rat, coeff: Rat = 1) -> WQSeries:
    """Multiply by the monomial coeff * w^w_exp * q^q_exp."""
    q_exp, w_exp, coeff = as_fraction(q_exp), as_fraction(w_exp), as_fraction(coeff)
    T = None if a.q_trunc is None else a.q_trunc + q_exp
    F = None if a.w_floor is None else a.w_floor + w_exp
    terms = {}
    for qe, sl in a.terms.items():
        terms[qe + q_exp] = {we + w_exp: c * coeff for we, c in sl.items()}
    return WQSeries(terms, T, F)


def _on_lattice(a: WQSeries, q0: QQ, step: QQ, Lw: int) -> Dict[int, Dict[int, object]]:
    """Slices of ``a`` keyed by (q - q0) / step and w * Lw, both ints;
    integral coefficients become Python ints."""
    return {
        int((qe - q0) / step): {
            we.numerator * (Lw // we.denominator):
                c.numerator if c.denominator == 1 else c
            for we, c in sl.items()
        }
        for qe, sl in a.terms.items()
    }


def wq_mul(a: WQSeries, b: WQSeries) -> WQSeries:
    for x, name in ((a, "left"), (b, "right")):
        if not x.terms and x.w_floor is not None:
            raise ValueError("%s factor is empty but w-floored; product undefined" % name)
    ma, mb = a.min_q_bound(), b.min_q_bound()
    if ma is None or mb is None:
        return WQSeries((), None, None)  # exact zero factor
    cands = []
    if a.q_trunc is not None:
        cands.append(a.q_trunc + mb)
    if b.q_trunc is not None:
        cands.append(b.q_trunc + ma)
    T = min(cands) if cands else None
    # a factor with no stored terms is zero below its q_trunc at every w
    fc = []
    if a.w_floor is not None and b.terms:
        fc.append(a.w_floor + b.wmax())
    if b.w_floor is not None and a.terms:
        fc.append(b.w_floor + a.wmax())
    F = max(fc, default=None)
    # convolve on q * Q and w * W, both ints
    Q = math.lcm(*(qe.denominator for x in (a, b) for qe in x.terms))
    W = math.lcm(*(we.denominator for x in (a, b)
                   for sl in x.terms.values() for we in sl))
    Ti = None if T is None else math.ceil(T * Q)
    Fi = None if F is None else math.ceil(F * W)
    acc: Dict[int, Dict[int, object]] = {}
    b_slices = sorted(_on_lattice(b, QQ(0), QQ(1, Q), W).items())
    for qa, sla in _on_lattice(a, QQ(0), QQ(1, Q), W).items():
        for qb, slb in b_slices:
            qc = qa + qb
            if Ti is not None and qc >= Ti:
                break
            out = acc.setdefault(qc, {})
            for wa, ca in sla.items():
                for wb, cb in slb.items():
                    wc = wa + wb
                    if Fi is not None and wc < Fi:
                        continue
                    s = out.get(wc)
                    s = ca * cb if s is None else s + ca * cb
                    if s == 0:
                        del out[wc]
                    else:
                        out[wc] = s
    res = WQSeries.__new__(WQSeries)
    res.terms = {QQ(qc, Q): {QQ(wc, W): QQ(c) for wc, c in sl.items()}
                 for qc, sl in acc.items() if sl}
    res.q_trunc = T
    res.w_floor = F
    return res


def wq_scale_w(a: WQSeries, factor: Rat) -> WQSeries:
    """Multiply every w-exponent by a positive rational factor."""
    factor = as_fraction(factor)
    if factor <= 0:
        raise ValueError("w scaling factor must be positive")
    terms = {}
    for qe, sl in a.terms.items():
        terms[qe] = {we * factor: c for we, c in sl.items()}
    F = None if a.w_floor is None else a.w_floor * factor
    out = WQSeries.__new__(WQSeries)
    out.terms = terms
    out.q_trunc = a.q_trunc
    out.w_floor = F
    return out


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


class IncompleteQuotient(VerificationError):
    """Raised when an unfloored division leaves a nonzero remainder: the
    quotient has unbounded descending w-support, so a ``w_floor`` is needed."""


def wq_div(a: WQSeries, b: WQSeries, q_trunc: Optional[Rat] = None,
           w_floor: Optional[Rat] = None) -> WQSeries:
    """a / b on the box q < q_trunc, w >= w_floor, by one slice recursion.

    With b = sum over m >= 0 of D_m q^(beta + m) and leading slice
    D_0 = c0 w^alpha + (lower w-powers), the quotient solves

        chi_y = (a_(y + beta) - sum over m > 0 of D_m chi_(y - m)) / D_0

    slice by slice, and ``/ D_0`` is descending long division: the quotient
    term at w^e reads only remainder exponents >= e + alpha.  q-slices are
    integer steps from the lowest quotient slice, w-exponents are scaled to
    ints, and integral coefficients stay Python ints while c0 = +-1;
    Fractions are built only for the returned series.

    Without ``w_floor`` every slice must divide with a zero remainder, which
    proves the returned w-support complete; a nonzero remainder raises
    :class:`IncompleteQuotient`.  With ``w_floor`` F, slice y is computed
    down to F - slack(n), where n is its distance to the top slice and
    slack(n) is the largest sum of the positive w-extents max_w(D_m) - alpha
    over chains of steps m > 0 totalling <= n: that is as far below F as the
    slices above y read it, so the returned terms are exact at every w >= F.

    ``q_trunc`` defaults to, and may not exceed, the order that the boxes of
    a and b support.
    """
    if a.w_floor is not None:
        raise ValueError("dividing a w-floored series is not supported")
    ma = a.min_q_bound()
    if ma is None:
        return WQSeries((), None, None)  # exact zero numerator
    if not b.terms:
        raise EmptySeries("cannot divide by a series with no terms")
    if b.w_floor is not None:
        raise ValueError("dividing by a w-floored series is not supported")
    beta = b.min_q()
    limits = []
    if a.q_trunc is not None:
        limits.append(a.q_trunc - beta)
    if b.q_trunc is not None:
        limits.append(b.q_trunc - 2 * beta + ma)
    if q_trunc is None:
        if not limits:
            raise ValueError("q_trunc is required to divide complete series")
        T = min(limits)
    else:
        T = as_fraction(q_trunc)
        if limits and T > min(limits):
            raise ValueError(
                "requested quotient order %s exceeds the achievable %s" % (T, min(limits))
            )
    F = None if w_floor is None else as_fraction(w_floor)
    if not a.terms:
        return WQSeries((), T, F)

    y0 = ma - beta
    offsets = [qe - ma for qe in a.terms] + [qe - beta for qe in b.terms]
    L = math.lcm(*(o.denominator for o in offsets))
    step = QQ(math.gcd(*(o.numerator * (L // o.denominator) for o in offsets)) or 1, L)
    Lw = math.lcm(*(we.denominator for x in (a, b)
                    for sl in x.terms.values() for we in sl))
    A = _on_lattice(a, ma, step, Lw)
    D = _on_lattice(b, beta, step, Lw)
    D0 = D.pop(0)
    alpha, dmin = max(D0), min(D0)
    c0 = D0[alpha]
    lower = [(d, c) for d, c in D0.items() if d != alpha]
    inv_c0 = c0 if c0 in (1, -1) else 1 / QQ(c0)
    steps = sorted(D.items())
    J = max(math.ceil((T - y0) / step), 0)
    if F is not None:
        Fi = math.ceil(F * Lw)
        ext = [(m, max(sl) - alpha) for m, sl in steps if max(sl) > alpha]
        slack = [0] * max(J, 1)
        for n in range(1, J):
            slack[n] = max([e + slack[n - m] for m, e in ext if m <= n], default=0)

    chi: Dict[int, Dict[int, object]] = {}
    for j in range(J):
        rem = dict(A.get(j, ()))
        # remainder exponents below lo are never read inside the box
        lo = None if F is None else Fi - slack[J - 1 - j] + alpha
        for m, Dm in steps:
            if m > j:
                break
            for d, dc in Dm.items():
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

    terms: Dict[QQ, Slice] = {}
    for j, sl in chi.items():
        out = {QQ(e, Lw): QQ(c) for e, c in sl.items() if F is None or e >= Fi}
        if out:
            terms[y0 + j * step] = out
    res = WQSeries.__new__(WQSeries)
    res.terms = terms
    res.q_trunc = T
    res.w_floor = F
    return res


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
