"""Modular data: S and T matrices for the Virasoro, affine sl2, extended
even-subalgebra, and parafermion-coset families, Verlinde formulas (standard
and parity-refined), Frobenius-Perron dimension identities, and numeric
checks of the character S-transformations.

S-matrix entries are high-precision floating values (mpmath), not exact
cyclotomics.  Every high-precision dot product and S-matrix product (the
defects) runs on one integer kernel: each vector is shifted onto ints over
one power of two, the products are summed exactly and the sum is rounded
once, bit-identical to ``mp.fdot`` and to mpmath's matrix product; no matrix
is inverted.  No value is computed twice, and every returned bit is that of
the direct computation: an S-matrix forms its Gram product S S^dagger once
and reads S S off it when S is real and symmetric, a max-norm takes one
square root, a sine or phase table computes one value per distinct exact
argument, and each Verlinde count is a closed form.  Verlinde rings are
counted, not read off the rounded entries: every S here is a signed sine
table, times a lattice root of unity for the coset, so each Verlinde sum is
a sum of roots of unity, and ``_count`` counts it exactly, in O(1).  Each
S-matrix builder attaches the ring of its closed form as ``SMatrix.ring``;
``verlinde_standard`` returns it once S passes its unitarity gate, and
``verlinde_super`` counts its refined integers with the same kernel.
``fp_dimension_report`` builds only the S columns it reads.  The default
working precision is 256 bits and derived tolerances are 10^(1 - precision/4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (from_man_exp, fzero, mpf_abs, mpf_add, mpf_lt,
                          mpf_mul, mpf_sqrt)

from .characters import (AdmissibleLevel, VirLabel, component_chars_w1,
                         vir_canonical, vir_central_charge, vir_labels,
                         vir_weight)
from .fusion import (FusionTensor, OutOfRange, SuperFusionEntry, _intertwiners,
                     check_level, coset_labels)
from .qseries import (NonconvergentDomain, VerificationError, _positive_order,
                      qs_eval)


class NonIntegralFusion(VerificationError):
    """Raised when a Verlinde ring is refused: its S-matrix fails the
    unitarity gate that ties the rows to the closed form the ring is counted
    from, or a counted ring differs from the fusion tensor it must equal."""


def derived_tolerance(precision: int):
    """Default numeric tolerance 10^(1 - precision/4) at the given bits.

    Raises ValueError when that is not below 1 (precision <= 4 bits): every
    check gated by such a tolerance would pass whatever it compared.
    """
    with mp.workprec(precision + 16):
        tol = mp.mpf(10) ** (1 - Fraction(precision, 4))
    if tol >= 1:
        raise ValueError("precision %d bits gives tolerance %s, not below 1; "
                         "need at least 5 bits" % (precision, mp.nstr(tol, 3)))
    return tol


def _mpq(x) -> mpmath.mpf:
    x = Fraction(x)
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _max_defect(A, B):
    """Max-norm of A - B over row lists of equal shape, at the caller's
    working precision; bit-identical to max(abs(a - b)).

    abs of an mpc is mpf_hypot: |x| when a part is zero, else the sqrt of
    x^2 + y^2 rounded at prec + 4.  Both roundings are monotone, so the max
    is the larger of the max |x| over the entries with a zero part and one
    sqrt of the largest square sum over the others.
    """
    prec, rnd = mp._prec_rounding
    d, sq = fzero, None
    for ra, rb in zip(A, B, strict=True):
        for a, b in zip(ra, rb, strict=True):
            v = a - b
            x, y = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, fzero)
            if y == fzero or x == fzero:
                x = mpf_abs(x if y == fzero else y, prec, rnd)
                if mpf_lt(d, x):
                    d = x
            else:
                x = mpf_add(mpf_mul(x, x), mpf_mul(y, y), prec + 4)
                if sq is None or mpf_lt(sq, x):
                    sq = x
    if sq is not None:
        x = mpf_sqrt(sq, prec, rnd)
        if mpf_lt(d, x):
            d = x
    return mp.make_mpf(d)


def _identity(n: int) -> List[List[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


# -- exact dot products ---------------------------------------------------------
#
# mp.fdot forms every product exactly, adds them with mpf_sum and rounds the
# sum once; mpmath's matrix product is one fdot per entry.  mpf_sum adds
# exactly unless a term and the running sum lie more than 2 prec bits apart
# (it then keeps the larger), which rounded S-matrix data never comes near.
# So the exact sum of the int products of two vectors, each shifted onto one
# power of two, rounded once, has the same bits, at the cost of one shift per
# entry instead of one mpf tuple per product.  The result is an mpc exactly
# when fdot's would be: when either vector holds an mpc.


def _ints(ts):
    """Raw mpf tuples as exact ints over their least exponent: (ints, e)."""
    if any(exp and not man for _, man, exp, _ in ts):
        raise ValueError("non-finite value in an exact dot product")
    e = min((exp for _, man, exp, _ in ts if man), default=0)
    return [(-man if sign else man) << (exp - e) if man else 0
            for sign, man, exp, _ in ts], e


def _fixed(vec, conj: bool = False):
    """Vector of mpf/mpc values as (re, im, re + im, e): vec[i] = (re[i] +
    i im[i]) 2^e.

    re, im and their sum are int lists, exact; im and the sum are None when
    no entry is an mpc, and im is negated with ``conj``.
    """
    parts = [v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, None) for v in vec]
    if all(b is None for _, b in parts):
        re, e = _ints([a for a, _ in parts])
        return re, None, None, e
    n = len(parts)
    ints, e = _ints([a for a, _ in parts] + [b or fzero for _, b in parts])
    re, im = ints[:n], ints[n:]
    if conj:
        im = [-v for v in im]
    return re, im, [a + b for a, b in zip(re, im)], e


def _dot(x, y):
    """mp.fdot of the two vectors behind ``_fixed`` forms x and y.

    Two complex vectors take three exact sums (Gauss): with P = xr.yr,
    Q = xi.yi and R = (xr + xi).(yr + yi), re = P - Q and im = R - P - Q.
    """
    (xr, xi, xs, ex), (yr, yi, ys, ey) = x, y
    prec, rnd = mp._prec_rounding
    e = ex + ey
    re = sum(map(mul, xr, yr))
    if xi is None and yi is None:
        return mp.make_mpf(from_man_exp(re, e, prec, rnd))
    if xi is None:
        im = sum(map(mul, xr, yi))
    elif yi is None:
        im = sum(map(mul, xi, yr))
    else:
        q = sum(map(mul, xi, yi))
        re, im = re - q, sum(map(mul, xs, ys)) - re - q
    return mp.make_mpc((from_man_exp(re, e, prec, rnd),
                        from_man_exp(im, e, prec, rnd)))


def _product(A, B, adjoint: bool = False):
    """A B (A B^dagger with ``adjoint``) on row lists, entry for entry as
    mpmath's matrix product rounds it at the working precision."""
    cols = [_fixed(r, conj=True) for r in B] if adjoint else [_fixed(c) for c in zip(*B)]
    return _times(A, cols)


def _times(A, cols):
    """A times the columns ``cols``, given in ``_fixed`` form."""
    return [[_dot(r, c) for c in cols] for r in map(_fixed, A)]


class SMatrix:
    """Square matrix of high-precision S-transformation coefficients.

    ``ring``, when set, is a zero-argument callable returning the Verlinde
    ring of the closed form the rows are built from, over ``labels`` in
    their order.  The Gram product S S^dagger and the unitarity defect are
    computed on first use and kept, so the rows and precision are fixed
    once a matrix is built.
    """

    __slots__ = ("labels", "rows", "vacuum_index", "precision", "ring", "_index",
                 "_gram", "_unitarity")

    def __init__(self, labels: Sequence[Hashable], rows, vacuum_index: int,
                 precision: int, ring: Optional[Callable[[], FusionTensor]] = None):
        self.labels = tuple(labels)
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("S-matrix must be square over its labels")
        self.vacuum_index = vacuum_index
        self.precision = precision
        self.ring = ring
        self._index = {a: i for i, a in enumerate(self.labels)}
        self._gram = self._unitarity = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, a) -> int:
        if a not in self._index:
            raise OutOfRange("label %r is not in the matrix" % (a,))
        return self._index[a]

    def entry(self, a, b):
        return self.rows[self.index(a)][self.index(b)]

    def _gram_product(self):
        """S S^dagger at precision + 16 bits, computed once."""
        if self._gram is None:
            with mp.workprec(self.precision + 16):
                self._gram = _product(self.rows, self.rows, adjoint=True)
        return self._gram

    def _square(self):
        """S S at precision + 16 bits.  When every entry is an mpf and the
        rows are the columns bit for bit, each column of S is the
        conjugated row and S S is the Gram product; that is checked on the
        rows, not assumed."""
        rows = self.rows
        if (not any(hasattr(v, "_mpc_") for row in rows for v in row)
                and all(a._mpf_ == b._mpf_ for row, col in zip(rows, zip(*rows))
                        for a, b in zip(row, col))):
            return self._gram_product()
        with mp.workprec(self.precision + 16):
            return _product(rows, rows)

    def unitarity_defect(self):
        """Max-norm of S S^dagger - I."""
        if self._unitarity is None:
            with mp.workprec(self.precision + 16):
                self._unitarity = _max_defect(self._gram_product(),
                                              _identity(self.n))
        return self._unitarity

    def symmetry_defect(self):
        with mp.workprec(self.precision + 16):
            return _max_defect(self.rows, zip(*self.rows))

    def square_defect_from_identity(self):
        """Max-norm of S^2 - I (for the real involutive matrices here)."""
        with mp.workprec(self.precision + 16):
            return _max_defect(self._square(), _identity(self.n))


class TMatrix:
    """Diagonal matrix of phases e^{2 pi i (h - c/24)}."""

    __slots__ = ("labels", "weights", "central_charge", "precision", "_index",
                 "label_flags")

    def __init__(self, labels: Sequence[Hashable], weights: Sequence[Fraction],
                 central_charge: Fraction, precision: int,
                 label_flags: Optional[Dict] = None):
        self.labels = tuple(labels)
        self.weights = tuple(Fraction(h) for h in weights)
        if len(self.labels) != len(self.weights):
            raise ValueError("one conformal weight per label required")
        self.central_charge = Fraction(central_charge)
        self.precision = precision
        self._index = {a: i for i, a in enumerate(self.labels)}
        self.label_flags = dict(label_flags) if label_flags else None

    @property
    def n(self) -> int:
        return len(self.labels)

    def exponent(self, a) -> Fraction:
        """h_a - c/24, the rational exponent of the phase."""
        if a not in self._index:
            raise OutOfRange("label %r is not in the matrix" % (a,))
        return self.weights[self._index[a]] - self.central_charge / 24

    def phase(self, a):
        with mp.workprec(self.precision + 16):
            e = self.exponent(a)
            return mp.expjpi(2 * _mpq(e))


def st_cube_defect(S: SMatrix, T: TMatrix):
    """Max-norm of (ST)^3 - S^2; label orders must coincide.

    S T scales column j of S by the phase of label j: one rounded product
    per entry, bit-identical to the dense product with the diagonal T,
    whose other terms are exact zeros.  The columns of ST are put in
    ``_fixed`` form once and serve both products, and S^2 is read off the
    Gram product when S is real and symmetric.
    """
    if S.labels != T.labels:
        raise ValueError("S and T label orders differ")
    with mp.workprec(S.precision + 16):
        phases = [T.phase(a) for a in T.labels]
        ST = [[v * ph for v, ph in zip(row, phases)] for row in S.rows]
        cols = [_fixed(c) for c in zip(*ST)]
        return _max_defect(_times(_times(ST, cols), cols), S._square())


# -- family S-matrices --------------------------------------------------------


def vir_smatrix(u: int, p: int, precision: int = 256) -> SMatrix:
    """Virasoro minimal-model S-matrix on canonical labels.

    S_{(r,s),(r',s')} = (-1)^(r s' + s r') * pref * sin(pi p r r'/u)
    * sin(pi u s s'/p), with pref = -2 / sqrt(u p / 2).  The sines come from
    two tables built once per call, sr[r][r'] = pref * sin(pi p r r'/u)
    (u-1 by u-1) and ss[s][s'] = sin(pi u s s'/p) (p-1 by p-1), so each
    value is one multiply sr * ss, negated for odd r s' + s r'.  That is
    bit-identical to the per-entry ((pref * sign) * sin_r) * sin_s: pref *
    sign is exact, and rounding to nearest commutes with negation.

    Representative independence is checked on the tables, once per table
    entry: sr[u-r][r'] = (-1)^(p r'+1) sr[r][r'] within e_r and
    ss[p-s][s'] = (-1)^(u s'+1) ss[s][s'] within e_s.  As (u-r) s' +
    (p-s) r' + (p r'+1) + (u s'+1) = r s' + s r' (mod 2), the two
    representatives of any row label then give entries that differ by at
    most e_r max|ss| + e_s max|sr| + e_r e_s, plus the rounding of the two
    products; that sum must stay within the derived tolerance, so a
    representative-dependence bug cannot pass silently.
    """
    labels = vir_labels(u, p)
    rows = _vir_columns(u, p, labels, range(1, u), range(1, p), precision)
    return SMatrix(labels, rows, labels.index(VirLabel(1, 1)), precision,
                   ring=lambda: _vir_ring(u, p))


def _vir_columns(u: int, p: int, cols, r_cols, s_cols, precision: int):
    """The rows of ``vir_smatrix(u, p)`` cut to the column labels ``cols``.

    The sine tables hold the columns r' in ``r_cols`` and s' in ``s_cols``,
    which must cover those of ``cols``; the Kac reflection is checked on
    every sine computed, as ``vir_smatrix`` describes, with the maxima taken
    over the tabled columns.
    """
    labels = vir_labels(u, p)
    tol = derived_tolerance(precision)
    with mp.workprec(precision + 16):
        pref = -2 / mp.sqrt(mp.mpf(u * p) / 2)
        sin_r, sin_s = _Sines(u), _Sines(p)
        sr = [{r2: pref * sin_r[p * r * r2] for r2 in r_cols} for r in range(1, u)]
        ss = [{s2: sin_s[u * s * s2] for s2 in s_cols} for s in range(1, p)]
        e_r, e_s = _reflection_defect(sr, p), _reflection_defect(ss, u)
        m_r, m_s = (max(abs(v) for row in t for v in row.values()) for t in (sr, ss))
        spread = e_r * m_s + e_s * m_r + e_r * e_s + 2 * mp.eps * m_r * m_s
        if spread > tol:
            raise VerificationError(
                "S-matrix not representative-independent: the Kac reflection "
                "moves an entry by up to %s > %s"
                % (mp.nstr(spread, 5), mp.nstr(tol, 5)))
        rows = []
        for a in labels:
            sr_a, ss_a = sr[a.r - 1], ss[a.s - 1]
            row = []
            for b in cols:
                v = sr_a[b.r] * ss_a[b.s]
                row.append(-v if (a.r * b.s + a.s * b.r) % 2 else v)
            rows.append(row)
    return rows


class _Sines(dict):
    """sin(pi x/m) by the integer x, one ``mp.sinpi`` per distinct x, at
    the working precision of first use: the same bits as the per-entry
    ``mp.sinpi(mp.mpf(x) / m)``."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, x: int):
        v = self[x] = mp.sinpi(mp.mpf(x) / self.m)
        return v


def _reflection_defect(table, m: int):
    """Max over x = 1..n-1 and the tabled y of |t(n-x, y) - (-1)^(m y + 1)
    t(x, y)|, with t(x, y) = table[x-1][y] on the n-1 rows of the table."""
    d = mp.mpf(0)
    for row, mirror in zip(table, reversed(table)):
        for y, v in row.items():
            w = mirror[y]
            d = max(d, abs(w + v if (m * y) % 2 == 0 else w - v))
    return d


def sl2_smatrix(k: int, precision: int = 256) -> SMatrix:
    """Integrable affine sl2 S-matrix, labels 1..k+1."""
    check_level(k)
    labels = list(range(1, k + 2))
    return SMatrix(labels, _sl2_columns(k, labels, precision), 0, precision,
                   ring=lambda: _sl2_ring(k))


def _sl2_columns(k: int, cols, precision: int):
    """The rows of ``sl2_smatrix(k)`` cut to the column labels ``cols``."""
    with mp.workprec(precision + 16):
        pref = mp.sqrt(mp.mpf(2) / (k + 2))
        sines = _Sines(k + 2)
        return [[pref * sines[a * b] for b in cols] for a in range(1, k + 2)]


def s_small(k: int, r: int, r_prime: int, precision: int = 256):
    """Signed sine coefficient driving the extended-family modular data."""
    check_level(k)
    for t in (r, r_prime):
        if not isinstance(t, int) or not (1 <= t <= 2 * k + 2):
            raise OutOfRange("label %r outside [1, %d]" % (t, 2 * k + 2))
    with mp.workprec(precision + 16):
        sign = -1 if (r + r_prime) % 2 else 1
        return (sign / mp.sqrt(mp.mpf(2 * k + 3))
                * mp.sinpi(mp.mpf(r * r_prime * (k + 2)) / (2 * k + 3)))


def s_table(k: int, precision: int = 256) -> List[List[mpmath.mpf]]:
    """The sine coefficients as rows: s_table(k)[r-1][t-1] = s_small(k, r, t).

    1/sqrt(2k+3) is taken once; -1/x rounds to -(1/x), so each entry is
    bit-identical to s_small's.
    """
    check_level(k)
    return _s_columns(k, range(1, 2 * k + 3), precision)


def _s_columns(k: int, cols, precision: int) -> List[List[mpmath.mpf]]:
    """The rows of ``s_table(k)`` cut to the columns t in ``cols``."""
    n = 2 * k + 3
    with mp.workprec(precision + 16):
        inv = 1 / mp.sqrt(mp.mpf(n))
        sines = _Sines(n)
        return [[(-inv if (r + t) % 2 else inv) * sines[r * t * (k + 2)]
                 for t in cols] for r in range(1, n)]


def extended_labels(k: int) -> List[Tuple[int, str]]:
    rng = range(1, 2 * k + 3)
    return [(r, "even") for r in rng] + [(r, "odd") for r in rng]


def extended_smatrix(k: int, precision: int = 256) -> SMatrix:
    """S-matrix over the even/odd components of the 2k+2 modules.

    Blocks: even-even is the signed sine table itself; even-odd carries the
    sign of the even label's parity; odd-odd carries the sign of the total
    parity.
    """
    labels = extended_labels(k)
    check_level(k)
    rows = _extended_columns(k, labels, precision)
    return SMatrix(labels, rows, labels.index((1, "even")), precision)


def _extended_columns(k: int, cols, precision: int):
    """The rows of ``extended_smatrix(k)`` cut to the column labels ``cols``.
    Entry ((r, pa), (t, pb)) is s_{r,t}, negated when r (for odd pb) plus t
    (for odd pa) is odd."""
    t_cols = sorted({t for t, _ in cols})
    base = _s_columns(k, t_cols, precision)
    at = {t: j for j, t in enumerate(t_cols)}
    with mp.workprec(precision + 16):
        rows = []
        for (r, pa) in extended_labels(k):
            row = []
            for (t, pb) in cols:
                v = base[r - 1][at[t]]
                flip = (r if pb == "odd" else 0) + (t if pa == "odd" else 0)
                row.append(-v if flip % 2 else v)
            rows.append(row)
    return rows


# -- Verlinde formulas --------------------------------------------------------


def _count(m: int, h: int, a: int, b: int, c: int, shift: int = 0) -> int:
    """Sum over e, e' = +-1 and j < c of e e' [2m | hE + shift], where
    E = e a + e' b + c - 1 - 2j: every Verlinde sum here, counted exactly.

    With theta = pi t h/m and z = e^(i theta), sin(c theta)/sin(theta) =
    sum over j < c of z^(c-1-2j) and sin(a theta) sin(b theta) = -1/4 sum
    over e, e' of e e' z^(e a + e' b), so
    sin(a theta) sin(b theta) sin(c theta)/sin(theta) = -1/4 sum e e' z^E.
    Summed over t in Z/2m against the character e^(i pi t shift/m), each
    z^E gives 2m [2m | hE + shift]: the sum is -(m/2) _count.  Let
    gcd(h, m) = 1, so sin(theta) != 0 for 0 < t < m, and let m divide
    shift, so the character is (-1)^(t shift/m).  The summand is then even
    and 2m-periodic in t and vanishes at t = 0 and t = m, so
        sum over t = 1..m-1 of (-1)^(t shift/m) sin(a theta) sin(b theta)
        sin(c theta)/sin(theta) = -(m/4) _count(m, h, a, b, c, shift).
    The count is even: (e, e', j) and (-e, -e', c-1-j) count alike.

    Each (e, e') term is counted in O(1).  With E0 = e a + e' b + c - 1,
    hE + shift = (hE0 + shift) - 2hj, so 2m divides it iff hE0 + shift = 2t
    is even and m divides t - hj, that is j = t h^-1 (mod m) as
    gcd(h, m) = 1: the j < c in that class are range(t h^-1 mod m, c, m).
    """
    h_inv = pow(h, -1, m)
    total = 0
    for e in (1, -1):
        for e2 in (1, -1):
            t, odd = divmod(h * (e * a + e2 * b + c - 1) + shift, 2)
            if not odd:
                total += e * e2 * len(range(t * h_inv % m, c, m))
    return total


def _sl2_ring(k: int) -> FusionTensor:
    """The Verlinde ring of ``sl2_smatrix(k)``'s closed form.

    With m = k+2, S_ab = sqrt(2/m) sin(pi a b/m) is real orthogonal, so
    N_ab^c = (2/m) sum over x = 1..m-1 of sin(a theta) sin(b theta)
    sin(c theta)/sin(theta) at theta = pi x/m, that is
    -1/2 _count(m, 1, a, b, c).
    """
    m = k + 2
    labels = range(1, m)
    return FusionTensor(labels, 1, {(a, b, c): -_count(m, 1, a, b, c) // 2
                                    for a in labels for b in labels
                                    for c in labels})


def _vir_ring(u: int, p: int) -> FusionTensor:
    """The Verlinde ring of ``vir_smatrix(u, p)``'s closed form.

    S is real orthogonal, so N_ab^c = sum over canonical x of
    S_ax S_bx S_cx / S_1x.  Each row and column of S is invariant under the
    Kac reflection, which fixes no label, so this is half the sum over the
    whole Kac table (r', s').  With R = r_a + r_b + r_c - 1 and
    Sigma = s_a + s_b + s_c - 1 the summand is pref^2 = 8/(u p) times
    (-1)^(Sigma r') sin(r_a th) sin(r_b th) sin(r_c th)/sin(th) at
    th = pi p r'/u, times the like factor (-1)^(R s') in s' at
    th = pi u s'/p.  As (-1)^(Sigma r') = (-1)^(r' (u Sigma)/u), the r' sum
    is -(u/4) _count(u, p, r_a, r_b, r_c, u Sigma) and the s' sum likewise,
    so for odd and even p alike
        N = 1/4 _count(u, p, r_a, r_b, r_c, u Sigma)
            _count(p, u, s_a, s_b, s_c, p R).
    Each factor depends only on its own triple and the parity of the other
    sum, so both are tabled, and only the (r_c, s_c) where each factor is
    nonzero for some parity are visited.
    """
    labels = vir_labels(u, p)
    # fr[a, b]: the (c, (factor at even, at odd parity)) with a nonzero
    # factor, c ascending; fr for the r' sum, fs for the s' sum
    fr, fs = (_parity_factors(m, h) for m, h in ((u, p), (p, u)))
    coeffs = {}
    for A in labels:
        for B in labels:
            r_ab, s_ab = A.r + B.r - 1, A.s + B.s - 1
            for rc, vr in fr[A.r, B.r]:
                for sc, vs in fs[A.s, B.s]:
                    n = vr[(s_ab + sc) % 2] * vs[(r_ab + rc) % 2]
                    if n and (rc, sc) <= (u - rc, p - sc):
                        coeffs[A, B, VirLabel(rc, sc)] = n // 4
    return FusionTensor(labels, VirLabel(1, 1), coeffs)


def _parity_factors(m: int, h: int):
    """(a, b) -> [(c, (_count(m, h, a, b, c), _count(m, h, a, b, c, m)))]
    over 1 <= a, b, c < m, keeping the c where either count is nonzero."""
    rng = range(1, m)
    out = {}
    for a in rng:
        for b in rng:
            row = out[a, b] = []
            for c in rng:
                f = (_count(m, h, a, b, c), _count(m, h, a, b, c, m))
                if any(f):
                    row.append((c, f))
    return out


def verlinde_standard(S: SMatrix) -> FusionTensor:
    """The Verlinde ring of S, over S.labels in their order.

    The ring is ``S.ring()``, counted exactly from the closed form the rows
    of S are built from; its one numeric tie to the built rows is the
    unitarity gate: NonIntegralFusion is raised when max|S S^dagger - I|
    exceeds the derived tolerance.  An S with no ring raises ValueError.
    """
    tol = derived_tolerance(S.precision)
    defect = S.unitarity_defect()
    if defect > tol:
        raise NonIntegralFusion(
            "S-matrix unitarity defect %s exceeds %s"
            % (mp.nstr(defect, 5), mp.nstr(tol, 5)))
    if S.ring is None:
        raise ValueError("the S-matrix has no closed form to count its "
                         "Verlinde ring from")
    return S.ring()


def _defect_norm_bound(n: int, s_max, defect, precision: int):
    """Bound on the inf- and 2-norms of S S^dagger - I (or S^2 - I) from
    ``defect``, their max-norm computed at precision + 16 bits: each entry
    of S S^dagger, at most n s_max^2, is rounded once, then I subtracted."""
    return n * (defect + 4 * mp.ldexp(1, -precision - 15) * (n * s_max ** 2 + 1))


@dataclass(frozen=True)
class SuperVerlinde:
    """Parity-refined Verlinde output for the superalgebra family.

    ``n_plus`` holds the total intertwiner dimensions (even-index sums),
    ``n_minus`` the signed dimensions before parity decoration (odd-index
    sums), an equal dict, as ``verlinde_super`` proves; ``entry`` decorates
    them into SuperFusionEntry values.
    """

    k: int
    precision: int
    n_plus: Dict[Tuple[int, int, int], int]
    n_minus: Dict[Tuple[int, int, int], int]
    stilde: SMatrix
    stilde_involution_defect: object
    stilde_inverse_defect: object

    def entry(self, r: int, eps: int, r2: int, eps2: int, r3: int,
              eps3: int) -> SuperFusionEntry:
        for e in (eps, eps2, eps3):
            if e not in (1, -1):
                raise OutOfRange("parity signs must be +1 or -1")
        nmax = 2 * self.k + 2
        for t in (r, r2, r3):
            if not (1 <= t <= nmax):
                raise OutOfRange("label %r outside [1, %d]" % (t, nmax))
        total = self.n_plus.get((r, r2, r3), 0)
        sdim = eps * eps2 * eps3 * self.n_minus.get((r, r2, r3), 0)
        return _intertwiners((total + sdim) // 2, (total - sdim) // 2)


def _stilde_from_table(s, precision: int) -> SMatrix:
    """S-matrix in the (plus, minus) basis from the sine table ``s``: entry
    ((r, a), (t, b)) is 2 s_{r,t} when t is even exactly for a = '+' and r
    is even exactly for b = '+', and 0 otherwise."""
    rng = range(1, len(s) + 1)
    labels = [(r, "+") for r in rng] + [(r, "-") for r in rng]
    with mp.workprec(precision + 16):
        rows = [[2 * s[r - 1][t - 1]
                 if (t % 2 == 0) == (a == "+") and (r % 2 == 0) == (b == "+")
                 else mp.mpf(0) for (t, b) in labels] for (r, a) in labels]
    return SMatrix(labels, rows, labels.index((1, "+")), precision)


@functools.lru_cache(maxsize=16)
def _check_stilde(k: int, precision: int) -> SMatrix:
    """S~ as ``check_s_transform_numeric`` reads it, built once per (k,
    precision) and shared: its callers only read labels, rows and index.
    ``verlinde_super`` builds its own, which it returns."""
    return _stilde_from_table(s_table(k, precision), precision)


def verlinde_super(k: int, precision: int = 256) -> SuperVerlinde:
    """Parity-refined Verlinde data in the changed (plus/minus) basis.

    For r + r' + r'' odd, N^{+} = 4 * sum over even t of s_{r,t} s_{r',t}
    s_{r'',t} / s_{1,t} and N^{-}, the same over odd t (t = 1..n-1,
    n = 2k+3), are counted exactly, with no float and no gate.  With
    h = k+2, s_{r,t} = (-1)^(r+t) n^(-1/2) sin(r theta), theta = pi t h/n,
    and the signs cancel.  Each t-parity class of 1..n-1 is half the sum
    over 1..n-1 under the projector (1 +- (-1)^t)/2, and by ``_count`` the
    plain part is -1/4 _count(n, h, r, r', r'') and the (-1)^t part
    -1/4 _count(n, h, r, r', r'', n), which is 0: E is even, so hE + n is
    odd.  Hence N^{+} = N^{-} = -1/2 _count(n, h, r, r', r'').  As
    gcd(h, 2n) <= 2 (n = 2h - 1) and E is even, [2n | hE] = [2n | E]: the
    refined ring is the sl2 window rule of height n.

    The basis-changed matrix M is built from the sine table; its
    involution defect max|M^2 - I| is reported with a proven bound on
    |M^-1 - M| derived from it, so no inverse is formed.
    """
    check_level(k)
    n, h = 2 * k + 3, k + 2
    St = _stilde_from_table(s_table(k, precision), precision)
    with mp.workprec(precision + 16):
        invol_defect = St.square_defect_from_identity()
        # E = M^2 - I gives M^-1 - M = -M E (I + E)^-1, so
        # |M^-1 - M|_max <= |M|_inf |E|_inf / (1 - |E|_inf)
        with mp.workprec(precision + 48):
            m_max = max(abs(v) for row in St.rows for v in row)
            delta = _defect_norm_bound(St.n, m_max, invol_defect, precision)
            if delta >= 1:
                raise NonIntegralFusion("the basis-changed matrix is no involution")
            inv_defect = max(sum(map(abs, r)) for r in St.rows) * delta / (1 - delta)
    rng = range(1, n)
    n_plus = {}
    for r in rng:
        for r2 in rng:
            for r3 in range(1 + (r + r2) % 2, n, 2):  # r + r2 + r3 odd
                count = _count(n, h, r, r2, r3)
                if count:
                    n_plus[(r, r2, r3)] = -count // 2
    return SuperVerlinde(k, precision, n_plus, dict(n_plus), St, invol_defect,
                         inv_defect)


# -- Frobenius-Perron identities ----------------------------------------------


@dataclass(frozen=True)
class FPItem:
    name: str
    computed: object
    closed_form: object
    difference: object
    tolerance: object
    ok: bool


@dataclass(frozen=True)
class FPReport:
    k: int
    precision: int
    items: Tuple[FPItem, ...]

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)

    def item(self, name: str) -> FPItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def _column_ratios(labels, rows, z: int, vac: int) -> Dict[Hashable, mpmath.mpf]:
    """The ring character X -> S[X, Z] / S[vac, Z] at reference column z."""
    return {a: row[z] / rows[vac][z] for a, row in zip(labels, rows)}


def min_conformal_weight(u: int, p: int) -> VirLabel:
    """Canonical label minimizing the conformal weight (brute force)."""
    if p != 2 * u - 1 or u < 3:
        raise ValueError("expected (u, p) = (k+2, 2k+3) for some k >= 1")
    labels = vir_labels(u, p)
    return min(labels, key=lambda l: (vir_weight(u, p, l.r, l.s), (l.r, l.s)))


def vir_weight_map(u: int, p: int) -> Dict[VirLabel, Fraction]:
    return {l: vir_weight(u, p, l.r, l.s) for l in vir_labels(u, p)}


def fp_dimension_report(k: int, precision: int = 256) -> FPReport:
    """Dimension identities for the even subalgebra and its categories.

    Each item is computed along an independent route (angle sums or
    S-matrix column ratios) and compared against its closed form:

    i.   sums of sin^2(pi l/(k+2)) over odd l and over all l;
    ii.  dimension of the even subalgebra object;
    iii. ambient-category dimension (product of the two factor categories);
    iv.  extended-category dimension via extended S-matrix ratios;
    v.   the quotient identity linking ii-iv.

    Only the S columns read are built: column 1 of the sl2 matrix, the
    Virasoro column at ``min_conformal_weight(u, p)`` from u-1 + p-1 sines
    (their Kac reflection checked as in ``vir_smatrix``), and column
    (2, 'even') of the extended matrix from one column of ``s_table``.
    Each entry is the expression the full matrix uses, so every item is
    bit-identical to the column ratios of the full matrices.
    """
    check_level(k)
    u, p = k + 2, 2 * k + 3
    tol = derived_tolerance(precision)
    items = []

    def add(name, computed, closed):
        diff = abs(computed - closed)
        items.append(FPItem(name, computed, closed, diff, tol, diff <= tol))

    with mp.workprec(precision + 16):
        # (i) angle sums, one sin^2(pi l/u) per l, odd l at even index
        sines = [mp.sinpi(mp.mpf(l) / u) for l in range(1, u)]
        squares = [v ** 2 for v in sines]
        odd_sum = mp.fsum(squares[::2])
        full_sum = mp.fsum(squares)
        add("sin2_odd_sum", odd_sum, mp.mpf(u) / 4)
        add("sin2_full_sum", full_sum, mp.mpf(u) / 2)

        # S-matrix columns shared by (ii)-(iv); both vacua are row 0
        z = min_conformal_weight(u, p)
        fp_sl2 = _column_ratios(range(1, u), _sl2_columns(k, (1,), precision), 0, 0)
        fp_vir = _column_ratios(vir_labels(u, p), _vir_columns(
            u, p, (z,), (z.r,), (z.s,), precision), 0, 0)
        sin_u = sines[0]
        sin_p = mp.sinpi(mp.mpf(1) / p)

        # (ii) even-subalgebra dimension: sum over odd l of FP(L_l) FP(V_{l,1})
        dim_even = mp.fsum(fp_sl2[l] * fp_vir[vir_canonical(u, p, l, 1)]
                           for l in range(1, u) if l % 2 == 1)
        dim_even_closed = mp.mpf(u) / (4 * sin_u ** 2)
        add("dim_even", dim_even, dim_even_closed)

        # (iii) ambient category dimension: product of factor dimensions
        amb = (mp.fsum(v ** 2 for v in fp_sl2.values())
               * mp.fsum(v ** 2 for v in fp_vir.values()))
        amb_closed = mp.mpf(u * u * p) / (16 * sin_u ** 4 * sin_p ** 2)
        add("fp_ambient", amb, amb_closed)

        # (iv) extended category dimension via extended S-column ratios
        fp_ext = _column_ratios(extended_labels(k), _extended_columns(
            k, ((2, "even"),), precision), 0, 0)
        ext = mp.fsum(v ** 2 for v in fp_ext.values())
        ext_closed = mp.mpf(p) / sin_p ** 2
        add("fp_extended", ext, ext_closed)

        # (v) quotient identity among the computed (route-A) values
        add("fp_quotient", ext, amb / dim_even ** 2)

    return FPReport(k, precision, tuple(items))


# -- T-matrices ----------------------------------------------------------------


def t_matrix(family: str, params, precision: int = 256) -> TMatrix:
    """Diagonal T-matrix for a family, with labels ordered to match the
    corresponding S-matrix.

    families: 'vir' with params (u, p); 'sl2' with params k; 'extended'
    with params k (even/odd components, locality flags recomputed from the
    weights); 'coset' with params k, labels ``fusion.coset_labels(k)``.
    """
    if family == "vir":
        u, p = params
        labels = vir_labels(u, p)
        weights = [vir_weight(u, p, l.r, l.s) for l in labels]
        return TMatrix(labels, weights, vir_central_charge(u, p), precision)
    if family == "sl2":
        k = params
        level = AdmissibleLevel.from_integer_level(k)
        labels = list(range(1, k + 2))
        weights = [level.h_sl2(r) for r in labels]
        return TMatrix(labels, weights, level.c_sl2, precision)
    if family == "extended":
        k = params
        level = AdmissibleLevel.from_integer_level(k)
        labels = extended_labels(k)
        weights = [
            level.component_weight(1 if par == "even" else 2, r)
            for (r, par) in labels
        ]
        flags = {}
        for r in range(1, 2 * k + 3):
            gap = level.component_weight(2, r) - level.component_weight(1, r)
            flags[r] = "local" if gap.denominator == 1 else "twisted"
        return TMatrix(labels, weights, level.c_osp, precision, label_flags=flags)
    if family == "coset":
        k = params
        level = AdmissibleLevel.from_integer_level(k)
        labels = coset_labels(k)
        weights = [
            level.component_weight(1, r) - Fraction(nu * nu, 4 * k)
            for (nu, r) in labels
        ]
        return TMatrix(labels, weights, level.c_osp - 1, precision)
    raise ValueError("unknown family %r" % (family,))


# -- numeric S-transformation check --------------------------------------------


@dataclass(frozen=True)
class STransformEntry:
    r: int
    variant: str  # 'plus' or 'minus'
    residual: object
    tail_bound: object
    tolerance: object
    ok: bool


@dataclass(frozen=True)
class STransformReport:
    k: int
    tau0: object
    order: Fraction
    precision: int
    entries: Tuple[STransformEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def max_residual(self):
        return max(e.residual for e in self.entries)


def check_s_transform_numeric(k: int, tau0, N, precision: int = 256
                              ) -> STransformReport:
    """Numeric check of the one-variable character S-transformations.

    The characters are keyed by the labels of the plus/minus S-matrix S~
    of ``verlinde_super``: (r, '+') is the plain specialised character of
    module r, (r, '-') the signed one.  For each label (r, a), r first,
    then plus, then minus, its character at -1/tau0 is compared against
    the sum over the nonzero entries of S~'s row (r, a) of the entry times
    the character of its column at tau0.  Truncation tails enter the
    per-entry tolerance.  Raises ValueError for an order N <= 0, and for
    an order at which a character the check reads has no term below q^N:
    an empty series leaves nothing to compare.  S~ is built once per (k,
    precision) and each series is evaluated by one ``qs_eval`` call per
    tau, whose memo shares the transcendentals of a tau between series.
    """
    level = AdmissibleLevel.from_integer_level(k)
    N = _positive_order(N)
    chars = component_chars_w1(level, N)
    empty = [r for r, pair in sorted(chars.items()) if any(ch.is_zero for ch in pair)]
    if empty:
        raise ValueError("a character of module %d has no term below q^%s; "
                         "raise the order" % (empty[0], N))
    base_tol = derived_tolerance(precision)
    with mp.workprec(precision + 16):
        tau0 = mp.mpc(tau0)
        if mp.im(tau0) <= 0:
            raise NonconvergentDomain("tau must lie in the upper half plane")
        tau1 = -1 / tau0
        St = _check_stilde(k, precision)
        series = {(r, a): chars[r][0 if a == "+" else 1] for (r, a) in St.labels}
        # evaluations at tau0 (right-hand sides)
        ev = {lab: qs_eval(ch, tau0, precision) for lab, ch in series.items()}
        entries = []
        for r in range(1, 2 * k + 3):
            for a, variant in (("+", "plus"), ("-", "minus")):
                lhs = qs_eval(series[(r, a)], tau1, precision)
                rhs = mp.mpf(0)
                tail = mp.mpf(lhs.tail_bound)
                for lab, coeff in zip(St.labels, St.rows[St.index((r, a))]):
                    if coeff:
                        rhs += coeff * ev[lab].value
                        tail += abs(coeff) * mp.mpf(ev[lab].tail_bound)
                resid = abs(lhs.value - rhs)
                tol = max(base_tol, 10 * tail)
                entries.append(
                    STransformEntry(r, variant, resid, tail, tol, resid <= tol))
    return STransformReport(k, tau0, N, precision, tuple(entries))
