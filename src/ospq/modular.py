"""Modular data: S and T matrices for the Virasoro, affine sl2, extended
even-subalgebra, and parafermion-coset families, Verlinde formulas (standard
and parity-refined), Frobenius-Perron dimension identities, and numeric
checks of the character S-transformations.

S-matrix entries are high-precision floating values (mpmath), not exact
cyclotomics; integrality of Verlinde output within a fixed 1e-6 gate serves
as the correctness certificate.  The default working precision is 256 bits
and derived tolerances are 10^(1 - precision/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from .characters import (AdmissibleLevel, VirLabel, component_chars_w1,
                         vir_canonical, vir_central_charge, vir_labels,
                         vir_weight)
from .fusion import FusionTensor, OutOfRange, SuperFusionEntry, check_level
from .qseries import NonconvergentDomain, VerificationError, qs_eval


class NonIntegralFusion(VerificationError):
    """Raised when Verlinde output fails the integrality/positivity gate."""


VERLINDE_GATE = 1e-6


def derived_tolerance(precision: int):
    """Default numeric tolerance 10^(1 - precision/4) at the given bits."""
    with mp.workprec(precision + 16):
        return mp.mpf(10) ** (1 - Fraction(precision, 4))


def _mpq(x) -> mpmath.mpf:
    x = Fraction(x)
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _max_defect(A: mpmath.matrix, B: mpmath.matrix):
    """Max-norm of A - B, at the caller's working precision."""
    d = mp.mpf(0)
    for i in range(A.rows):
        for j in range(A.cols):
            d = max(d, abs(A[i, j] - B[i, j]))
    return d


class SMatrix:
    """Square matrix of high-precision S-transformation coefficients."""

    __slots__ = ("labels", "rows", "vacuum_index", "precision", "_index")

    def __init__(self, labels: Sequence[Hashable], rows, vacuum_index: int,
                 precision: int):
        self.labels = tuple(labels)
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("S-matrix must be square over its labels")
        self.vacuum_index = vacuum_index
        self.precision = precision
        self._index = {a: i for i, a in enumerate(self.labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, a) -> int:
        if a not in self._index:
            raise OutOfRange("label %r is not in the matrix" % (a,))
        return self._index[a]

    def entry(self, a, b):
        return self.rows[self.index(a)][self.index(b)]

    def as_matrix(self) -> mpmath.matrix:
        return mp.matrix([list(r) for r in self.rows])

    def unitarity_defect(self):
        """Max-norm of S S^dagger - I."""
        with mp.workprec(self.precision + 16):
            M = self.as_matrix()
            return _max_defect(M * M.transpose_conj(), mp.eye(self.n))

    def symmetry_defect(self):
        with mp.workprec(self.precision + 16):
            M = self.as_matrix()
            return _max_defect(M, M.T)

    def square_defect_from_identity(self):
        """Max-norm of S^2 - I (for the real involutive matrices here)."""
        with mp.workprec(self.precision + 16):
            M = self.as_matrix()
            return _max_defect(M * M, mp.eye(self.n))


class ExtendedSMatrix(SMatrix):
    """S-matrix over the 4k+4 labels (r, 'even'/'odd'), r = 1..2k+2."""

    __slots__ = ("k",)

    def __init__(self, k, labels, rows, vacuum_index, precision):
        super().__init__(labels, rows, vacuum_index, precision)
        self.k = k

    def block(self, pa: str, pb: str) -> List[List[mpmath.mpf]]:
        n2 = len(self.labels) // 2
        oa = 0 if pa == "even" else n2
        ob = 0 if pb == "even" else n2
        return [[self.rows[oa + i][ob + j] for j in range(n2)] for i in range(n2)]


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

    def as_matrix(self) -> mpmath.matrix:
        with mp.workprec(self.precision + 16):
            M = mp.zeros(self.n)
            for i, a in enumerate(self.labels):
                M[i, i] = self.phase(a)
            return M


def unitarity_defect(S: SMatrix):
    return S.unitarity_defect()


def st_cube_defect(S: SMatrix, T: TMatrix):
    """Max-norm of (ST)^3 - S^2; label orders must coincide."""
    if S.labels != T.labels:
        raise ValueError("S and T label orders differ")
    with mp.workprec(S.precision + 16):
        M = S.as_matrix()
        D = T.as_matrix()
        ST = M * D
        return _max_defect(ST * ST * ST, M * M)


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

    Both representatives of every row label are evaluated and compared, so a
    representative-dependence bug cannot pass silently.
    """
    labels = vir_labels(u, p)
    tol = derived_tolerance(precision)
    with mp.workprec(precision + 16):
        pref = -2 / mp.sqrt(mp.mpf(u * p) / 2)
        sr = [[pref * mp.sinpi(mp.mpf(p * r * r2) / u) for r2 in range(1, u)]
              for r in range(1, u)]
        ss = [[mp.sinpi(mp.mpf(u * s * s2) / p) for s2 in range(1, p)]
              for s in range(1, p)]

        def val(r, s, r2, s2):
            v = sr[r - 1][r2 - 1] * ss[s - 1][s2 - 1]
            return -v if (r * s2 + s * r2) % 2 else v

        rows = []
        for a in labels:
            row = []
            for b in labels:
                v1 = val(a.r, a.s, b.r, b.s)
                v2 = val(u - a.r, p - a.s, b.r, b.s)
                if abs(v1 - v2) > tol:
                    raise VerificationError(
                        "S-matrix not representative-independent at %r, %r" % (a, b))
                row.append(v1)
            rows.append(row)
    return SMatrix(labels, rows, labels.index(VirLabel(1, 1)), precision)


def sl2_smatrix(k: int, precision: int = 256) -> SMatrix:
    """Integrable affine sl2 S-matrix, labels 1..k+1."""
    check_level(k)
    labels = list(range(1, k + 2))
    with mp.workprec(precision + 16):
        pref = mp.sqrt(mp.mpf(2) / (k + 2))
        rows = [
            [pref * mp.sinpi(mp.mpf(a * b) / (k + 2)) for b in labels]
            for a in labels
        ]
    return SMatrix(labels, rows, 0, precision)


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
    """The sine coefficients as rows: s_table(k)[r-1][t-1] = s_small(k, r, t)."""
    n = 2 * k + 3
    return [[s_small(k, r, t, precision) for t in range(1, n)] for r in range(1, n)]


def extended_labels(k: int) -> List[Tuple[int, str]]:
    rng = range(1, 2 * k + 3)
    return [(r, "even") for r in rng] + [(r, "odd") for r in rng]


def extended_smatrix(k: int, precision: int = 256) -> ExtendedSMatrix:
    """S-matrix over the even/odd components of the 2k+2 modules.

    Blocks: even-even is the signed sine table itself; even-odd carries the
    sign of the even label's parity; odd-odd carries the sign of the total
    parity.
    """
    labels = extended_labels(k)
    with mp.workprec(precision + 16):
        base = s_table(k, precision)
        rows = []
        for (r, pa) in labels:
            row = []
            for (t, pb) in labels:
                v = base[r - 1][t - 1]
                if pa == "even" and pb == "odd":
                    row.append(v if r % 2 == 0 else -v)
                elif pa == "odd" and pb == "even":
                    row.append(v if t % 2 == 0 else -v)
                elif pa == "odd" and pb == "odd":
                    row.append(v if (r + t) % 2 == 0 else -v)
                else:
                    row.append(v)
            rows.append(row)
    return ExtendedSMatrix(k, labels, rows, labels.index((1, "even")), precision)


# -- Verlinde formulas --------------------------------------------------------


def verlinde_standard(S: SMatrix) -> FusionTensor:
    """Fusion tensor from the matrix-inverse Verlinde sum.

    N_{ab}^c = sum_x S_{ax} S_{bx} (S^{-1})_{xc} / S_{vac,x}, rounded to
    integers under a 1e-6 gate; any non-integral or negative structure
    constant raises NonIntegralFusion.
    """
    n = S.n
    vac = S.vacuum_index
    with mp.workprec(S.precision + 16):
        M = S.as_matrix()
        Minv = M ** -1
        for x in range(n):
            if abs(M[vac, x]) < mp.mpf(10) ** (-S.precision // 4):
                raise NonIntegralFusion(
                    "vacuum row vanishes at column %r" % (S.labels[x],))
        # P[x][c] = S^{-1}_{xc} / S_{vac,x}
        P = [[Minv[x, c] / M[vac, x] for c in range(n)] for x in range(n)]
        coeffs = {}
        for a in range(n):
            for b in range(a, n):
                prod = [M[a, x] * M[b, x] for x in range(n)]
                for c in range(n):
                    v = mp.fsum(prod[x] * P[x][c] for x in range(n))
                    nint = int(mp.nint(mp.re(v)))
                    if abs(v - nint) > VERLINDE_GATE or nint < 0:
                        raise NonIntegralFusion(
                            "entry (%r,%r,%r) = %s fails the integrality gate"
                            % (S.labels[a], S.labels[b], S.labels[c], mp.nstr(v)))
                    if nint:
                        coeffs[(S.labels[a], S.labels[b], S.labels[c])] = nint
                        if a != b:
                            coeffs[(S.labels[b], S.labels[a], S.labels[c])] = nint
    return FusionTensor(S.labels, S.labels[vac], coeffs)


@dataclass(frozen=True)
class SuperVerlinde:
    """Parity-refined Verlinde output for the superalgebra family.

    ``n_plus`` holds the total intertwiner dimensions (even-index sums),
    ``n_minus`` the signed dimensions before parity decoration (odd-index
    sums); ``entry`` decorates them into SuperFusionEntry values.
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
        return SuperFusionEntry((total + sdim) // 2, (total - sdim) // 2)

    def magnitudes(self) -> Dict[Tuple[int, int, int], int]:
        return dict(self.n_plus)


def stilde_matrix(k: int, precision: int = 256) -> SMatrix:
    """S-matrix in the (plus, minus) basis: per-entry either 2 s_{r,t} or 0,
    selected by the parity pattern of basis and label."""
    rng = range(1, 2 * k + 3)
    labels = [(r, "+") for r in rng] + [(r, "-") for r in rng]
    with mp.workprec(precision + 16):
        s = s_table(k, precision)
        rows = []
        for (r, a) in labels:
            row = []
            for (t, b) in labels:
                re, te = r % 2 == 0, t % 2 == 0
                hit = ((a == "+" and b == "+" and re and te)
                       or (a == "+" and b == "-" and not re and te)
                       or (a == "-" and b == "+" and re and not te)
                       or (a == "-" and b == "-" and not re and not te))
                row.append(2 * s[r - 1][t - 1] if hit else mp.mpf(0))
            rows.append(row)
    return SMatrix(labels, rows, labels.index((1, "+")), precision)


def verlinde_super(k: int, precision: int = 256) -> SuperVerlinde:
    """Parity-refined Verlinde data in the changed (plus/minus) basis.

    Evaluates the parity-gated sums
    N^{+} = delta(r+r'+r'' odd) * 4 * sum over even t of s s s / s_{1,t},
    N^{-} = the same over odd t, and gates both to integers.  The basis-
    changed matrix and its honest numeric inverse are built and validated
    alongside (the matrix is an involution, which the defects certify).
    """
    check_level(k)
    nmax = 2 * k + 2
    St = stilde_matrix(k, precision)
    with mp.workprec(precision + 16):
        M = St.as_matrix()
        inv_defect = _max_defect(M ** -1, M)
        invol_defect = St.square_defect_from_identity()

        s = s_table(k, precision)
        n_plus = {}
        n_minus = {}
        for r in range(1, nmax + 1):
            for r2 in range(1, nmax + 1):
                for r3 in range(1, nmax + 1):
                    if (r + r2 + r3) % 2 == 0:
                        continue
                    for parity, store in ((0, n_plus), (1, n_minus)):
                        v = 4 * mp.fsum(
                            s[r - 1][t - 1] * s[r2 - 1][t - 1] * s[t - 1][r3 - 1]
                            / s[0][t - 1]
                            for t in range(1, nmax + 1) if t % 2 == parity
                        )
                        nint = int(mp.nint(v))
                        if abs(v - nint) > VERLINDE_GATE or nint < 0:
                            raise NonIntegralFusion(
                                "refined entry (%d,%d,%d)/%s = %s fails the gate"
                                % (r, r2, r3, "+-"[parity], mp.nstr(v)))
                        if nint:
                            store[(r, r2, r3)] = nint
        if n_plus != n_minus:
            raise NonIntegralFusion(
                "even- and odd-index sums disagree; wrong coefficient table")
    return SuperVerlinde(k, precision, n_plus, n_minus, St, invol_defect,
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


def fp_ratios(S: SMatrix, ref_label) -> Dict[Hashable, mpmath.mpf]:
    """The ring character X -> S[X, Z] / S[vac, Z] at reference column Z."""
    z = S.index(ref_label)
    vac_val = S.rows[S.vacuum_index][z]
    return {a: S.rows[i][z] / vac_val for i, a in enumerate(S.labels)}


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
    """
    check_level(k)
    u, p = k + 2, 2 * k + 3
    tol = derived_tolerance(precision)
    items = []

    def add(name, computed, closed):
        diff = abs(computed - closed)
        items.append(FPItem(name, computed, closed, diff, tol, diff <= tol))

    with mp.workprec(precision + 16):
        # (i) angle sums
        odd_sum = mp.fsum(mp.sinpi(mp.mpf(l) / u) ** 2
                          for l in range(1, u) if l % 2 == 1)
        full_sum = mp.fsum(mp.sinpi(mp.mpf(l) / u) ** 2 for l in range(1, u))
        add("sin2_odd_sum", odd_sum, mp.mpf(u) / 4)
        add("sin2_full_sum", full_sum, mp.mpf(u) / 2)

        # S-matrix data shared by (ii)-(iv)
        S_sl2 = sl2_smatrix(k, precision)
        S_vir = vir_smatrix(u, p, precision)
        z_vir = min_conformal_weight(u, p)
        fp_sl2 = fp_ratios(S_sl2, 1)
        fp_vir = fp_ratios(S_vir, z_vir)
        sin_u = mp.sinpi(mp.mpf(1) / u)
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
        S_ext = extended_smatrix(k, precision)
        fp_ext = fp_ratios(S_ext, (2, "even"))
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
    weights); 'coset' with params k.
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
        labels = [(nu, r) for nu in range(2 * k)
                  for r in range(1, 2 * k + 3) if r % 2 == 1]
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

    For each module index r, evaluates the plain and signed specialised
    characters at -1/tau0 and compares against the sine-coefficient
    combinations of characters at tau0: plain characters of local modules
    map to signed characters of twisted indices (and so on through the four
    parity cases).  Truncation tails enter the per-entry tolerance.
    """
    level = AdmissibleLevel.from_integer_level(k)
    N = Fraction(N)
    chars = component_chars_w1(level, N)
    nmax = 2 * k + 2
    base_tol = derived_tolerance(precision)
    with mp.workprec(precision + 16):
        tau0 = mp.mpc(tau0)
        if mp.im(tau0) <= 0:
            raise NonconvergentDomain("tau must lie in the upper half plane")
        tau1 = -1 / tau0
        s = s_table(k, precision)
        # evaluations at tau0 (right-hand sides)
        ev_plus = {r: qs_eval(chars[r][0], tau0, precision) for r in chars}
        ev_minus = {r: qs_eval(chars[r][1], tau0, precision) for r in chars}
        entries = []
        for r in range(1, nmax + 1):
            for variant in ("plus", "minus"):
                series = chars[r][0] if variant == "plus" else chars[r][1]
                lhs = qs_eval(series, tau1, precision)
                t_parity = 0 if variant == "plus" else 1
                rhs = mp.mpf(0)
                tail = mp.mpf(lhs.tail_bound)
                for t in range(1, nmax + 1):
                    if t % 2 != t_parity:
                        continue
                    coeff = 2 * s[r - 1][t - 1]
                    target = ev_minus[t] if r % 2 == 1 else ev_plus[t]
                    rhs += coeff * target.value
                    tail += abs(coeff) * mp.mpf(target.tail_bound)
                resid = abs(lhs.value - rhs)
                tol = max(base_tol, 10 * tail)
                entries.append(
                    STransformEntry(r, variant, resid, tail, tol, resid <= tol))
    return STransformReport(k, tau0, N, precision, tuple(entries))
