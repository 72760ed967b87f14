"""Parafermion coset branching at positive integer level.

A local module (odd index r) over the rank-one lattice subalgebra splits
into 2k charge sectors; this module extracts each sector's character by two
independent routes -- direct charge grading of the two-variable character,
and a root-of-unity phase projection computed exactly in Z[zeta_m], with no
tolerance.  The reassembly of the one-variable characters from the sectors
builds its 2k products (theta_{L+nu}/eta) * sector once per process for each
(k, r, order) and shares them between the plain and signed checks, on the
contract of the character memos: they must never be mutated.  The coset
S-matrix and T-phases are built by the coset entry of
``modular.FAMILIES``; ``coset_smatrix`` only verifies that the Verlinde ring
of the S-matrix, counted exactly from its closed form, is the independently
built parafermion fusion tensor.
"""

from __future__ import annotations

import functools
import math
from typing import List, Tuple

from .characters import (AdmissibleLevel, IdentityReport, InvalidLabel,
                         OspLabel, char_w1, osp_char, _ETA_LO)
from .fusion import CosetLabel, check_level, parafermion_fusion
from .modular import FAMILIES, SMatrix, NonIntegralFusion, verlinde_standard
from .qseries import (QQ, QSeries, VerificationError, qs_equal_below, qs_eta,
                      qs_mul, qs_shift, _div, _factor_order, _min_trunc,
                      _positive_order, _quotient_orders, _require_order)
from .theta import theta_q


class InconsistentBranching(VerificationError):
    """Raised when the charge identification fails an internal cross-check."""


def _check_label(k: int, label) -> CosetLabel:
    check_level(k)
    nu, r = label
    if type(nu) is not int or type(r) is not int:
        raise InvalidLabel("coset label entries must be integers")
    if r % 2 == 0 or not (1 <= r <= 2 * k + 2):
        raise InvalidLabel(
            "module index must be odd in [1, %d], got %r" % (2 * k + 2, r))
    return CosetLabel(nu % (2 * k), r)


def lattice_theta(k: int, nu: int, N) -> QSeries:
    """Theta series of the shifted lattice class: sum of q^{(nu+2km)^2/(4k)}."""
    check_level(k)
    if type(nu) is not int:
        raise InvalidLabel("charge class must be an integer")
    return theta_q(nu % (2 * k), k, 1, N)


def _full_char(k: int, r: int, N: QQ):
    """Two-variable character of the local module, complete w-slices."""
    return osp_char(AdmissibleLevel.from_integer_level(k), OspLabel(r, 0), N)


def _char_order(k: int, N: QQ) -> QQ:
    """The one order, so one memo entry, of the character both routes read: the
    most either needs, the direct route's w^-k slice meeting eta shifted by q^-k."""
    return _factor_order(N, _ETA_LO) + k


def _sector_from_slice(ch, x: QQ, k: int, N: QQ) -> QSeries:
    """One branching sector from the w^x slice: f_x * q^{-x^2/k} * eta."""
    shifted = qs_shift(ch.w_slice(x), -x * x / k)
    m0 = min(shifted.min_q_bound(), 0)  # at most 0: qs_eta refuses an order <= 0
    return qs_mul(shifted, qs_eta(_factor_order(N, m0))).truncate(N)


def coset_char_direct(k: int, label, N) -> QSeries:
    """Coset sector character by direct charge grading of the full character.

    A term w^x belongs to class nu = 2x mod 2k with accompanying Heisenberg
    weight x^2/k.  Both canonical representatives x = nu/2 and x = nu/2 - k
    are extracted, from w-slices complete to the order :func:`_char_order`
    plans, and must produce the same series on a box reaching order N; a
    mismatch or a shorter box raises InconsistentBranching.
    """
    label = _check_label(k, label)
    N = _positive_order(N)
    ch = _full_char(k, label.r, _char_order(k, N))
    x_plus = QQ(label.nu, 2)
    res_plus = _sector_from_slice(ch, x_plus, k, N)
    res_minus = _sector_from_slice(ch, x_plus - k, k, N)
    _require_order(_min_trunc(res_plus.trunc, res_minus.trunc), N,
                   "sector %d" % label.nu, InconsistentBranching)
    ok, bad = qs_equal_below(res_plus, res_minus, N)
    if not ok:
        raise InconsistentBranching(
            "representatives %s and %s of class %d disagree at q^%s: %s vs %s"
            % (x_plus, x_plus - k, label.nu, bad[0], bad[1], bad[2]))
    return res_plus


def _divmod_monic(a: List[int], f: List[int]) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of the integer polynomial ``a`` by the monic
    ``f``, both as coefficient lists with the constant term first."""
    n = len(f) - 1
    a = list(a)
    quo = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            quo[i - n] = c
            for j in range(n + 1):
                a[i - n + j] -= c * f[j]
    return quo, a[:n]


def _cyclotomic(m: int) -> List[int]:
    """The m-th cyclotomic polynomial, constant term first: x^d - 1 divided
    by Phi_e for every proper divisor e of d, for each divisor d of m."""
    phi = {}
    for d in range(1, m + 1):
        if m % d == 0:
            p = [-1] + [0] * (d - 1) + [1]
            for e, f in phi.items():
                if d % e == 0:
                    p = _divmod_monic(p, f)[0]
            phi[d] = p
    return phi[m]


def coset_char_phase_sum(k: int, label, N, variant: str = "plus") -> QSeries:
    """Coset sector character by root-of-unity phase projection.

    Specialises the two-variable character at the 2k lattice phases
    w^x -> e^{2 pi i g x / k}, takes the discrete-orthogonality-normalised
    phase average against e^{-2 pi i nu g / (2k)}, divides by the class theta
    over eta, and requires integer coefficients.  The average is computed
    exactly in Z[zeta_m], m = 2k times the lcm of the denominators of 2x,
    with no tolerance: each q-coefficient is reduced modulo the cyclotomic
    polynomial Phi_m and must be rational.  The 'minus' variant projects the
    signed character and carries the extra class sign; it must reproduce the
    same sector characters.  Every failure raises InconsistentBranching.
    """
    label = _check_label(k, label)
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    N = _positive_order(N)
    M = _char_order(k, N)
    ch = _full_char(k, label.r, M)
    # exact eta / (2k * theta_{L+nu}) prefactor, with the class sign in 'minus'
    sign = -1 if variant == "minus" and label.nu % 2 == 1 else 1
    pref = qs_shift(_div(qs_eta(M), lattice_theta(k, label.nu, M)), 0, QQ(sign, 2 * k))
    _require_order(min(M + pref.min_q(), pref.trunc + ch.min_q_bound()), N,
                   "phase sum", InconsistentBranching)

    # with 2x = a/b, the term w^x at phase g, weighted by e^{-2 pi i nu g/(2k)},
    # is zeta_m^((g + shift) a - nu g b); the 'minus' shift by a half period
    # matches the sign character on half-integer exponents
    W = ch.W
    b = math.lcm(*(W // math.gcd(2 * w, W) for sl in ch._s.values() for w in sl))
    m = 2 * k * b
    shift = k if variant == "minus" else 0
    phi = _cyclotomic(m)
    acc = {}
    for q, sl in ch._s.items():
        v = [0] * m
        for w, c in sl.items():
            a = 2 * w * b // W
            step = a - label.nu * b
            for g in range(2 * k):
                v[(shift * a + g * step) % m] += c
        coords = _divmod_monic(v, phi)[1]
        if any(coords[1:]):
            raise InconsistentBranching(
                "phase sum at q^%s is not rational: %s in the power basis of "
                "Q(zeta_%d)" % (QQ(q, ch.D), coords, m))
        if coords[0]:
            acc[q] = {0: coords[0]}
    out = qs_mul(QSeries._of(acc, ch.D, 1, ch.q_trunc), pref).truncate(N)
    for q, sl in out._s.items():
        if sl[0].denominator != 1:
            raise InconsistentBranching(
                "phase sum at q^%s = %s is not an integer" % (QQ(q, out.D), sl[0]))
    return out


# a few (k, r, order) entries: every caller checks the signed sum right
# after the plain one
@functools.lru_cache(maxsize=8)
def _reassembly_pieces(k: int, r: int, N: QQ) -> Tuple[QSeries, ...]:
    """(theta_{L+nu}/eta) * sector character for nu = 0 .. 2k-1, each planned
    to reach order N; shared by the plain and signed checks, never to be mutated."""
    pieces = []
    for nu in range(2 * k):
        sector = coset_char_direct(k, (nu, r), _factor_order(N, -_ETA_LO))
        # a sector or theta starting late is planned as if it started at N or
        # at T, so that every order stays positive and eta keeps a term
        T = _factor_order(N, min(sector.min_q_bound(), N))
        theta = lattice_theta(k, nu, _quotient_orders(T, _ETA_LO, None)[0])
        eta = qs_eta(_quotient_orders(T, _ETA_LO, min(theta.min_q_bound(), T))[1])
        pieces.append(qs_mul(_div(theta, eta), sector))
    return tuple(pieces)


def coset_reassembly(k: int, r: int, N, signed: bool = False) -> IdentityReport:
    """Check that the sectors recombine to the one-variable character.

    Sum over classes of (theta_{L+nu}/eta) * sector character -- with the
    class sign (-1)^nu in the signed variant -- compared exactly against the
    plain (resp. signed) specialised character, on a box that must reach
    order N.  Each sector is read to N + 1/24, since theta_{L+nu}/eta starts
    at q^(-1/24) or above, and each theta_{L+nu}/eta as far as its sector needs.

    The 2k products are built once per process for each (k, r, order), with
    3 and Fraction(3) one order, and shared by the plain and signed checks,
    which differ only in the signs of the sum; the label and the order
    (ValueError unless positive) are checked on every call.
    """
    _check_label(k, (0, r))
    N = _positive_order(N)
    target = char_w1(AdmissibleLevel.from_integer_level(k), r, N, signed=signed)
    total = QSeries({}, N)
    for nu, piece in enumerate(_reassembly_pieces(k, r, N)):
        total += qs_shift(piece, 0, -1) if signed and nu % 2 == 1 else piece
    what = "sector reassembly (r=%d, signed=%s)" % (r, signed)
    _require_order(total.trunc, N, what, InconsistentBranching)
    ok, bad = qs_equal_below(total, target, N)
    if ok:
        return IdentityReport(True, N, None, "%s holds to order %s" % (what, N))
    return IdentityReport(False, N, (bad[0], QQ(0), bad[1], bad[2]),
                          "sector reassembly fails at q^%s: %s vs %s" % bad)


def coset_smatrix(k: int, precision: int = 256, verify: bool = True) -> SMatrix:
    """S-matrix over the coset sectors, as ``modular.FAMILIES["coset"]``
    builds it.  With ``verify`` (default) it must pass the unitarity gate of
    ``verlinde_standard`` and its ring must be the parafermion fusion
    tensor; NonIntegralFusion is raised otherwise."""
    S = FAMILIES["coset"].smatrix((k,), precision)
    if verify and verlinde_standard(S) != parafermion_fusion(k):
        raise NonIntegralFusion(
            "the Verlinde ring of the coset S-matrix at k=%d is not the "
            "parafermion fusion tensor" % k)
    return S
