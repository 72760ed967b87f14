"""Parafermion coset branching at positive integer level.

A local module (odd index r) over the rank-one lattice subalgebra splits
into 2k charge sectors; this module extracts each sector's character by two
independent routes -- direct charge grading of the two-variable character,
and a root-of-unity phase projection -- and builds the coset T-phases and
S-matrix, whose Verlinde ring is proved to be the independently built
parafermion fusion tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

import mpmath
from mpmath import mp

from .characters import (AdmissibleLevel, IdentityReport, InvalidLabel,
                         OspLabel, char_w1, osp_char)
from .fusion import check_level, parafermion_fusion
from .modular import (SMatrix, NonIntegralFusion, _mpq, _verlinde_bound_holds,
                      derived_tolerance, s_table)
from .qseries import (QQ, QSeries, VerificationError, as_fraction,
                      qs_equal_below, qs_eta, qs_invert, qs_mul, qs_shift)
from .theta import theta_q


class InconsistentBranching(VerificationError):
    """Raised when the charge identification fails an internal cross-check."""


class CosetLabel(NamedTuple):
    """Coset sector label: lattice charge nu mod 2k and odd module index r."""

    nu: int
    r: int


def _check_label(k: int, label) -> CosetLabel:
    check_level(k)
    nu, r = label
    if not isinstance(nu, int) or not isinstance(r, int):
        raise InvalidLabel("coset label entries must be integers")
    if r % 2 == 0 or not (1 <= r <= 2 * k + 2):
        raise InvalidLabel(
            "module index must be odd in [1, %d], got %r" % (2 * k + 2, r))
    return CosetLabel(nu % (2 * k), r)


@dataclass(frozen=True)
class LatticeData:
    """The rank-one even lattice underlying the charge decomposition."""

    k: int

    def __post_init__(self):
        check_level(self.k)

    @property
    def gram(self) -> int:
        return 2 * self.k

    @property
    def dual_order(self) -> int:
        return 2 * self.k

    def pairing(self, a: int, b: int) -> Fraction:
        """Pairing of dual-class representatives a, b in Z/2kZ."""
        return Fraction(a * b, 2 * self.k)


def coset_labels(k: int) -> Tuple[CosetLabel, ...]:
    check_level(k)
    return tuple(CosetLabel(nu, r) for nu in range(2 * k)
                 for r in range(1, 2 * k + 3) if r % 2 == 1)


def lattice_theta(k: int, nu: int, N) -> QSeries:
    """Theta series of the shifted lattice class: sum of q^{(nu+2km)^2/(4k)}."""
    check_level(k)
    if not isinstance(nu, int):
        raise InvalidLabel("charge class must be an integer")
    return theta_q(nu % (2 * k), k, 1, N)


def _full_char(k: int, r: int, N: QQ):
    """Two-variable character of the local module, complete w-slices."""
    level = AdmissibleLevel.from_integer_level(k)
    return osp_char(level, OspLabel(r, 0), N)


def _sector_from_slice(ch, x: QQ, k: int, N: QQ) -> QSeries:
    """One branching sector from the w^x slice: f_x * q^{-x^2/k} * eta."""
    f = ch.w_slice(x)
    shifted = qs_shift(f, -x * x / k)
    m0 = min(shifted.min_exp(), QQ(0)) if shifted.terms else QQ(0)
    eta = qs_eta(N - m0 + 1)
    return qs_mul(shifted, eta).truncate(N)


def coset_char_direct(k: int, label, N) -> QSeries:
    """Coset sector character by direct charge grading of the full character.

    A term w^x belongs to class nu = 2x mod 2k with accompanying Heisenberg
    weight x^2/k.  Both canonical representatives x = nu/2 and x = nu/2 - k
    are extracted and must produce the same series; a mismatch raises
    InconsistentBranching.
    """
    label = _check_label(k, label)
    N = as_fraction(N)
    M = N + k + 2
    ch = _full_char(k, label.r, M)
    x_plus = QQ(label.nu, 2)
    res_plus = _sector_from_slice(ch, x_plus, k, N)
    res_minus = _sector_from_slice(ch, x_plus - k, k, N)
    ok, bad = qs_equal_below(res_plus, res_minus, N)
    if not ok:
        raise InconsistentBranching(
            "representatives %s and %s of class %d disagree at q^%s: %s vs %s"
            % (x_plus, x_plus - k, label.nu, bad[0], bad[1], bad[2]))
    return res_plus


def coset_char_phase_sum(k: int, label, N, variant: str = "plus",
                         tolerance: float = 1e-20) -> QSeries:
    """Coset sector character by root-of-unity phase projection.

    Specialises the two-variable character at the 2k lattice phases
    w^x -> e^{2 pi i g x / k}, takes the discrete-orthogonality-normalised
    phase average against e^{-2 pi i nu g / (2k)}, divides by the class theta
    over eta, and reconstructs exact integer coefficients (gate ``tolerance``).
    The 'minus' variant projects the signed character and carries the extra
    class sign; it must reproduce the same sector characters.
    """
    label = _check_label(k, label)
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    N = as_fraction(N)
    precision = 128
    M = N + k + 2
    ch = _full_char(k, label.r, M)
    # exact eta / (2k * theta_{L+nu}) prefactor
    theta = lattice_theta(k, label.nu, M)
    pref = qs_mul(qs_eta(M), qs_invert(theta))
    pref = qs_shift(pref, 0, QQ(1, 2 * k))
    if variant == "minus" and label.nu % 2 == 1:
        pref = qs_shift(pref, 0, -1)
    guaranteed = min(M + pref.min_exp(), pref.trunc + ch.min_q_bound())
    if guaranteed < N:
        raise InconsistentBranching(
            "phase sum is exact only below q^%s, short of order %s"
            % (guaranteed, N))

    with mp.workprec(precision + 16):
        # phase-projected slices: acc[q_exp] = sum_x phase(x) f_x coeff
        acc: Dict[QQ, mpmath.mpc] = {}
        for g in range(2 * k):
            # w^x -> e^{2 pi i g x / k}; 'minus' shifts the phase by a half
            # period, matching the sign character on half-integer exponents
            g_eff = QQ(g) + (k if variant == "minus" else 0)
            for (qe, we, c) in ch.items():
                t = 2 * (g_eff * we / k) - QQ(label.nu * g, k)
                ph = mp.expjpi(_mpq(t))
                acc[qe] = acc.get(qe, mp.mpc(0)) + int(c) * ph
        # multiply by the exact prefactor and reconstruct integers
        out: Dict[QQ, mpmath.mpc] = {}
        for (e2, c2) in pref.terms.items():
            c2m = _mpq(c2)
            for (e1, v1) in acc.items():
                e = e1 + e2
                if e >= N:
                    continue
                out[e] = out.get(e, mp.mpc(0)) + v1 * c2m
        terms = {}
        for e, v in out.items():
            n = int(mp.nint(mp.re(v)))
            if abs(v - n) > tolerance:
                raise InconsistentBranching(
                    "phase sum at q^%s = %s is not an integer within %g"
                    % (e, mp.nstr(v, 10), tolerance))
            if n:
                terms[e] = QQ(n)
    return QSeries(terms, N)


def coset_t_phase(k: int, label, precision: int = 256):
    """T-matrix phase of a coset sector, e^{2 pi i (h - c_coset/24)}.

    The weight is the local-component weight minus the Heisenberg weight
    nu^2/(4k); the phase exponent is cross-checked (mod 1, exactly) against
    the lowest exponent of the sector character itself.
    """
    label = _check_label(k, label)
    level = AdmissibleLevel.from_integer_level(k)
    exponent = (level.component_weight(1, label.r)
                - QQ(label.nu ** 2, 4 * k) - (level.c_osp - 1) / 24)
    order = QQ(2)
    for _ in range(4):
        ch = coset_char_direct(k, label, order)
        if ch.terms:
            break
        order *= 2
    else:
        raise InconsistentBranching(
            "sector character vanishes to order %s" % order)
    low = ch.min_exp()
    if (low - exponent).denominator != 1:
        raise InconsistentBranching(
            "T exponent %s does not match lowest series exponent %s mod 1"
            % (exponent, low))
    with mp.workprec(precision + 16):
        return mp.expjpi(2 * _mpq(exponent))


def coset_reassembly(k: int, r: int, N, signed: bool = False) -> IdentityReport:
    """Check that the sectors recombine to the one-variable character.

    Sum over classes of (theta_{L+nu}/eta) * sector character -- with the
    class sign (-1)^nu in the signed variant -- compared exactly against the
    plain (resp. signed) specialised character.
    """
    N = as_fraction(N)
    level = AdmissibleLevel.from_integer_level(k)
    target = char_w1(level, r, N, signed=signed)
    total = QSeries({}, N)
    inv_eta = qs_invert(qs_eta(N + 3))
    for nu in range(2 * k):
        sector = coset_char_direct(k, CosetLabel(nu, r), N + 1)
        theta = lattice_theta(k, nu, N + 2)
        piece = qs_mul(qs_mul(theta, inv_eta), sector)
        if signed and nu % 2 == 1:
            piece = qs_shift(piece, 0, -1)
        total = total + piece
    ok, bad = qs_equal_below(total, target, N)
    if ok:
        return IdentityReport(True, N, None,
                              "sector reassembly (r=%d, signed=%s) holds to "
                              "order %s" % (r, signed, N))
    return IdentityReport(
        False, N, (bad[0], QQ(0), bad[1], bad[2]),
        "sector reassembly fails at q^%s: %s vs %s" % bad)


def coset_smatrix(k: int, precision: int = 256, verify: bool = True) -> SMatrix:
    """S-matrix over the coset sectors.

    Entry = sqrt(2/k) * e^{2 pi i nu mu / (2k)} * (sign) * s_{r,r'}, the
    sign being -1 exactly when one of the two charges lies outside the even
    dual subgroup and the other inside.  The pairing-phase sign is the one
    compatible with (ST)^3 = S^2 for the negative-definite Heisenberg
    direction carried by the sector weights; the sector characters are
    charge-conjugation symmetric and transform identically under either
    sign.  With ``verify`` (default) the matrix is checked unitary and the
    parafermion fusion tensor is proved to be its Verlinde ring by
    ``verlinde_matches``: every entry of N_a - S Lambda_a S^-1 is bounded
    within the 1e-6 Verlinde gate in O(n^3), without the O(n^4) sums.
    """
    check_level(k)
    labels = coset_labels(k)
    with mp.workprec(precision + 16):
        s = s_table(k, precision)
        pref = mp.sqrt(mp.mpf(2) / k)
        rows = []
        for (nu, r) in labels:
            row = []
            for (mu, rp) in labels:
                ph = mp.expjpi(_mpq(QQ(nu * mu, k)))
                sign = -1 if (nu + mu) % 2 == 1 else 1
                row.append(pref * ph * sign * s[r - 1][rp - 1])
            rows.append(row)
    S = SMatrix(labels, rows, labels.index(CosetLabel(0, 1)), precision)
    if verify:
        tol = derived_tolerance(precision)
        d = S.unitarity_defect()
        if d > tol:
            raise InconsistentBranching(
                "coset S-matrix unitarity defect %s exceeds %s"
                % (mp.nstr(d, 5), mp.nstr(tol, 5)))
        if not _verlinde_bound_holds(S, parafermion_fusion(k), d):
            raise NonIntegralFusion(
                "the parafermion fusion tensor at k=%d is not proved to be the "
                "Verlinde ring of the coset S-matrix within the 1e-6 gate" % k)
    return S
