"""Parafermion coset branching at positive integer level.

A local module (odd index r) over the rank-one lattice subalgebra splits
into 2k charge sectors; this module extracts each sector's character by two
independent routes -- direct charge grading of the two-variable character,
and a root-of-unity phase projection computed exactly in Z[zeta_m], with no
tolerance -- and builds the coset S-matrix, whose Verlinde ring, counted
exactly from its closed form, must be the independently built parafermion
fusion tensor.  The sector T-phases are ``modular.t_matrix("coset", k)``.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from mpmath import mp

from .characters import (AdmissibleLevel, IdentityReport, InvalidLabel,
                         OspLabel, char_w1, osp_char)
from .fusion import (CosetLabel, FusionTensor, check_level, coset_labels,
                     parafermion_fusion)
from .modular import (SMatrix, NonIntegralFusion, _count, _mpq,
                      derived_tolerance, s_table)
from .qseries import (QQ, QSeries, VerificationError, as_fraction,
                      qs_equal_below, qs_eta, qs_mul, qs_shift, _qs_div)
from .theta import theta_q


class InconsistentBranching(VerificationError):
    """Raised when the charge identification fails an internal cross-check."""


def _check_label(k: int, label) -> CosetLabel:
    check_level(k)
    nu, r = label
    if not isinstance(nu, int) or not isinstance(r, int):
        raise InvalidLabel("coset label entries must be integers")
    if r % 2 == 0 or not (1 <= r <= 2 * k + 2):
        raise InvalidLabel(
            "module index must be odd in [1, %d], got %r" % (2 * k + 2, r))
    return CosetLabel(nu % (2 * k), r)


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
    m0 = QQ(0) if shifted.is_zero else min(shifted.min_exp(), QQ(0))
    eta = qs_eta(N - m0 + 1)
    return qs_mul(shifted, eta).truncate(N)


def _sector(ch, k: int, nu: int, N: QQ) -> QSeries:
    """Sector nu of the local-module character ``ch``, whose w-slices are
    complete to order N + k + 2, extracted to order N from both canonical
    representatives x = nu/2 and x = nu/2 - k; a mismatch raises
    InconsistentBranching."""
    x_plus = QQ(nu, 2)
    res_plus = _sector_from_slice(ch, x_plus, k, N)
    res_minus = _sector_from_slice(ch, x_plus - k, k, N)
    ok, bad = qs_equal_below(res_plus, res_minus, N)
    if not ok:
        raise InconsistentBranching(
            "representatives %s and %s of class %d disagree at q^%s: %s vs %s"
            % (x_plus, x_plus - k, nu, bad[0], bad[1], bad[2]))
    return res_plus


def coset_char_direct(k: int, label, N) -> QSeries:
    """Coset sector character by direct charge grading of the full character.

    A term w^x belongs to class nu = 2x mod 2k with accompanying Heisenberg
    weight x^2/k.  Both canonical representatives x = nu/2 and x = nu/2 - k
    are extracted and must produce the same series; a mismatch raises
    InconsistentBranching.
    """
    label = _check_label(k, label)
    N = as_fraction(N)
    return _sector(_full_char(k, label.r, N + k + 2), k, label.nu, N)


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
    N = as_fraction(N)
    M = N + k + 2
    ch = _full_char(k, label.r, M)
    # exact eta / (2k * theta_{L+nu}) prefactor
    pref = qs_shift(_qs_div(qs_eta(M), lattice_theta(k, label.nu, M)), 0, QQ(1, 2 * k))
    if variant == "minus" and label.nu % 2 == 1:
        pref = qs_shift(pref, 0, -1)
    guaranteed = min(M + pref.min_exp(), pref.trunc + ch.min_q_bound())
    if guaranteed < N:
        raise InconsistentBranching(
            "phase sum is exact only below q^%s, short of order %s"
            % (guaranteed, N))

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
    out = qs_mul(QSeries._of(acc, ch.D, ch.q_trunc), pref).truncate(N)
    for q, sl in out._s.items():
        if sl[0].denominator != 1:
            raise InconsistentBranching(
                "phase sum at q^%s = %s is not an integer" % (QQ(q, out.D), sl[0]))
    return out


def coset_reassembly(k: int, r: int, N, signed: bool = False) -> IdentityReport:
    """Check that the sectors recombine to the one-variable character.

    Sum over classes of (theta_{L+nu}/eta) * sector character -- with the
    class sign (-1)^nu in the signed variant -- compared exactly against the
    plain (resp. signed) specialised character.
    """
    _check_label(k, (0, r))
    N = as_fraction(N)
    level = AdmissibleLevel.from_integer_level(k)
    target = char_w1(level, r, N, signed=signed)
    ch = _full_char(k, r, N + k + 3)
    total = QSeries({}, N)
    eta = qs_eta(N + 3)
    for nu in range(2 * k):
        sector = _sector(ch, k, nu, N + 1)
        piece = qs_mul(_qs_div(lattice_theta(k, nu, N + 2), eta), sector)
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
    sign.  Its ``ring`` is ``_coset_ring(k)``.  With ``verify`` (default)
    the matrix must pass ``coset_unitarity_gate`` and its ring must be the
    parafermion fusion tensor; NonIntegralFusion is raised otherwise.
    """
    check_level(k)
    labels = coset_labels(k)
    with mp.workprec(precision + 16):
        s = s_table(k, precision)
        pref = mp.sqrt(mp.mpf(2) / k)
        # pref * e^{i pi nu mu/k}, one expjpi per distinct product nu mu:
        # nu mu/k and its value mod 2 round to different arguments, so the
        # exact product is the key
        phases = {}
        rows = []
        for (nu, r) in labels:
            row = []
            for (mu, rp) in labels:
                x = nu * mu
                if x not in phases:
                    phases[x] = pref * mp.expjpi(_mpq(QQ(x, k)))
                sign = -1 if (nu + mu) % 2 == 1 else 1
                row.append(phases[x] * sign * s[r - 1][rp - 1])
            rows.append(row)
    S = SMatrix(labels, rows, labels.index(CosetLabel(0, 1)), precision,
                ring=lambda: _coset_ring(k))
    if verify:
        coset_unitarity_gate(S)
        if S.ring() != parafermion_fusion(k):
            raise NonIntegralFusion(
                "the Verlinde ring of the coset S-matrix at k=%d is not the "
                "parafermion fusion tensor" % k)
    return S


def _coset_ring(k: int) -> FusionTensor:
    """The Verlinde ring of ``coset_smatrix(k)``'s closed form.

    N_ab^c = sum over x = (mu, t) of S_ax S_bx conj(S_cx) / S_0x.  The
    signs (-1)^(nu + mu) leave (-1)^(nu_a + nu_b + nu_c), and the phases
    sum over mu to 2k [nu_c = nu_a + nu_b (mod 2k)], where that sign is +1.
    The prefactors give 2/k, so N = 4 [nu_c = nu_a + nu_b] times the sum
    over odd t of s_{r_a,t} s_{r_b,t} s_{r_c,t} / s_{1,t}, which is the
    refined N^- of ``verlinde_super``:
        N = [nu_c = nu_a + nu_b] (-1/2) _count(2k+3, k+2, r_a, r_b, r_c).
    """
    labels = coset_labels(k)
    rs = [lab.r for lab in labels if lab.nu == 0]
    refined = {(a, b, c): -_count(2 * k + 3, k + 2, a, b, c) // 2
               for a in rs for b in rs for c in rs}
    return FusionTensor(labels, CosetLabel(0, 1), {
        (A, B, CosetLabel((A.nu + B.nu) % (2 * k), c)): refined[A.r, B.r, c]
        for A in labels for B in labels for c in rs})


def coset_unitarity_gate(S: SMatrix):
    """S.unitarity_defect(), once it is within the derived tolerance;
    InconsistentBranching otherwise."""
    tol = derived_tolerance(S.precision)
    d = S.unitarity_defect()
    if d > tol:
        raise InconsistentBranching(
            "coset S-matrix unitarity defect %s exceeds %s"
            % (mp.nstr(d, 5), mp.nstr(tol, 5)))
    return d
