"""Characters of the admissible-level superalgebra, affine sl2, and Virasoro
minimal-model families, plus exact verification of the character
decomposition that ties the three together.

Levels are parametrised by a coprime pair (p, p') with p + p' even; the
boundary data are

* level          k = p/(2p') - 3/2,
* index sum      delta = p + p',
* half index     u = delta/2.

Integer levels correspond to p' = 1.  All characters are produced as exact
truncated series by dividing theta-function numerators by the relevant
denominator (two-variable Weyl denominator, i*theta_1, or eta).

Memoised builders.  Each exact character is built once per process for
each (level, label, order) -- for a Virasoro character, each Kac class --
and the result is shared by every later call, so it must never be mutated.
Each memo keeps at most ``CHAR_MEMO_SIZE`` results.

Truncation orders.  Every builder and check refuses an order N <= 0 through
``qseries._positive_order``.  Every order built at here and in :mod:`ospq.coset`
is planned by ``qseries._factor_order`` and ``_quotient_orders``, the box
rules solved for their inputs, from where the other operands start: the Weyl
denominator, i*theta_1 and eta at q^(1/24), q^(1/8) and q^(1/24), a theta
numerator where it was built to (q^0 or above), so every character here at
q^(-1/8) or above.  ``qseries._require_order`` and ``qseries._div`` still
refuse a box short of the order that a check claims.

w floors.  At fractional level the public ``osp_char`` and ``sl2_char`` at
order N are cut at w = -(N+4).  The decomposition at order N cuts its
superalgebra and sl2 factors at w = -(N+8) whatever order it builds them
at, so it compares the box q < N, w >= -(N+8).  The floor is an argument
of the private builders and part of their memo keys.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .qseries import (QQ, QSeries, Rat, VerificationError, qs_eta, qs_mul, _div,
                      _factor_order, _positive_order, _quotient_orders, _require_order)
from .theta import (
    WQSeries,
    _theta_difference,
    vartheta1_times_i,
    vartheta2,
    weyl_denominator,
    wq_add,
    wq_equal_on_box,
    wq_from_q,
    wq_mul,
    wq_specialize_w1,
    wq_to_q,
)


class InvalidLabel(ValueError):
    """Raised when a module label is outside the valid range for a level."""


class OutOfRange(ValueError):
    """Raised when a level or a fusion or matrix label is out of range."""


def check_level(k) -> int:
    """The positive integer level k, or OutOfRange (a bool is no level)."""
    if type(k) is not int or k < 1:
        raise OutOfRange("level must be a positive integer, got %r" % (k,))
    return k


@dataclass(frozen=True)
class OspLabel:
    """Superalgebra highest-weight label (r, s): 1 <= r <= p-1, 0 <= s <= p'-1,
    r + s odd."""

    r: int
    s: int = 0


@dataclass(frozen=True)
class Sl2Label:
    """Affine sl2 label (r, s): 1 <= r <= u-1, 0 <= s <= p'-1."""

    r: int
    s: int = 0


@dataclass(frozen=True)
class VirLabel:
    """Virasoro minimal-model label (r, s): 1 <= r <= u-1, 1 <= s <= p-1,
    identified with (u-r, p-s)."""

    r: int
    s: int


def _indices(label, r_max: int, s_min: int, s_max: int) -> Tuple[int, int]:
    """The (r, s) of a label: ints with 1 <= r <= r_max, s_min <= s <= s_max,
    else InvalidLabel.  A bool, float or Fraction equal to an int is refused
    too, since the label would share that int label's memo entry."""
    r, s = label.r, label.s
    if not (type(r) is int and type(s) is int):
        raise InvalidLabel("label indices must be integers, got (%r, %r)" % (r, s))
    if not 1 <= r <= r_max:
        raise InvalidLabel("first index %d outside [1, %d]" % (r, r_max))
    if not s_min <= s <= s_max:
        raise InvalidLabel("second index %d outside [%d, %d]" % (s, s_min, s_max))
    return r, s


# -- Virasoro Kac labels ------------------------------------------------------


def _kac_first(u: int, p: int, r: int, s: int) -> bool:
    """Whether (r, s) sorts first in its Kac class (r, s) ~ (u-r, p-s)."""
    return (r, s) <= (u - r, p - s)


def vir_canonical(u: int, p: int, r: int, s: int) -> VirLabel:
    """The representative of (r, s) ~ (u-r, p-s) that sorts first."""
    return VirLabel(r, s) if _kac_first(u, p, r, s) else VirLabel(u - r, p - s)


def vir_labels(u: int, p: int) -> List[VirLabel]:
    """Canonical labels of the (u, p) minimal model, in sorted order: the
    (r, s) with (r, s) <= (u-r, p-s), each class at its smaller
    representative.

    Raises ValueError unless u, p >= 2 are coprime integers: no other pair
    names a minimal model.
    """
    if (type(u) is not int or type(p) is not int or u < 2 or p < 2
            or math.gcd(u, p) != 1):
        raise ValueError("need coprime u, p >= 2, got (%r, %r)" % (u, p))
    return [VirLabel(r, s) for r in range(1, u) for s in range(1, p)
            if _kac_first(u, p, r, s)]


def vir_weight(u: int, p: int, r: int, s: int) -> QQ:
    """Conformal weight h_(r,s) of the (u, p) minimal model."""
    return QQ((u * s - p * r) ** 2 - (u - p) ** 2, 4 * u * p)


def vir_central_charge(u: int, p: int) -> QQ:
    """Central charge of the (u, p) minimal model."""
    return 1 - QQ(6 * (u - p) ** 2, u * p)


@dataclass(frozen=True)
class AdmissibleLevel:
    """Admissible level data determined by the coprime pair (p, p')."""

    p: int
    p_prime: int

    def __post_init__(self):
        p, pp = self.p, self.p_prime
        if not (type(p) is int and type(pp) is int):
            raise ValueError("level indices must be integers")
        if p <= 1 or pp < 1:
            raise ValueError("need p > 1 and p' >= 1, got (%d, %d)" % (p, pp))
        if math.gcd(p, pp) != 1:
            raise ValueError("p and p' must be coprime, got (%d, %d)" % (p, pp))
        if (p + pp) % 2 != 0:
            raise ValueError("p + p' must be even, got (%d, %d)" % (p, pp))
        if math.gcd(p, (p + pp) // 2) != 1:
            raise ValueError("p and (p+p')/2 must be coprime")

    @classmethod
    def from_integer_level(cls, k: int) -> "AdmissibleLevel":
        return cls(2 * check_level(k) + 3, 1)

    @property
    def k(self) -> QQ:
        return QQ(self.p, 2 * self.p_prime) - QQ(3, 2)

    @property
    def delta(self) -> int:
        return self.p + self.p_prime

    @property
    def u(self) -> int:
        return (self.p + self.p_prime) // 2

    @property
    def is_integer_level(self) -> bool:
        return self.p_prime == 1

    def __str__(self):
        return "(p=%d, p'=%d, k=%s)" % (self.p, self.p_prime, self.k)

    # -- central charges and conformal weights -------------------------------

    @property
    def c_sl2(self) -> QQ:
        return 3 * self.k / (self.k + 2)

    @property
    def c_vir(self) -> QQ:
        return vir_central_charge(self.u, self.p)

    @property
    def c_osp(self) -> QQ:
        return self.c_sl2 + self.c_vir

    def h_sl2(self, r: int) -> QQ:
        """Conformal weight of the untwisted affine sl2 module with label (r, 0)."""
        return QQ(r * r - 1) / (4 * (self.k + 2))

    def h_vir(self, r: int, s: int) -> QQ:
        return vir_weight(self.u, self.p, r, s)

    def component_weight(self, i: int, r: int) -> QQ:
        """Conformal weight of the i-th branching component of the r-th
        superalgebra module (integer level): h_sl2(i) + h_vir(i, r)."""
        if not self.is_integer_level:
            raise InvalidLabel("component weights require an integer level")
        return self.h_sl2(i) + self.h_vir(i, r)

    # -- label validation and enumeration ------------------------------------

    def check_osp(self, label: OspLabel) -> OspLabel:
        r, s = _indices(label, self.p - 1, 0, self.p_prime - 1)
        if (r + s) % 2 != 1:
            raise InvalidLabel("indices (%d, %d) must have odd sum" % (r, s))
        return label

    def check_sl2(self, label: Sl2Label) -> Sl2Label:
        _, s = _indices(label, self.u - 1, 0, self.p_prime - 1)
        if self.is_integer_level and s != 0:
            raise InvalidLabel("integer level uses only s = 0 labels")
        return label

    def check_vir(self, label: VirLabel) -> VirLabel:
        _indices(label, self.u - 1, 1, self.p - 1)
        return label

    def osp_labels(self) -> List[OspLabel]:
        return [
            OspLabel(r, s)
            for r in range(1, self.p)
            for s in range(self.p_prime)
            if (r + s) % 2 == 1
        ]


# -- theta numerators ---------------------------------------------------------


def osp_numerator(level: AdmissibleLevel, label: OspLabel, N: Rat) -> WQSeries:
    """Two-variable theta numerator of the superalgebra character."""
    level.check_osp(label)
    p, pp = level.p, level.p_prime
    return _theta_difference(p * pp, pp * label.r, p * label.s, QQ(1, 2 * pp), N)


def sl2_numerator(level: AdmissibleLevel, label: Sl2Label, N: Rat) -> WQSeries:
    """Two-variable theta numerator of the affine sl2 character."""
    level.check_sl2(label)
    d, pp = level.delta, level.p_prime
    return _theta_difference(d * pp, 2 * pp * label.r, d * label.s, QQ(1, 2 * pp), N)


def vir_numerator(level: AdmissibleLevel, label: VirLabel, N: Rat) -> QSeries:
    """One-variable theta numerator of the Virasoro character."""
    level.check_vir(label)
    d, p = level.delta, level.p
    return wq_to_q(_theta_difference(d * p, 2 * p * label.r, d * label.s, 0, N))


# -- characters ---------------------------------------------------------------


def _char_floor(level: AdmissibleLevel, w: QQ) -> Optional[QQ]:
    """The w floor of a two-variable character at ``level``: none at integer
    level, where the division itself proves every q-slice's w-support
    complete, else w; at fractional level the slices are descending series
    in w."""
    return None if level.is_integer_level else w


# where the denominators start, and the least start of every character here
_WEYL_LO = _ETA_LO = QQ(1, 24)
_THETA1_LO, _CHAR_LO = QQ(1, 8), QQ(-1, 8)


def _quotient_char(numerator, denominator, beta: QQ, N: QQ, w_floor: Optional[QQ] = None):
    """numerator / denominator on q < N, w >= w_floor, both at ``_quotient_orders``.
    A numerator with no term below its order divides to the empty series on
    that box, and must reach that order as ``_div`` would require."""
    ta = _quotient_orders(N, beta, None)[0]
    num = numerator(ta)
    if num.is_zero:
        _require_order(num.q_trunc, ta, "the numerator", VerificationError)
        return num._of({}, 1, 1, N, w_floor)
    return _div(num, denominator(_quotient_orders(N, beta, num.min_q())[1]), N, w_floor)


# results each character memo keeps: one benchmark pass needs at most 79
# Virasoro classes, 52 sl2 and 28 superalgebra characters
CHAR_MEMO_SIZE = 256


@functools.lru_cache(maxsize=CHAR_MEMO_SIZE)
def _osp_char(level: AdmissibleLevel, label: OspLabel, N: QQ,
              w_floor: Optional[QQ]) -> WQSeries:
    return _quotient_char(functools.partial(osp_numerator, level, label),
                          weyl_denominator, _WEYL_LO, N, w_floor)


@functools.lru_cache(maxsize=CHAR_MEMO_SIZE)
def _sl2_char(level: AdmissibleLevel, label: Sl2Label, N: QQ,
              w_floor: Optional[QQ]) -> WQSeries:
    return _quotient_char(functools.partial(sl2_numerator, level, label),
                          vartheta1_times_i, _THETA1_LO, N, w_floor)


@functools.lru_cache(maxsize=CHAR_MEMO_SIZE)
def _vir_char(level: AdmissibleLevel, label: VirLabel, N: QQ) -> QSeries:
    return _quotient_char(functools.partial(vir_numerator, level, label),
                          qs_eta, _ETA_LO, N)


def osp_char(level: AdmissibleLevel, label: OspLabel, N: Rat) -> WQSeries:
    """Character of the superalgebra module, exact on the returned box.

    For integer levels the result carries the complete w-support of every
    q-slice (no floor).  For fractional levels the slices are genuinely
    infinite descending series in w and the result is cut at the fixed
    floor w = -(N+4).

    Built once per process for each (level, label, order), with 4 and
    Fraction(4) one order; the result is shared and must not be mutated,
    and at most ``CHAR_MEMO_SIZE`` results are kept.  The label and the
    order (ValueError unless positive) are checked on every call.
    """
    N = _positive_order(N)
    return _osp_char(level, level.check_osp(label), N, _char_floor(level, -(N + 4)))


def sl2_char(level: AdmissibleLevel, label: Sl2Label, N: Rat) -> WQSeries:
    """Character of the affine sl2 module, exact on the returned box.

    Same floor policy as :func:`osp_char`: complete w-support at integer
    level, a descending expansion cut at the fixed floor w = -(N+4)
    otherwise.  Memoised like it: built once per process for each (level,
    label, order), shared and never to be mutated, at most
    ``CHAR_MEMO_SIZE`` kept.
    """
    N = _positive_order(N)
    return _sl2_char(level, level.check_sl2(label), N, _char_floor(level, -(N + 4)))


def vir_char(level: AdmissibleLevel, label: VirLabel, N: Rat) -> QSeries:
    """Virasoro minimal-model character, exact to order N.

    (r, s) and (u-r, p-s) name the same character, so it is built once per
    process for each (level, Kac class, order), from the class's canonical
    label; the result is shared and must not be mutated, and at most
    ``CHAR_MEMO_SIZE`` results are kept.  Both labels give the same stored
    series bit for bit: their numerators are the same series, and the
    quotient is stored slice by slice in ascending q.
    """
    N = _positive_order(N)
    level.check_vir(label)
    return _vir_char(level, vir_canonical(level.u, level.p, label.r, label.s), N)


# -- identity verification ----------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exact series identity check."""

    ok: bool
    order: QQ
    first_discrepancy: Optional[Tuple[QQ, QQ, QQ, QQ]]  # (q, w, lhs, rhs)
    detail: str

    def __bool__(self):
        return self.ok


def _report(ok, order, bad, what) -> IdentityReport:
    if ok:
        return IdentityReport(True, order, None, "%s holds to order %s" % (what, order))
    return IdentityReport(False, order, bad,
                          "%s FAILS first at q^%s w^%s: lhs %s != rhs %s" % ((what,) + bad))


def verify_theta_identity(level: AdmissibleLevel, label: OspLabel,
                          N: Rat) -> IdentityReport:
    """Exact numerator-level identity underlying the character decomposition.

    Compares (theta numerator of the superalgebra character) * vartheta_2 at
    the half argument against the sum over the branching index i of
    sl2-numerator(i, s) * Virasoro-numerator(i, r), all to order N.
    """
    N = _positive_order(N)
    level.check_osp(label)
    lhs = wq_mul(osp_numerator(level, label, N), vartheta2(N, w_scale=QQ(1, 2)))
    rhs = WQSeries((), N, None)
    for i in range(1, level.u):
        part_w = sl2_numerator(level, Sl2Label(i, label.s), N)
        part_q = vir_numerator(level, VirLabel(i, label.r), N)
        rhs = wq_add(rhs, wq_mul(part_w, wq_from_q(part_q)))
    ok, bad, _ = wq_equal_on_box(lhs, rhs, order=N)
    what = "theta identity at %s, label (%d,%d)" % (level, label.r, label.s)
    return _report(ok, N, bad, what)


def verify_decomposition(level: AdmissibleLevel, label: OspLabel,
                         N: Rat) -> IdentityReport:
    """Exact character-level branching check.

    Compares the superalgebra character against the sum over i of
    (affine sl2 character at label (i, s)) * (Virasoro character at label
    (i, r)), on the common guarantee box up to order N.  Raises ValueError
    for N <= 0, whose box holds no term to compare.

    The superalgebra character is only compared, so it is built at order N;
    every factor at N + 1/8, the least the -1/8 bound of the module header
    allows.  At fractional level both two-variable characters are cut at
    w = -(N+8), so the box compared is q < N, w >= -(N+8) (q < N alone at
    integer level).  The order the sum achieved is checked, not assumed.
    """
    N = _positive_order(N)
    level.check_osp(label)
    M, F = _factor_order(N, _CHAR_LO), _char_floor(level, -(N + 8))
    lhs = _osp_char(level, label, N, F)
    total = WQSeries((), None, None)
    for i in range(1, level.u):
        part_w = _sl2_char(level, Sl2Label(i, label.s), M, F)
        part_q = vir_char(level, VirLabel(i, label.r), M)
        total = wq_add(total, wq_mul(part_w, wq_from_q(part_q)))
    ok, bad, (T, _) = wq_equal_on_box(lhs, total, order=N)
    what = "character decomposition at %s, label (%d,%d)" % (level, label.r, label.s)
    _require_order(T, N, what, VerificationError)
    return _report(ok, N, bad, what)


def osp_vacuum_central_charge(level: AdmissibleLevel) -> QQ:
    """Central charge read off the vacuum character's lowest exponent."""
    ch = osp_char(level, OspLabel(1, 0), 2)
    return -24 * ch.min_q()


# -- specialised one-variable characters (integer level) ----------------------


@functools.lru_cache(maxsize=8)
def _w1_table(level: AdmissibleLevel, N: QQ) -> Dict[int, Tuple[QSeries, QSeries]]:
    """(plain, signed) w -> 1 characters of every module r = 1..p-1, to order N.

    Each sl2 factor is built once, and each Virasoro factor once per Kac
    class, by the Virasoro memo (see :func:`vir_char`).  The table
    depends only on (level, N) and is kept for the next caller, on the
    contract of the character memos (see :func:`osp_char`): the series it
    returns are shared and must not be mutated.
    """
    if not level.is_integer_level:
        raise InvalidLabel("one-variable specialisations require an integer level")
    M = _factor_order(N, _CHAR_LO)
    u, p = level.u, level.p
    sl2_parts = {i: wq_specialize_w1(sl2_char(level, Sl2Label(i, 0), M)) for i in range(1, u)}
    out = {}
    for r in range(1, p):
        plus = minus = QSeries({}, None)
        for i in range(1, u):
            part = qs_mul(sl2_parts[i], vir_char(level, VirLabel(i, r), M))
            plus = plus + part
            minus = minus + (part if i % 2 == 1 else -1 * part)
        _require_order(plus.trunc, N, "w -> 1 character of module %d" % r, VerificationError)
        out[r] = (plus.truncate(N), minus.truncate(N))
    return out


def char_w1(level: AdmissibleLevel, r: int, N: Rat, signed: bool = False) -> QSeries:
    """w -> 1 specialisation of the r-th module's character (integer level),
    signed with ``signed``; see :func:`component_chars_w1`."""
    if type(r) is not int or not 1 <= r <= level.p - 1:
        raise InvalidLabel("module index %r outside [1, %d]" % (r, level.p - 1))
    return _w1_table(level, _positive_order(N))[r][1 if signed else 0]


def component_chars_w1(level: AdmissibleLevel, N: Rat) -> Dict[int, Tuple[QSeries, QSeries]]:
    """All (plain, signed) w -> 1 characters for r = 1..p-1, sharing work.

    Built from the branching components, so they are defined for every
    1 <= r <= p-1 including the twisted (even r) modules.  In the signed
    character the odd components (even branching index) enter with a minus
    sign.
    """
    return dict(_w1_table(level, _positive_order(N)))


def is_integer_graded(level: AdmissibleLevel, r: int, N: Rat = 6) -> bool:
    """Whether the r-th module's conformal weights are integer-spaced.

    Inspects the exponent support of the w -> 1 character relative to its
    lowest exponent.  Local modules (odd r) are integer-graded; twisted
    modules (even r) contain half-odd-integer spacings.
    """
    ch = char_w1(level, r, N)
    q0 = (ch.min_q() * ch.D).numerator
    return all((q - q0) % ch.D == 0 for q in ch._s)
