"""Combinatorial fusion rings.

Everything here reduces to one 0/1 coefficient rule on a window of size w
(:func:`n_coeff`): Virasoro minimal models fold two copies of it through the
label identification, integrable affine sl2 uses it at window k+2, the
superalgebra family at window 2k+3 with a locality flag per label, and the
parafermion coset crosses the superalgebra rule with a cyclic group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, NamedTuple, Optional, Tuple

from .characters import VirLabel, vir_canonical, vir_labels


class OutOfRange(ValueError):
    """Raised when a fusion label lies outside the ring's label set."""


def check_level(k) -> int:
    """The positive integer level k, or OutOfRange."""
    if not isinstance(k, int) or k < 1:
        raise OutOfRange("level must be a positive integer, got %r" % (k,))
    return k


@dataclass(frozen=True)
class SuperFusionEntry:
    """Dimensions of a parity-decorated space of intertwining operators."""

    even_dim: int
    odd_dim: int

    @property
    def sdim(self) -> int:
        return self.even_dim - self.odd_dim

    @property
    def total_dim(self) -> int:
        return self.even_dim + self.odd_dim


Label = Hashable


class FusionTensor:
    """Immutable fusion-coefficient tensor over an ordered label set."""

    __slots__ = ("labels", "unit", "_coeffs", "label_flags", "_index")

    def __init__(self, labels, unit, coeffs: Mapping[Tuple, int],
                 label_flags: Optional[Mapping[Label, str]] = None):
        self.labels = tuple(labels)
        self._index = {a: i for i, a in enumerate(self.labels)}
        if unit not in self._index:
            raise OutOfRange("unit %r is not a label" % (unit,))
        self.unit = unit
        self._coeffs = {key: int(n) for key, n in coeffs.items() if n}
        self.label_flags = dict(label_flags) if label_flags else None

    def _check(self, a: Label) -> Label:
        if a not in self._index:
            raise OutOfRange("label %r is not in the ring" % (a,))
        return a

    def coeff(self, a: Label, b: Label, c: Label) -> int:
        self._check(a), self._check(b), self._check(c)
        return self._coeffs.get((a, b, c), 0)

    def product(self, a: Label, b: Label) -> Dict[Label, int]:
        self._check(a), self._check(b)
        out = {}
        for c in self.labels:
            n = self._coeffs.get((a, b, c), 0)
            if n:
                out[c] = n
        return out

    def items(self):
        return self._coeffs.items()

    def __eq__(self, other):
        if not isinstance(other, FusionTensor):
            return NotImplemented
        return (set(self.labels) == set(other.labels)
                and self.unit == other.unit
                and self._coeffs == other._coeffs)

    def __repr__(self):
        return "FusionTensor(%d labels, %d nonzero entries)" % (
            len(self.labels), len(self._coeffs))

    # -- ring axioms ----------------------------------------------------------

    def verify_unit(self) -> bool:
        for b in self.labels:
            for c in self.labels:
                want = 1 if b == c else 0
                if self.coeff(self.unit, b, c) != want:
                    return False
        return True

    def verify_commutativity(self) -> bool:
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    if self.coeff(a, b, c) != self.coeff(b, a, c):
                        return False
        return True

    def verify_associativity(self) -> bool:
        """Exhaustive check of sum_e N(a,b,e)N(e,c,d) = sum_f N(b,c,f)N(a,f,d)."""
        L = self.labels
        for a in L:
            ab = {b: self.product(a, b) for b in L}
            for b in L:
                for c in L:
                    bc = self.product(b, c)
                    for d in L:
                        lhs = sum(n * self._coeffs.get((e, c, d), 0)
                                  for e, n in ab[b].items())
                        rhs = sum(n * self._coeffs.get((a, f, d), 0)
                                  for f, n in bc.items())
                        if lhs != rhs:
                            return False
        return True

    def dual(self, a: Label) -> Label:
        self._check(a)
        partners = [b for b in self.labels if self.coeff(a, b, self.unit) == 1]
        if len(partners) != 1:
            raise OutOfRange("label %r has %d dual candidates" % (a, len(partners)))
        return partners[0]

    def verify_duality(self) -> bool:
        """Each label has a unique dual and N(a,b,c) = N(a*,c,b)."""
        try:
            duals = {a: self.dual(a) for a in self.labels}
        except OutOfRange:
            return False
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    if self.coeff(a, b, c) != self.coeff(duals[a], c, b):
                        return False
        return True


def n_coeff(w: int, t: int, t_prime: int, t_second: int) -> int:
    """0/1 window fusion rule at size w.

    Returns 1 iff |t-t'|+1 <= t'' <= min(t+t'-1, 2w-t-t') and t+t'+t''
    is odd.  The two input labels must lie in [1, w-1]; the candidate
    output label may be any integer (the rule is 0 outside the window).
    """
    if not isinstance(w, int) or w < 2:
        raise OutOfRange("window size must be an integer >= 2, got %r" % (w,))
    for t_ in (t, t_prime):
        if not isinstance(t_, int) or not (1 <= t_ <= w - 1):
            raise OutOfRange("label %r outside [1, %d]" % (t_, w - 1))
    if not isinstance(t_second, int):
        raise OutOfRange("candidate label %r is not an integer" % (t_second,))
    return int(t_second in _window(w, t, t_prime))


def _window(w: int, t: int, t_prime: int) -> range:
    """The t'' with n_coeff(w, t, t', t'') = 1, ascending: every other
    integer from |t-t'|+1 (where t+t'+t'' is odd) up to min(t+t'-1,
    2w-t-t').  For labels t, t' in [1, w-1] it lies in [1, w-1]."""
    return range(abs(t - t_prime) + 1, min(t + t_prime - 1, 2 * w - t - t_prime) + 1, 2)


def vir_fusion(u: int, p: int) -> FusionTensor:
    """Fusion tensor of the (u, p) Virasoro minimal model.

    Coefficients are products of the two window rules, folded onto canonical
    representatives by summing the contributions of both preimages of each
    target label.
    """
    labels = vir_labels(u, p)
    coeffs = {}
    for a in labels:
        for b in labels:
            for r2 in _window(u, a.r, b.r):
                for s2 in _window(p, a.s, b.s):
                    key = (a, b, vir_canonical(u, p, r2, s2))
                    coeffs[key] = coeffs.get(key, 0) + 1
    return FusionTensor(labels, VirLabel(1, 1), coeffs)


def _window_ring(w: int) -> Dict[Tuple[int, int, int], int]:
    """The window rule at size w over the labels 1..w-1, as coefficients
    keyed (a, b, c) in label order."""
    labels = range(1, w)
    return {(a, b, c): 1 for a in labels for b in labels for c in _window(w, a, b)}


def sl2_fusion(k: int) -> FusionTensor:
    """Fusion tensor of integrable affine sl2 at positive integer level k."""
    check_level(k)
    labels = tuple(range(1, k + 2))
    return FusionTensor(labels, 1, _window_ring(k + 2))


def osp_fusion(k: int) -> FusionTensor:
    """Fusion tensor of the superalgebra family at positive integer level k.

    Labels r = 1..2k+2 with the window rule at 2k+3; each label carries a
    locality flag: odd r is local (integer-graded), even r is twisted.
    """
    check_level(k)
    labels = tuple(range(1, 2 * k + 3))
    flags = {r: ("local" if r % 2 == 1 else "twisted") for r in labels}
    return FusionTensor(labels, 1, _window_ring(2 * k + 3),
                        label_flags=flags)


# the three values a parity-resolved 0/1 multiplicity takes, built once
_INTERTWINERS = {key: SuperFusionEntry(*key) for key in ((0, 0), (1, 0), (0, 1))}


def _intertwiners(even: int, odd: int) -> SuperFusionEntry:
    """SuperFusionEntry(even, odd), the shared value when it is one of the
    three 0/1 multiplicities."""
    return _INTERTWINERS.get((even, odd)) or SuperFusionEntry(even, odd)


def super_fusion(k: int, r: int, eps: int, r_prime: int, eps_prime: int,
                 r_second: int, eps_second: int) -> SuperFusionEntry:
    """Parity-resolved fusion multiplicity for the superalgebra family.

    The signed dimension is eps*eps'*eps'' times the window coefficient; the
    multiplicity sits entirely in the even or odd part according to that
    sign.
    """
    for e in (eps, eps_prime, eps_second):
        if e not in (1, -1):
            raise OutOfRange("parity signs must be +1 or -1, got %r" % (e,))
    n = n_coeff(2 * k + 3, r, r_prime, r_second)
    return _intertwiners(n, 0) if eps * eps_prime * eps_second > 0 else _intertwiners(0, n)


class CosetLabel(NamedTuple):
    """Coset sector label: lattice charge nu mod 2k and odd module index r."""

    nu: int
    r: int


def coset_labels(k: int) -> Tuple[CosetLabel, ...]:
    """The coset sector labels in the one order shared by the coset fusion
    tensor, S-matrix and T-matrix: nu = 0..2k-1, then r odd in 1..2k+2."""
    check_level(k)
    return tuple(CosetLabel(nu, r) for nu in range(2 * k)
                 for r in range(1, 2 * k + 3) if r % 2 == 1)


def parafermion_fusion(k: int) -> FusionTensor:
    """Fusion tensor of the parafermion coset at positive integer level k.

    Labels are :func:`coset_labels`; the cyclic charge adds and the
    r-indices fuse by the window rule at 2k+3.
    """
    labels = coset_labels(k)
    coeffs = {}
    for a in labels:
        for b in labels:
            mu = (a.nu + b.nu) % (2 * k)
            # a.r and b.r are odd, so the window holds odd r only
            for rs in _window(2 * k + 3, a.r, b.r):
                coeffs[(a, b, CosetLabel(mu, rs))] = 1
    return FusionTensor(labels, CosetLabel(0, 1), coeffs)
