"""Acceptance self-test: the ten verification criteria the package promises.

Each criterion function returns a CriterionResult; ``run_all`` executes the
requested subset at full (default) or reduced (``fast=True``) size.  The
full sizes and tolerances are the promised ones; the fast preset keeps every
check structurally identical but shrinks orders and ranges for quick runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Tuple

from mpmath import mp

from .characters import (AdmissibleLevel, Sl2Label, VirLabel,
                         is_integer_graded, osp_vacuum_central_charge,
                         sl2_char, verify_decomposition, verify_theta_identity,
                         vir_char)
from .coset import (coset_char_direct, coset_char_phase_sum,
                    coset_reassembly, coset_smatrix)
from .fusion import (coset_labels, osp_fusion, sl2_fusion, super_fusion,
                     vir_fusion)
from .modular import (FAMILIES, check_s_transform_numeric, fp_dimension_report,
                      min_conformal_weight, sl2_smatrix, st_cube_defect,
                      t_matrix, verlinde_standard, verlinde_super, vir_smatrix,
                      vir_weight_map)
from .qseries import QQ, qs_equal_below
from .theta import wq_from_q, wq_mul

LEVEL_SET = ((5, 1), (7, 1), (9, 1), (3, 5))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    detail: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return "%s  criterion %2d  %-24s  %6.2fs  %s" % (
            self.status, self.number, self.name, self.runtime, self.detail)


def _result(number, name, t0, passed, detail) -> CriterionResult:
    return CriterionResult(number, name, passed, time.time() - t0, detail)


def criterion_1(fast: bool = False) -> CriterionResult:
    """Exact theta-level identity at every valid label of four levels."""
    t0 = time.time()
    N = 8 if fast else 20
    budget = 60.0
    count, bad = 0, []
    for (p, pp) in LEVEL_SET:
        level = AdmissibleLevel(p, pp)
        for lab in level.osp_labels():
            rep = verify_theta_identity(level, lab, N)
            count += 1
            if not rep.ok:
                bad.append(((p, pp), (lab.r, lab.s), rep.detail))
    elapsed = time.time() - t0
    ok = not bad and elapsed < budget
    detail = "%d labels at N=%d, exact%s" % (
        count, N, "" if not bad else "; first failure: %s" % (bad[0],))
    if elapsed >= budget:
        detail += "; exceeded %ds budget" % budget
    return _result(1, "theta-identity", t0, ok, detail)


def criterion_2(fast: bool = False) -> CriterionResult:
    """Character decomposition, plus the k=1 vacuum branching structure."""
    t0 = time.time()
    N = 6 if fast else 12
    bad = []
    count = 0
    for (p, pp) in LEVEL_SET:
        level = AdmissibleLevel(p, pp)
        for lab in level.osp_labels():
            rep = verify_decomposition(level, lab, N)
            count += 1
            if not rep.ok:
                bad.append(((p, pp), (lab.r, lab.s), rep.detail))
    # k=1 vacuum branching: the second summand carries the odd currents at
    # q^1, with weight 1/4 + 3/4 = 1.
    level1 = AdmissibleLevel.from_integer_level(1)
    struct_ok = (level1.h_sl2(2) == QQ(1, 4) and level1.h_vir(2, 1) == QQ(3, 4))
    prod = wq_mul(sl2_char(level1, Sl2Label(2, 0), QQ(3)),
                  wq_from_q(vir_char(level1, VirLabel(2, 1), QQ(3))))
    shift = -level1.c_osp / 24
    struct_ok = struct_ok and prod.min_q() == 1 + shift
    struct_ok = struct_ok and prod.q_slice(1 + shift) == {
        QQ(1, 2): QQ(1), QQ(-1, 2): QQ(1)}
    ok = not bad and struct_ok
    detail = "%d labels at N=%d; vacuum odd currents at q^1 (h=1/4+3/4): %s" % (
        count, N, struct_ok)
    if bad:
        detail += "; first failure: %s" % (bad[0],)
    return _result(2, "decomposition", t0, ok, detail)


def criterion_3(fast: bool = False) -> CriterionResult:
    """Verlinde output equals the combinatorial fusion tensors."""
    t0 = time.time()
    ks = (1, 2) if fast else (1, 2, 3)
    pairs = ((3, 5), (4, 7)) if fast else ((3, 5), (4, 7), (5, 9))
    checks = []
    for (u, p) in pairs:
        checks.append(verlinde_standard(vir_smatrix(u, p)) == vir_fusion(u, p))
    for k in ks:
        checks.append(verlinde_standard(sl2_smatrix(k)) == sl2_fusion(k))
    super_ok = True
    for k in ks:
        sv = verlinde_super(k)
        ft = osp_fusion(k)
        rng = range(1, 2 * k + 3)
        for r in rng:
            for r2 in rng:
                for r3 in rng:
                    if sv.n_plus.get((r, r2, r3), 0) != ft.coeff(r, r2, r3):
                        super_ok = False
                    for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, -1)):
                        if (sv.entry(r, signs[0], r2, signs[1], r3, signs[2])
                                != super_fusion(k, r, signs[0], r2, signs[1],
                                                r3, signs[2])):
                            super_ok = False
    checks.append(super_ok)
    ok = all(checks)
    return _result(3, "verlinde-equivalence", t0, ok,
                   "vir %s, sl2 k<=%d, super k<=%d: %s"
                   % (list(pairs), max(ks), max(ks),
                      "all equal" if ok else "MISMATCH"))


def criterion_4(fast: bool = False) -> CriterionResult:
    """Unitarity and (ST)^3 = S^2 for every S,T family."""
    t0 = time.time()
    prec = 256
    ks = (1, 2) if fast else (1, 2, 3)
    worst_u = mp.mpf(0)
    worst_st = mp.mpf(0)
    families = []
    for k in ks:
        for name, fam in FAMILIES.items():
            if fam.weights:
                params = fam.params(k)
                families.append((fam.smatrix(params, prec),
                                 t_matrix(name, params, prec)))
    for (S, T) in families:
        worst_u = max(worst_u, S.unitarity_defect())
        worst_st = max(worst_st, st_cube_defect(S, T))
    ok = worst_u < mp.mpf("1e-10") and worst_st < mp.mpf("1e-8")
    return _result(4, "modular-axioms", t0, ok,
                   "%d matrices, max |SS*-I| = %s, max |(ST)^3-S^2| = %s"
                   % (len(families), mp.nstr(worst_u, 3), mp.nstr(worst_st, 3)))


def criterion_5(fast: bool = False) -> CriterionResult:
    """Frobenius-Perron dimension identities, k = 1..12."""
    t0 = time.time()
    kmax = 6 if fast else 12
    tol = mp.mpf("1e-9")
    worst = mp.mpf(0)
    ok = True
    for k in range(1, kmax + 1):
        rep = fp_dimension_report(k)
        for it in rep.items:
            worst = max(worst, abs(it.difference))
            if abs(it.difference) > tol:
                ok = False
    r1 = fp_dimension_report(1)
    even_gap = abs(r1.item("dim_even").computed - 1)
    if even_gap > mp.mpf("1e-60"):
        ok = False
    return _result(5, "fp-dimensions", t0, ok,
                   "k=1..%d, worst |computed-closed| = %s; |FP(even,k=1)-1| = %s"
                   % (kmax, mp.nstr(worst, 3), mp.nstr(even_gap, 3)))


def criterion_6(fast: bool = False) -> CriterionResult:
    """The (1,2) label uniquely minimizes the conformal weight."""
    t0 = time.time()
    kmax = 6 if fast else 10
    ok = True
    detail_bits = []
    for k in range(1, kmax + 1):
        u, p = k + 2, 2 * k + 3
        lab = min_conformal_weight(u, p)
        weights = sorted(vir_weight_map(u, p).values())
        unique = len(weights) < 2 or weights[0] < weights[1]
        if lab != VirLabel(1, 2) or not unique:
            ok = False
            detail_bits.append("k=%d -> %r" % (k, lab))
    return _result(6, "minimal-weight", t0, ok,
                   "k=1..%d all V(1,2), strictly unique" % kmax if ok
                   else "; ".join(detail_bits))


def criterion_7(fast: bool = False) -> CriterionResult:
    """Vacuum lowest exponent = -c/24 with the additive central charge."""
    t0 = time.time()
    ok = True
    vals = []
    for k in range(1, 5):
        level = AdmissibleLevel.from_integer_level(k)
        u, p = level.u, level.p
        c_formula = (Fraction(3 * k, k + 2)
                     + 1 - Fraction(6 * (u - p) ** 2, u * p))
        c_series = osp_vacuum_central_charge(level)
        if c_series != c_formula or level.c_osp != c_formula:
            ok = False
        vals.append("k=%d: c=%s" % (k, c_formula))
    return _result(7, "central-charge", t0, ok, ", ".join(vals))


def criterion_8(fast: bool = False) -> CriterionResult:
    """Modules are integer-graded exactly for odd index."""
    t0 = time.time()
    ks = (1, 2) if fast else (1, 2, 3)
    ok = True
    count = 0
    for k in ks:
        level = AdmissibleLevel.from_integer_level(k)
        for r in range(1, 2 * k + 3):
            count += 1
            if is_integer_graded(level, r) != (r % 2 == 1):
                ok = False
    return _result(8, "locality", t0, ok,
                   "%d modules, integer-graded iff odd index: %s" % (count, ok))


def criterion_9(fast: bool = False) -> CriterionResult:
    """Numeric S-transformation residuals of the k=1 characters."""
    t0 = time.time()
    N = 16 if fast else 40
    taus = (mp.mpc(0, 1),) if fast else (mp.mpc(0, 1), mp.mpc(0, 2))
    budget = 120.0
    tol = mp.mpf("1e-6")
    worst = mp.mpf(0)
    worst_tail = mp.mpf(0)
    ok = True
    for tau in taus:
        rep = check_s_transform_numeric(1, tau, N, 256)
        for e in rep.entries:
            worst = max(worst, e.residual)
            worst_tail = max(worst_tail, e.tail_bound)
            if e.residual > tol:
                ok = False
    elapsed = time.time() - t0
    if elapsed >= budget:
        ok = False
    return _result(9, "s-transform-numeric", t0, ok,
                   "k=1, N=%d, tau0 in {i, 2i}: max residual %s "
                   "(tail bound %s)" % (N, mp.nstr(worst, 3),
                                        mp.nstr(worst_tail, 3)))


def criterion_10(fast: bool = False) -> CriterionResult:
    """Coset round-trip: independence, two routes, reassembly, Verlinde."""
    t0 = time.time()
    N = 6 if fast else 12
    ks = (1,) if fast else (1, 2)
    ok = True
    msgs = []
    for k in ks:
        for lab in coset_labels(k):
            try:
                d = coset_char_direct(k, lab, N)  # class-independence inside
                ph = coset_char_phase_sum(k, lab, N)
            except Exception as ex:  # InconsistentBranching and friends
                ok = False
                msgs.append("k=%d %s: %s" % (k, lab, ex))
                continue
            agree, bad = qs_equal_below(d, ph, N)
            if not agree:
                ok = False
                msgs.append("k=%d %s: direct vs phase differ at %s"
                            % (k, lab, bad[0]))
        for r in range(1, 2 * k + 3, 2):
            for signed in (False, True):
                rep = coset_reassembly(k, r, N, signed=signed)
                if not rep.ok:
                    ok = False
                    msgs.append("k=%d r=%d signed=%s: %s"
                                % (k, r, signed, rep.detail))
        try:
            coset_smatrix(k)  # verify=True: unitarity + Verlinde inside
        except Exception as ex:
            ok = False
            msgs.append("k=%d smatrix: %s" % (k, ex))
    detail = ("k in %s, N=%d: independence, dual routes, reassembly, "
              "Verlinde all hold" % (list(ks), N))
    if msgs:
        detail = "; ".join(msgs[:3])
    return _result(10, "coset-roundtrip", t0, ok, detail)


CRITERIA: Tuple[Tuple[int, Callable[[bool], CriterionResult]], ...] = (
    (1, criterion_1), (2, criterion_2), (3, criterion_3), (4, criterion_4),
    (5, criterion_5), (6, criterion_6), (7, criterion_7), (8, criterion_8),
    (9, criterion_9), (10, criterion_10),
)


def run_all(fast: bool = False, only: Optional[Iterable[int]] = None,
            report: Optional[Callable[[CriterionResult], None]] = None
            ) -> List[CriterionResult]:
    wanted = set(only) if only else None
    unknown = sorted(wanted - {number for number, _ in CRITERIA}) if wanted else []
    if unknown:
        raise ValueError("unknown criterion %s; the criteria are 1-%d"
                         % (", ".join(map(str, unknown)), len(CRITERIA)))
    results = []
    for number, fn in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        res = fn(fast)
        results.append(res)
        if report is not None:
            report(res)
    return results
