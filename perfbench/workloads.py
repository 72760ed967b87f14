"""Seeded inputs, items and output checks for the four benchmark workloads.

A workload turns a seed into a list of items.  An item is one unit of
verified work: a call into the public functions of ``ospq`` plus the check
that its output is right.  Inputs are drawn from fixed strata with a fixed
count per stratum, so every seed does about the same amount of work; passing
``rng=None`` enumerates every input the strata can produce, which is how the
reference digests are recorded.

Checks are of two kinds.  Exact outputs (sector series, identity reports,
fusion tensors, labels) are reduced to a canonical digest and compared with
``digests.json``.  Numeric outputs must stay within the gates the acceptance
criteria promise: unitarity <= 1e-10, (ST)^3 - S^2 <= 1e-8, FP identities
<= 1e-9, S-transform residual <= its tolerance and <= 1e-6.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from mpmath import mp

import ospq

UNITARITY_GATE = mp.mpf("1e-10")
ST_CUBE_GATE = mp.mpf("1e-8")
FP_GATE = mp.mpf("1e-9")
S_TRANSFORM_GATE = mp.mpf("1e-6")
PRECISION = 256

# Orders and strata.  "full" is what the benchmark measures; "smoke" is a
# structurally identical miniature that runs in seconds for the tests.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "identities": {
            "N": 4,
            # labels drawn per level: all 14 at integer level (they are the
            # costliest, so the slow end of the item spread is the same for
            # every seed) and 14 of the 27 at fractional level
            "per_level": {(5, 1): 2, (7, 1): 3, (9, 1): 4, (11, 1): 5,
                          (3, 5): 3, (5, 3): 4, (7, 3): 4, (3, 7): 3},
        },
        "coset": {"N": 3, "ks": (1, 2)},
        "modular": {
            # the top-band level 11 and k = 1, 2, 3, 5 always, plus one of two
            # blocks of two levels with near-equal S-matrix cost ((k+1)^4
            # entries), both slower than the median item, so every seed runs
            # the same work and the same number of fast items
            "fixed": (1, 2, 3, 5, 11), "blocks": ((4, 8), (6, 7)),
            "family_ks": (1, 2), "verlinde_ks": (1, 2, 3),
        },
        # the two orders cost about the same per check
        "s-transform": {"orders": ((1, 24), (2, 20)), "taus_per_k": 2},
    },
    "smoke": {
        "identities": {
            "N": 2,
            "per_level": {(5, 1): 1, (7, 1): 1, (3, 5): 1, (5, 3): 1},
        },
        "coset": {"N": 1, "ks": (1,)},
        "modular": {
            "fixed": (1, 2), "blocks": ((3,), (4,)),
            "family_ks": (1,), "verlinde_ks": (1,),
        },
        "s-transform": {"orders": ((1, 8), (2, 6)), "taus_per_k": 1},
    },
}


@dataclass(frozen=True)
class Item:
    """One timed call into ``ospq`` and the check of what it returned.

    ``check`` returns (problems, exact): a list of gate violations and the
    exact part of the output, whose digest must match the reference (None
    when the output is purely numeric).
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[List[str], Any]]


# -- canonical digests ---------------------------------------------------------


def canon(obj) -> str:
    """Canonical text of an exact output, independent of dict order."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, Fraction):
        return "%d/%d" % (obj.numerator, obj.denominator)
    if isinstance(obj, ospq.QSeries):
        return "QSeries(%s;%s)" % (canon(obj.trunc), canon(dict(obj.terms)))
    if isinstance(obj, ospq.IdentityReport):
        return "Identity(%s;%s;%s)" % (canon(obj.ok), canon(obj.order),
                                       canon(obj.first_discrepancy))
    if isinstance(obj, ospq.FusionTensor):
        return "Fusion(%s;%s;%s)" % (canon(sorted(obj.labels, key=canon)),
                                     canon(obj.unit), canon(dict(obj.items())))
    if isinstance(obj, (tuple, list)):
        return "(%s)" % ",".join(canon(x) for x in obj)
    if isinstance(obj, dict):
        return "{%s}" % ",".join(sorted("%s:%s" % (canon(k), canon(v))
                                        for k, v in obj.items()))
    if is_dataclass(obj):
        return "%s(%s)" % (type(obj).__name__,
                           ",".join(canon(getattr(obj, f.name)) for f in fields(obj)))
    raise TypeError("no canonical form for %r" % (type(obj),))


def digest(obj) -> str:
    return hashlib.sha256(canon(obj).encode()).hexdigest()[:24]


# -- stratified draws ----------------------------------------------------------


def _pick(rng, population: Sequence, count: int) -> list:
    """``count`` members drawn without replacement; all of them if rng is None."""
    return list(population) if rng is None else rng.sample(list(population), count)


def _order(rng, items: List[Item]) -> List[Item]:
    if rng is not None:
        rng.shuffle(items)
    return items


# -- identities: wide and shallow two-variable division ------------------------


def identities(rng, size: Dict[str, Any]) -> List[Item]:
    N = size["N"]
    items = []
    for (p, pp), count in size["per_level"].items():
        level = ospq.AdmissibleLevel(p, pp)
        for lab in _pick(rng, level.osp_labels(), count):
            items.append(Item(
                "identities/N=%d/(%d,%d)/(%d,%d)" % (N, p, pp, lab.r, lab.s),
                lambda level=level, lab=lab: (
                    ospq.verify_theta_identity(level, lab, N),
                    ospq.verify_decomposition(level, lab, N)),
                _check_reports))
    return _order(rng, items)


def _check_reports(reports):
    return ["%s" % r.detail for r in reports if not r.ok], reports


# -- coset: the lattice-coset round trip, rich in repeated characters ----------


def coset(rng, size: Dict[str, Any]) -> List[Item]:
    N = size["N"]
    items = []
    for k in size["ks"]:
        for lab in ospq.coset_labels(k):
            items.append(Item("coset/N=%d/k=%d/sector(%d,%d)" % (N, k, lab.nu, lab.r),
                              lambda k=k, lab=lab: _sector_routes(k, lab, N),
                              _check_sector))
        for r in range(1, 2 * k + 3, 2):
            for signed in (False, True):
                items.append(Item(
                    "coset/N=%d/k=%d/reassembly(r=%d,signed=%s)" % (N, k, r, signed),
                    lambda k=k, r=r, signed=signed: ospq.coset_reassembly(
                        k, r, N, signed=signed),
                    lambda rep: ([] if rep.ok else [rep.detail], rep)))
        items.append(Item("coset/k=%d/smatrix" % k,
                          lambda k=k: ospq.coset_smatrix(k, PRECISION),
                          _check_unitary))
    return _order(rng, items)


def _sector_routes(k, lab, N):
    direct = ospq.coset_char_direct(k, lab, N)
    phase = ospq.coset_char_phase_sum(k, lab, N)
    agree, bad = ospq.qs_equal_below(direct, phase, N)
    return direct, agree, bad


def _check_sector(out):
    direct, agree, bad = out
    return ([] if agree else ["direct and phase routes differ at %s" % (bad,)]), direct


def _check_unitary(S):
    d = S.unitarity_defect()
    return ([] if d <= UNITARITY_GATE else ["|SS*-I| = %s" % mp.nstr(d, 3)]), None


# -- modular: numeric modular data only, no series -----------------------------


def modular(rng, size: Dict[str, Any]) -> List[Item]:
    blocks = size["blocks"]
    block_ks = [k for b in (blocks if rng is None else [rng.choice(blocks)]) for k in b]
    items = [Item("modular/fp(k=%d)" % k, lambda k=k: _fp_item(k), _check_fp)
             for k in list(size["fixed"]) + block_ks]
    for k in size["family_ks"]:
        for family in ("vir", "sl2", "extended", "coset"):
            items.append(Item("modular/axioms(%s,k=%d)" % (family, k),
                              lambda family=family, k=k: _axioms_item(family, k),
                              _check_axioms))
    for k in size["verlinde_ks"]:
        for family in ("vir", "sl2", "super"):
            items.append(Item("modular/verlinde(%s,k=%d)" % (family, k),
                              lambda family=family, k=k: _verlinde_item(family, k),
                              _check_verlinde))
    return _order(rng, items)


def _fp_item(k):
    report = ospq.fp_dimension_report(k, PRECISION)
    return report, ospq.min_conformal_weight(k + 2, 2 * k + 3)


def _check_fp(out):
    report, minimal = out
    problems = ["%s off by %s" % (it.name, mp.nstr(it.difference, 3))
                for it in report.items if not abs(it.difference) <= FP_GATE]
    if minimal != ospq.VirLabel(1, 2):
        problems.append("minimal weight at %r" % (minimal,))
    return problems, (minimal, tuple(it.name for it in report.items))


def _axioms_item(family, k):
    u, p = k + 2, 2 * k + 3
    if family == "vir":
        S, T = ospq.vir_smatrix(u, p, PRECISION), ospq.t_matrix("vir", (u, p), PRECISION)
    elif family == "sl2":
        S, T = ospq.sl2_smatrix(k, PRECISION), ospq.t_matrix("sl2", k, PRECISION)
    elif family == "extended":
        S, T = ospq.extended_smatrix(k, PRECISION), ospq.t_matrix("extended", k, PRECISION)
    else:
        S = ospq.coset_smatrix(k, PRECISION, verify=False)
        T = ospq.t_matrix("coset", k, PRECISION)
    return S.unitarity_defect(), ospq.st_cube_defect(S, T)


def _check_axioms(out):
    du, dst = out
    problems = []
    if not du <= UNITARITY_GATE:
        problems.append("|SS*-I| = %s" % mp.nstr(du, 3))
    if not dst <= ST_CUBE_GATE:
        problems.append("|(ST)^3-S^2| = %s" % mp.nstr(dst, 3))
    return problems, None


def _verlinde_item(family, k):
    u, p = k + 2, 2 * k + 3
    if family == "vir":
        ft = ospq.verlinde_standard(ospq.vir_smatrix(u, p, PRECISION))
        return ft, ft == ospq.vir_fusion(u, p)
    if family == "sl2":
        ft = ospq.verlinde_standard(ospq.sl2_smatrix(k, PRECISION))
        return ft, ft == ospq.sl2_fusion(k)
    sv = ospq.verlinde_super(k, PRECISION)
    ft = ospq.osp_fusion(k)
    rng = range(1, 2 * k + 3)
    same = all(
        sv.n_plus.get((r, r2, r3), 0) == ft.coeff(r, r2, r3)
        and all(sv.entry(r, a, r2, b, r3, c) == ospq.super_fusion(k, r, a, r2, b, r3, c)
                for (a, b, c) in ((1, 1, 1), (1, -1, 1), (-1, -1, -1)))
        for r in rng for r2 in rng for r3 in rng)
    return (sv.n_plus, sv.n_minus), same


def _check_verlinde(out):
    tensor, same = out
    return ([] if same else ["Verlinde output differs from the fusion tensor"]), tensor


# -- s-transform: deep and narrow division plus numeric evaluation -------------


def s_transform(rng, size: Dict[str, Any]) -> List[Item]:
    if rng is None:
        return []  # numeric only: nothing to digest
    items = []
    for k, N in size["orders"]:
        taus = size["taus_per_k"]
        for j in range(taus):
            # one draw from each of ``taus`` equal strata of Im tau0 in [1, 2]:
            # a smaller Im tau0 costs a little more, so every seed gets the
            # same spread of Im tau0
            re = round(rng.uniform(-0.5, 0.5), 6)
            im = round(rng.uniform(1.0 + j / taus, 1.0 + (j + 1) / taus), 6)
            tau0 = mp.mpc(mp.mpf(repr(re)), mp.mpf(repr(im)))
            items.append(Item(
                "s-transform/k=%d/N=%d/tau0=%.6f%+.6fj" % (k, N, re, im),
                lambda k=k, N=N, tau0=tau0: ospq.check_s_transform_numeric(
                    k, tau0, N, PRECISION),
                lambda rep, k=k: _check_s_transform(rep, k)))
    return _order(rng, items)


def _check_s_transform(report, k):
    problems = ["r=%d %s: residual %s > %s" % (e.r, e.variant, mp.nstr(e.residual, 3),
                                               mp.nstr(min(e.tolerance, S_TRANSFORM_GATE), 3))
                for e in report.entries
                if not (e.residual <= e.tolerance and e.residual <= S_TRANSFORM_GATE)]
    if len(report.entries) != 2 * (2 * k + 2):
        problems.append("%d entries, expected %d" % (len(report.entries), 4 * k + 4))
    return problems, None


WORKLOADS: Dict[str, Callable[[Any, Dict[str, Any]], List[Item]]] = {
    "identities": identities,
    "coset": coset,
    "modular": modular,
    "s-transform": s_transform,
}


def make_items(workload: str, seed: Optional[int], size: str = "full") -> List[Item]:
    """The items of one pass; ``seed=None`` gives every item the strata allow."""
    rng = None if seed is None else random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](rng, SIZES[size][workload])
