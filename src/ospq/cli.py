"""Command-line interface: batch computations with machine-readable output.

Rational numbers are serialized as {"num", "den"} pairs and high-precision
reals as decimal strings next to a "precision_bits" field, so every report
can be re-parsed losslessly.  Exit codes: 0 success, 1 verification failure
(a structured discrepancy report is still emitted), 2 usage error.

Defaults (order 20, 256 bits, JSON) can be overridden per flag or through
the OSPQ_ORDER / OSPQ_PRECISION / OSPQ_FORMAT environment variables.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from typing import Optional

import click
from mpmath import mp

from . import __version__
from .characters import (AdmissibleLevel, OspLabel, VirLabel,
                         verify_decomposition, verify_theta_identity)
from .coset import coset_char_direct, coset_char_phase_sum, coset_smatrix
from .fusion import CosetLabel, FusionTensor
from .modular import (FAMILIES, SMatrix, check_s_transform_numeric,
                      fp_dimension_report, min_conformal_weight, t_matrix,
                      verlinde_standard, verlinde_super, vir_weight_map)
from .qseries import (NonconvergentDomain, QSeries, VerificationError,
                      _positive_order, qs_equal_below)
from .selftest import run_all
from .theta import WQSeries

VERIFY_ERRORS = (VerificationError, NonconvergentDomain)


# -- serialization helpers -----------------------------------------------------


def _rat(x) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _rat_or_none(x):
    return None if x is None else _rat(x)


def _real(x, precision: int) -> str:
    return mp.nstr(mp.mpf(x), int(precision * 0.302) + 3)


def _cplx(z, precision: int) -> dict:
    z = mp.mpc(z)
    return {"re": _real(mp.re(z), precision), "im": _real(mp.im(z), precision)}


def _label_json(lab):
    if isinstance(lab, VirLabel):
        return {"r": lab.r, "s": lab.s}
    if isinstance(lab, tuple) and isinstance(lab[1], str):
        return {"r": lab[0], "part": lab[1]}
    if isinstance(lab, tuple):
        return {"nu": lab[0], "r": lab[1]}
    return lab


def _one_var_json(a: QSeries) -> dict:
    return {
        "terms": [{"q": _rat(e), "coeff": _rat(c)}
                  for e, c in a.items()],
        "trunc": _rat_or_none(a.trunc),
    }


def _two_var_json(a: WQSeries) -> dict:
    return {
        "terms": [{"q": _rat(qe), "w": _rat(we), "coeff": _rat(c)}
                  for (qe, we, c) in a.items()],
        "q_trunc": _rat_or_none(a.q_trunc),
        "w_floor": _rat_or_none(a.w_floor),
    }


def _report_json(rep) -> dict:
    out = {"ok": rep.ok, "order": _rat(rep.order), "detail": rep.detail}
    if rep.first_discrepancy is not None:
        qe, we, lhs, rhs = rep.first_discrepancy
        out["first_discrepancy"] = {
            "q": _rat(qe), "w": _rat(we), "lhs": _rat(lhs), "rhs": _rat(rhs)}
    else:
        out["first_discrepancy"] = None
    return out


def _level_json(level: AdmissibleLevel) -> dict:
    return {"p": level.p, "p_prime": level.p_prime, "k": _rat(level.k)}


def _resolve_level(k, p, pprime) -> AdmissibleLevel:
    if k is not None:
        if p is not None or pprime is not None:
            raise click.UsageError("give either -k or (-p, --pprime), not both")
        return AdmissibleLevel.from_integer_level(k)
    if p is None:
        raise click.UsageError("one of -k or (-p, --pprime) is required")
    return AdmissibleLevel(p, 1 if pprime is None else pprime)


def _family_params(family, k, u, p) -> dict:
    """The family's builder parameters by name: {"u", "p"} for the vir
    family (from -u -p, else its pair at level k), {"k"} for every other
    family; a flag the family would ignore is a usage error."""
    fam = FAMILIES[family]
    minimal_model = u is not None or p is not None
    if minimal_model and "u" not in fam.keys:
        raise click.UsageError("-u and -p apply to the vir family only")
    if minimal_model and k is not None:
        raise click.UsageError("give either -k or (-u, -p), not both")
    if u is not None and p is not None:
        return {"u": u, "p": p}
    if k is None:
        raise click.UsageError("give an integer level -k (vir also takes -u -p)")
    return dict(zip(fam.keys, fam.params(k)))


# -- common option decorators ---------------------------------------------------


def common_output(f):
    f = click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                     default="json", envvar="OSPQ_FORMAT",
                     help="Output format (env OSPQ_FORMAT).")(f)
    f = click.option("--out", type=click.Path(dir_okay=False, writable=True),
                     default=None, help="Write output to FILE instead of stdout.")(f)
    return f


def order_option(default: int):
    return click.option("-N", "--order", type=str, default=str(default),
                        envvar="OSPQ_ORDER",
                        help="Truncation order, rational allowed "
                             "(env OSPQ_ORDER, default %d)." % default)


def precision_option(f):
    return click.option("--precision", type=click.IntRange(min=1), default=256,
                        envvar="OSPQ_PRECISION",
                        help="Working precision in bits "
                             "(env OSPQ_PRECISION, default 256).")(f)


def family_option(default: str, *choices: str):
    return click.option("--family", type=click.Choice(choices),
                        default=default, show_default=True)


def family_options(f):
    f = click.option("-k", type=int, default=None, help="Integer level.")(f)
    f = click.option("-u", type=int, default=None,
                     help="Minimal-model index u (vir only).")(f)
    f = click.option("-p", type=int, default=None,
                     help="Minimal-model index p (vir only).")(f)
    return f


def level_options(f):
    f = click.option("-k", type=int, default=None,
                     help="Integer level (implies (p, p') = (2k+3, 1)).")(f)
    f = click.option("-p", type=int, default=None,
                     help="Level numerator for fractional levels.")(f)
    f = click.option("--pprime", type=int, default=None,
                     help="Level denominator partner (default 1).")(f)
    return f


def _parse_order(text: str) -> Fraction:
    try:
        N = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError("invalid order %r" % text)
    return _positive_order(N)


@click.group()
@click.version_option(__version__, prog_name="ospq")
def main():
    """Exact characters, fusion rings, modular data and coset branchings of
    the admissible-level osp(1|2) superalgebra families."""


def command(name: str, *options, help: Optional[str] = None):
    """Register a command of ``main`` with its own ``options``.

    The body takes only those options and returns (payload, table, ok),
    ``table`` a callable that renders the plain-text view.  The registrar
    adds --format and --out, writes JSON or the table to stdout or FILE, and
    exits 1 unless ok.  A failed verification prints a JSON error payload
    and exits 1; ValueError and ZeroDivisionError (bad labels or levels)
    are usage errors.
    """
    def register(body):
        @functools.wraps(body)
        def run(fmt, out, **kwargs):
            try:
                payload, table, ok = body(**kwargs)
                text = table() if fmt == "table" else json.dumps(payload, indent=2)
            except VERIFY_ERRORS as ex:
                click.echo(json.dumps({"ok": False, "error": type(ex).__name__,
                                       "detail": str(ex)}, indent=2))
                sys.exit(1)
            except (ValueError, ZeroDivisionError) as ex:
                raise click.UsageError(str(ex))
            if out:
                with open(out, "w") as fh:
                    fh.write(text + "\n")
            else:
                click.echo(text)
            if not ok:
                sys.exit(1)
        for option in reversed((*options, common_output)):
            run = option(run)
        return main.command(name, help=help)(run)
    return register


# -- characters -----------------------------------------------------------------


@command("char",
         family_option("osp", "osp", "sl2", "vir"),
         level_options,
         click.option("-r", type=int, required=True, help="First label index."),
         click.option("-s", type=int, default=0, show_default=True,
                      help="Second label index."),
         order_option(20))
def char_cmd(family, k, p, pprime, r, s, order):
    """Character series of one module (two-variable for osp/sl2)."""
    level = _resolve_level(k, p, pprime)
    N = _parse_order(order)
    series = FAMILIES[family].char(level, r, s, N)
    payload = {
        "command": "char", "family": family, "level": _level_json(level),
        "label": {"r": r, "s": s}, "order": _rat(N),
    }
    if isinstance(series, WQSeries):
        payload["series"] = _two_var_json(series)
    else:
        payload["series"] = _one_var_json(series)

    def table():
        lines = ["# %s character, label (%d,%d), order %s" % (family, r, s, N)]
        if isinstance(series, WQSeries):
            lines.append("%-12s %-12s %s" % ("q-exp", "w-exp", "coeff"))
            for (qe, we, c) in series.items():
                lines.append("%-12s %-12s %s" % (qe, we, c))
        else:
            lines.append("%-12s %s" % ("q-exp", "coeff"))
            for e, c in series.items():
                lines.append("%-12s %s" % (e, c))
        return "\n".join(lines)

    return payload, table, True


def _identity_command(name, verify_fn, default_order, help_text):
    @command(name, level_options,
             click.option("-r", type=int, default=None,
                          help="First label index (omit to run all labels)."),
             click.option("-s", type=int, default=None,
                          help="Second label index (omit to run all labels)."),
             order_option(default_order), help=help_text)
    def cmd(k, p, pprime, r, s, order):
        if s is not None and r is None:
            raise click.UsageError("-s selects a label only together with -r")
        level = _resolve_level(k, p, pprime)
        N = _parse_order(order)
        if r is not None:
            labels = [OspLabel(r, 0 if s is None else s)]
        else:
            labels = level.osp_labels()
        reports = [(lab, verify_fn(level, lab, N)) for lab in labels]
        all_ok = all(rep.ok for (_, rep) in reports)
        payload = {
            "command": name, "order": _rat(N), "level": _level_json(level),
            "results": [dict(label={"r": lab.r, "s": lab.s},
                             **_report_json(rep))
                        for (lab, rep) in reports],
            "ok": all_ok,
        }

        def table():
            lines = []
            for (lab, rep) in reports:
                lines.append("%s  (%d,%d)  %s" %
                             ("PASS" if rep.ok else "FAIL", lab.r, lab.s,
                              rep.detail))
            return "\n".join(lines)

        return payload, table, all_ok
    return cmd


_identity_command(
    "theta-identity", verify_theta_identity, 20,
    "Verify the exact theta-level branching identity (exit 1 on failure).")
_identity_command(
    "decompose", verify_decomposition, 12,
    "Verify the exact character decomposition (exit 1 on failure).")


# -- fusion ----------------------------------------------------------------------


def _fusion_payload(ft: FusionTensor) -> dict:
    entries = [{"a": _label_json(a), "b": _label_json(b),
                "c": _label_json(c), "n": n}
               for ((a, b, c), n) in sorted(ft.items(),
                                            key=lambda kv: str(kv[0]))]
    payload = {"labels": [_label_json(l) for l in ft.labels],
               "unit": _label_json(ft.unit), "entries": entries}
    if ft.label_flags:
        payload["flags"] = {str(l): fl for l, fl in ft.label_flags.items()}
    return payload


def _fusion_table(ft: FusionTensor, family: str) -> str:
    label = FAMILIES[family].text
    lines = []
    labels = list(ft.labels)
    for i, a in enumerate(labels):
        for b in labels[i:]:
            parts = [label(c) if n == 1 else "%d*%s" % (n, label(c))
                     for c, n in ft.product(a, b).items()]
            lines.append("%s x %s = %s" % (label(a), label(b),
                                           " + ".join(parts) if parts else "0"))
    return "\n".join(lines)


@command("fusion",
         family_option("osp", "osp", "sl2", "vir", "parafermion"), family_options)
def fusion_cmd(family, k, u, p):
    """Combinatorial fusion tensor of a family."""
    params = _family_params(family, k, u, p)
    ft = FAMILIES[family].fusion(*params.values())
    payload = {"command": "fusion", "family": family, **params,
               **_fusion_payload(ft)}
    return payload, lambda: _fusion_table(ft, family), True


# -- modular matrices -------------------------------------------------------------


def _smatrix_payload(S: SMatrix, precision: int) -> dict:
    return {
        "labels": [_label_json(l) for l in S.labels],
        "vacuum_index": S.vacuum_index,
        "entries": [[_cplx(v, precision) for v in row] for row in S.rows],
        "unitarity_defect": _real(S.unitarity_defect(), 64),
        "precision_bits": precision,
    }


def _smatrix_table(S: SMatrix, family: str) -> str:
    lines = ["# labels: " + ", ".join(map(FAMILIES[family].text, S.labels))]
    for row in S.rows:
        cells = []
        for v in row:
            z = mp.mpc(v)
            if abs(mp.im(z)) < mp.mpf("1e-40"):
                cells.append("%12s" % mp.nstr(mp.re(z), 8))
            else:
                cells.append("%24s" % mp.nstr(z, 8))
        lines.append(" ".join(cells))
    return "\n".join(lines)


@command("smatrix",
         family_option("extended", "vir", "sl2", "extended", "coset"),
         family_options, precision_option)
def smatrix_cmd(family, k, u, p, precision):
    """Modular S-matrix of a family."""
    params = _family_params(family, k, u, p)
    S = FAMILIES[family].smatrix(tuple(params.values()), precision)
    payload = {"command": "smatrix", "family": family, **params,
               **_smatrix_payload(S, precision)}
    return payload, lambda: _smatrix_table(S, family), True


@command("tmatrix",
         family_option("extended", "vir", "sl2", "extended", "coset"),
         family_options, precision_option)
def tmatrix_cmd(family, k, u, p, precision):
    """Modular T-matrix (diagonal phases) of a family."""
    params = _family_params(family, k, u, p)
    T = t_matrix(family, tuple(params.values()), precision)
    payload = {
        "command": "tmatrix", "family": family, **params,
        "labels": [_label_json(l) for l in T.labels],
        "weights": [_rat(h) for h in T.weights],
        "central_charge": _rat(T.central_charge),
        "phases": [_cplx(T.phase(l), precision) for l in T.labels],
        "precision_bits": precision,
    }
    if T.label_flags:
        payload["locality"] = {str(r): fl
                               for r, fl in sorted(T.label_flags.items())}

    def table():
        lines = ["# central charge %s" % T.central_charge]
        for lab in T.labels:
            lines.append("%-14s h=%-10s phase=%s" %
                         (FAMILIES[family].text(lab), T.exponent(lab)
                          + T.central_charge / 24,
                          mp.nstr(mp.mpc(T.phase(lab)), 8)))
        return "\n".join(lines)

    return payload, table, True


@command("verlinde",
         family_option("sl2", "vir", "sl2", "coset"), family_options,
         precision_option)
def verlinde_cmd(family, k, u, p, precision):
    """Verlinde fusion from the S-matrix, checked against the combinatorial
    tensor (exit 1 on mismatch)."""
    params = _family_params(family, k, u, p)
    S = FAMILIES[family].smatrix(tuple(params.values()), precision)
    ft = verlinde_standard(S)  # the one count of the ring
    matches = ft == FAMILIES[family].fusion(*params.values())
    payload = {"command": "verlinde", "family": family, **params,
               "matches_combinatorial": matches,
               **_fusion_payload(ft)}

    def table():
        return (_fusion_table(ft, family)
                + "\n# matches combinatorial tensor: %s" % matches)

    return payload, table, matches


@command("verlinde-super", click.option("-k", type=int, required=True),
         precision_option)
def verlinde_super_cmd(k, precision):
    """Parity-refined Verlinde data (even/odd intertwiner dimensions)."""
    sv = verlinde_super(k, precision)
    entries = []
    for (r, r2, r3), total in sorted(sv.n_plus.items()):
        e = sv.entry(r, 1, r2, 1, r3, 1)
        entries.append({"r": r, "r2": r2, "r3": r3,
                        "even": e.even_dim, "odd": e.odd_dim,
                        "total": total})
    payload = {
        "command": "verlinde-super", "k": k,
        "basis_matrix_involution_defect":
            _real(sv.stilde_involution_defect, 64),
        "basis_matrix_inverse_defect":
            _real(sv.stilde_inverse_defect, 64),
        "entries": entries,
        "precision_bits": precision,
    }

    def table():
        lines = ["# (r,+) x (r2,+) -> even*(r3,+) + odd*(r3,-)"]
        for it in entries:
            lines.append("M%d x M%d -> M%d: even %d, odd %d" %
                         (it["r"], it["r2"], it["r3"], it["even"],
                          it["odd"]))
        return "\n".join(lines)

    return payload, table, True


@command("fpdim", click.option("-k", type=int, required=True), precision_option)
def fpdim_cmd(k, precision):
    """Frobenius-Perron dimension identities (exit 1 if any fails)."""
    rep = fp_dimension_report(k, precision)
    items = [{"name": it.name,
              "computed": _real(it.computed, precision),
              "closed_form": _real(it.closed_form, precision),
              "difference": _real(it.difference, 64),
              "tolerance": _real(it.tolerance, 64),
              "ok": it.ok} for it in rep.items]
    payload = {
        "command": "fpdim", "k": k, "items": items,
        "fp_Sk": _real(rep.item("fp_extended").computed, precision),
        "fp_even": _real(rep.item("dim_even").computed, precision),
        "corollary_holds": rep.item("fp_quotient").ok,
        "ok": rep.ok,
        "precision_bits": precision,
    }

    def table():
        lines = []
        for it in rep.items:
            lines.append("%s  %-16s computed=%s  diff=%s" %
                         ("PASS" if it.ok else "FAIL", it.name,
                          mp.nstr(mp.mpf(it.computed), 12),
                          mp.nstr(mp.mpf(it.difference), 3)))
        return "\n".join(lines)

    return payload, table, rep.ok


@command("minweight", family_options)
def minweight_cmd(k, u, p):
    """Minimal conformal weight label of the Virasoro factor."""
    uu, pp = _family_params("vir", k, u, p).values()
    lab = min_conformal_weight(uu, pp)
    weights = vir_weight_map(uu, pp)
    h = weights[lab]
    ordered = sorted(weights.values())
    unique = len(ordered) < 2 or ordered[0] < ordered[1]
    payload = {"command": "minweight", "u": uu, "p": pp,
               "label": {"r": lab.r, "s": lab.s}, "weight": _rat(h),
               "unique": unique}
    return payload, lambda: "V(%d,%d)  h = %s  unique = %s" % (
        lab.r, lab.s, h, unique), True


@command("stransform-check",
         click.option("-k", type=int, default=1, show_default=True),
         click.option("--tau0", type=str, default="1j", show_default=True,
                      help="Base point in the upper half plane, e.g. 2j or 0.3+1.1j."),
         order_option(20), precision_option)
def stransform_cmd(k, tau0, order, precision):
    """Numeric S-transformation check of the one-variable characters
    (exit 1 if any residual exceeds its tolerance)."""
    try:
        t0 = complex(tau0.replace("i", "j"))
    except ValueError:
        raise click.UsageError("cannot parse --tau0 %r" % tau0)
    N = _parse_order(order)
    rep = check_s_transform_numeric(k, mp.mpc(t0), N, precision)
    payload = {
        "command": "stransform-check", "k": k,
        "tau0": {"re": t0.real, "im": t0.imag}, "order": _rat(N),
        "entries": [{"r": e.r, "variant": e.variant,
                     "residual": _real(e.residual, 64),
                     "tail_bound": _real(e.tail_bound, 64),
                     "tolerance": _real(e.tolerance, 64),
                     "ok": e.ok} for e in rep.entries],
        "max_residual": _real(rep.max_residual, 64),
        "ok": rep.ok,
        "precision_bits": precision,
    }

    def table():
        lines = []
        for e in rep.entries:
            lines.append("%s  r=%d %-5s residual=%-12s tail=%s" %
                         ("PASS" if e.ok else "FAIL", e.r, e.variant,
                          mp.nstr(e.residual, 3), mp.nstr(e.tail_bound, 3)))
        return "\n".join(lines)

    return payload, table, rep.ok


@command("coset-char",
         click.option("-k", type=int, required=True),
         click.option("--nu", type=int, required=True, help="Lattice charge class."),
         click.option("-r", type=int, required=True, help="Odd module index."),
         order_option(12),
         click.option("--method", type=click.Choice(["direct", "phase", "both"]),
                      default="both", show_default=True))
def coset_char_cmd(k, nu, r, order, method):
    """Coset sector character, by either or both extraction routes
    (exit 1 if the routes disagree)."""
    N = _parse_order(order)
    lab = CosetLabel(nu, r)
    series = {}
    if method in ("direct", "both"):
        series["direct"] = coset_char_direct(k, lab, N)
    if method in ("phase", "both"):
        series["phase"] = coset_char_phase_sum(k, lab, N)
    agree = True
    if method == "both":
        agree, _ = qs_equal_below(series["direct"], series["phase"], N)
    shown = series.get("direct") or series["phase"]
    payload = {"command": "coset-char", "k": k,
               "label": {"nu": nu % (2 * k), "r": r}, "order": _rat(N),
               "method": method, "series": _one_var_json(shown),
               "routes_agree": agree}

    def table():
        lines = ["# C(%d,%d) at k=%d, order %s, method %s"
                 % (nu % (2 * k), r, k, N, method)]
        lines.append("%-12s %s" % ("q-exp", "coeff"))
        for e, c in shown.items():
            lines.append("%-12s %s" % (e, c))
        return "\n".join(lines)

    return payload, table, agree


@command("coset-smatrix", click.option("-k", type=int, required=True),
         precision_option)
def coset_smatrix_cmd(k, precision):
    """Coset S-matrix (unitarity and Verlinde checks run internally)."""
    S = coset_smatrix(k, precision)
    payload = {"command": "coset-smatrix", "k": k,
               **_smatrix_payload(S, precision)}
    return payload, lambda: _smatrix_table(S, "coset"), True


@command("selftest",
         click.option("--fast", is_flag=True, default=False,
                      help="Reduced orders and ranges for a quick run."),
         click.option("--criterion", "criteria", type=int, multiple=True,
                      help="Run only the given criterion numbers (repeatable)."))
def selftest_cmd(fast, criteria):
    """Run the acceptance criteria suite (exit 1 on any failure)."""
    out = click.get_current_context().params["out"]
    progress = sys.stderr.isatty() or out is not None

    def report(res):
        if progress:
            click.echo(res.line(), err=True)

    results = run_all(fast=fast, only=criteria or None, report=report)
    all_ok = all(r.passed for r in results)
    payload = {
        "command": "selftest", "fast": fast,
        "criteria": [{"number": r.number, "name": r.name,
                      "passed": r.passed, "runtime_s": round(r.runtime, 2),
                      "detail": r.detail} for r in results],
        "ok": all_ok,
    }
    return payload, lambda: "\n".join(r.line() for r in results), all_ok


if __name__ == "__main__":
    main()
