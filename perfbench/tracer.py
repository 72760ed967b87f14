"""Outside-in tracer: spans around calls into the layers of ``ospq``.

The package's modules import each other's functions by name (``from .theta
import wq_mul`` gives ``characters`` its own binding), so wrapping only the
defining module would miss most calls.  ``Tracer.install`` therefore rebinds
each traced function in every ``ospq`` namespace that holds it, and patches
the traced ``SMatrix`` methods on the class.

A span records its name, start, end, parent span and item id, plus the size
of what the call returned and, for the functions whose reuse is counted, a
key of its argument tuple.  Spans stay in memory until the pass ends.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import ospq
from ospq import modular

# function -> layer group; the group names are the per-layer metric prefixes
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("theta", "wq_invert", "theta.wq_invert"),
    ("theta", "wq_mul", "theta.wq_mul"),
    ("theta", "wq_equal_on_box", "theta.wq_equal_on_box"),
    ("theta", "theta_big", "theta.constructors"),
    ("theta", "theta_q", "theta.constructors"),
    ("theta", "vartheta2", "theta.constructors"),
    ("theta", "vartheta1_times_i", "theta.constructors"),
    ("theta", "weyl_denominator", "theta.constructors"),
    ("characters", "osp_char", "characters.osp_char"),
    ("characters", "sl2_char", "characters.sl2_char"),
    ("characters", "vir_char", "characters.vir_char"),
    ("characters", "component_chars_w1", "characters.component_chars_w1"),
    ("qseries", "qs_mul", "qseries.qs_mul"),
    ("qseries", "qs_invert", "qseries.qs_invert"),
    ("qseries", "qs_eval", "qseries.qs_eval"),
    ("qseries", "qs_equal_below", "qseries.qs_equal_below"),
    ("modular", "vir_smatrix", "modular.vir_smatrix"),
    ("modular", "s_small", "modular.s_small"),
    ("modular", "verlinde_standard", "modular.verlinde"),
    ("modular", "verlinde_super", "modular.verlinde"),
    ("modular", "st_cube_defect", "modular.defects"),
    ("modular", "fp_dimension_report", "modular.fp_dimension_report"),
    ("coset", "coset_char_direct", "coset.coset_char_direct"),
    ("coset", "coset_char_phase_sum", "coset.coset_char_phase_sum"),
    ("coset", "coset_reassembly", "coset.coset_reassembly"),
    ("coset", "coset_smatrix", "coset.coset_smatrix"),
    ("fusion", "osp_fusion", "fusion.tensors"),
    ("fusion", "sl2_fusion", "fusion.tensors"),
    ("fusion", "vir_fusion", "fusion.tensors"),
    ("fusion", "parafermion_fusion", "fusion.tensors"),
    ("fusion", "super_fusion", "fusion.tensors"),
)
# defect meters are methods; the class attribute serves every instance
METHODS: Tuple[Tuple[type, str, str], ...] = (
    (modular.SMatrix, "unitarity_defect", "modular.defects"),
    (modular.SMatrix, "symmetry_defect", "modular.defects"),
    (modular.SMatrix, "square_defect_from_identity", "modular.defects"),
)
# groups whose distinct argument tuples are counted
DISTINCT = {"characters.osp_char", "characters.sl2_char", "characters.vir_char",
            "coset.coset_char_direct", "modular.vir_smatrix", "modular.s_small"}

ITEM = "item"


def _arg_key(args, kwargs):
    def norm(x):
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, tuple):
            return tuple(norm(y) for y in x)
        return x
    return repr((norm(args), sorted((k, norm(v)) for k, v in kwargs.items())))


def _size(out) -> int:
    """Terms of a returned series, entries of a returned matrix, else 0."""
    if isinstance(out, ospq.WQSeries):
        return out.n_terms()
    if isinstance(out, ospq.QSeries):
        return len(out.terms)
    if isinstance(out, modular.SMatrix):
        return out.n * out.n
    return 0


class Tracer:
    """Records spans while ``active``; install once per process."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, item, size, key]
        self.active = False
        self._stack: List[int] = []
        self._item: Optional[int] = None
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def _wrap(self, fn, group: str):
        tracer = self
        counted = group in DISTINCT

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [group, 0.0, 0.0, parent, tracer._item, 0,
                   _arg_key(args, kwargs) if counted else None]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            rec[5] = _size(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Rebind every traced function in every ``ospq`` namespace holding it."""
        wrappers: Dict[int, object] = {}
        for mod_name, attr, group in LAYERS:
            fn = getattr(sys.modules["ospq." + mod_name], attr)
            wrappers[id(fn)] = self._wrap(fn, group)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ospq" or name.startswith("ospq.")):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, w)
        for cls, attr, group in METHODS:
            fn = cls.__dict__[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, group))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    # -- items -------------------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self._item = item
        self.spans.append([ITEM, perf_counter(), 0.0, -1, item, 0, None])
        self._stack.append(len(self.spans) - 1)
        self.active = True

    def end_item(self) -> None:
        self.active = False
        self.spans[self._stack.pop()][2] = perf_counter()
        self._item = None

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- per-layer metrics -----------------------------------------------------------

# fields measured per layer group, as (unit, better)
FIELDS = {"calls": ("count", "lower"), "distinct": ("count", "lower"),
          "out_terms": ("count", "lower"), "entries": ("count", "lower"),
          "self_s": ("s", "lower"), "incl_s": ("s", "lower"), "share": ("ratio", "lower")}
GROUP_FIELDS = (
    ("theta.wq_invert", ("calls", "self_s", "out_terms", "share")),
    ("theta.wq_mul", ("calls", "self_s", "out_terms")),
    ("theta.wq_equal_on_box", ("calls", "self_s")),
    ("theta.constructors", ("self_s", "out_terms")),
    ("characters.osp_char", ("calls", "distinct", "incl_s")),
    ("characters.sl2_char", ("calls", "distinct", "incl_s")),
    ("characters.vir_char", ("calls", "distinct", "incl_s")),
    ("characters.component_chars_w1", ("calls", "incl_s")),
    ("qseries.qs_mul", ("calls", "self_s", "out_terms")),
    ("qseries.qs_invert", ("calls", "self_s")),
    ("qseries.qs_eval", ("calls", "self_s")),
    ("qseries.qs_equal_below", ("calls", "self_s")),
    ("modular.vir_smatrix", ("calls", "distinct", "self_s", "entries", "share")),
    ("modular.s_small", ("calls", "distinct", "self_s")),
    ("modular.verlinde", ("calls", "self_s")),
    ("modular.defects", ("self_s",)),
    ("modular.fp_dimension_report", ("incl_s",)),
    ("coset.coset_char_direct", ("calls", "distinct", "incl_s", "self_s")),
    ("coset.coset_char_phase_sum", ("calls", "incl_s", "self_s")),
    ("coset.coset_reassembly", ("calls", "incl_s", "self_s")),
    ("coset.coset_smatrix", ("calls", "incl_s", "self_s")),
    ("fusion.tensors", ("calls", "self_s")),
)
DERIVED = (
    ("theta.calls", "count", "lower"),
    ("theta.kept_term_ratio", "ratio", "higher"),
    ("characters.distinct_ratio", "ratio", "higher"),
    ("trace.pass_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
# (metric, unit, better); computed per traced pass, reported as the median
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (group + "." + field,) + FIELDS[field]
    for group, fields in GROUP_FIELDS for field in fields) + DERIVED


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer totals of one traced pass (all but trace.overhead_frac)."""
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    # a span is outermost in its group when no ancestor belongs to the group
    ancestors: List[frozenset] = [frozenset()] * n
    acc: Dict[str, Dict[str, float]] = {}
    keys: Dict[str, set] = {}
    pass_s = 0.0
    for i, (name, t0, t1, parent, _item, size, key) in enumerate(spans):
        if parent >= 0:
            ancestors[i] = ancestors[parent] | {spans[parent][0]}
        dur = t1 - t0
        if name == ITEM:
            pass_s += dur
            continue
        a = acc.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                  "out_terms": 0})
        a["calls"] += 1
        a["self_s"] += dur - child[i]
        if name not in ancestors[i]:
            a["incl_s"] += dur
            a["out_terms"] += size
        if key is not None:
            keys.setdefault(name, set()).add(key)

    def get(group, field):
        return acc.get(group, {}).get(field, 0)

    out: Dict[str, float] = {}
    for group, fields in GROUP_FIELDS:
        for field in fields:
            metric = group + "." + field
            if field == "distinct":
                out[metric] = len(keys.get(group, ()))
            elif field == "share":
                out[metric] = get(group, "self_s") / pass_s if pass_s else 0.0
            elif field == "entries":
                out[metric] = get(group, "out_terms")
            else:
                out[metric] = get(group, field)
    out["theta.calls"] = sum(a["calls"] for g, a in acc.items() if g.startswith("theta."))
    produced = get("theta.wq_invert", "out_terms")
    kept = get("characters.osp_char", "out_terms") + get("characters.sl2_char", "out_terms")
    out["theta.kept_term_ratio"] = kept / produced if produced else 0.0
    char_groups = ("characters.osp_char", "characters.sl2_char", "characters.vir_char")
    calls = sum(get(g, "calls") for g in char_groups)
    distinct = sum(len(keys.get(g, ())) for g in char_groups)
    out["characters.distinct_ratio"] = distinct / calls if calls else 0.0
    out["trace.pass_s"] = pass_s
    out["trace.spans"] = n
    return out


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
