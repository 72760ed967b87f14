"""The package surface: what ``ospq`` exports, the input contract its entry
points share, no import left unused, and the README's library example run as
written."""

import ast
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import ospq
from ospq import modular
from ospq.characters import check_level, vir_labels

SRC = Path(ospq.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# names the package no longer exports; each had no caller outside the tests
REMOVED = ("CRITERIA", "ExtendedSMatrix", "LatticeData", "char_w_signed_direct",
           "coset_t_phase", "fp_ratios", "qs_add", "qs_scalar", "stilde_matrix",
           "unitarity_defect", "verlinde_matches", "wq_scalar", "wq_specialize_w_signed")

# (module, name) imported only to be re-exported from that module
REEXPORTS = {("theta", "IncompleteQuotient")}


def test_all_lists_exactly_the_public_attributes():
    assert len(ospq.__all__) == len(set(ospq.__all__))
    public = {name for name, value in vars(ospq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(ospq.__all__) == public


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(ospq, name)] == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, line in _unused_imports(path).items():
            if (path.stem, name) not in REEXPORTS:
                unused.append("%s:%d %s" % (path.name, line, name))
    assert unused == []


def _holders(message):
    """(module, top-level name) of each top-level statement of the package
    whose lines hold ``message``; each file is split into lines once."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.parse(source, filename=str(path)).body:
            if message in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                found.append((path.stem, getattr(node, "name", None)))
    return found


def test_the_order_refusal_is_written_once():
    # every builder, and the CLI's order parser, refuses N <= 0 through
    # qseries._positive_order
    assert _holders("truncation order must be positive") == [
        ("qseries", "_positive_order")]


def test_the_level_refusal_is_written_once():
    # every builder refuses a level that is not a positive integer (a bool
    # included) through characters.check_level, with one message
    assert _holders("level must be a positive integer") == [("characters", "check_level")]


def test_every_memo_is_found_and_cleared(ospq_memos):
    # tests/conftest.py clears each of these before every test
    assert sorted(ospq_memos) == [
        "ospq.characters._osp_char", "ospq.characters._sl2_char",
        "ospq.characters._vir_char", "ospq.characters._w1_table",
        "ospq.coset._reassembly_pieces", "ospq.modular._sine_table",
        "ospq.modular._smatrix", "ospq.modular._stilde", "ospq.qseries._exp_step",
        "ospq.qseries._fixed_power", "ospq.qseries._tail_factors"]
    assert [name for name, memo in ospq_memos.items()
            if memo.cache_info().currsize] == []


def _strings(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_strings, node.elts))
    return set()


def test_no_module_compares_a_family_name():
    # every family is read from its modular.FAMILIES record; a comparison
    # with a family name (family == "vir", name in ("sl2", "coset")) is a
    # second dispatch that the record would not see
    names = set(modular.FAMILIES)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                hit = names & set().union(*map(_strings, [node.left, *node.comparators]))
                if hit:
                    found.append("%s:%d %s" % (path.name, node.lineno, sorted(hit)))
    assert found == []


def _references_outside_the_tests():
    """(names, attributes): every loaded name, and every attribute and whole
    string constant (the benchmark tracer names the functions it wraps), in
    a module of the package other than __init__, in perfbench/ or in
    scripts/."""
    root = README.parent
    paths = ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
             + sorted((root / "perfbench").glob("*.py")) + sorted((root / "scripts").glob("*.py")))
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    return names, attrs


def test_every_export_is_referenced_outside_the_tests():
    names, attrs = _references_outside_the_tests()
    assert sorted(set(ospq.__all__) - names - attrs) == []


def _is_command(fn):
    # a CLI body, which cli.command registers by its decorator
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "command"
               for d in fn.decorator_list)


def test_every_public_function_and_method_is_referenced_outside_the_tests():
    # code that only the tests call belongs in the tests; dunders and private
    # names are exempt, and so are the CLI bodies, which the parser calls.  A
    # method is reached only as an attribute or by a string, so a local
    # variable of the same name does not count for it
    names, attrs = _references_outside_the_tests()
    unreferenced = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner, defs, refs = "", [node], names | attrs
            if isinstance(node, ast.ClassDef):
                owner, defs, refs = node.name + ".", node.body, attrs
            for fn in defs:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_") and not _is_command(fn)
                        and fn.name not in refs):
                    unreferenced.append("%s:%s%s" % (path.stem, owner, fn.name))
    assert unreferenced == []


def test_each_box_rule_is_written_once():
    # sum, scale-and-shift, product, quotient and comparison are written once
    # on the shared lattice, for QSeries and WQSeries and their dunders
    assert _holders("dividing a w-floored series is not supported") == [("qseries", "_div")]
    product_truncs = [
        "%s:%d" % (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_product_trunc"]
    assert len(product_truncs) == 1, product_truncs
    shared = {"_of", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__",
              "__hash__", "min_q_bound", "_support_lo"}
    for cls in (ospq.QSeries, ospq.WQSeries):
        assert sorted(shared & set(vars(cls))) == [], cls.__name__


def _calls(name):
    """(module, enclosing qualified name) of each call of a function or
    method called ``name`` in the package."""
    found = []

    def visit(node, stem, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and name in (
                    getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                found.append((stem, ".".join(scope)))
            visit(child, stem, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, ())
    return found


def test_every_sine_is_computed_in_one_place():
    # each sine of the modular data is computed by the fill of one sine
    # table, and every table is the process memo's
    assert _calls("sinpi") == [("modular", "_Sines.__missing__")]
    assert _calls("_Sines") == [("modular", "_sine_table")]


def _is_constant(node):
    """A number literal, its negation, or QQ or Fraction of such."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("QQ", "Fraction"):
        return all(_is_constant(a) for a in node.args)
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_no_order_is_a_hand_margin():
    # every order that characters and coset build at comes from the planner
    # next to the box rules, qseries._factor_order and _quotient_orders: no
    # expression there adds a constant to N or M.  The w floors choose the
    # box that is returned or compared, so they are no margins
    floors = [("characters", "-(N + 4)"), ("characters", "-(N + 4)"),
              ("characters", "-(N + 8)")]
    found = []
    for stem in ("characters", "coset"):
        tree = ast.parse((SRC / (stem + ".py")).read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                    and any(_is_constant(x) for x in (node.left, node.right))
                    and any(isinstance(n, ast.Name) and n.id in ("N", "M")
                            for x in (node.left, node.right) for n in ast.walk(x))):
                parent = parents[node]
                found.append((stem, ast.unparse(parent if isinstance(parent, ast.UnaryOp)
                                                else node)))
    assert sorted(found) == floors


def test_the_q_scale_refusal_is_written_once():
    # every theta constructor refuses a q scale <= 0 in the one walk wrapper
    assert _holders("q scaling factor must be positive") == [("theta", "_theta")]


def test_the_super_fusion_refusals_are_written_once():
    # super_fusion and SuperVerlinde.entry refuse the same labels and signs
    # with one message each; the window rule and s_small share the label check
    assert _holders("parity signs must be +1 or -1") == [("fusion", "_check_signs")]
    assert _holders("label %r outside [1, %d]") == [("fusion", "_check_labels")]


def test_the_label_contract_is_written_once():
    # the (r, s) window of check_osp, check_sl2 and check_vir, the lookup of
    # every fusion tensor and S and T matrix, and the Kac order
    assert _holders("first index %d outside") == [("characters", "_indices")]
    assert _holders("is not in the") == [("fusion", "_LabelSet")]
    assert _holders("<= (u - r") == [("characters", "_kac_first")]


def test_the_only_integer_test_is_the_exact_type():
    # an integer input is an int that is not a bool: isinstance(x, int)
    # would pass True, so it is written type(x) is int everywhere
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(getattr(t, "id", None) == "int" for t in kinds):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


_LEVEL = ospq.AdmissibleLevel(5, 1)
_SERIES = ospq.QSeries({0: 1}, 3)

# (entry point, call on the refused value, exception, whether a Fraction
# equal to an int is refused too: it is wherever only an int is accepted)
_INT_INPUTS = [
    ("order", lambda x: ospq.vir_char(_LEVEL, ospq.VirLabel(1, 1), x), TypeError, False),
    ("exponent", lambda x: ospq.QSeries.monomial(1, x), TypeError, False),
    ("coefficient", lambda x: ospq.QSeries({0: x}), TypeError, False),
    ("qseries-scalar", lambda x: _SERIES * x, AttributeError, False),
    ("wqseries-scalar", lambda x: ospq.wq_from_q(_SERIES) * x, AttributeError, False),
    ("level", check_level, ospq.OutOfRange, True),
    ("admissible-level", lambda x: ospq.AdmissibleLevel(5, x), ValueError, True),
    ("osp-label-memo", lambda x: ospq.osp_char(_LEVEL, ospq.OspLabel(x, 0), 2),
     ospq.InvalidLabel, True),
    ("sl2-label", lambda x: ospq.sl2_char(_LEVEL, ospq.Sl2Label(1, x), 2),
     ospq.InvalidLabel, True),
    ("vir-label", lambda x: ospq.vir_char(_LEVEL, ospq.VirLabel(x, 1), 2),
     ospq.InvalidLabel, True),
    ("kac-table", lambda x: vir_labels(3, x), ValueError, True),
    ("module-index", lambda x: ospq.char_w1(_LEVEL, x, 2), ospq.InvalidLabel, True),
    ("window-size", lambda x: ospq.n_coeff(x, 1, 1, 1), ospq.OutOfRange, True),
    ("window-label", lambda x: ospq.n_coeff(4, x, 1, 1), ospq.OutOfRange, True),
    ("window-candidate", lambda x: ospq.n_coeff(4, 1, 1, x), ospq.OutOfRange, True),
    ("fusion-label", lambda x: ospq.super_fusion(1, 1, 1, 1, 1, x, 1), ospq.OutOfRange, True),
    ("fusion-sign", lambda x: ospq.super_fusion(1, 1, x, 1, 1, 1, 1), ospq.OutOfRange, True),
    ("verlinde-label", lambda x: ospq.verlinde_super(1).entry(x, 1, 1, 1, 1, 1),
     ospq.OutOfRange, True),
    ("verlinde-sign", lambda x: ospq.verlinde_super(1).entry(1, 1, 1, x, 1, 1),
     ospq.OutOfRange, True),
    ("s-entry", lambda x: ospq.s_small(1, x, 1), ospq.OutOfRange, True),
    ("coset-charge", lambda x: ospq.coset_char_direct(1, (x, 1), 2), ospq.InvalidLabel, True),
    ("coset-module", lambda x: ospq.coset_char_direct(1, (0, x), 2), ospq.InvalidLabel, True),
    ("lattice-class", lambda x: ospq.lattice_theta(1, x, 2), ospq.InvalidLabel, True),
    ("theta-first", lambda x: ospq.theta_big(x, 1, 0, 1, 2), ospq.InvalidIndex, True),
    ("theta-second", lambda x: ospq.theta_big(1, x, 0, 1, 2), ospq.InvalidIndex, True),
]


@pytest.mark.parametrize("call,error,value", [
    pytest.param(call, error, value, id="%s-%r" % (name, value))
    for name, call, error, exact in _INT_INPUTS
    for value in (True, False, 1.0) + ((Fraction(1),) if exact else ())])
def test_every_integer_input_refuses_a_bool_and_a_float(call, error, value):
    # True equals 1 and hashes like it: an accepted True would be module,
    # label or sign 1 (the memo case returns the OspLabel(1, 0) series)
    with pytest.raises(error):
        call(value)


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (## Library)", "exec"), {})
