"""Command-line interface: payload shapes, exit codes, format/env handling."""

import ast
import dataclasses
import hashlib
import json
import re
from fractions import Fraction as QQ
from pathlib import Path

import pytest
from click.testing import CliRunner
from mpmath import mp

import ospq.characters as characters
import ospq.cli as cli
import ospq.modular as modular
import ospq.selftest as selftest
from ospq.cli import main
from ospq.qseries import VerificationError
from ospq.theta import IncompleteQuotient, WQSeries


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def rat(obj):
    return QQ(obj["num"], obj["den"])


# -- characters -----------------------------------------------------------------


def test_char_json_payload_round_trips():
    res = run("char", "--family", "osp", "-k", "1", "-r", "1", "-N", "2")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["command"] == "char"
    assert rat(payload["level"]["k"]) == 1
    terms = {
        (rat(t["q"]), rat(t["w"])): rat(t["coeff"]) for t in payload["series"]["terms"]
    }
    assert terms[(QQ(-1, 60), QQ(0))] == 1
    assert terms[(QQ(59, 60), QQ(1, 2))] == 1
    assert rat(payload["series"]["q_trunc"]) == 2


def test_char_table_format():
    res = run("char", "--family", "vir", "-k", "1", "-r", "1", "-s", "2",
              "-N", "3", "--format", "table")
    assert res.exit_code == 0
    assert "q-exp" in res.output
    assert "-1/40" in res.output


def test_char_fractional_level():
    res = run("char", "--family", "osp", "-p", "3", "--pprime", "5",
              "-r", "2", "-s", "1", "-N", "1")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert rat(payload["level"]["k"]) == QQ(-6, 5)


def test_an_empty_fractional_character_prints_its_w_floor():
    res = run("char", "--family", "osp", "-p", "3", "--pprime", "5",
              "-r", "1", "-s", "4", "-N", "1/4")
    assert res.exit_code == 0
    series = json.loads(res.output)["series"]
    assert series["terms"] == []
    assert (rat(series["q_trunc"]), rat(series["w_floor"])) == (QQ(1, 4), QQ(-17, 4))


def test_a_short_empty_numerator_is_verification_failure(monkeypatch):
    monkeypatch.setattr(characters, "osp_numerator",
                        lambda level, label, N: WQSeries((), 1, None))
    res = run("char", "--family", "osp", "-k", "1", "-r", "1", "-N", "4")
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["error"] == "VerificationError"
    assert payload["detail"] == ("the numerator is exact only below q^1, "
                                 "short of order 97/24")


def test_char_invalid_label_is_usage_error():
    res = run("char", "--family", "osp", "-k", "1", "-r", "2", "-N", "2")
    assert res.exit_code == 2


@pytest.mark.parametrize("command,message", [
    ("char --family sl2 -k 1 -r 9", "first index 9 outside [1, 2]"),
    ("char --family vir -k 1 -r 1 -s 9", "second index 9 outside [1, 4]"),
    ("theta-identity -k 1 -r 2", "indices (2, 0) must have odd sum"),
    ("decompose -k 1 -r 7", "first index 7 outside [1, 4]"),
])
def test_label_outside_the_level_is_usage_error(command, message):
    res = run(*command.split())
    assert res.exit_code == 2
    assert "Error: %s" % message in res.output


def test_incomplete_quotient_is_verification_failure(monkeypatch):
    def incomplete(*args, **kwargs):
        raise IncompleteQuotient("q-slice 0 leaves a nonzero remainder")

    monkeypatch.setattr(modular, "osp_char", incomplete)
    res = run("char", "--family", "osp", "-k", "1", "-r", "1", "-N", "2")
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["ok"] is False
    assert payload["error"] == "IncompleteQuotient"


def test_representative_dependence_is_verification_failure(monkeypatch):
    monkeypatch.setattr(modular, "derived_tolerance", lambda precision: -1)
    res = run("smatrix", "--family", "vir", "-k", "1")
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["ok"] is False
    assert payload["error"] == "VerificationError"


def test_coset_smatrix_holds_at_eight_bits():
    # the coset ring is counted from the closed form, so no precision moves
    # it; at 8 bits (24 working bits) the unitarity gate still holds
    for precision in ("8", "10", "12"):
        assert run("coset-smatrix", "-k", "2", "--precision", precision).exit_code == 0


def test_coset_verlinde_proves_its_ring_once(monkeypatch):
    # the coset matrix is built without its own ring check, and
    # verlinde_standard counts the ring once; the coset record reads its
    # ring counter, modular._coset_ring
    calls = []
    ring = modular._coset_ring
    assert modular.FAMILIES["coset"].ring is ring

    def counted_ring(k):
        calls.append(k)
        return ring(k)

    monkeypatch.setitem(modular.FAMILIES, "coset", dataclasses.replace(
        modular.FAMILIES["coset"], ring=counted_ring))
    assert _stdout_digest("verlinde --family coset -k 2") == (
        0, OUTPUT_DIGESTS["verlinde --family coset -k 2"])
    assert calls == [2]


def test_coset_verlinde_keeps_the_unitarity_gate(monkeypatch):
    monkeypatch.setattr(modular.SMatrix, "unitarity_defect", lambda S: mp.mpf(1))
    res = run("verlinde", "--family", "coset", "-k", "2")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "NonIntegralFusion"


@pytest.mark.parametrize("command", ["verlinde --family coset -k 2", "coset-smatrix -k 2"])
def test_coset_commands_form_one_gram_product(monkeypatch, command):
    # the unitarity gate and verlinde_standard (verlinde), or the gate and
    # the payload (coset-smatrix), read the one S S^dagger the matrix keeps
    calls = []
    product = modular._product

    def counted(A, B, adjoint=False):
        calls.append(adjoint)
        return product(A, B, adjoint)

    monkeypatch.setattr(modular, "_product", counted)
    assert _stdout_digest(command) == (0, OUTPUT_DIGESTS[command])
    assert calls.count(True) == 1


def test_low_precision_vir_verlinde_is_the_full_output():
    # the ring is counted from the closed form, so at 8 and 10 bits the
    # output is the 256-bit output byte for byte
    for precision in ("8", "10"):
        assert _stdout_digest("verlinde --family vir -k 3 --precision " + precision) == (
            0, OUTPUT_DIGESTS["verlinde --family vir -k 3"])


def test_eight_bit_vir_verlinde_is_the_default_output():
    # at 8 bits (24 working bits) the k=2 ring still passes the unitarity
    # gate and prints what the default precision prints
    low = run("verlinde", "--family", "vir", "-k", "2", "--precision", "8")
    assert low.exit_code == 0
    assert low.output == run("verlinde", "--family", "vir", "-k", "2").output


def test_low_precision_refined_verlinde_keeps_its_entries():
    # the refined integers are counted exactly, so no precision moves them
    low = run("verlinde-super", "-k", "2", "--precision", "8")
    assert low.exit_code == 0
    full = run("verlinde-super", "-k", "2")
    assert json.loads(low.output)["entries"] == json.loads(full.output)["entries"]


def test_missing_level_is_usage_error():
    for args in (("fusion", "--family", "osp"), ("smatrix", "--family", "vir"),
                 ("tmatrix", "--family", "vir", "-u", "3"), ("minweight",)):
        res = run(*args)
        assert res.exit_code == 2
        assert "integer level -k" in res.output


@pytest.mark.parametrize("command", [
    "tmatrix --family vir -u 4 -p 6",
    "fusion --family vir -k 0",
    "tmatrix --family vir -k -1",
    "smatrix --family vir -u 4 -p 6",
])
def test_vir_pair_without_a_model_is_usage_error(command):
    res = run(*command.split())
    assert res.exit_code == 2
    assert "coprime" in res.output or "positive integer" in res.output


def test_level_flags_are_exclusive():
    res = run("char", "-k", "1", "-p", "5", "-r", "1", "-N", "2")
    assert res.exit_code == 2
    res = run("char", "-r", "1", "-N", "2")
    assert res.exit_code == 2


@pytest.mark.parametrize("command,message", [
    ("smatrix --family vir -k 2 -u 3 -p 5", "not both"),
    ("verlinde --family vir -k 1 -u 3", "not both"),
    ("minweight -k 2 -u 3 -p 5", "not both"),
    ("fusion --family osp -k 1 -u 7", "vir family only"),
    ("tmatrix --family sl2 -k 1 -p 5", "vir family only"),
    ("decompose -p 3 --pprime 5 -s 1 -N 2", "together with -r"),
    ("theta-identity -k 1 -s 0", "together with -r"),
])
def test_a_flag_the_command_would_ignore_is_usage_error(command, message):
    res = run(*command.split())
    assert res.exit_code == 2
    assert message in res.output
    assert '"command"' not in res.output  # nothing was computed


@pytest.mark.parametrize("command,reads", [
    ("fusion", ("fusion", "text")),
    ("smatrix", ("labels", "rows", "text")),
    ("tmatrix", ("labels", "weights", "text")),
    ("verlinde", ("labels", "rows", "ring", "fusion", "text")),
    ("char", ("char",)),
])
def test_every_family_choice_has_a_table_entry(command, reads):
    family = next(o for o in main.commands[command].params if o.name == "family")
    for name in family.type.choices:
        entry = modular.FAMILIES[name]
        assert all(callable(getattr(entry, field)) for field in reads), name


def test_every_verlinde_family_has_a_ring():
    # verlinde_standard returns S.ring(): a family whose S-matrix builder
    # sets no ring could only fail
    family = next(o for o in main.commands["verlinde"].params if o.name == "family")
    for name in family.type.choices:
        params = cli._family_params(name, 1, None, None)
        S = modular.FAMILIES[name].smatrix(tuple(params.values()), 64)
        assert callable(S.ring), name


def test_s_transform_order_below_a_character_is_usage_error():
    # at q^(1/100) the k=1 characters r = 3, 4 hold no term, and a residual
    # against an empty series checks nothing
    res = run("stransform-check", "-k", "1", "-N", "1/100")
    assert res.exit_code == 2
    assert "module 3 has no term below q^1/100" in res.output
    assert run("stransform-check", "-k", "1", "-N", "1/2").exit_code == 0


# -- identity verification commands ------------------------------------------------


def test_theta_identity_single_label():
    res = run("theta-identity", "-p", "5", "--pprime", "1", "-r", "1", "-s", "0",
              "-N", "20")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["ok"] is True


def test_decompose_all_labels_fractional():
    res = run("decompose", "-p", "3", "--pprime", "5", "-N", "3")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["ok"] is True
    assert len(payload["results"]) == 5
    assert all(r["ok"] and r["first_discrepancy"] is None for r in payload["results"])


def test_decompose_multiplies_a_factor_with_no_terms_above_its_floor():
    # at N = 1 some sl2 factor stores no term at w >= its floor; its product
    # with a Virasoro factor is still exact on a box
    res = run("decompose", "-p", "3", "--pprime", "7", "-N", "1")
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["ok"] is True
    assert len(payload["results"]) == 7


# -- fusion ---------------------------------------------------------------------------


def test_fusion_table_spec_line():
    res = run("fusion", "--family", "osp", "-k", "1", "--format", "table")
    assert res.exit_code == 0
    assert "M2 x M2 = M1 + M3" in res.output


def test_fusion_json_coeffs():
    res = run("fusion", "--family", "vir", "-u", "3", "-p", "5")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["unit"] == {"r": 1, "s": 1}
    entries = {
        ((e["a"]["r"], e["a"]["s"]), (e["b"]["r"], e["b"]["s"]),
         (e["c"]["r"], e["c"]["s"])): e["n"]
        for e in payload["entries"]
    }
    assert entries[((1, 2), (1, 2), (1, 1))] == 1
    assert entries[((1, 2), (1, 2), (1, 3))] == 1
    assert ((1, 2), (1, 2), (1, 2)) not in entries


# -- modular data -----------------------------------------------------------------------


def test_smatrix_and_tmatrix_json():
    res = run("smatrix", "--family", "extended", "-k", "1")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert float(payload["unitarity_defect"]) < 1e-60
    assert payload["precision_bits"] == 256
    res2 = run("tmatrix", "--family", "extended", "-k", "1")
    assert res2.exit_code == 0
    t = json.loads(res2.output)
    assert rat(t["central_charge"]) == QQ(2, 5)
    weights = [rat(w) for w in t["weights"]]
    assert QQ(-1, 20) in weights and QQ(9, 20) in weights
    assert t["locality"]["1"] == "local" and t["locality"]["2"] == "twisted"


def test_verlinde_matches_fusion_command():
    res = run("verlinde", "--family", "sl2", "-k", "2")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["matches_combinatorial"] is True


def test_verlinde_super_payload():
    res = run("verlinde-super", "-k", "1")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert float(payload["basis_matrix_involution_defect"]) < 1e-60
    rows = {(e["r"], e["r2"], e["r3"]): (e["even"], e["odd"], e["total"])
            for e in payload["entries"]}
    assert rows[(1, 1, 1)] == (1, 0, 1)
    assert rows[(2, 2, 3)][2] == 1


def test_fpdim_spec_example():
    res = run("fpdim", "-k", "1")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["corollary_holds"] is True
    assert payload["ok"] is True
    assert payload["fp_Sk"].startswith("14.4721359549995")
    assert payload["fp_even"].startswith("1.0")
    assert payload["precision_bits"] == 256


def test_minweight_payload_and_usage_error():
    res = run("minweight", "-k", "2")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["label"] == {"r": 1, "s": 2}
    bad = run("minweight", "-u", "4", "-p", "9")
    assert bad.exit_code == 2


def test_stransform_check_quick():
    res = run("stransform-check", "-k", "1", "-N", "12", "--precision", "160",
              "--tau0", "1j")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["ok"] is True
    assert len(payload["entries"]) == 8


def test_stransform_rejects_real_tau():
    res = run("stransform-check", "-k", "1", "-N", "8", "--tau0", "0.5")
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload["ok"] is False
    assert payload["error"] == "NonconvergentDomain"


@pytest.mark.parametrize("tau0", ["1e-300j", "1e300j", "nanj"])
def test_stransform_refuses_a_degenerate_tau(tau0):
    # 1e-300j (and -1/tau0 for 1e300j) leaves 1 - |q| = 0 in the tail bound;
    # nanj is no point of the upper half plane
    res = run("stransform-check", "-k", "1", "-N", "4", "--tau0", tau0)
    assert res.exit_code == 2
    assert "tau" in res.output.splitlines()[-1]


# -- coset commands -------------------------------------------------------------------------


def test_coset_char_both_routes():
    res = run("coset-char", "-k", "1", "--nu", "1", "-r", "3", "-N", "6",
              "--method", "both")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["routes_agree"] is True
    terms = {rat(t["q"]): rat(t["coeff"]) for t in payload["series"]["terms"]}
    assert terms[QQ(-1, 40)] == 1


def test_coset_smatrix_verified():
    # verify=True inside the command: unitarity gate and the counted Verlinde ring
    res = run("coset-smatrix", "-k", "2")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert float(payload["unitarity_defect"]) < 1e-60
    assert payload["vacuum_index"] == 0
    assert payload["labels"][0] == {"nu": 0, "r": 1}


# -- global behaviours ------------------------------------------------------------------------


def test_out_option_writes_file(tmp_path):
    target = tmp_path / "payload.json"
    res = run("fusion", "--family", "sl2", "-k", "1", "--out", str(target))
    assert res.exit_code == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "fusion"


@pytest.mark.parametrize("command", [
    "coset-char -k 1 --nu 0 -r 1 -N 2", "verlinde --family sl2 -k 1",
    "selftest --criterion 7"])
def test_a_failed_check_writes_its_payload_and_exits_one(monkeypatch, tmp_path,
                                                        command):
    # each patch fails the check of one command: the two coset routes, the
    # sl2 ring against its oracle, and a selftest criterion
    monkeypatch.setattr(cli, "qs_equal_below", lambda a, b, N: (False, None))
    monkeypatch.setitem(modular.FAMILIES, "sl2", dataclasses.replace(
        modular.FAMILIES["sl2"], fusion=lambda k: None))
    monkeypatch.setattr(selftest, "CRITERIA", [(7, lambda fast: selftest._result(
        7, "planted", 0.0, False, "a planted failure"))])
    target = tmp_path / "payload.json"
    res = CliRunner().invoke(main, command.split() + ["--out", str(target)],
                             catch_exceptions=False)
    assert res.exit_code == 1
    assert res.stdout == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == command.split()[0]
    assert False in (payload.get("ok"), payload.get("routes_agree"),
                     payload.get("matches_combinatorial"))
    if command.startswith("selftest"):  # --out turns the progress lines on
        assert res.stderr.startswith("FAIL  criterion  7  planted")


def test_a_criterion_that_raises_is_verification_failure(monkeypatch):
    def raises(fast):
        raise VerificationError("a planted criterion failure")

    monkeypatch.setattr(selftest, "CRITERIA", [(4, raises)])
    res = run("selftest", "--criterion", "4")
    assert res.exit_code == 1
    assert json.loads(res.output) == {"ok": False, "error": "VerificationError",
                                      "detail": "a planted criterion failure"}


def test_only_the_registrar_registers_and_exits():
    # every command is registered, rendered and given its exit code by
    # cli.command; a body returns (payload, table, ok)
    tree = ast.parse(Path(cli.__file__).read_text())
    found = set()
    for node in tree.body:
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and (call.func.value.id, call.func.attr) in {("main", "command"),
                                                                 ("sys", "exit")}):
                found.add((getattr(node, "name", None), call.func.attr))
    assert found == {("command", "command"), ("command", "exit")}


def test_order_env_override():
    res = run("char", "--family", "vir", "-k", "1", "-r", "1", "-s", "1",
              env={"OSPQ_ORDER": "3/2"})
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert rat(payload["order"]) == QQ(3, 2)


def test_bad_order_is_usage_error():
    res = run("char", "-k", "1", "-r", "1", "-N", "x/y")
    assert res.exit_code == 2


@pytest.mark.parametrize("command", [
    "char -k 1 -r 1 -N 0",
    "decompose -k 1 -N 0",
    "decompose -k 1 -N -1",
    "stransform-check -k 1 -N 0",
    "coset-char -k 1 --nu 0 -r 1 -N 0",
])
def test_non_positive_order_is_usage_error(command):
    res = run(*command.split())
    assert res.exit_code == 2
    assert "truncation order must be positive" in res.output


def test_selftest_fast_subset():
    res = run("selftest", "--fast", "--criterion", "1", "--criterion", "7")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["ok"] is True
    assert sorted(c["number"] for c in payload["criteria"]) == [1, 7]
    assert all(c["passed"] for c in payload["criteria"])


@pytest.mark.parametrize("number", ["11", "0"])
def test_selftest_unknown_criterion_is_usage_error(number):
    res = run("selftest", "--criterion", number)
    assert res.exit_code == 2
    assert "unknown criterion %s" % number in res.output
    assert '"ok"' not in res.output  # no criteria ran, so no payload


def test_selftest_single_known_criterion_runs():
    res = run("selftest", "--criterion", "4")
    assert res.exit_code == 0
    assert [c["number"] for c in json.loads(res.output)["criteria"]] == [4]


@pytest.mark.parametrize("args,env", [
    (("smatrix", "--family", "sl2", "-k", "1", "--precision", "-40"), None),
    (("smatrix", "--family", "sl2", "-k", "1", "--precision", "0"), None),
    (("fpdim", "-k", "1", "--precision", "-20"), None),
    (("fpdim", "-k", "1"), {"OSPQ_PRECISION": "0"}),
])
def test_precision_below_one_is_usage_error(args, env):
    res = run(*args, env=env)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "--precision" in res.output and "x>=1" in res.output


@pytest.mark.parametrize("command", [
    "fpdim -k 1", "coset-smatrix -k 1", "smatrix --family vir -k 1",
    "smatrix --family sl2 -k 1", "smatrix --family extended -k 1",
    "smatrix --family coset -k 1",
])
def test_precision_without_a_tolerance_is_usage_error(command):
    # at 2 bits the derived tolerance 10^(1 - 2/4) is above 1, so every
    # gated check would pass whatever it compared
    res = run(*command.split(), "--precision", "2")
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "not below 1" in res.output


# -- byte identity of the documented outputs --------------------------------------------

# sha256 of the stdout of each command, recorded before a refactor that must
# not change any output byte: the 14 README examples, then every command that
# resolves a Virasoro pair, once from -u -p and once from -k, then the (8, 15)
# S-matrix, large enough that every sine is shared by many entries, then a k=2
# S-transform at a tau0 off the imaginary axis, whose twisted modules carry
# half-integer exponents and whose numbers depend on the order in which the
# series products store their terms, then two coset sectors by the phase
# projection alone (`--method both` prints the direct series), then the
# outputs that read the CLI's per-family label text, fusion oracle and S/T
# dispatch and that no entry above covers, then a k=3 S-transform whose
# S-matrix rows hold exact-zero sines and a k=4 refined Verlinde table, then
# one Verlinde ring of each exactly counted family: a Virasoro pair with even
# p, a larger Virasoro table, sl2 at k=6 and the coset at k=3, then two
# decompositions at fractional level, whose factors are cut at a w floor.
# After an intended output change,
# re-record with `PYTHONPATH=src python tests/test_cli.py`, which prints this
# table.
OUTPUT_DIGESTS = {
    'char --family osp -k 1 -r 1 -N 4':
        '1b2ebddfb777cd7d9659653f8a815eebbd7277de70fcc5bbda4a00d2a76a2eef',
    'char --family vir -p 3 --pprime 5 -r 1 -s 2':
        '13b2b35d81826743a732bbe643f81853508f24093ad2f25b4d3501f5be572851',
    'char --family vir -k 1 -r 2 -s 4':
        'd9610af1b4444a5804d415fa5672b57d5e9c101bfd1ad40b9c444a17f1459ebd',
    'theta-identity -p 5 --pprime 1 -r 1 -s 0 -N 20':
        'cbc1c0050ae499b5715b7dfb056b60d43a766ae66fbe4e833bd7a41baf8f0cd6',
    'decompose -k 2 -N 8':
        '3eff5540c721819640ac46215ccfb3966f5b3b74034ddce3cfad5c470f9fb218',
    'fusion --family osp -k 1 --format table':
        '6fd61031f5cc384acfe81bae41f60c538435cdc8e5fa56ccd134ecb1e9ab31d9',
    'smatrix --family extended -k 2':
        '1a530563d3d57ff4f217e6650f6e116b42699b0248a3e3a24214891779a17df7',
    'tmatrix --family coset -k 2':
        '58f75743d0c599747602a9d5a097c3f305dc654530e81613c07bfec9a6cb29b4',
    'verlinde --family coset -k 2':
        '38f845c4aa804c2528cb673b5c61083ed3d9380080e8b32bea3d14566e9c81c2',
    'verlinde-super -k 3':
        'ed9d62f2d83fe95df38191b0e998e9cf3d30d76d7b5089cdfb159da3f4ff3118',
    'fpdim -k 1':
        '9b8089e96a7c038b7b98a902120054ad4a722aa5f9f1551fcce440e312e96890',
    'minweight -k 4':
        '7311dba7c8c09f4830d5ebe1c5ea845471084b2f8475e2b18482690d34f901df',
    'stransform-check -k 1 --tau0 2j -N 40':
        '7bab4de0b381d1b08ead8275b98b285f1e96ad3793c7d758ae61788c1ab5502e',
    'coset-char -k 2 --nu 1 -r 3 --method both':
        '1b9a3e6d43d99857a7f14d9d0b52ea20ecd4f766cc80ce2f37cf31cf3b6b842a',
    'coset-smatrix -k 3':
        '0ee003ca7c4b41558d9f7853e3b0bb682174fae2cf295c78eb9feb53af7faa6a',
    'fusion --family vir -u 3 -p 5':
        '70e46fb4cd6c44f83d22e3cc911cd48564267c1a0d5093dacaea0c0a16e60665',
    'fusion --family vir -k 1':
        '70e46fb4cd6c44f83d22e3cc911cd48564267c1a0d5093dacaea0c0a16e60665',
    'smatrix --family vir -u 3 -p 5':
        '8fb3e9ddf0f18fe1060bb973987a97a53541df90436d52f2fd2f9669f5fba5a6',
    'smatrix --family vir -k 1':
        '8fb3e9ddf0f18fe1060bb973987a97a53541df90436d52f2fd2f9669f5fba5a6',
    'tmatrix --family vir -u 3 -p 5':
        '20f77a52d83fdf481607195c889987f9de442402c995f8273682de50aa99b638',
    'tmatrix --family vir -k 1':
        '20f77a52d83fdf481607195c889987f9de442402c995f8273682de50aa99b638',
    'verlinde --family vir -u 3 -p 5':
        'f3a4aa24c432eb42259d227ce49e66add1a4f52bc8d2be0f5dcc39748463002d',
    'verlinde --family vir -k 1':
        'f3a4aa24c432eb42259d227ce49e66add1a4f52bc8d2be0f5dcc39748463002d',
    'minweight -u 3 -p 5':
        '55ffcf9eb2c9b978514fb8c2c5421523adfd56efd8def41780ea198fd72edf2d',
    'minweight -k 1':
        '55ffcf9eb2c9b978514fb8c2c5421523adfd56efd8def41780ea198fd72edf2d',
    'smatrix --family vir -k 6':
        '8848aaa7626be5ec5cf671c3822424d344ed9189fff3b9da8ae190f021585d40',
    'stransform-check -k 2 --tau0 0.3+1.1j -N 20':
        '38515ed94577a7b4984bec6ba24f8b5aea79a60cd537ca99e3b1e5c58b776cab',
    'fpdim -k 11':
        'caca47748a0638ccff7da09eaaab51e6115e935abc694a50ad7efe7b7ac46880',
    'verlinde --family vir -k 3':
        '84226ee8be4fa7b2c698197a7eea1a8b837d6263939a11d14e75cc6b52e62b4c',
    'verlinde-super -k 2':
        '433419d8bf43a8dd289896c85dae50d8326f4f40cfa77cdab31eadc8a7fe8658',
    'coset-smatrix -k 2':
        'a22cdd5769cbd73ed5bbbba89eaa0c7c7e8f926d0658dc73e53d703deb028b03',
    'coset-char -k 2 --nu 1 -r 3 --method phase':
        '0a1936665b846e9c03ddd8723c73171032856c2ad66475f0b7a67f6acb80df8b',
    'coset-char -k 1 --nu 1 -r 1 -N 12 --method phase':
        'dc32f495c8d12daebc990271bfd89fc66149e0a30e02d067e80c97a3e78a0abf',
    'fusion --family parafermion -k 2':
        '212f86c0649dfd2c0983d2b4758ecbb5731f25da93e2e0cda0e0e00cf74a198c',
    'fusion --family parafermion -k 2 --format table':
        '166d3c25d03046f99f4ebd7e37054363bdaa7c1e962f1384393967819019ac38',
    'fusion --family sl2 -k 2 --format table':
        'a0c77db9fe66ce8af17a0f5ce5313938c9d6d28e078cf50e953a9fa9e4165b84',
    'smatrix --family sl2 -k 2 --format table':
        '78d437110fb271441a97c6dc899882e486744a7f21b1645067668ebedc521062',
    'smatrix --family coset -k 1 --format table':
        '901f5e9e7b3c73c5e72ee80213f91dc328bc07d3b7a832c0cca11b83426dc417',
    'tmatrix --family sl2 -k 2 --format table':
        '789379f13bb2a160a6bf9963d5acd1fd469cbfdec01d0cba791ef0e0eff445df',
    'tmatrix --family extended -k 1 --format table':
        '5f769029be1b252755871c8f29cb88129aa6bc1299b3b1c49e878f13c8dd4123',
    'verlinde --family sl2 -k 2 --format table':
        'f8779cda0052cc578c7a6eb840b7e1caddc373bebad10d694938096eb8e3bbb1',
    'verlinde --family coset -k 1 --format table':
        '2132c4663d779096a2055aa5926291d28391c5e1a475e450c65e945089eb0e74',
    'stransform-check -k 3 --tau0 0.3j -N 16':
        '228b5c462b7657fdbe3d99312fbd2b3421a74cb438bdf83d7f2a3c5872bc63ba',
    'verlinde-super -k 4 --format table':
        '64e156dce62f0a83e9e426546c2d33d1b055ae7cfda9492fd3c59503fc6b0c18',
    'verlinde --family vir -u 3 -p 4':
        '44420cb494d7c8c84b1b18c646120f89e310052ff4a703fd0c8010b948a7da1d',
    'verlinde --family vir -u 5 -p 8 --format table':
        '4d6cf26e75774421053daeea09a6e3da290039dbc9c67d10a5211d37771a0836',
    'verlinde --family sl2 -k 6':
        'd435b0f6150407de3a6cd295fc30d2df34acc5ccd302281387bedce79a6a7ad5',
    'verlinde --family coset -k 3 --format table':
        'c8813b5e8f3df0cb3969c31a4404f68efa7dc8dd3e6182c4b3e28d28967dd6f0',
    'decompose -p 3 --pprime 5 -N 4':
        '4d4d7458a6619ada344698c109876236eca9dd18dc8721043e2947c1dbb6e6a9',
    'decompose -p 7 --pprime 3 -N 6':
        '686784d53a83e258ccc4efdd3c436b5934eb87eb3abf87dc90f94d81b094f065',
}


def _stdout_digest(command):
    res = run(*command.split())
    return res.exit_code, hashlib.sha256(res.output.encode()).hexdigest()


@pytest.mark.parametrize("command", list(OUTPUT_DIGESTS))
def test_documented_output_is_byte_identical(command):
    assert _stdout_digest(command) == (0, OUTPUT_DIGESTS[command])


def test_every_readme_cli_example_is_pinned():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    assert lines and all(line.startswith("ospq ") for line in lines)
    commands = [line.split("#", 1)[0][len("ospq "):].strip() for line in lines]
    assert [c for c in commands if c not in OUTPUT_DIGESTS] == []


if __name__ == "__main__":
    for command in OUTPUT_DIGESTS:
        print("    %r:\n        %r," % (command, _stdout_digest(command)[1]))
