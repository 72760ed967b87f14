"""Command-line interface: payload shapes, exit codes, format/env handling."""

import hashlib
import json
from fractions import Fraction as QQ

import pytest
from click.testing import CliRunner
from mpmath import mp

import ospq.cli as cli
import ospq.coset as coset
import ospq.modular as modular
from ospq.cli import main
from ospq.theta import IncompleteQuotient


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


def test_char_invalid_label_is_usage_error():
    res = run("char", "--family", "osp", "-k", "1", "-r", "2", "-N", "2")
    assert res.exit_code == 2


def test_incomplete_quotient_is_verification_failure(monkeypatch):
    def incomplete(*args, **kwargs):
        raise IncompleteQuotient("q-slice 0 leaves a nonzero remainder")

    monkeypatch.setattr(cli, "osp_char", incomplete)
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


def test_coset_verlinde_proof_needs_ten_bits():
    # the residual bound of the coset Verlinde proof stays above the 1e-6
    # gate at 8 bits (24 working bits); the O(n^4) sums it replaced passed
    res = run("coset-smatrix", "-k", "2", "--precision", "8")
    assert res.exit_code == 1
    assert json.loads(res.output) == {
        "ok": False, "error": "NonIntegralFusion",
        "detail": "the parafermion fusion tensor at k=2 is not proved to be "
                  "the Verlinde ring of the coset S-matrix within the 1e-6 gate: "
                  "row (a, b) = (CosetLabel(nu=0, r=3), CosetLabel(nu=0, r=3)) of "
                  "N_a S - S Lambda_a has norm 1.37e-6, above its limit 1.0e-6"}
    for precision in ("10", "12"):
        assert run("coset-smatrix", "-k", "2", "--precision", precision).exit_code == 0


def test_coset_verlinde_proves_its_ring_once(monkeypatch):
    # the coset matrix is built without its own proof, and verlinde_standard
    # proves the ring it reads off S
    calls = []
    proof = modular._verlinde_bound_holds

    def counted_proof(*args):
        calls.append(args)
        return proof(*args)

    for module in (modular, coset):
        monkeypatch.setattr(module, "_verlinde_bound_holds", counted_proof)
    assert _stdout_digest("verlinde --family coset -k 2") == (
        0, OUTPUT_DIGESTS["verlinde --family coset -k 2"])
    assert len(calls) == 1


def test_coset_verlinde_keeps_the_unitarity_gate(monkeypatch):
    monkeypatch.setattr(modular.SMatrix, "unitarity_defect", lambda S: mp.mpf(1))
    res = run("verlinde", "--family", "coset", "-k", "2")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "InconsistentBranching"


def test_vir_verlinde_proof_needs_eleven_bits():
    # the ring read off the (5, 9) S-matrix is returned only through the
    # Verlinde proof, whose residual bound stays above the 1e-6 gate at 10
    # bits; the per-entry gate it replaced passed there
    res = run("verlinde", "--family", "vir", "-k", "3", "--precision", "10")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "NonIntegralFusion"
    for precision in ("11", "12"):
        res = run("verlinde", "--family", "vir", "-k", "3", "--precision", precision)
        assert res.exit_code == 0


@pytest.mark.parametrize("command,detail", [
    ("verlinde --family vir -k 2", "the fusion tensor read off S is not proved "
     "to be the Verlinde ring of S within the 1e-6 gate: row (a, b) = "
     "(VirLabel(r=1, s=2), VirLabel(r=1, s=6)) of N_a S - S Lambda_a has norm "
     "1.15e-6, above its limit 1.0e-6"),
    ("verlinde-super -k 2", "refined entry (1,1,5)/+ = -1.01613e-6 fails the gate"),
])
def test_low_precision_verlinde_failure_detail(command, detail):
    # the standard ring fails its proof; each refined sum is an exact dot
    # product rounded once, so the value reported for a failing entry is
    # that of the single rounding
    res = run(*command.split(), "--precision", "8")
    assert res.exit_code == 1
    assert json.loads(res.output) == {
        "ok": False, "error": "NonIntegralFusion", "detail": detail}


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
    # verify=True inside the command: unitarity + Verlinde integrality gates
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


def test_order_env_override():
    res = run("char", "--family", "vir", "-k", "1", "-r", "1", "-s", "1",
              env={"OSPQ_ORDER": "3/2"})
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert rat(payload["order"]) == QQ(3, 2)


def test_bad_order_is_usage_error():
    res = run("char", "-k", "1", "-r", "1", "-N", "x/y")
    assert res.exit_code == 2


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


# -- byte identity of the documented outputs --------------------------------------------

# sha256 of the stdout of each command, recorded before a refactor that must
# not change any output byte: the 14 README examples, then every command that
# resolves a Virasoro pair, once from -u -p and once from -k, then the (8, 15)
# S-matrix, large enough that every sine is shared by many entries, then a k=2
# S-transform at a tau0 off the imaginary axis, whose twisted modules carry
# half-integer exponents and whose numbers depend on the order in which the
# series products store their terms, then two coset sectors by the phase
# projection alone (`--method both` prints the direct series).  After an intended output change,
# re-record with `PYTHONPATH=src python tests/test_cli.py`, which prints this
# table.
OUTPUT_DIGESTS = {
    'char --family osp -k 1 -r 1 -N 4':
        '1b2ebddfb777cd7d9659653f8a815eebbd7277de70fcc5bbda4a00d2a76a2eef',
    'char --family vir -p 3 --pprime 5 -r 1 -s 2':
        '13b2b35d81826743a732bbe643f81853508f24093ad2f25b4d3501f5be572851',
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
}


def _stdout_digest(command):
    res = run(*command.split())
    return res.exit_code, hashlib.sha256(res.output.encode()).hexdigest()


@pytest.mark.parametrize("command", list(OUTPUT_DIGESTS))
def test_documented_output_is_byte_identical(command):
    assert _stdout_digest(command) == (0, OUTPUT_DIGESTS[command])


if __name__ == "__main__":
    for command in OUTPUT_DIGESTS:
        print("    %r:\n        %r," % (command, _stdout_digest(command)[1]))
