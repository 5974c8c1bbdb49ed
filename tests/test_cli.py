"""Command line driver, exercised in process through main()."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hamforms import (AltForm, ForcedPair, HamPair, Lcg, ParseError,
                      RatFunc, SkewMatrix, ValidationError, eta_matrix,
                      form_from_pair, omega_to_dict, pair_to_dict)
from hamforms import cli
from hamforms.cli import main
from hamforms.serialize import load_projective, load_reciprocal

from helpers import count_pair_pfaffians, generic_pair_n2

N2_PAIR = {
    "N": 2,
    "T": {"degree": 3, "dim": 2, "terms": []},
    "g0": {"degree": 2, "dim": 2, "terms": [{"idx": [1, 2], "coeff": "1"}]},
    "A": {"degree": 2, "dim": 2, "terms": [{"idx": [1, 2], "coeff": "1"}]},
    "B": ["1", "0"],
}


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(N2_PAIR))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_text(capsys, pair_file):
    code, out, err = run(capsys, "verify", "--pair", pair_file)
    assert code == 0
    assert "pass" in out and not err


def test_verify_sampled(capsys, pair_file):
    code, out, _ = run(capsys, "verify", "--pair", pair_file,
                       "--sample", "5", "--seed", "7")
    assert code == 0
    assert "mode.seed: 7" in out.splitlines()


def test_verify_json_report(capsys, pair_file):
    code, out, _ = run(capsys, "verify", "--pair", pair_file,
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["command"] == "verify"
    assert rep["mode"]["seed"] == 1
    assert all(c["status"] == "pass" for c in rep["checks"])


def _off_by_u2(pair):
    """A ForcedPair whose flux V^1 is off by the field u^2."""
    flux = list(pair.flux)
    flux[0] = flux[0] + RatFunc.var(pair.nvars, 2)
    return ForcedPair(pair.mcubic, pair.mconst, tuple(flux), nvars=pair.nvars)


# SHA-256 of the JSON `verify` report on those pairs, recorded before the
# residual rendering moved into one helper: polynomial residual strings
# in symbolic mode, a first failing point and residue per key sampled
@pytest.mark.parametrize("build, extra, first, digest", [
    (generic_pair_n2, (), "-2*u4^3",
     "e64a21cccb4607f6459257e506865d4d2b051bda2867f16c2a9e465cfc090137"),
    (lambda: HamPair.random(Lcg(1), 4), ("--sample", "3"), None,
     "c8acbd9a3198b3c3a88da6968dffcb618276d3cdc9e07b25665c01654ee72f8b"),
], ids=["symbolic_n2", "sampled_n4"])
def test_failing_verify_renders_its_residuals(capsys, monkeypatch, build,
                                              extra, first, digest):
    monkeypatch.setattr(cli, "load_pair", lambda path: _off_by_u2(build()))
    code, out, err = run(capsys, "verify", "--pair", "forced.json",
                         "--format", "json", *extra)
    assert code == 1 and not err
    rep = json.loads(out)
    assert rep["ok"] is False and rep["checks"][0]["status"] == "fail"
    residual = rep["checks"][0]["residuals"]["2,2"]
    if first is None:
        assert set(residual) == {"point", "value"}
    else:
        assert residual == first
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_congruence_rank_and_table(capsys, pair_file):
    code, out, _ = run(capsys, "congruence", "--pair", pair_file,
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"]["rank"] == 3 and rep["rank"]["dependent"] is True
    assert len(rep["rank"]["certificate"]) == 4
    code, out, _ = run(capsys, "congruence", "--pair", pair_file, "--table")
    assert code == 0
    assert "du1" in out and "p12" in out
    assert any(line.startswith("equations[0]: du1:")
               for line in out.splitlines())
    code, out, _ = run(capsys, "congruence", "--pair", pair_file)
    assert code == 0
    assert not any(line.startswith("equations") for line in out.splitlines())


def test_congruence_matrix_built_once(capsys, pair_file, monkeypatch):
    import hamforms.congruence as congruence_mod

    calls = []
    real = congruence_mod.congruence_matrix

    def counted(sf):
        calls.append(sf)
        return real(sf)

    # every module binding, in case the command imports it too
    monkeypatch.setattr(congruence_mod, "congruence_matrix", counted)
    monkeypatch.setattr(cli, "congruence_matrix", counted, raising=False)
    code, _, _ = run(capsys, "congruence", "--pair", pair_file, "--table")
    assert code == 0 and len(calls) == 1


def test_compose_decompose_chain(capsys, tmp_path, pair_file):
    omega_path = str(tmp_path / "omega.json")
    code, _, _ = run(capsys, "compose", "--pair", pair_file,
                     "--format", "json", "--output", omega_path)
    assert code == 0
    back_path = str(tmp_path / "back.json")
    code, _, _ = run(capsys, "decompose", "--omega", omega_path,
                     "--format", "json", "--output", back_path)
    assert code == 0
    a = N2_PAIR
    b = json.loads(open(back_path).read())
    assert a["N"] == b["N"] and a["B"] == b["B"]
    for key in ("T", "g0", "A"):
        assert a[key]["terms"] == b[key]["terms"]


def test_classify_omega(capsys, tmp_path, pair_file):
    omega_path = str(tmp_path / "omega.json")
    run(capsys, "compose", "--pair", pair_file, "--format", "json",
        "--output", omega_path)
    code, out, _ = run(capsys, "classify", "--omega", omega_path,
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["N"] == 2
    assert rep["system"] == ["u1_t = u1_x", "u2_t = u2_x"]


def _n4_standard_omega(tmp_path):
    pair = HamPair(AltForm(3, 4), eta_matrix(),
                   SkewMatrix(4, {(1, 2): Fraction(1), (3, 4): Fraction(1)}),
                   (Fraction(2), Fraction(0), Fraction(-1), Fraction(7)))
    path = tmp_path / "n4omega.json"
    path.write_text(json.dumps(omega_to_dict(form_from_pair(pair))))
    return str(path)


def test_classify_reports_only_the_pullback_it_ran(capsys, tmp_path,
                                                   pair_file, monkeypatch):
    omega_path = str(tmp_path / "omega.json")
    run(capsys, "compose", "--pair", pair_file, "--format", "json",
        "--output", omega_path)
    code, out, _ = run(capsys, "classify", "--omega", omega_path,
                       "--format", "json")
    rep = json.loads(out)
    assert code == 0 and rep["log"]["pullback_matches"] is True
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [
        ("normalization verified by pullback", "pass")]

    real = cli.classify_n2

    def mismatched(sf):
        res = real(sf)
        res.log["pullback_matches"] = False
        return res

    monkeypatch.setattr(cli, "classify_n2", mismatched)
    code, out, _ = run(capsys, "classify", "--omega", omega_path,
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["checks"][0]["status"] == "fail"

    code, out, _ = run(capsys, "classify", "--omega",
                       _n4_standard_omega(tmp_path), "--format", "json")
    rep = json.loads(out)
    assert code == 0 and rep["N"] == 4 and rep["checks"] == []


def test_sampling_flags_only_on_sampling_commands(capsys, tmp_path,
                                                  pair_file):
    omega_path = str(tmp_path / "omega.json")
    run(capsys, "compose", "--pair", pair_file, "--format", "json",
        "--output", omega_path)
    for argv in (["compose", "--pair", pair_file],
                 ["decompose", "--omega", omega_path],
                 ["classify", "--omega", omega_path],
                 ["audit", "--dims", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--sample", "5"])
        assert exc.value.code == 2, argv
    capsys.readouterr()
    for argv in (["classify", "--omega", omega_path],
                 ["audit", "--dims", "2"]):
        code, out, _ = run(capsys, *argv, "--format", "json", "--seed", "3")
        assert code == 0
        assert json.loads(out)["mode"] == {"kind": "symbolic",
                                           "samples": None, "seed": 3}


def test_classify_rejects_six_fields(capsys, tmp_path):
    path = tmp_path / "n6omega.json"
    path.write_text(json.dumps(
        {"N": 6, "terms": [{"idx": [1, 2, 3], "coeff": "1"}]}))
    code, _, err = run(capsys, "classify", "--omega", str(path))
    assert code == 2
    assert "error:" in err and "N=2 and N=4" in err


def test_determinism(capsys, tmp_path, pair_file):
    p1 = str(tmp_path / "r1.json")
    p2 = str(tmp_path / "r2.json")
    run(capsys, "congruence", "--pair", pair_file, "--format", "json",
        "--output", p1)
    run(capsys, "congruence", "--pair", pair_file, "--format", "json",
        "--output", p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_transform_xt(capsys, pair_file):
    code, out, _ = run(capsys, "transform", "--pair", pair_file, "--xt",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["pair"]["N"] == 2
    assert any(c["name"].startswith("applying the exchange twice")
               or "involution" in c["name"] for c in rep["checks"])


def test_transform_projective(capsys, tmp_path, pair_file):
    mpath = tmp_path / "proj.json"
    mpath.write_text(json.dumps(
        {"matrix": [["1", "2", "0"], ["0", "1", "0"], ["1", "0", "1"]]}))
    code, out, _ = run(capsys, "transform", "--pair", pair_file,
                       "--projective", str(mpath), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and "denominator" in rep


def test_projective_map_of_the_wrong_size_names_both_sizes(capsys, tmp_path,
                                                           pair_file):
    mpath = tmp_path / "proj.json"
    mpath.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
    code, out, err = run(capsys, "transform", "--pair", pair_file,
                         "--projective", str(mpath))
    assert code == 2 and out == ""
    assert "side 2" in err and "2 fields needs side 3" in err


def test_transform_samples_only_the_reciprocal_check(capsys, tmp_path,
                                                      pair_file):
    mpath = tmp_path / "proj.json"
    mpath.write_text(json.dumps(
        {"matrix": [["1", "2", "0"], ["0", "1", "0"], ["1", "0", "1"]]}))
    for kind in (["--projective", str(mpath)], ["--xt"]):
        argv = ["transform", "--pair", pair_file, *kind, "--format", "json"]
        code, out, err = run(capsys, *argv, "--sample", "5")
        assert code == 2 and out == "", kind
        assert err.startswith("error: --sample") and "--reciprocal" in err
        # their checks are symbolic, so --symbolic is accepted
        code, out, err = run(capsys, *argv, "--symbolic")
        assert code == 0 and not err, kind
        assert json.loads(out)["mode"]["kind"] == "symbolic"


def test_transform_reciprocal(capsys, tmp_path, pair_file):
    rpath = tmp_path / "recip.json"
    rpath.write_text(json.dumps(
        {"ax": ["1", "-1"], "ax0": "2", "bt": "1", "bx": ["0", "1"],
         "cx": "-1", "dt0": "1"}))
    code, out, _ = run(capsys, "transform", "--pair", pair_file,
                       "--reciprocal", str(rpath), "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_audit(capsys):
    code, out, _ = run(capsys, "audit", "--dims", "2,4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True


def test_csv_format(capsys, pair_file):
    code, out, _ = run(capsys, "congruence", "--pair", pair_file,
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "row,p12,p13,p14,p23,p24,p34"
    code, out, _ = run(capsys, "verify", "--pair", pair_file,
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert "checks[0].status,pass" in out.splitlines()


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--pair",
                       str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error:")


def test_invalid_omega(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"N": 3, "terms": []}')
    code, _, err = run(capsys, "classify", "--omega", str(path))
    assert code == 2
    assert "error:" in err


DIGIT_LIMIT = "%d digits" % sys.get_int_max_str_digits()


def block_diagonal_pair(n):
    """A sparse pair on n fields: g0 = du1^du2 + du3^du4 + ..., no cubic
    or skew part, B = (1, 0, ..., 0)."""
    g0 = [{"idx": [k, k + 1], "coeff": "1"} for k in range(1, n, 2)]
    return {"N": n, "T": {"degree": 3, "dim": n, "terms": []},
            "g0": {"degree": 2, "dim": n, "terms": g0},
            "A": {"degree": 2, "dim": n, "terms": []},
            "B": ["1"] + ["0"] * (n - 1)}


@pytest.mark.parametrize("body, reason", [
    (b"\xff" + json.dumps(N2_PAIR).encode(), ": not UTF-8"),
    (b'{"N": ' + b"1" * 5000 + b"}", DIGIT_LIMIT),
    (json.dumps(dict(N2_PAIR, B=["1" * 5000, "0"])).encode(),
     ".B[0]: an integer has more than " + DIGIT_LIMIT),
    (b"[" * 100000 + b"]" * 100000, ": JSON nested too deeply"),
    (json.dumps(block_diagonal_pair(1002)).encode(),
     ".N: expected an even integer from 2 to 1000, got 1002"),
], ids=["not_utf8", "long_json_integer", "long_coefficient", "deep_nesting",
        "too_many_fields"])
def test_malformed_input_is_input_error(capsys, tmp_path, body, reason):
    path = tmp_path / "malformed.json"
    path.write_bytes(body)
    code, out, err = run(capsys, "verify", "--pair", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: " + str(path)) and reason in err


def test_ragged_projective_matrix_is_input_error(capsys, tmp_path,
                                                 pair_file):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(
        {"matrix": [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]}))
    code, out, err = run(capsys, "transform", "--pair", pair_file,
                         "--projective", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: %s.matrix[1]:" % path)


def test_degenerate_transform_is_input_error(capsys, tmp_path):
    # a pair whose exchange image degenerates: zero rotational block
    doc = {
        "N": 2,
        "T": {"degree": 3, "dim": 2, "terms": []},
        "g0": {"degree": 2, "dim": 2,
               "terms": [{"idx": [1, 2], "coeff": "1"}]},
        "A": {"degree": 2, "dim": 2, "terms": []},
        "B": ["1", "2"],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "transform", "--pair", str(path), "--xt")
    assert code == 2


def test_missing_required_flag():
    with pytest.raises(SystemExit):
        main(["verify"])


def test_sample_must_be_positive(capsys, pair_file):
    code, _, err = run(capsys, "verify", "--pair", pair_file,
                       "--sample", "0")
    assert code == 2


def _terms(entries):
    return [{"idx": list(idx), "coeff": c} for idx, c in entries]


# six fields, two cubic entries: the sampled check takes about 0.02 s
# and the symbolic one under 0.01 s in process
N6_PAIR = {
    "N": 6,
    "T": {"degree": 3, "dim": 6,
          "terms": _terms([((1, 2, 3), "1"), ((1, 4, 5), "-2")])},
    "g0": {"degree": 2, "dim": 6,
           "terms": _terms([((1, 2), "1"), ((1, 5), "2"), ((3, 4), "-1"),
                            ((3, 6), "1"), ((5, 6), "3")])},
    "A": {"degree": 2, "dim": 6,
          "terms": _terms([((1, 3), "1"), ((2, 4), "2"), ((5, 6), "-1")])},
    "B": ["1", "0", "-2", "1", "0", "3"],
}


def test_six_fields_default_to_sampling(capsys, tmp_path, monkeypatch):
    path = tmp_path / "n6.json"
    path.write_text(json.dumps(N6_PAIR))
    rpath = tmp_path / "recip.json"
    rpath.write_text(json.dumps(
        {"ax": ["1", "0", "-1", "0", "0", "1"], "ax0": "2", "bt": "1",
         "bx": ["0"] * 6, "cx": "0", "dt0": "1"}))
    asked = []
    real = cli.check_compat

    def recorded(pair, mode="auto", **kwargs):
        asked.append(mode)
        return real(pair, mode=mode, **kwargs)

    monkeypatch.setattr(cli, "check_compat", recorded)
    for argv in (["verify", "--pair", str(path)],
                 ["transform", "--pair", str(path),
                  "--reciprocal", str(rpath)],
                 ["congruence", "--pair", str(path)]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        rep = json.loads(out)
        assert code == 0 and rep["ok"] is True, argv
        mode = rep["mode"]
        assert mode["kind"] == "sampled" and mode["samples"] == 20
        assert mode["modulus"] == 2 ** 61 - 1 and mode["points"] == 20
        assert mode["degree"] >= 1
        mantissa, exponent = mode["bound"].split("e")
        assert float(mantissa) >= 1 and int(exponent) < -300
        assert all(c["provenance"] == "sampled" for c in rep["checks"])
        assert all("bound" not in c for c in rep["checks"])
        code, out, _ = run(capsys, *argv)
        assert sum(line.startswith("mode.bound: ")
                   for line in out.splitlines()) == 1
    assert asked and set(asked) == {"sampled"}

    code, out, _ = run(capsys, "congruence", "--pair", str(path),
                       "--format", "json")
    rep = json.loads(out)
    assert rep["mode"]["seed"] == 1
    assert all("(20 points)" in c["name"] for c in rep["checks"])


def test_symbolic_stays_the_default_up_to_four_fields(capsys, pair_file):
    outs = []
    for extra in ([], ["--symbolic"]):
        code, out, err = run(capsys, "verify", "--pair", pair_file,
                             "--format", "json", *extra)
        assert code == 0 and not err
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["mode"] == {"kind": "symbolic",
                                           "samples": None, "seed": 1}


def test_symbolic_at_six_fields_runs_without_notice(capsys, tmp_path):
    path = tmp_path / "n6.json"
    path.write_text(json.dumps(N6_PAIR))
    for command in ("verify", "congruence"):
        argv = (command, "--pair", str(path), "--format", "json")
        code, out, err = run(capsys, *argv, "--symbolic")
        assert code == 0 and json.loads(out)["mode"]["kind"] == "symbolic"
        assert err == ""
        for extra in ([], ["--sample", "3"]):
            assert run(capsys, *argv, *extra)[2] == ""


def test_symbolic_at_eight_fields_is_refused(capsys, tmp_path, monkeypatch):
    path = tmp_path / "n8.json"
    path.write_text(json.dumps(pair_to_dict(HamPair.random(Lcg(5), 8))))
    rpath = tmp_path / "recip.json"
    rpath.write_text(json.dumps(
        {"ax": ["1"] + ["0"] * 7, "ax0": "2", "bt": "1", "bx": ["0"] * 8,
         "cx": "0", "dt0": "1"}))
    ran = []
    monkeypatch.setattr(cli, "check_compat", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(cli, "congruence_checks",
                        lambda *a, **k: ran.append(a))
    for argv in (["verify", "--pair", str(path)],
                 ["congruence", "--pair", str(path)],
                 ["transform", "--pair", str(path),
                  "--reciprocal", str(rpath)]):
        code, out, err = run(capsys, *argv, "--symbolic")
        assert code == 2 and out == "", argv
        assert "N = 8" in err and "--sample" in err
    assert ran == []


def test_sample_count_above_the_limit_is_refused(capsys, tmp_path,
                                                 monkeypatch):
    path = tmp_path / "n6.json"
    path.write_text(json.dumps(N6_PAIR))
    rpath = tmp_path / "recip.json"
    rpath.write_text(json.dumps(
        {"ax": ["1"] + ["0"] * 5, "ax0": "2", "bt": "1", "bx": ["0"] * 6,
         "cx": "0", "dt0": "1"}))
    ran = []
    monkeypatch.setattr(cli, "check_compat", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(cli, "congruence_checks",
                        lambda *a, **k: ran.append(a))
    for count in (cli._SAMPLE_MAX + 1, 10 ** 11):
        for argv in (["verify", "--pair", str(path)],
                     ["congruence", "--pair", str(path)],
                     ["transform", "--pair", str(path),
                      "--reciprocal", str(rpath)]):
            code, out, err = run(capsys, *argv, "--sample", str(count))
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and "--sample" in err
            assert str(cli._SAMPLE_MAX) in err
    assert ran == []


def test_checks_above_twelve_fields_are_refused(capsys, tmp_path,
                                                monkeypatch):
    # the symbolic flux of a dense N = 14 pair takes minutes: the refusal
    # comes before it is built, by default and when sampling alike
    path = tmp_path / "n14.json"
    path.write_text(json.dumps(pair_to_dict(HamPair.random(Lcg(3), 14))))
    rpath = tmp_path / "recip.json"
    rpath.write_text(json.dumps(
        {"ax": ["1"] + ["0"] * 13, "ax0": "2", "bt": "1", "bx": ["0"] * 14,
         "cx": "0", "dt0": "1"}))
    ran = []
    monkeypatch.setattr(cli, "check_compat", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(cli, "congruence_checks",
                        lambda *a, **k: ran.append(a))
    monkeypatch.setattr(HamPair, "flux_cleared", lambda self: ran.append(self))
    for extra in ([], ["--sample", "20"]):
        for argv in (["verify", "--pair", str(path)],
                     ["congruence", "--pair", str(path)],
                     ["transform", "--pair", str(path),
                      "--reciprocal", str(rpath)]):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and "N = 14" in err
            assert "N = %d" % cli._SAMPLED_MAX_N in err
    assert ran == []


def test_audit_rejects_large_field_counts(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "dimension_audit", ran.append)
    code, out, err = run(capsys, "audit", "--dims", "2,1000")
    assert code == 2 and out == "" and ran == []
    assert err.startswith("error:") and "1000" in err


def test_bound_rendering():
    assert cli._bound_str(Fraction(1, 10 ** 17) ** 20) == "1.00e-340"
    assert cli._bound_str(Fraction(1, 3)) == "3.34e-1"
    assert cli._bound_str(Fraction(999999, 10 ** 6)) == "1.00e0"
    assert cli._bound_str(Fraction(0)) == "0"
    # more digits than str() converts, as at --sample 1000
    assert cli._bound_str(Fraction(1, 10 ** 5000)) == "1.00e-5000"
    assert cli._bound_str(Fraction(10 ** 5000 + 1)) == "1.01e5000"


def test_coefficient_without_residue_is_input_error(capsys, tmp_path):
    doc = dict(N2_PAIR, B=["1/%d" % (2 ** 61 - 1), "0"])
    path = tmp_path / "bad_residue.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "congruence"):
        code, _, err = run(capsys, command, "--pair", str(path),
                           "--sample", "3")
        assert code == 2
        assert err.startswith("error:") and "2^61-1" in err


def test_metric_zero_mod_the_modulus_is_input_error(tmp_path):
    # the Pfaffian is 2^61-1: no residue point avoids it.  A child process
    # with a timeout, so that a sampler drawing points forever fails
    g0 = {"degree": 2, "dim": 2,
          "terms": [{"idx": [1, 2], "coeff": str(2 ** 61 - 1)}]}
    path = tmp_path / "pfaffian_zero_mod_p.json"
    path.write_text(json.dumps(dict(N2_PAIR, g0=g0)))
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for command in ("verify", "congruence"):
        proc = subprocess.run(
            [sys.executable, "-m", "hamforms", command, "--pair", str(path),
             "--sample", "3"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("error:") and "2^61-1" in proc.stderr


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("n", [4, 6])
def test_pair_commands_expand_no_symbolic_pfaffian(capsys, tmp_path,
                                                   monkeypatch, n):
    # compose, decompose and the projective and x-t transforms never read
    # the flux, so they need no Pf(g) and no adjugate; every pair they
    # build has a nondegenerate constant block
    calls = count_pair_pfaffians(monkeypatch)
    pair = os.path.join(GOLDEN, "n%d_pair.json" % n)
    proj = tmp_path / "proj.json"
    proj.write_text(json.dumps({"matrix": [
        [str(int(i == j or j == i + 1)) for j in range(n + 1)]
        for i in range(n + 1)]}))
    for argv in (["compose", "--pair", pair],
                 ["decompose", "--omega",
                  os.path.join(GOLDEN, "out", "n%d.compose.json" % n)],
                 ["transform", "--pair", pair, "--projective", str(proj)],
                 ["transform", "--pair", pair, "--xt"]):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
    assert calls == {"pfaffian": 0, "pfaffian_adjugate": 0}


# the options of each subcommand in help order, a required one marked
# "!", and its mutually exclusive groups, a required group marked "!"
CLI_SURFACE = {
    "compose": ("--pair! --seed --format --output", []),
    "decompose": ("--omega! --seed --format --output", []),
    "verify": ("--pair! --symbolic --sample --seed --format --output",
               ["--symbolic --sample"]),
    "congruence": ("--pair! --table --symbolic --sample --seed --format "
                   "--output", ["--symbolic --sample"]),
    "classify": ("--omega! --seed --format --output", []),
    "transform": ("--pair! --projective --xt --reciprocal --symbolic "
                  "--sample --seed --format --output",
                  ["--projective --xt --reciprocal!", "--symbolic --sample"]),
    "audit": ("--dims --seed --format --output", []),
}


def _marked(names, required):
    return " ".join(names) + ("!" if required else "")


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(CLI_SURFACE)
    for name, sp in sub.choices.items():
        options = " ".join(_marked(a.option_strings, a.required)
                           for a in sp._actions if a.dest != "help")
        groups = [_marked([a.option_strings[0] for a in g._group_actions],
                          g.required) for g in sp._mutually_exclusive_groups]
        assert (options, groups) == CLI_SURFACE[name], name
        assert (sp.get_default("seed"), sp.get_default("format"),
                sp.get_default("output"), sp.get_default("sample")) == \
            (1, "text", None, None), name
        fmt = [a for a in sp._actions if a.dest == "format"][0]
        assert fmt.choices == ("text", "json", "csv"), name
    assert sub.choices["audit"].get_default("dims") == "2,4,6,8"


_RECIPROCAL = {"ax": ["1", "-1"], "ax0": "2", "bt": "1", "bx": ["0", "1"],
               "cx": "-1", "dt0": "1"}
_IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("kind, doc, exc, where", [
    ("projective", ["1"], ParseError, ": expected an object"),
    ("projective", {"matrix": _IDENTITY3, "scale": "2"}, ParseError,
     ": unknown keys ['scale']"),
    ("projective", {}, ValidationError, ": matrix must be a list of rows"),
    ("projective", {"matrix": ["1", "0", "0"]}, ValidationError,
     ": matrix must be a list of rows"),
    ("projective", {"matrix": [["1", "0", "0"], "0", ["0", "0", "1"]]},
     ParseError, ".matrix[1]: expected a list"),
    ("projective", {"matrix": []}, ValidationError,
     ": matrix must be a list of rows"),
    ("projective", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     ParseError, ".matrix[0][0]: expected a rational string"),
    ("projective", {"matrix": [["1", "0", "0"], ["0", "1", "0"]]},
     ValidationError, ": projective matrix must be square"),
    ("projective", {"matrix": [["1", "1", "0"], ["1", "1", "0"],
                               ["0", "0", "1"]]},
     ValidationError, ": matrix is not invertible"),
    ("reciprocal", "ax", ParseError, ": expected an object"),
    ("reciprocal", dict(_RECIPROCAL, ex="1"), ParseError,
     ": unknown keys ['ex']"),
    ("reciprocal", {k: v for k, v in _RECIPROCAL.items() if k != "cx"},
     ParseError, ".cx: expected a rational string"),
    ("reciprocal", dict(_RECIPROCAL, ax="1"), ParseError,
     ".ax: expected a list"),
    ("reciprocal", dict(_RECIPROCAL, bx=["0"]), ValidationError,
     ".bx: expected 2 entries, got 1"),
    ("reciprocal", dict(_RECIPROCAL, ax=["1", -1]), ParseError,
     ".ax[1]: expected a rational string"),
    ("reciprocal", dict(_RECIPROCAL, ax0="1", bt="1", cx="1", dt0="1"),
     ValidationError, ": constant part of the reciprocal map is singular"),
], ids=["proj_not_object", "proj_unknown_key", "proj_no_matrix",
        "proj_rows_not_lists", "proj_row_not_list", "proj_empty",
        "proj_number_entry", "proj_not_square", "proj_singular",
        "recip_not_object", "recip_unknown_key", "recip_missing_key",
        "recip_ax_not_list", "recip_bx_wrong_length", "recip_number_entry",
        "recip_singular"])
def test_transform_file_readers_reject(capsys, tmp_path, pair_file, kind,
                                       doc, exc, where):
    path = str(tmp_path / (kind + ".json"))
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    with pytest.raises(exc) as info:
        if kind == "projective":
            load_projective(path)
        else:
            load_reciprocal(path, 2)
    assert str(info.value).startswith(path + where)
    code, out, err = run(capsys, "transform", "--pair", pair_file,
                         "--" + kind, path)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % info.value


@pytest.fixture
def null_pair_file(tmp_path):
    # g0 = du1^du2 and nothing else: a pair whose system is trivial
    path = tmp_path / "null.json"
    path.write_text(json.dumps(dict(N2_PAIR, A={"degree": 2, "dim": 2,
                                                "terms": []}, B=["0", "0"])))
    return str(path)


NULL_WARNING = "warning: covector data vanishes: the system is trivial\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_warnings_print_once_without_a_source_path(capsys, null_pair_file,
                                                    fmt):
    code, out, err = run(capsys, "verify", "--pair", null_pair_file,
                         "--format", fmt)
    assert (code, err) == (0, NULL_WARNING)
    # compose builds the pair twice, once more from its own form
    code, out, err = run(capsys, "compose", "--pair", null_pair_file,
                         "--format", fmt)
    assert (code, err) == (0, NULL_WARNING)


def test_warnings_print_before_the_error(capsys, null_pair_file):
    code, out, err = run(capsys, "transform", "--pair", null_pair_file, "--xt")
    assert code == 2 and out == ""
    assert err == NULL_WARNING + "error: exchanged metric is degenerate\n"


@pytest.mark.parametrize("dims,message", [
    ("2,x", "--dims expects comma-separated integers"),
    (",", "--dims must name at least one field count"),
])
def test_audit_refuses_malformed_dims(capsys, dims, message):
    code, out, err = run(capsys, "audit", "--dims", dims)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
