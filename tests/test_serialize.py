"""JSON formats for pairs and structure forms."""

import json
from fractions import Fraction

import pytest

from hamforms import (
    HamPair,
    Lcg,
    ParseError,
    ValidationError,
    canonical_form_n2,
    canonical_n2_pair,
    canonical_n4_pair,
    form_from_pair,
)
from hamforms import serialize as ser

from helpers import pairs_equal


def sample_pairs():
    rng = Lcg(40411)
    out = [canonical_n2_pair(), canonical_n4_pair(Fraction(2), Fraction(-3))]
    out += [HamPair.random(rng, n) for n in (2, 4, 6)]
    return out


def test_rational_strings():
    assert ser.rational_to_str(Fraction(3)) == "3"
    assert ser.rational_to_str(Fraction(-7, 2)) == "-7/2"
    assert ser.rational_from_str("4/6") == Fraction(2, 3)
    assert ser.rational_from_str("-12") == Fraction(-12)


@pytest.mark.parametrize("bad", ["1/0", "0.5", "1e3", "a", "", "1/-2", 3,
                                 None, "1/2/3"])
def test_rational_rejects(bad):
    with pytest.raises(ParseError):
        ser.rational_from_str(bad)


def test_pair_roundtrip_and_stability():
    for p in sample_pairs():
        d = ser.pair_to_dict(p)
        q = ser.pair_from_dict(json.loads(ser.dump_json(d)))
        assert pairs_equal(p, q)
        assert ser.dump_json(ser.pair_to_dict(q)) == ser.dump_json(d)


def test_omega_roundtrip():
    for p in sample_pairs():
        sf = form_from_pair(p)
        d = ser.omega_to_dict(sf)
        sf2 = ser.omega_from_dict(json.loads(ser.dump_json(d)))
        assert sf2.N == sf.N and sf2.form == sf.form


def test_documented_omega_example():
    doc = {"N": 2, "terms": [{"idx": [1, 2, 3], "coeff": "1"},
                             {"idx": [1, 2, 4], "coeff": "1"},
                             {"idx": [1, 3, 4], "coeff": "1"}]}
    sf = ser.omega_from_dict(doc)
    assert sf.form == canonical_form_n2()


@pytest.mark.parametrize("doc,exc", [
    ({"N": 2, "terms": [{"idx": [2, 1, 3], "coeff": "1"}]}, ValidationError),
    ({"N": 2, "terms": [{"idx": [1, 2, 3], "coeff": "1/0"}]}, ParseError),
    ({"N": 3, "terms": []}, ValidationError),
    ({"N": 2, "terms": [{"idx": [1, 2, 5], "coeff": "1"}]}, ValidationError),
    ({"N": 2, "terms": [{"idx": [1, 2], "coeff": "1"}]}, ValidationError),
    ({"N": 2, "terms": [{"idx": [1, 2, 3], "coeff": "1"},
                        {"idx": [1, 2, 3], "coeff": "2"}]}, ValidationError),
    ({"N": 2, "terms": [], "extra": 1}, ParseError),
    ({"N": 2}, ParseError),
    ({"N": 2, "terms": [{"idx": [1, 2, 3], "coeff": 1}]}, ParseError),
    ([1, 2], ParseError),
])
def test_omega_rejects(doc, exc):
    with pytest.raises(exc):
        ser.omega_from_dict(doc)


def test_field_count_cap():
    assert ser.omega_from_dict({"N": 1000, "terms": []}).N == 1000
    with pytest.raises(ValidationError, match="from 2 to 1000, got 1002"):
        ser.omega_from_dict({"N": 1002, "terms": []})


def test_form_rejects_zero_dimension():
    with pytest.raises(ValidationError, match="degree 1 on dim 0"):
        ser.form_from_dict({"degree": 1, "dim": 0, "terms": []})


def test_pair_rejects():
    good = ser.pair_to_dict(canonical_n2_pair())
    bad = dict(good)
    bad["B"] = ["1"]
    with pytest.raises(ValidationError):
        ser.pair_from_dict(bad)
    bad = dict(good)
    bad["g0"] = dict(good["g0"], degree=3)
    with pytest.raises(ValidationError):
        ser.pair_from_dict(bad)
    bad = dict(good)
    bad["N"] = 4
    with pytest.raises(ValidationError):
        ser.pair_from_dict(bad)


def test_file_helpers(tmp_path):
    pairs = sample_pairs()
    path = tmp_path / "pair.json"
    ser.save_pair(pairs[1], str(path))
    q = ser.load_pair(str(path))
    assert pairs_equal(q, pairs[1])
    opath = tmp_path / "omega.json"
    ser.save_omega(form_from_pair(pairs[0]), str(opath))
    assert ser.parse_omega_file(str(opath)).form == \
        form_from_pair(pairs[0]).form


def test_broken_json_reports_position(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text("{broken")
    with pytest.raises(ParseError) as exc:
        ser.load_pair(str(path))
    assert "line" in str(exc.value)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        ser.load_pair(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("load,doc,match", [
    (ser.omega_from_dict, {"N": 2, "terms": [[1, 2, 3]]},
     r"omega\.terms\[0\]: expected \{idx, coeff\}"),
    (ser.omega_from_dict, {"N": 2, "terms": [{"idx": [1, 2, 3]}]},
     r"omega\.terms\[0\]: expected \{idx, coeff\}"),
    (ser.omega_from_dict, {"N": 2, "terms": [{"idx": "123", "coeff": "1"}]},
     r"omega\.terms\[0\]\.idx: expected a list of integers"),
    (ser.omega_from_dict,
     {"N": 2, "terms": [{"idx": [True, 2, 3], "coeff": "1"}]},
     r"omega\.terms\[0\]\.idx: expected a list of integers"),
    (ser.omega_from_dict, {"N": "2", "terms": []},
     r"omega\.N: expected an integer"),
    (ser.form_from_dict, {"degree": 2.0, "dim": 2, "terms": []},
     r"form\.degree: expected an integer"),
    (ser.form_from_dict, {"degree": 2, "dim": True, "terms": []},
     r"form\.dim: expected an integer"),
], ids=["term-list", "term-keys", "idx-string", "idx-bool", "N-string",
        "degree-float", "dim-bool"])
def test_malformed_terms_and_counts_are_refused(load, doc, match):
    with pytest.raises(ParseError, match=match):
        load(doc)
