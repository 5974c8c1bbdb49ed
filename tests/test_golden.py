"""Golden CLI outputs: JSON stdout on a fixed input corpus, byte for byte.
The text and CSV renderings of each case must carry the same scalars.

The inputs and the recorded outputs live in tests/golden/.  Every case
runs the command line in process from that directory, so the file names
a report echoes are the same on every machine.  After a deliberate
output change, rewrite the recordings with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/out/.
"""

import csv
import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from hamforms.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

CASES = {
    "audit": ["audit"],
    "n6.compose": ["compose", "--pair", "n6_pair.json"],
    # sampled: the default above four fields
    "n6.verify": ["verify", "--pair", "n6_pair.json"],
    "n6.congruence": ["congruence", "--pair", "n6_pair.json"],
    # sampled by default; the slowest command of the benchmark pools
    "n6.reciprocal": ["transform", "--pair", "n6_pair.json",
                      "--reciprocal", "n6_reciprocal.json"],
    # Poly and RatFunc text in grlex order
    "n2.classify": ["classify", "--omega", "out/n2.compose.json"],
    "n4.classify": ["classify", "--omega", "n4_std.json"],
    "n4.verify": ["verify", "--pair", "n4_pair.json", "--symbolic"],
    # sampled at 20 points; the first size where sub-Pfaffians are shared
    "n8.verify": ["verify", "--pair", "n8_pair.json"],
    "n8.congruence": ["congruence", "--pair", "n8_pair.json"],
}
for _n in (2, 4):
    _pair = "n%d_pair.json" % _n
    CASES.update({
        "n%d.compose" % _n: ["compose", "--pair", _pair],
        "n%d.decompose" % _n: ["decompose",
                               "--omega", "out/n%d.compose.json" % _n],
        "n%d.congruence" % _n: ["congruence", "--pair", _pair,
                                "--symbolic", "--table"],
        "n%d.projective" % _n: ["transform", "--pair", _pair,
                                "--projective", "n%d_projective.json" % _n],
        "n%d.xt" % _n: ["transform", "--pair", _pair, "--xt"],
        "n%d.reciprocal" % _n: ["transform", "--pair", _pair,
                                "--reciprocal", "n%d_reciprocal.json" % _n],
    })


def _run(argv, fmt="json"):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--format", fmt])
    return code, buf.getvalue()


def _path(name):
    return os.path.join(GOLDEN_DIR, "out", name + ".json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    code, out = _run(CASES[name])
    assert code == 0
    with open(_path(name), encoding="utf-8") as fp:
        assert out == fp.read()


def _leaves(value, path):
    """[path, text] of every scalar in document order; an empty object or
    list is one scalar, strings print bare and the rest as JSON."""
    if isinstance(value, dict) and value:
        return [leaf for key, item in value.items()
                for leaf in _leaves(item, path + "." + key if path else key)]
    if isinstance(value, list) and value:
        return [leaf for i, item in enumerate(value)
                for leaf in _leaves(item, "%s[%d]" % (path, i))]
    return [[path, value if isinstance(value, str) else json.dumps(value)]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_and_csv_render_the_golden_json(name, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    with open(_path(name), encoding="utf-8") as fp:
        doc = json.load(fp)  # the recordings keep sorted key order
    scalars = _leaves(doc, "")
    code, text = _run(CASES[name], "text")
    assert code == 0
    assert text.splitlines() == ["%s: %s" % tuple(kv) for kv in scalars]
    code, out = _run(CASES[name], "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    if doc.get("command") == "congruence":
        table = doc["table"]
        assert rows[0] == ["row"] + table["columns"]
        assert rows[1:] == [[r] + e for r, e in zip(table["rows"],
                                                    table["entries"])]
        assert len(rows) == 1 + len(table["rows"])
    else:
        assert rows == [["key", "value"]] + scalars


if __name__ == "__main__":
    os.chdir(GOLDEN_DIR)
    os.makedirs("out", exist_ok=True)
    # compose first: the decompose and classify cases read its recordings
    for name in sorted(CASES, key=lambda n: not n.endswith(".compose")):
        code, out = _run(CASES[name])
        if code != 0:
            sys.exit("%s exited %d" % (name, code))
        with open(_path(name), "w", encoding="utf-8") as fp:
            fp.write(out)
