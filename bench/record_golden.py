"""Record the CLI golden set: python3 bench/record_golden.py

Runs every pool command once (no tracing) and writes golden/cli.json:
per op its exit code and the digests of its result payload (oracle.py).
Before anything is written each payload must pass checks that do not
come from the CLI itself:

- compose emits the structure form laid out by the block table,
- decompose gives back the pool pair,
- the x-t exchange swaps g0 and A and negates B,
- four-field invariants match the closed form in corpus.n4_invariants,
- the two-field normal form is the unit form and its pullback matched,
- every check the CLI really runs passes and the exit code is 0.

Rerun only on purpose: the goldens pin the seed-state answers that
later changes must reproduce.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import run  # noqa: E402


def _norm_form(d):
    return sorted((tuple(t["idx"]), Fraction(t["coeff"])) for t in d["terms"]
                  if Fraction(t["coeff"]))


def _norm_pair(d):
    return (d["N"], _norm_form(d["T"]), _norm_form(d["g0"]),
            _norm_form(d["A"]), [Fraction(b) for b in d["B"]])


def independent_check(op_id, sub, payload, files):
    """Raise AssertionError when a payload contradicts a known fact."""
    import corpus
    import workloads

    tag = op_id.split(".")[0]
    pair = json.loads(files.get(tag + ".pair.json", "null"))
    for c in payload.get("checks", []):
        if c["name"] not in oracle.UNTRUSTED_CHECKS:
            assert c["status"] == "pass", (op_id, c["name"])
    if sub == "compose":
        assert _norm_form(payload) == _norm_form(workloads._omega(pair)), op_id
    elif sub == "decompose":
        assert _norm_pair(payload) == _norm_pair(pair), op_id
    elif sub == "classify" and payload["N"] == 4:
        te, q = corpus.n4_invariants(pair)
        inv = payload["invariants"]
        assert (Fraction(inv["theta_eta"]), Fraction(inv["q"])) == (te, q), \
            op_id
    elif sub == "classify":
        assert _norm_form(payload["canonical"]) == sorted(
            (k, Fraction(v)) for k, v in workloads.UNIT_N2_FORM.items()), op_id
        assert payload["log"]["pullback_matches"] is True, op_id
    elif op_id.endswith("transform.xt"):
        got = _norm_pair(payload["pair"])
        want = _norm_pair(pair)
        assert got[1] == want[1] and got[2] == want[3] and \
            got[3] == want[2] and got[4] == [-b for b in want[4]], op_id


def main() -> int:
    run._import_program()
    import procs
    import workloads

    workdir = os.path.join(run.OUT_DIR, "golden-work")
    workloads.write_pool(workdir)
    files = {}
    for cls, size in workloads.POOL.items():
        for i in range(size):
            files.update(workloads.pool_files(cls, i))
    stdout_path = os.path.join(workdir, "stdout.json")
    ops = {}
    for op_id, sub, argv in workloads.all_pool_commands():
        code, secs, _ = procs.run_child(
            procs.cli_argv(argv + ["--format", "json"]), workdir,
            workloads.OP_CAP_S["cli_mix"], stdout_path)
        with open(stdout_path, encoding="utf-8") as fp:
            payload = json.load(fp)
        assert code == 0, (op_id, code)
        independent_check(op_id, sub, payload, files)
        ops[op_id] = {"exit": code,
                      "keys": oracle.payload_digest(sub, payload)}
        print("%-32s %6.3f s" % (op_id, secs))
    golden = {"pool_sha256": run.pool_digest(), "ops": ops}
    os.makedirs(os.path.dirname(run.GOLDEN), exist_ok=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fp:
        json.dump(golden, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print("wrote %d goldens to %s" % (len(ops), run.GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
