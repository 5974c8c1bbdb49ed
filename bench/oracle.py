"""Output oracles for the benchmark.

Library ops are checked against facts that hold independently of the
code path that produced them (see `workloads.py`).  CLI ops are checked
against golden payloads recorded from the seed-state CLI on the pool
corpus (`golden/cli.json`, written by `record_golden.py`).

A golden entry keeps the exit code and one SHA-256 digest per payload
key that carries a result: the table, rank and certificate, the pair,
the canonical form, the invariants and the real check outcomes.  Two
CLI checks are not checks at all at the seed: classify always reports
"normalization verified by pullback: pass" and transform --projective
always reports the affine shape as kept.  They are dropped before
hashing, and the N=2 classify payload must instead carry the computed
`log.pullback_matches = true`.  Run provenance (input paths, mode and
seed echo) is not hashed either.
"""

from __future__ import annotations

import hashlib
import json

UNTRUSTED_CHECKS = (
    "normalization verified by pullback",
    "covector block keeps its affine shape",
)

PAYLOAD_KEYS = {
    "compose": ("N", "terms"),
    "decompose": ("N", "T", "g0", "A", "B"),
    "verify": ("checks", "ok"),
    "congruence": ("table", "rank", "checks", "ok"),
    "classify": ("N", "invariants", "canonical", "system", "log"),
    "transform": ("kind", "pair", "denominator", "checks"),
    "audit": ("dimension", "stabilizer", "checks", "ok"),
}


class WrongAnswer(Exception):
    """An op returned a result that contradicts its oracle."""


def expect(cond, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def _trusted(checks):
    return [c for c in checks if c.get("name") not in UNTRUSTED_CHECKS]


def payload_digest(subcommand: str, payload: dict) -> dict:
    out = {}
    for key in PAYLOAD_KEYS[subcommand]:
        val = payload.get(key)
        if key == "checks" and val is not None:
            val = _trusted(val)
        text = json.dumps(val, sort_keys=True, separators=(",", ":"))
        out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def check_cli(subcommand: str, code: int, stdout: str, golden: dict) -> str:
    """Compare one CLI process against its golden entry; returns "ok"."""
    expect(code == golden["exit"],
           "exit code %d, golden %d" % (code, golden["exit"]))
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise WrongAnswer("output is not JSON: %s" % exc)
    for c in _trusted(payload.get("checks", [])):
        expect(c["status"] == "pass", "check failed: %s" % c["name"])
    if subcommand == "classify" and payload.get("N") == 2:
        expect(payload["log"].get("pullback_matches") is True,
               "normalization pullback does not match")
    got = payload_digest(subcommand, payload)
    bad = sorted(k for k in got if got[k] != golden["keys"].get(k))
    expect(not bad, "payload differs from golden in %s" % ", ".join(bad))
    return "ok"
