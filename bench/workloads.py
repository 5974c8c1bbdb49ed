"""The workloads: their inputs, their ops and each op's oracle.

An op is one unit the closed loop times.  `run()` is the timed call into
`hamforms`; `check(result)` runs after the clock stops and returns
"ok", or "detected" for a negative control that was flagged, and raises
`WrongAnswer` otherwise.

cli_mix       one `python -m hamforms` process per op, all commands
cli_kernel    the same, only the commands that reach the kernel
lib_n4_many   in-process, one small pair per op through the whole pipeline
lib_n6_heavy  in-process, one sparse N=6 pair per op through the kernel

Inputs never repeat inside a run of a library workload (up to the
pre-generated stream length), so a cache keyed by input cannot make the
loop faster than first-time work.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations

import corpus
from oracle import expect

from hamforms import (
    AltForm, ForcedPair, HamPair, Matrix, Poly, ProjectiveMap, RatFunc,
    ReciprocalMap, SkewMatrix, annihilation_check, apply_projective,
    apply_reciprocal, apply_xt_exchange, check_compat, classify_n2,
    classify_n4, congruence_rank, form_from_pair, grassmann_check,
    pair_from_dict, pair_from_form, plucker_homogeneous,
)

# per-op cap in seconds; a capped op counts as a failure ("timeout")
OP_CAP_S = {"cli_mix": 60.0, "cli_kernel": 60.0, "lib_n4_many": 30.0,
            "lib_n6_heavy": 90.0}

# lib_n4_many repeats this class cycle of (label, N, cubic entries).  By
# cost: the N=2 pair and its control (20% of ops, about 0.01 s), N=4
# pipelines (50%, 0.3 to 0.5 s), N=4 controls (20%, about 0.5 s), the
# parametric pair (10%, about 1 s); so the median op falls inside the
# N=4 pipelines rather than on a class boundary.
N4_CYCLE = (
    ("n4.k1", 4, 1), ("n2", 2, 0), ("n4.k2", 4, 2), ("neg.n4", 4, 1),
    ("n4.k3", 4, 3), ("n4.param", 4, 1), ("n4.k4", 4, 4), ("neg.n2", 2, 0),
    ("n4.k2", 4, 2), ("neg.n4", 4, 1),
)
N4_STREAM = 2000
N6_STREAM = 200

UNIT_N2_FORM = {(1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 4): 1}


class Op:
    __slots__ = ("label", "run", "check", "info")

    def __init__(self, label, run, check, info=None):
        self.label = label
        self.run = run
        self.check = check
        self.info = info


# -- library inputs -----------------------------------------------------

def _projective(rng, n) -> Matrix:
    rows = corpus.projective_matrix(rng, n)
    return Matrix([[Fraction(v) for v in row] for row in rows])


def _reciprocal(rng, n) -> ReciprocalMap:
    d = corpus.reciprocal_map(rng, n)
    f = Fraction
    return ReciprocalMap(n, [f(v) for v in d["ax"]], f(d["ax0"]), f(d["bt"]),
                         [f(v) for v in d["bx"]], f(d["cx"]), f(d["dt0"]))


# 21-variable ring of the parametric pair: u1..u4 | u5 | g0 | A | B
PARAM_NVARS = 21


def parametric_pair(rng) -> HamPair:
    """Four fields, cubic entry du1^du2^du3 with a seeded coefficient,
    every constant block a free parameter: exponent vectors of length 21.

    The entry stays at (1,2,3), the shape in the test helpers: at
    (2,3,4) one op costs about five times as much, which would make the
    cost of a run depend on the seed."""
    nv = PARAM_NVARS
    var = iter(range(6, nv + 1))
    sym = lambda: Poly.var(nv, next(var))  # noqa: E731
    idx = list(combinations(range(1, 5), 2))
    g0 = SkewMatrix(4, {k: sym() for k in idx})
    a = SkewMatrix(4, {k: sym() for k in idx})
    b = tuple(sym() for _ in range(4))
    cubic = AltForm(3, 4, {(1, 2, 3): Fraction(corpus.nonzero_int(rng))})
    return HamPair(cubic, g0, a, b, nvars=nv)


def n4_stream(seed: int, count: int = N4_STREAM) -> list:
    rng = random.Random(seed)
    items = []
    for i in range(count):
        label, n, k = N4_CYCLE[i % len(N4_CYCLE)]
        if label == "n4.param":
            # no reciprocal stage: see the n4.param_reciprocal frontier case
            items.append((label, parametric_pair(rng), _projective(rng, n),
                          None, None))
            continue
        src = corpus.pair_dict(rng, n, corpus.N4_CUBIC[k])
        if label.startswith("neg."):
            kk, m = rng.sample(range(1, n + 1), 2)
            perturb = (kk, m, corpus.nonzero_int(rng))
            items.append((label, src, perturb, None, None))
            continue
        items.append((label, src, _projective(rng, n), _reciprocal(rng, n),
                      corpus.standard_n4_pair_dict(src) if n == 4 else None))
    return items


def n6_stream(seed: int, count: int = N6_STREAM) -> list:
    rng = random.Random(seed)
    return [corpus.pair_dict(rng, 6, corpus.N6_SPARSE) for _ in range(count)]


# -- library ops ----------------------------------------------------------

def _pipeline(src, proj, recip, std):
    pair = pair_from_dict(src) if isinstance(src, dict) else src
    out = {"pair": pair}
    pair.flux
    out["compat"] = check_compat(pair, mode="symbolic")
    sf = form_from_pair(pair)
    out["sf"] = sf
    out["back"] = pair_from_form(sf, nvars=pair.nvars)
    out["rank"] = congruence_rank(sf)
    ph = plucker_homogeneous(pair)
    out["ann"] = annihilation_check(sf, ph)
    out["gr"] = grassmann_check(ph, pair.N + 2)
    out["xt"] = apply_xt_exchange(pair)
    out["proj"] = apply_projective(pair, ProjectiveMap(proj))[1]
    if recip is not None:
        out["recip"] = check_compat(apply_reciprocal(pair, recip),
                                    mode="symbolic")
    if pair.N == 2:
        out["classify"] = classify_n2(sf)
    elif std is not None:
        out["classify"] = classify_n4(form_from_pair(pair_from_dict(std)))
    return out


def _check_pipeline(src, std, out) -> str:
    pair, sf = out["pair"], out["sf"]
    expect(out["compat"]["all_zero"], "pair built from constant data "
                                      "reported incompatible")
    expect(out["back"] == pair, "form round trip changed the pair")
    _check_rank(sf, pair, out["rank"])
    expect(out["ann"]["ok"], "line coordinates not annihilated")
    expect(out["gr"]["ok"], "line coordinates break a quadric relation")
    xt = out["xt"]
    expect(xt.mcubic == pair.mcubic and xt.mconst == pair.wskew
           and xt.wskew == pair.mconst
           and tuple(xt.wconst) == tuple(-b for b in pair.wconst),
           "x-t exchange did not swap the blocks")
    expect(out["proj"]["conformal_ok"], "conformal law failed")
    if "recip" in out:
        expect(out["recip"]["all_zero"], "reciprocal image incompatible")
    res = out.get("classify")
    if pair.N == 2:
        expect(res.canonical_form.form.comps == UNIT_N2_FORM
               and res.log["pullback_matches"] is True,
               "two-field normal form wrong")
    elif res is not None:
        expect(tuple(res.invariants) == corpus.n4_invariants(std),
               "four-field invariants differ from the closed form")
    return "ok"


def _check_rank(sf, pair, rank):
    rows = pair.N + 2
    expect(rank["rows"] == rows and rank["rank"] <= rows,
           "congruence rank out of range")
    expect(rank["dependent"] == (rank["certificate"] is not None)
           and rank["dependent"] == (rank["rank"] < rows),
           "rank, dependency flag and certificate disagree")
    cert = rank["certificate"]
    if cert is None or pair.nvars != pair.N:
        return
    for (j, k) in combinations(range(1, rows + 1), 2):
        s = sum((c * sf.get(i + 1, j, k) for i, c in enumerate(cert)),
                Fraction(0))
        expect(s == 0, "certificate does not annihilate column %r" % ((j, k),))


def _negative(src, perturb):
    k, m, c = perturb
    pair = pair_from_dict(src)
    flux = list(pair.flux)
    flux[k - 1] = flux[k - 1] + RatFunc.var(pair.nvars, m) * c
    forced = ForcedPair(pair.mcubic, pair.mconst, tuple(flux),
                        nvars=pair.nvars)
    return check_compat(forced, mode="sampled")


def _check_negative(rep) -> str:
    # V^k += c u^m with k != m moves the first-order residual at (m, m)
    # by 2 c g_mk, and g_mk has a nonzero constant term by construction.
    expect(not rep["all_zero"], "perturbed flux reported compatible")
    return "detected"


def n4_ops(seed: int, count: int = N4_STREAM) -> list:
    ops = []
    for label, src, a, recip, std in n4_stream(seed, count):
        if label.startswith("neg."):
            ops.append(Op(label, lambda s=src, p=a: _negative(s, p),
                          _check_negative))
        else:
            ops.append(Op(label,
                          lambda s=src, p=a, r=recip, d=std:
                          _pipeline(s, p, r, d),
                          lambda out, s=src, d=std:
                          _check_pipeline(s, d, out)))
    return ops


def _heavy(src):
    pair = pair_from_dict(src)
    pair.flux
    sym = check_compat(pair, mode="symbolic")
    smp = check_compat(pair, mode="sampled")
    sf = form_from_pair(pair)
    ph = plucker_homogeneous(pair)
    return (sym, smp, annihilation_check(sf, ph), grassmann_check(ph, 8))


def _check_heavy(out) -> str:
    sym, smp, ann, gr = out
    expect(sym["all_zero"], "symbolic check reported incompatible")
    expect(smp["all_zero"], "sampled check reported incompatible")
    expect(ann["ok"] and gr["ok"], "line coordinate checks failed")
    return "ok"


def n6_ops(seed: int) -> list:
    return [Op("n6.sparse", lambda s=src: _heavy(s), _check_heavy, info=src)
            for src in n6_stream(seed)]


def n6_term_counts(src) -> dict:
    """Flux-numerator and Pfaffian term counts of one heavy pair."""
    nums, pf = pair_from_dict(src).flux_cleared()
    return {"flux_num_terms": sum(len(n.terms) for n in nums),
            "pf_terms": len(pf.terms)}


# -- CLI pool corpus --------------------------------------------------------

# pool members per class; goldens are recorded for every member.  Each
# run covers all N=4 and N=6 members (see cli_schedule), so the slow
# commands in a run do not depend on which members the seed drew.
POOL = {"n2": 6, "n4": 3, "n6": 3}
CLI_SAMPLES = "20"


def _omega(pair: dict) -> dict:
    """Structure-form file of a pair dict, laid out by the block table:
    (i,j,k<=N) cubic, (i,j,N+1) g0, (i,j,N+2) A, (i,N+1,N+2) B."""
    n = pair["N"]
    comps = {}
    for t in pair["T"]["terms"]:
        comps[tuple(t["idx"])] = t["coeff"]
    for key, last in (("g0", n + 1), ("A", n + 2)):
        for t in pair[key]["terms"]:
            comps[tuple(t["idx"]) + (last,)] = t["coeff"]
    for i, b in enumerate(pair["B"], start=1):
        if Fraction(b):
            comps[(i, n + 1, n + 2)] = b
    return {"N": n, "terms": [{"idx": list(k), "coeff": v}
                              for k, v in sorted(comps.items())]}


def pool_files(cls: str, i: int) -> dict:
    """Name -> file contents for pool member i of class cls."""
    rng = random.Random("pool-%s-%d" % (cls, i))
    n = int(cls[1:])
    support = corpus.N6_SPARSE if n == 6 else corpus.N4_CUBIC[n // 4]
    pair = corpus.pair_dict(rng, n, support)
    tag = "%s_%d" % (cls, i)
    files = {tag + ".pair.json": pair,
             tag + ".recip.json": corpus.reciprocal_map(rng, n)}
    if n <= 4:
        files[tag + ".omega.json"] = _omega(pair)
        files[tag + ".proj.json"] = {
            "matrix": corpus.projective_matrix(rng, n)}
    if n == 4:
        files[tag + ".std.json"] = _omega(corpus.standard_n4_pair_dict(pair))
    return {k: corpus.dumps(v) for k, v in files.items()}


def pool_commands(cls: str, i: int) -> list:
    """(op id, subcommand, argv) for every command run on one member."""
    tag = "%s_%d" % (cls, i)
    pair, omega = tag + ".pair.json", tag + ".omega.json"
    if cls == "n6":
        smp = ["--sample", CLI_SAMPLES]
        return [(tag + ".verify", "verify", ["verify", "--pair", pair] + smp),
                (tag + ".congruence", "congruence",
                 ["congruence", "--pair", pair] + smp),
                (tag + ".transform.reciprocal", "transform",
                 ["transform", "--pair", pair, "--reciprocal",
                  tag + ".recip.json"] + smp)]
    classify_src = omega if cls == "n2" else tag + ".std.json"
    return [
        (tag + ".compose", "compose", ["compose", "--pair", pair]),
        (tag + ".decompose", "decompose", ["decompose", "--omega", omega]),
        (tag + ".verify", "verify", ["verify", "--pair", pair]),
        (tag + ".congruence", "congruence", ["congruence", "--pair", pair]),
        (tag + ".classify", "classify", ["classify", "--omega", classify_src]),
        (tag + ".transform.projective", "transform",
         ["transform", "--pair", pair, "--projective", tag + ".proj.json"]),
        (tag + ".transform.xt", "transform",
         ["transform", "--pair", pair, "--xt"]),
        (tag + ".transform.reciprocal", "transform",
         ["transform", "--pair", pair, "--reciprocal", tag + ".recip.json"]),
    ]


AUDIT = ("audit", "audit", ["audit"])


def all_pool_commands() -> list:
    out = [AUDIT]
    for cls, size in POOL.items():
        for i in range(size):
            out.extend(pool_commands(cls, i))
    return out


def write_pool(workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for cls, size in POOL.items():
        for i in range(size):
            for name, text in pool_files(cls, i).items():
                with open(os.path.join(workdir, name), "w",
                          encoding="utf-8") as fp:
                    fp.write(text)


def _interleave(parts) -> list:
    """Merge command lists evenly, so that where a run stops inside a
    cycle does not change its mix of slow and fast commands."""
    keyed = [((j + 0.5) / len(cmds), k, cmd)
             for k, cmds in enumerate(parts) for j, cmd in enumerate(cmds)]
    return [cmd for _, _, cmd in sorted(keyed)]


# cli_kernel keeps the N=4 commands that reach the kernel.  With the
# three N=6 commands that makes seven op classes of one op per cycle;
# the median op falls inside the middle one (N=4 transform --reciprocal),
# not on a boundary between two classes.
KERNEL_N4 = ("verify", "congruence", "transform.projective",
             "transform.reciprocal")


def cli_schedule(seed: int, cycles: int = 400, kernel: bool = False) -> list:
    """Seeded command order.

    Each cycle runs the commands of one N=4, one N=6 and (unless
    `kernel`) one N=2 member plus audit, interleaved.  N=4 and N=6
    members follow a seeded permutation of their pool, so any three
    cycles cover each once; N=2 members are drawn at random.  With
    `kernel` only the N=4 commands in KERNEL_N4 and the sampled N=6
    commands run.
    """
    rng = random.Random(seed)
    order = {cls: rng.sample(range(POOL[cls]), POOL[cls])
             for cls in ("n4", "n6")}
    out = []
    for c in range(cycles):
        n4 = pool_commands("n4", order["n4"][c % POOL["n4"]])
        n6 = pool_commands("n6", order["n6"][c % POOL["n6"]])
        if kernel:
            n4 = [cmd for cmd in n4 if cmd[0].split(".", 1)[1] in KERNEL_N4]
            out.extend(_interleave([n4, n6]))
        else:
            n2 = pool_commands("n2", rng.randrange(POOL["n2"]))
            out.extend(_interleave([n4, n6, n2, [AUDIT]]))
    return out
