"""Frontier sweep: the layers at N = 2, 4, 6, 8, each case under a cap.

Runs only in the traced run, never in the timed workloads.  Each case is
one call into one layer on a seeded dense pair (every cubic entry
nonzero) and records a status: "ok" with its wall time, "error" with the
exception, or "timeout" when it hit the cap, which is never dropped and
has no time ("s" is None; "elapsed_s" is the cap it ran into).

The TIMED cases finish well inside the cap at the seed state and each
gives a per-layer metric `frontier.<case>.s`.  The TARGETS run far past
any cap a traced run can afford (dense N=6 symbolic `check_compat`
47-88 s, the symbolic check of a perturbed parametric N=4 `ForcedPair`
77 s because its `flux_cleared` multiplies all denominators together,
N=8 flux over 800 s).  They are the ROADMAP direction 2 and 3 targets and
show only in `frontier.timeouts` until a change brings one under the cap.

`n4.param_reciprocal` records a seed-state defect: `check_compat` on the
reciprocal image of the parametric pair fails once the map mixes the
fields into x or t, because the image cubic block holds parameter
polynomials that the check does not accept.
"""

from __future__ import annotations

import random
from fractions import Fraction

import corpus
import workloads
from caps import Timeout, capped

from hamforms import (
    ForcedPair, RatFunc, ReciprocalMap, annihilation_check,
    apply_reciprocal, check_compat, form_from_pair, grassmann_check,
    pair_from_dict, plucker_homogeneous,
)

CAP_S = 8.0


def _plucker(pair):
    ph = plucker_homogeneous(pair)
    sf = form_from_pair(pair)
    return (annihilation_check(sf, ph)["ok"]
            and grassmann_check(ph, pair.N + 2)["ok"])


def _forced_perturbed(pair):
    flux = list(pair.flux)
    flux[0] = flux[0] + RatFunc.var(pair.nvars, 2)
    return ForcedPair(pair.mcubic, pair.mconst, tuple(flux), nvars=pair.nvars)


def _param_reciprocal(pair):
    z = [Fraction(0)] * 4
    r = ReciprocalMap(4, [Fraction(1)] + z[1:], Fraction(2), Fraction(1), z,
                      Fraction(0), Fraction(1))
    return check_compat(apply_reciprocal(pair, r), mode="symbolic")


TIMED = (
    "n2.flux", "n2.check_sampled", "n2.check_symbolic", "n2.plucker",
    "n4.flux", "n4.check_sampled", "n4.check_symbolic", "n4.plucker",
    "n6.flux", "n6.check_sampled", "n6.plucker", "n4.param_reciprocal",
)
TARGETS = ("n6.check_symbolic", "n4.forced_perturbed_symbolic", "n8.flux")


def cases(seed: int) -> list:
    """(name, callable, expected truth value or None) in sweep order."""
    rng = random.Random(seed)
    dense = {n: pair_from_dict(corpus.dense_pair_dict(rng, n))
             for n in (2, 4, 6, 8)}
    param = workloads.parametric_pair(rng)
    out = []
    for n in (2, 4, 6):
        p = dense[n]
        out += [
            ("n%d.flux" % n, lambda p=p: p.flux, None),
            ("n%d.check_sampled" % n,
             lambda p=p: check_compat(p, mode="sampled")["all_zero"], True),
            ("n%d.check_symbolic" % n,
             lambda p=p: check_compat(p, mode="symbolic")["all_zero"], True),
            ("n%d.plucker" % n, lambda p=p: _plucker(p), True),
        ]
    out += [
        ("n4.forced_perturbed_symbolic",
         lambda: check_compat(_forced_perturbed(param),
                              mode="symbolic")["all_zero"], False),
        ("n4.param_reciprocal",
         lambda: _param_reciprocal(param)["all_zero"], True),
        ("n8.flux", lambda: dense[8].flux, None),
    ]
    return out


def sweep(seed: int, cap_s: float = CAP_S) -> dict:
    """name -> {"status", "s", "detail"}; a wrong answer is "wrong"."""
    results = {}
    for name, fn, want in cases(seed):
        try:
            value, secs = capped(fn, cap_s)
        except Timeout as exc:
            results[name] = {"status": "timeout", "s": None,
                             "elapsed_s": exc.elapsed,
                             "detail": "cap %.0f s" % cap_s}
            continue
        except Exception as exc:  # recorded per case; the sweep goes on
            results[name] = {"status": "error",
                             "s": getattr(exc, "elapsed", 0.0),
                             "detail": "%s: %s" % (type(exc).__name__, exc)}
            continue
        ok = want is None or bool(value) == want
        results[name] = {"status": "ok" if ok else "wrong", "s": secs,
                         "detail": ""}
    return results
