"""Seeded inputs for the benchmark.

Everything here is plain data built from `random.Random(seed)`: pair
dictionaries in the `hamforms` JSON layout, projective matrices and
reciprocal maps.  Validity is arranged by construction, never by asking
the program:

- every entry of the constant metric block g0 and the rotational block A
  is a nonzero integer, and Pf(g0) != 0, Pf(A) != 0 are checked here with
  an independent Pfaffian, so the metric and the x-t exchanged metric are
  nondegenerate (their constant terms are those Pfaffians);
- projective matrices are products of unit lower and unit upper
  triangular integer matrices, so their determinant is 1;
- reciprocal maps have bx = 0, cx = 0 and ax0 dt0 != 0: the constant
  metric block of the image is then a nonzero multiple of g0, so the
  image metric is nondegenerate too; ax and bt still mix the fields
  and t into the new x.

Term density is fixed per input class.  A cubic block is a fixed support
pattern moved by a random relabelling of the fields, so pairs of one
class are isomorphic up to coefficients and cost about the same; the
coefficients vary with the seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

# cubic-block support patterns (before relabelling the fields)
N4_CUBIC = {k: [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)][:k]
            for k in range(0, 5)}
N6_SPARSE = [(1, 2, 3), (1, 4, 5)]


def nonzero_int(rng: random.Random, hi: int = 3) -> int:
    while True:
        v = rng.randint(-hi, hi)
        if v:
            return v


def pf_const(n: int, get) -> Fraction:
    """Pfaffian of a constant skew matrix by expansion along row 1."""
    def pf(idx):
        if not idx:
            return Fraction(1)
        first, rest = idx[0], idx[1:]
        total = Fraction(0)
        for pos, j in enumerate(rest):
            c = get(first, j)
            if c:
                sign = -1 if pos % 2 else 1
                total += sign * c * pf(rest[:pos] + rest[pos + 1:])
        return total
    return pf(tuple(range(1, n + 1)))


def _skew_block(rng, n):
    return {ij: nonzero_int(rng) for ij in combinations(range(1, n + 1), 2)}


def _nondegenerate_block(rng, n):
    while True:
        block = _skew_block(rng, n)
        if pf_const(n, lambda i, j: Fraction(block[(i, j)])):
            return block


def _relabel(rng, n, support):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted(tuple(sorted(perm[i - 1] for i in t)) for t in support)


def _form(degree, dim, comps) -> dict:
    return {"degree": degree, "dim": dim,
            "terms": [{"idx": list(k), "coeff": str(v)}
                      for k, v in sorted(comps.items())]}


def pair_dict(rng: random.Random, n: int, support) -> dict:
    """A pair in the JSON layout; `support` lists the cubic triples."""
    cubic = {t: nonzero_int(rng) for t in _relabel(rng, n, support)}
    g0 = _nondegenerate_block(rng, n)
    a = _nondegenerate_block(rng, n)
    b = [nonzero_int(rng) for _ in range(n)]
    return {"N": n, "T": _form(3, n, cubic), "g0": _form(2, n, g0),
            "A": _form(2, n, a), "B": [str(v) for v in b]}


def dense_pair_dict(rng: random.Random, n: int) -> dict:
    return pair_dict(rng, n, list(combinations(range(1, n + 1), 3)))


def projective_matrix(rng: random.Random, n: int) -> list:
    """(n+1)x(n+1) integer matrix of determinant 1, as rational strings."""
    m = n + 1
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0)
              for j in range(m)] for i in range(m)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0)
              for j in range(m)] for i in range(m)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(m))
             for j in range(m)] for i in range(m)]
    return [[str(v) for v in row] for row in prod]


def reciprocal_map(rng: random.Random, n: int) -> dict:
    """Keys as the `transform --reciprocal` file; bx = 0, cx = 0 and
    ax0 dt0 != 0."""
    return {"ax": [str(rng.randint(-1, 1)) for _ in range(n)],
            "ax0": str(nonzero_int(rng, 2)), "bt": str(rng.randint(-2, 2)),
            "bx": ["0"] * n, "cx": "0", "dt0": str(nonzero_int(rng, 2))}


def standard_n4_pair_dict(pair: dict) -> dict:
    """Same A and B, cubic block zero and g0 = eta: the standard position
    eta ^ du5 that four-field classification requires."""
    eta = {(1, 2): 1, (3, 4): 1}
    return {"N": 4, "T": _form(3, 4, {}), "g0": _form(2, 4, eta),
            "A": pair["A"], "B": pair["B"]}


def n4_invariants(pair: dict):
    """Closed-form four-field invariants of the A block.

    theta_eta = (a12 + a34) / 2 and, with theta12 = (a12 - a34) / 2,
    q = 2 (-theta12^2 - a13 a24 + a14 a23): twice the Pfaffian of the
    trace-free part.
    """
    a = {tuple(t["idx"]): Fraction(t["coeff"]) for t in pair["A"]["terms"]}
    g = lambda i, j: a.get((i, j), Fraction(0))  # noqa: E731
    te = (g(1, 2) + g(3, 4)) / 2
    t12 = (g(1, 2) - g(3, 4)) / 2
    q = 2 * (-t12 * t12 - g(1, 3) * g(2, 4) + g(1, 4) * g(2, 3))
    return te, q


def dumps(obj) -> str:
    """The byte layout every corpus file is written in."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"
