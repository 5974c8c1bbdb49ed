"""Deterministic random generation, and the one sampler of the checks.

A fixed 64-bit linear congruential generator (Knuth's MMIX constants)
keeps every sampled check reproducible from a single integer seed, with
no dependence on interpreter hashing or library versions.  The random
skew matrices and three-forms of test data come from one generator,
`_random_entries`, which spends one discarded draw before each entry
so that a seed keeps drawing the pairs it drew before.  `run_check`,
at the end of this module, is the one proof-or-sample policy: both
checks, `check_compat` and `congruence_checks`, are proved through it
or sampled at residues modulo the prime 2^61 - 1, where `_Vals.at`
reduces each polynomial at all the points at once and a rational on
either side of a `_Vals` stands for its residue at every point, so a
check's formulas run unchanged on rationals, Poly, RatFunc and residues.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat

from .errors import NoResidue
from .forms import AltForm
from .poly import Poly, unpack
from .skew import SkewMatrix

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """x -> (6364136223846793005 x + 1442695040888963407) mod 2^64."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        # warm up so that small seeds decorrelate
        for _ in range(4):
            self.next_u64()

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; fine for test data."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + (self.next_u64() >> 16) % (hi - lo + 1)

    def fraction(self, max_num: int = 9, max_den: int = 4) -> Fraction:
        return Fraction(self.randint(-max_num, max_num), self.randint(1, max_den))

    def nonzero_fraction(self, max_num: int = 9, max_den: int = 4) -> Fraction:
        while True:
            f = self.fraction(max_num, max_den)
            if f:
                return f


def random_vector(rng: Lcg, n: int, max_num: int = 5) -> tuple:
    return tuple(rng.fraction(max_num) for _ in range(n))


def _random_entries(rng: Lcg, dim: int, degree: int, max_num: int) -> dict:
    """A random rational for every increasing index tuple of the degree.
    Each entry first spends one draw and discards it: that draw once
    decided whether the entry was kept at all, and spending it keeps
    every seed drawing the pairs it drew before."""
    entries = {}
    for idx in combinations(range(1, dim + 1), degree):
        rng.next_u64()
        entries[idx] = rng.fraction(max_num)
    return entries


def random_skew(rng: Lcg, n: int, max_num: int = 5) -> SkewMatrix:
    return SkewMatrix(n, _random_entries(rng, n, 2, max_num))


def random_three_form(rng: Lcg, dim: int, max_num: int = 5) -> AltForm:
    return AltForm(3, dim, _random_entries(rng, dim, 3, max_num))


# Sampled checks run in the integers modulo this Mersenne prime.
MODULUS = (1 << 61) - 1


def _residue(c) -> int:
    """A rational number reduced mod MODULUS."""
    if isinstance(c, int):
        return c % MODULUS
    if c.denominator % MODULUS == 0:
        raise NoResidue("the rational %s has no residue mod 2^61-1: its "
                        "denominator is a multiple of the modulus" % c)
    return c.numerator * pow(c.denominator, -1, MODULUS) % MODULUS


def _random_residue(rng: Lcg) -> int:
    # the top 61 bits of a word, redrawn in the one case they equal the
    # modulus, are uniform on 0 .. MODULUS-1
    while True:
        x = rng.next_u64() >> 3
        if x != MODULUS:
            return x


# Bytes per point in a packed table entry.  A lane holds a sum of up to
# 2^70 products of two residues below 2^61 without carrying into the next.
_LANE = 24


class _Vals:
    """A polynomial reduced to its residues mod MODULUS at fixed points.

    Swapping these in for Poly turns a symbolic check into a pointwise
    one with no change to the formulas: a rational on either side of
    +, - or * stands for its residue at every point, so sums started at
    Fraction(0) and products with rational entries run as they are.
    `_residue` raises NoResidue, a ValueError, for a rational whose
    denominator the modulus divides, rather than return a wrong residue.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    @classmethod
    def at(cls, p, points, table) -> "_Vals":
        """p at all the points at once, one multiply-add per term: `table`
        maps a packed monomial to its residues there, one little-endian
        _LANE-byte lane per point in one int, and is filled on first use."""
        scale = _residue(Fraction(1, p.den))
        acc = 0
        for key, c in p.terms.items():
            lanes = table.get(key)
            if lanes is None:
                rs = [1] * len(points)
                for v, k in enumerate(unpack(key, p.num_vars)):
                    if k:
                        rs = [r * pow(x[v], k, MODULUS) % MODULUS
                              for r, x in zip(rs, points)]
                lanes = table[key] = int.from_bytes(b"".join(
                    r.to_bytes(_LANE, "little") for r in rs), "little")
            acc += c * scale % MODULUS * lanes
        b = acc.to_bytes(_LANE * len(points), "little")
        return cls([int.from_bytes(b[i:i + _LANE], "little") % MODULUS
                    for i in range(0, len(b), _LANE)])

    def _pairs(self, other):
        w = other.v if isinstance(other, _Vals) else repeat(_residue(other))
        return zip(self.v, w)

    def __add__(self, other):
        return _Vals([(a + b) % MODULUS for a, b in self._pairs(other)])

    __radd__ = __add__

    def __sub__(self, other):
        return _Vals([(a - b) % MODULUS for a, b in self._pairs(other)])

    def __rsub__(self, other):
        return _Vals([(b - a) % MODULUS for a, b in self._pairs(other)])

    def __mul__(self, other):
        return _Vals([a * b % MODULUS for a, b in self._pairs(other)])

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.v)


def run_check(mode: str, build, bound, samples: int, seed: int) -> tuple:
    """The one proof-or-sample policy of the checks.

    `build(conv)` returns the residuals, a tuple of dicts, of polynomials
    it passed through `conv`.  A symbolic check calls it with the identity:
    a proof.  A sampled one takes (avoid, degree) = bound() and draws
    `samples` uniform residue points mod MODULUS in the ring of `avoid`,
    where it does not vanish (NoResidue if it is zero mod MODULUS); `conv`
    takes a Poly to its residues there, with one monomial table for the
    check, and passes scalars through, and a residual is reported as its
    first failing point and residue there.
    By Schwartz-Zippel a residual of degree <= `degree` that is nonzero
    mod MODULUS vanishes at every point with probability at most "bound"
    = (degree / (MODULUS - deg avoid))^samples, an exact Fraction; it is
    one of the report keys returned with the residuals, none for a proof.
    """
    if mode not in ("symbolic", "sampled"):
        raise ValueError("mode must be symbolic or sampled, not %r" % mode)
    if mode == "symbolic":
        return build(lambda c: c), {}
    avoid, degree = bound()
    if samples < 1:
        raise ValueError("sampled mode needs at least one point")
    if not any(c % MODULUS for c in avoid.terms.values()):
        raise NoResidue("the sample points must avoid a polynomial whose "
                        "coefficients are all multiples of 2^61-1")
    rng = Lcg(seed)
    points, table = [], {}
    while len(points) < samples:
        draws = [tuple(_random_residue(rng) for _ in range(avoid.num_vars))
                 for _ in range(samples - len(points))]
        points += [x for x, r in zip(draws, _Vals.at(avoid, draws, {}).v)
                   if r]

    def conv(c):
        return _Vals.at(c, points, table) if isinstance(c, Poly) else c

    def first_failure(acc):
        i = next(i for i, v in enumerate(acc.v) if v)
        return {"point": points[i], "value": acc.v[i]}

    residuals = tuple({key: first_failure(acc) for key, acc in r.items()}
                      for r in build(conv))
    prob = Fraction(degree, MODULUS - avoid.total_degree()) ** samples
    return residuals, {"modulus": MODULUS, "degree": degree,
                       "points": samples, "bound": prob}
