"""Deterministic random generation for tests, demos, and sampled checks.

A fixed 64-bit linear congruential generator (Knuth's MMIX constants)
keeps every sampled check reproducible from a single integer seed, with
no dependence on interpreter hashing or library versions.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import AltForm
from .linalg import Matrix
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


def sample_point(rng: Lcg, nvars: int, max_num: int = 7, max_den: int = 3) -> tuple:
    return tuple(rng.fraction(max_num, max_den) for _ in range(nvars))


def random_vector(rng: Lcg, n: int, max_num: int = 5) -> tuple:
    return tuple(rng.fraction(max_num) for _ in range(n))


def random_skew(rng: Lcg, n: int, max_num: int = 5, density: float = 1.0) -> SkewMatrix:
    upper = {}
    cutoff = int(density * 1000)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.randint(0, 999) < cutoff:
                upper[(i, j)] = rng.fraction(max_num)
    return SkewMatrix(n, upper)


def random_three_form(rng: Lcg, dim: int, max_num: int = 5, density: float = 1.0) -> AltForm:
    comps = {}
    cutoff = int(density * 1000)
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(j + 1, dim + 1):
                if rng.randint(0, 999) < cutoff:
                    comps[(i, j, k)] = rng.fraction(max_num)
    return AltForm(3, dim, comps)


def random_matrix(rng: Lcg, nrows: int, ncols: int, max_num: int = 4) -> Matrix:
    return Matrix([[rng.fraction(max_num) for _ in range(ncols)] for _ in range(nrows)])


def random_invertible(rng: Lcg, n: int, max_num: int = 4) -> Matrix:
    while True:
        m = random_matrix(rng, n, n, max_num)
        if m.det():
            return m


def symplectic_transvection(rng: Lcg, j_mat: Matrix, max_num: int = 3) -> Matrix:
    """I + c v (J v)^T: preserves the symplectic form with matrix J."""
    n = j_mat.nrows
    while True:
        v = [rng.fraction(max_num) for _ in range(n)]
        if any(v):
            break
    jv = j_mat.apply(v)
    c = rng.nonzero_fraction(max_num)
    rows = [
        [Fraction(i == k) + c * v[i] * jv[k] for k in range(n)]
        for i in range(n)
    ]
    return Matrix(rows)


def random_symplectic(rng: Lcg, j_mat: Matrix, factors: int = 3) -> Matrix:
    m = Matrix.identity(j_mat.nrows)
    for _ in range(factors):
        m = m @ symplectic_transvection(rng, j_mat)
    return m
