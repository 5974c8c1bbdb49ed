"""Antisymmetric matrices, Pfaffians, and Pfaffian-based inversion.

The leading coefficient of every operator handled here is antisymmetric,
so determinants factor as squares of Pfaffians and inverses divide by a
single Pfaffian instead of a determinant.  A `SkewMatrix` is the
degree-2 `AltForm`, built by `AltForm.__init__`.  It adds the matrix
reading: a nonzero diagonal entry is an error, `get(i, j)` is the fast
lookup of the Pfaffian expansion, `n` and `upper` name the side and the
strictly upper entries, and the Pfaffian routines take only a
`SkewMatrix`.  Entries are Fraction, Poly or RatFunc; all is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OddDimension, SingularMatrix
from .forms import AltForm
from .linalg import Matrix


class SkewMatrix(AltForm):
    """n x n antisymmetric matrix: the two-form on n coordinates, stored
    by its strictly upper entries."""

    __slots__ = ()

    def __init__(self, n: int, upper=None):
        if upper and any(i == j and v for (i, j), v in upper.items()):
            raise ValueError("diagonal of a skew matrix must vanish")
        AltForm.__init__(self, 2, n, upper)

    @property
    def n(self) -> int:
        return self.dim

    @property
    def upper(self) -> dict:
        return self.comps

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
        return cls(n)

    @classmethod
    def from_form(cls, phi: AltForm) -> "SkewMatrix":
        if phi.degree != 2:
            raise ValueError("expected a two-form")
        return cls(phi.dim, phi.comps)

    def to_matrix(self) -> Matrix:
        return Matrix(
            [[self.get(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]
        )

    def get(self, i: int, j: int):
        if i == j:
            return Fraction(0)
        if i < j:
            return self.upper.get((i, j), Fraction(0))
        v = self.upper.get((j, i))
        return Fraction(0) if v is None else -v

    def __repr__(self):
        return "SkewMatrix(%d, %r)" % (self.n, self.upper)


def pfaffian(s: SkewMatrix):
    """Pfaffian of a SkewMatrix, normalised so that Pf([[0, 1], [-1, 0]]) = 1.

    Expansion along the first remaining row; division-free, so Poly
    entries give a Poly.
    """
    if s.n % 2:
        raise OddDimension("pfaffian needs an even-dimensional matrix")
    return _pf(s.get, tuple(range(1, s.n + 1)))


def _pf(get, idx: tuple):
    if not idx:
        return Fraction(1)
    if len(idx) == 2:
        return get(idx[0], idx[1])
    first = idx[0]
    rest = idx[1:]
    total = None
    for pos, j in enumerate(rest):
        c = get(first, j)
        if not c:
            continue
        sub = rest[:pos] + rest[pos + 1 :]
        term = c * _pf(get, sub)
        if pos % 2:
            term = -term
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def pfaffian_adjugate(s: SkewMatrix) -> SkewMatrix:
    """The SkewMatrix S# with S S# = Pf(S) I, for a SkewMatrix S.

    Entry (i, j), i < j, is (-1)^(i+j) times the Pfaffian of S with rows
    and columns i and j removed.
    """
    n = s.n
    if n % 2:
        raise OddDimension("pfaffian adjugate needs an even-dimensional matrix")
    upper = {}
    full = tuple(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            sub = tuple(k for k in full if k != i and k != j)
            c = _pf(s.get, sub)
            if not c:
                continue
            if (i + j) % 2:
                c = -c
            upper[(i, j)] = c
    return SkewMatrix(n, upper)


def skew_inverse(s: SkewMatrix) -> SkewMatrix:
    """Inverse of an invertible SkewMatrix, as S# / Pf(S)."""
    pf = pfaffian(s)
    if not pf:
        raise SingularMatrix("skew matrix has zero pfaffian")
    return pfaffian_adjugate(s).map_coeffs(lambda v: v / pf)
