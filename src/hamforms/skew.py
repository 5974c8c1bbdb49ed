"""Antisymmetric matrices, Pfaffians, and Pfaffian-based inversion.

The leading coefficient of every operator handled here is antisymmetric,
so determinants factor as squares of Pfaffians and inverses divide by a
single Pfaffian.  A `SkewMatrix` is the degree-2 `AltForm` read as a
matrix: zero diagonal, `get(i, j)`, side `n`, upper entries `upper`.
Pf(S) and each entry of the adjugate S# are Pfaffians of principal
submatrices; each public routine reads them from one table built for its
call, which expands each index subset once, along its smallest index.
Entries are Fraction, Poly or RatFunc; all is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OddDimension, SingularMatrix
from .forms import AltForm
from .linalg import Matrix
from .poly import Poly, RatFunc


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
    """Pfaffian of a SkewMatrix, normalised so that Pf([[0, 1], [-1, 0]]) = 1;
    division-free, so Poly entries give a Poly."""
    return _sub_pfaffians(s, "pfaffian")(tuple(range(1, s.n + 1)))


def pfaffian_adjugate(s: SkewMatrix) -> SkewMatrix:
    """The SkewMatrix S# with S S# = Pf(S) I: entry (i, j), i < j, is
    (-1)^(i+j) times the Pfaffian of S without rows and columns i and j."""
    return _adjugate(s.n, _sub_pfaffians(s, "pfaffian adjugate"))


def skew_inverse(s: SkewMatrix) -> SkewMatrix:
    """Inverse of an invertible SkewMatrix, as S# / Pf(S): RatFunc entries
    when Pf(S) is a Poly, Fraction entries when it is a Fraction."""
    pf_of = _sub_pfaffians(s, "pfaffian")
    pf = pf_of(tuple(range(1, s.n + 1)))
    if not pf:
        raise SingularMatrix("skew matrix has zero pfaffian")
    pf = RatFunc(pf) if isinstance(pf, Poly) else pf
    return _adjugate(s.n, pf_of).map_coeffs(lambda v: v / pf)


def _sub_pfaffians(s: SkewMatrix, what: str):
    """Pf of the principal submatrix of s on a sorted index tuple.  Each
    subset is expanded once, along its smallest index, into a table that
    lives only as long as the returned function."""
    if s.n % 2:
        raise OddDimension(what + " needs an even-dimensional matrix")
    get, table = s.get, {(): Fraction(1)}

    def pf(idx):
        if len(idx) == 2:
            return get(*idx)
        v = table.get(idx)
        if v is None:
            first, rest = idx[0], idx[1:]
            for pos, j in enumerate(rest):
                c = get(first, j)
                if c:
                    term = c * pf(rest[:pos] + rest[pos + 1 :])
                    term = -term if pos % 2 else term
                    v = term if v is None else v + term
            v = table[idx] = Fraction(0) if v is None else v
        return v

    return pf


def _adjugate(n: int, pf) -> SkewMatrix:
    """S# of an n x n matrix, read from its sub-Pfaffian function pf."""
    upper = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = pf(tuple(k for k in range(1, n + 1) if k != i and k != j))
            if c:
                upper[(i, j)] = -c if (i + j) % 2 else c
    return SkewMatrix(n, upper)
