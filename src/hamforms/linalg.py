"""Small dense exact matrices over Q or over a rational-function field.

Entries are Fraction or RatFunc; a Poly entry is held only for display
and lifted to RatFunc before elimination.  Elimination inverts and
zeroes entries with their own `/` and `*`: Fraction(1) / x and
Fraction(0) * x are RatFuncs for a RatFunc x.  Antisymmetric data
lives in `skew.SkewMatrix`, the degree-2 `AltForm`, not here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrix
from .poly import as_fraction


class Matrix:
    """Immutable dense matrix; entries are Fraction, RatFunc or Poly."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_strings(cls, rows) -> "Matrix":
        return cls([[as_fraction(x) for x in r] for r in rows])

    @classmethod
    def block_diag(cls, *blocks) -> "Matrix":
        n = sum(b.nrows for b in blocks)
        rows = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.nrows
        return cls(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        ot = list(zip(*other.rows))
        return Matrix(
            [[_dot(r, c) for c in ot] for r in self.rows]
        )

    def __mul__(self, scalar) -> "Matrix":
        return Matrix([[x * scalar for x in r] for r in self.rows])

    def apply(self, vec):
        """Matrix times column vector (sequence)."""
        if self.ncols != len(vec):
            raise ValueError("vector length mismatch")
        return tuple(_dot(r, vec) for r in self.rows)

    def det(self):
        """Determinant: the product of the pivots of `_eliminate`."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        a, rank, sign = _eliminate(self.rows, n)
        if rank < n:
            return Fraction(0) * self.rows[0][0]
        det = Fraction(1)
        for i in range(n):
            det = det * a[i][i]
        return det * sign

    def inv(self) -> "Matrix":
        """Exact inverse; raises SingularMatrix if not invertible.

        Eliminates on the matrix with the identity appended, then
        back-substitutes from the last pivot up.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        a, rank, _ = _eliminate(_with_identity(self.rows), n)
        if rank < n:
            raise SingularMatrix("matrix is not invertible")
        for col in reversed(range(n)):
            inv = Fraction(1) / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(col):
                if a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return Matrix([row[n:] for row in a])

    def __repr__(self):
        return "Matrix(%s)" % (", ".join("[%s]" % ", ".join(str(x) for x in r) for r in self.rows))


def _dot(r, c):
    total = None
    for x, y in zip(r, c):
        p = x * y
        total = p if total is None else total + p
    return total if total is not None else Fraction(0)


def _with_identity(rows) -> list:
    """Each row with the matching row of the identity appended."""
    n = len(rows)
    return [list(r) + [Fraction(i == j) for j in range(n)]
            for i, r in enumerate(rows)]


def _eliminate(rows, ncols: int) -> tuple:
    """Forward Gaussian elimination over the first ncols columns.

    Returns (a, rank, sign): the rows in echelon form, the number of
    pivots, and the sign of the row swaps.  Each pivot is the first
    nonzero entry at or below the current row; the rows below it are
    reduced by division-based multipliers, and columns without a pivot
    are skipped, so a rank-deficient matrix ends in zero rows.
    Elimination is exact over the entry field.
    """
    a = [list(r) for r in rows]
    n = len(a)
    rank, sign = 0, 1
    for col in range(ncols):
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if a[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        inv = Fraction(1) / a[rank][col]
        for r in range(rank + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return a, rank, sign


def rank_and_left_nullvector(m: Matrix):
    """Rank of m, plus one nonzero left null vector when the rows are
    dependent (coefficients c with c . rows == 0), else None.

    The vector is the identity part of the first zero row left by
    eliminating on m with the identity appended.
    """
    nr, nc = m.nrows, m.ncols
    a, rank, _ = _eliminate(_with_identity(m.rows), nc)
    return rank, (tuple(a[rank][nc:]) if rank < nr else None)
