"""Exact linear algebra against SymPy, an independent implementation.

Hypothesis draws small rational matrices, square and rectangular.  Half
of them are a product through a smaller inner dimension, so singular
and rank-deficient matrices (the zero matrix included) come up as often
as full-rank ones.  `det`, `inv`, `rank_and_left_nullvector`, `pfaffian`
and `pfaffian_adjugate` are compared with sympy.Matrix.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hamforms import Matrix, SingularMatrix, SkewMatrix, pfaffian, pfaffian_adjugate
from hamforms.linalg import rank_and_left_nullvector

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _q(x):
    return sympy.Rational(x.numerator, x.denominator)


def _sym(rows):
    return sympy.Matrix([[_q(x) for x in r] for r in rows])


def _frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@st.composite
def matrices(draw, square=False):
    nr = draw(st.integers(1, 5))
    nc = nr if square else draw(st.integers(1, 6))
    if draw(st.booleans()):
        # a product through an inner dimension k has rank at most k
        k = draw(st.integers(0, min(nr, nc)))
        left = [[draw(RATIONALS) for _ in range(k)] for _ in range(nr)]
        right = [[draw(RATIONALS) for _ in range(nc)] for _ in range(k)]
        rows = [[sum((left[i][t] * right[t][j] for t in range(k)),
                     Fraction(0)) for j in range(nc)] for i in range(nr)]
    else:
        rows = [[draw(RATIONALS) for _ in range(nc)] for _ in range(nr)]
    return Matrix(rows)


@st.composite
def skew_matrices(draw):
    """Up to 8x8, with entries left out: the Pfaffian expansion skips the
    zero entries and shares the sub-Pfaffians of its index subsets."""
    n = 2 * draw(st.integers(1, 4))
    upper = {(i, j): draw(RATIONALS)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if draw(st.booleans())}
    return SkewMatrix(n, upper)


@settings(max_examples=60, deadline=None)
@given(m=matrices(square=True))
def test_det_and_inverse_match_sympy(m):
    s = _sym(m.rows)
    d = _frac(s.det())
    assert m.det() == d
    if d:
        assert m.inv().rows == tuple(tuple(_frac(x) for x in r)
                                     for r in s.inv().tolist())
    else:
        with pytest.raises(SingularMatrix):
            m.inv()


@settings(max_examples=60, deadline=None)
@given(m=matrices())
def test_rank_and_certificate_match_sympy(m):
    s = _sym(m.rows)
    rank, cert = rank_and_left_nullvector(m)
    assert rank == s.rank()
    if rank == m.nrows:
        assert cert is None
        return
    c = _sym([cert])
    assert any(cert)
    assert c * s == sympy.zeros(1, m.ncols)
    left_null = s.T.nullspace()
    assert len(left_null) == m.nrows - rank
    if len(left_null) == 1:
        # corank one: the certificate spans the left null space
        assert sympy.Matrix.vstack(c, left_null[0].T).rank() == 1


@settings(max_examples=40, deadline=None)
@given(s=skew_matrices())
def test_pfaffian_and_adjugate_match_sympy(s):
    dense = _sym(s.to_matrix().rows)
    pf = pfaffian(s)
    assert pf * pf == _frac(dense.det())
    adj = _sym(pfaffian_adjugate(s).to_matrix().rows)
    assert dense * adj == _q(pf) * sympy.eye(s.n)
