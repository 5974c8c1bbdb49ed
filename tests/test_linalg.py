"""Dense exact matrices.

Oracle: determinants are recomputed by Leibniz permutation expansion,
which needs no division and is independent of the elimination route.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from hamforms import Lcg, Matrix, Poly, RatFunc, SingularMatrix
from hamforms.linalg import rank_and_left_nullvector


def leibniz_det(m):
    n = m.nrows
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def random_matrix(rng, n):
    return Matrix([[rng.fraction() for _ in range(n)] for _ in range(n)])


def test_indexing_and_shape():
    m = Matrix.from_strings([["1", "2"], ["3/2", "-1"]])
    assert m.nrows == 2 and m.ncols == 2
    assert m[1, 0] == Fraction(3, 2)
    assert m.transpose()[0, 1] == Fraction(3, 2)


def test_det_against_permutation_expansion():
    rng = Lcg(111)
    for n in (2, 3, 4):
        for _ in range(8):
            m = random_matrix(rng, n)
            assert m.det() == leibniz_det(m)


def test_matmul_and_identity():
    rng = Lcg(222)
    a = random_matrix(rng, 3)
    b = random_matrix(rng, 3)
    i3 = Matrix.identity(3)
    assert a @ i3 == a and i3 @ a == a
    assert (a @ b).det() == a.det() * b.det()


def test_inverse_roundtrip():
    rng = Lcg(333)
    done = 0
    while done < 6:
        m = random_matrix(rng, 3)
        if not m.det():
            continue
        assert m @ m.inv() == Matrix.identity(3)
        assert m.inv() @ m == Matrix.identity(3)
        done += 1


def test_singular_rejected():
    m = Matrix.from_strings([["1", "2"], ["2", "4"]])
    with pytest.raises(SingularMatrix):
        m.inv()
    assert m.det() == 0


def test_apply():
    m = Matrix.from_strings([["0", "1"], ["-1", "0"]])
    assert m.apply((Fraction(2), Fraction(5))) == (Fraction(5), Fraction(-2))


def test_block_diag():
    a = Matrix.from_strings([["2"]])
    b = Matrix.from_strings([["0", "1"], ["1", "0"]])
    m = Matrix.block_diag(a, b)
    assert m.nrows == 3
    assert m[0, 0] == 2 and m[1, 2] == 1 and m[0, 1] == 0
    assert m.det() == a.det() * b.det()


def test_scalar_multiply():
    m = Matrix.from_strings([["1", "2"], ["3", "4"]])
    assert (m * Fraction(2))[1, 0] == 6


def test_symbolic_entries():
    # matrices over rational functions run through the same elimination
    t = RatFunc.var(1, 1)
    one = RatFunc.from_const(1, 1)
    zero = RatFunc.from_const(1, 0)
    m = Matrix([[t, one], [zero, t]])
    assert m.det() == t * t
    inv = m.inv()
    assert inv[0, 1] == -one / (t * t)
    prod = m @ inv
    assert prod[0, 0] == one and prod[0, 1] == zero


def test_rank_and_certificate():
    rng = Lcg(444)
    for _ in range(10):
        a = [rng.fraction() for _ in range(4)]
        b = [rng.fraction() for _ in range(4)]
        c1, c2 = rng.nonzero_fraction(), rng.nonzero_fraction()
        dep = [c1 * x + c2 * y for x, y in zip(a, b)]
        m = Matrix([a, b, dep])
        rank, cert = rank_and_left_nullvector(m)
        assert rank <= 2
        if cert is not None:
            combo = [sum(ci * m[i, j] for i, ci in enumerate(cert))
                     for j in range(4)]
            assert all(v == 0 for v in combo)
            assert any(cert)


def test_rank_full():
    rank, cert = rank_and_left_nullvector(Matrix.identity(3))
    assert rank == 3 and cert is None


_M23 = Matrix([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("call,match", [
    (lambda: Matrix([[1, 2], [3]]), "ragged matrix"),
    (lambda: _M23 @ _M23, "matrix shape mismatch"),
    (lambda: _M23.apply((1, 2)), "vector length mismatch"),
    (lambda: _M23.det(), "determinant of a non-square matrix"),
    (lambda: _M23.inv(), "inverse of a non-square matrix"),
], ids=["ragged", "product", "apply", "det", "inv"])
def test_matrix_shape_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
