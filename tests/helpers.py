"""Shared builders for the test suite.

Symbolic pairs put the fields first, then the homogenizing variable,
then the free coefficients, so every test uses one fixed ring layout.
"""

from fractions import Fraction

from hamforms import AltForm, HamPair, Matrix, Poly, SkewMatrix

# two-field pair: u1 u2 | u3 hom | g12 a12 b1 b2
N2_VARS = 7
N2_SYM = {"g0_12": 4, "a12": 5, "b1": 6, "b2": 7}

# four-field pair: u1..u4 | u5 hom | g0 (6 entries) | A (6) | B (4)
N4_VARS = 21
N4_G0 = {(1, 2): 6, (1, 3): 7, (1, 4): 8, (2, 3): 9, (2, 4): 10, (3, 4): 11}
N4_A = {(1, 2): 12, (1, 3): 13, (1, 4): 14, (2, 3): 15, (2, 4): 16,
        (3, 4): 17}
N4_B = (18, 19, 20, 21)


def sym(nvars, i):
    return Poly.var(nvars, i)


def generic_pair_n2(unit_metric=False):
    """Two fields with free coefficients; metric slot 1 when requested."""
    nv = N2_VARS
    g = Fraction(1) if unit_metric else sym(nv, N2_SYM["g0_12"])
    return HamPair(
        AltForm(3, 2),
        SkewMatrix(2, {(1, 2): g}),
        SkewMatrix(2, {(1, 2): sym(nv, N2_SYM["a12"])}),
        (sym(nv, N2_SYM["b1"]), sym(nv, N2_SYM["b2"])),
        nvars=nv,
    )


def generic_pair_n4():
    """Four fields: unit cubic block, free constant blocks."""
    nv = N4_VARS
    return HamPair(
        AltForm(3, 4, {(1, 2, 3): Fraction(1)}),
        SkewMatrix(4, {k: sym(nv, v) for k, v in N4_G0.items()}),
        SkewMatrix(4, {k: sym(nv, v) for k, v in N4_A.items()}),
        tuple(sym(nv, v) for v in N4_B),
        nvars=nv,
    )


def sample_point(rng, nvars, max_num=7, max_den=3):
    """A point of small random rationals."""
    return tuple(rng.fraction(max_num, max_den) for _ in range(nvars))


def random_matrix(rng, nrows: int, ncols: int, max_num: int = 4) -> Matrix:
    return Matrix([[rng.fraction(max_num) for _ in range(ncols)] for _ in range(nrows)])


def random_invertible(rng, n: int, max_num: int = 4) -> Matrix:
    while True:
        m = random_matrix(rng, n, n, max_num)
        if m.det():
            return m


def symplectic_transvection(rng, j_mat: Matrix, max_num: int = 3) -> Matrix:
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


def random_symplectic(rng, j_mat: Matrix, factors: int = 3) -> Matrix:
    m = Matrix.identity(j_mat.nrows)
    for _ in range(factors):
        m = m @ symplectic_transvection(rng, j_mat)
    return m


def pairs_equal(p, q):
    return (p.N == q.N and p.mcubic == q.mcubic and p.mconst == q.mconst
            and p.wskew == q.wskew and tuple(p.wconst) == tuple(q.wconst))


P61 = 2 ** 61 - 1


def mod_eval(poly, point):
    """A rational polynomial reduced mod P61 at a residue point; inverses
    by Fermat's little theorem."""
    total = 0
    for e, c in poly.items():
        v = c.numerator * pow(c.denominator, P61 - 2, P61)
        for x, k in zip(point, e):
            v = v * pow(x, k, P61) % P61
        total += v
    return total % P61


def count_pair_pfaffians(monkeypatch):
    """Count the adjugates, and the Pfaffians of matrices with entries in
    the fields, that `hamforms.pairs` expands from now on."""
    import hamforms.pairs as pairs_mod

    calls = {"pfaffian": 0, "pfaffian_adjugate": 0}
    real_pf, real_adj = pairs_mod.pfaffian, pairs_mod.pfaffian_adjugate

    def pf(s):
        calls["pfaffian"] += any(
            isinstance(v, Poly) and any(v.uses_var(i) for i in range(1, s.n + 1))
            for v in s.upper.values())
        return real_pf(s)

    def adj(s):
        calls["pfaffian_adjugate"] += 1
        return real_adj(s)

    monkeypatch.setattr(pairs_mod, "pfaffian", pf)
    monkeypatch.setattr(pairs_mod, "pfaffian_adjugate", adj)
    return calls
