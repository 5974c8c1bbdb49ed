"""Skew-symmetric matrices and pfaffians.

Oracle: Pf(S)^2 = det(S), with det computed by the dense Matrix routine.
The 4x4 adjugate is also pinned against its closed form, and the generic
Pfaffian has one +-1 term per perfect matching.
"""

from fractions import Fraction

import pytest

from hamforms import (
    AltForm,
    HamPair,
    Lcg,
    Matrix,
    OddDimension,
    Poly,
    RatFunc,
    SingularMatrix,
    SkewMatrix,
    pfaffian,
    pfaffian_adjugate,
    skew_inverse,
    pullback_linear,
    wedge,
)
from hamforms.poly import lift


def random_skew(rng, n):
    upper = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            upper[(i, j)] = rng.fraction()
    return SkewMatrix(n, upper)


def test_base_convention():
    s = SkewMatrix(2, {(1, 2): Fraction(1)})
    assert pfaffian(s) == 1
    assert s.get(2, 1) == -1
    assert s.get(1, 1) == 0


def test_pf_squared_is_det():
    rng = Lcg(17)
    for n in (2, 4, 6):
        for _ in range(5):
            s = random_skew(rng, n)
            assert pfaffian(s) ** 2 == s.to_matrix().det()


def test_pf_odd_dimension():
    with pytest.raises(OddDimension):
        pfaffian(SkewMatrix(3, {(1, 2): Fraction(1)}))


def test_pf_4x4_closed_form():
    vs = {k: Poly.var(6, idx + 1) for idx, k in
          enumerate([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])}
    s = SkewMatrix(4, vs)
    a, b, c, d, e, f = (vs[k] for k in
                        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert pfaffian(s) == a * f - b * e + c * d


def test_adjugate_4x4_closed_form():
    vs = {k: Poly.var(6, idx + 1) for idx, k in
          enumerate([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])}
    s = SkewMatrix(4, vs)
    a, b, c, d, e, f = (vs[k] for k in
                        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    adj = pfaffian_adjugate(s)
    expect = {(1, 2): -f, (1, 3): e, (1, 4): -d,
              (2, 3): -c, (2, 4): b, (3, 4): -a}
    for key, val in expect.items():
        assert adj.get(*key) == val


def generic_skew(n):
    """The n x n skew matrix with one ring variable per upper entry."""
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return SkewMatrix(n, {k: Poly.var(len(keys), idx + 1)
                          for idx, k in enumerate(keys)})


def test_adjugate_identity_symbolic():
    for n in (4, 6):
        s = generic_skew(n)
        adj = pfaffian_adjugate(s)
        pf = pfaffian(s)
        prod = s.to_matrix() @ adj.to_matrix()
        zero = Poly.zero(len(s.upper))
        for i in range(n):
            for j in range(n):
                assert prod[i, j] == (pf if i == j else zero)


@pytest.mark.parametrize("n, matchings", [(4, 3), (6, 15), (8, 105)])
def test_generic_pfaffian_has_one_term_per_perfect_matching(n, matchings):
    # (n-1)!! perfect matchings of n indices, each a distinct monomial
    terms = list(pfaffian(generic_skew(n)).items())
    assert len(terms) == matchings
    assert all(abs(c) == 1 and sum(e) == n // 2 for e, c in terms)


def test_pfaffian_tables_do_not_outlive_a_call():
    # the same index subsets with other entries: a table kept between
    # calls would hand the second matrix the first one's sub-Pfaffians
    rng = Lcg(21)
    s, t = random_skew(rng, 6), random_skew(rng, 6)
    pf_s, pf_t = pfaffian(s), pfaffian(t)
    assert pf_s != pf_t
    assert pf_s ** 2 == s.to_matrix().det()
    assert pf_t ** 2 == t.to_matrix().det()
    assert pfaffian(s.scale(2)) == 8 * pf_s
    prod = t.to_matrix() @ pfaffian_adjugate(t).to_matrix()
    assert prod == Matrix.identity(6) * pf_t


def test_adjugate_identity_numeric():
    rng = Lcg(18)
    for n in (2, 4, 6):
        s = random_skew(rng, n)
        prod = s.to_matrix() @ pfaffian_adjugate(s).to_matrix()
        pf = pfaffian(s)
        for i in range(n):
            for j in range(n):
                assert prod[i, j] == (pf if i == j else 0)


def test_skew_inverse():
    rng = Lcg(19)
    done = 0
    while done < 4:
        s = random_skew(rng, 4)
        if not pfaffian(s):
            continue
        prod = s.to_matrix() @ skew_inverse(s).to_matrix()
        assert prod == Matrix.identity(4)
        done += 1
    with pytest.raises(SingularMatrix):
        skew_inverse(SkewMatrix.zero(4))


@pytest.mark.parametrize("s", [
    HamPair.random(Lcg(3), 4).metric,
    SkewMatrix(2, {(1, 2): Poly.var(1, 1)}),
], ids=["pair_metric", "u1"])
def test_skew_inverse_of_polynomial_entries_is_rational(s):
    nv = pfaffian(s).num_vars
    lifted = s.map_coeffs(lambda v: lift(v, nv)).to_matrix()
    inv = skew_inverse(s)
    assert all(isinstance(v, RatFunc) for v in inv.upper.values())
    assert lifted @ inv.to_matrix() == Matrix.identity(s.n)


def test_form_roundtrip():
    rng = Lcg(20)
    s = random_skew(rng, 4)
    back = SkewMatrix.from_form(AltForm(2, 4, s.upper))
    assert type(back) is SkewMatrix and back == s


def test_arithmetic():
    rng = Lcg(21)
    s = random_skew(rng, 4)
    t = random_skew(rng, 4)
    assert (s + t) - t == s
    assert s + (-s) == SkewMatrix.zero(4)
    assert s.scale(Fraction(3)).get(1, 2) == 3 * s.get(1, 2)


def test_skew_matrix_is_the_two_form():
    rng = Lcg(23)
    s = random_skew(rng, 4)
    t = random_skew(rng, 4)
    form = AltForm(2, 4, dict(s.upper))
    assert isinstance(s, AltForm)
    assert s == form and form == s and hash(s) == hash(form)
    assert s != t
    # Pf(S) is half the top coefficient of S ^ S
    assert wedge(s, s).get(1, 2, 3, 4) == 2 * pfaffian(s)
    # the pullback of S along m is m^T S m
    m = Matrix([[rng.fraction() for _ in range(3)] for _ in range(4)])
    pulled = SkewMatrix.from_form(pullback_linear(s, m))
    assert pulled.to_matrix() == m.transpose() @ s.to_matrix() @ m
    results = {
        "sum": (s + t, lambda i, j: s.get(i, j) + t.get(i, j)),
        "difference": (s - t, lambda i, j: s.get(i, j) - t.get(i, j)),
        "negation": (-s, lambda i, j: -s.get(i, j)),
        "scale": (s.scale(3), lambda i, j: 3 * s.get(i, j)),
        "map_coeffs": (s.map_coeffs(lambda c: c * c),
                       lambda i, j: s.get(min(i, j), max(i, j)) ** 2),
    }
    for name, (out, entry) in results.items():
        assert type(out) is SkewMatrix, name
        assert all(out.get(i, j) == entry(i, j)
                   for i in range(1, 5) for j in range(1, 5) if i < j), name
    # construction is AltForm's: a (j, i) key adds into (i, j) with the
    # sign, ints become Fractions, a zero diagonal entry is dropped
    acc = SkewMatrix(3, {(1, 2): 5, (2, 1): Fraction(2), (3, 3): 0})
    assert acc.upper == {(1, 2): Fraction(3)}
    assert type(acc.upper[(1, 2)]) is Fraction
    assert SkewMatrix(3, {(1, 3): 1, (3, 1): 1}).is_zero()
    with pytest.raises(ValueError):
        SkewMatrix(3, {(2, 2): Fraction(1)})
    with pytest.raises(ValueError):
        SkewMatrix(3, {(1, 4): Fraction(1)})
    with pytest.raises(TypeError):
        SkewMatrix(3, {(1, 2): "1"})
    assert SkewMatrix(3, {(2, 2): Fraction(0)}).is_zero()


def test_from_form_refuses_a_form_of_another_degree():
    with pytest.raises(ValueError, match="expected a two-form"):
        SkewMatrix.from_form(AltForm(3, 3))
