"""Alternating forms with exact coefficients.

Oracle: the wedge product is recomputed from the full antisymmetrization
of the tensor product, (p+q)!/(p! q!) shuffles expanded by brute force.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from hamforms import AltForm, DimensionMismatch, Lcg, Matrix, Poly, RatFunc
from hamforms import pullback_linear, wedge
from hamforms.forms import perm_sign
from hamforms.poly import lift
from hamforms.serialize import form_from_dict, form_to_dict


def random_form(rng, degree, dim, nterms=4):
    comps = {}
    for _ in range(nterms):
        idx = []
        while len(idx) < degree:
            i = rng.randint(1, dim)
            if i not in idx:
                idx.append(i)
        comps[tuple(sorted(idx))] = rng.fraction()
    return AltForm(degree, dim, comps)


def dense_component(form, idx):
    return form.get(*idx)


def wedge_by_antisymmetrization(a, b):
    """Full alternation of the tensor product, no pair shortcuts."""
    p, q = a.degree, b.degree
    dim = a.dim
    norm = Fraction(1, factorial(p) * factorial(q))
    comps = {}
    from itertools import combinations
    for idx in combinations(range(1, dim + 1), p + q):
        total = Fraction(0)
        for perm in permutations(idx):
            s = perm_sign(perm)
            # perm of an increasing tuple is never degenerate
            total += s * dense_component(a, perm[:p]) * \
                dense_component(b, perm[p:])
        val = norm * total
        if val:
            comps[idx] = val
    out = AltForm(p + q, dim)
    out.comps = comps
    return out


def test_constructor_folds_signs():
    f = AltForm(2, 3, {(2, 1): Fraction(5)})
    assert f.get(1, 2) == -5
    assert f.get(2, 1) == 5
    g = AltForm(2, 3, {(1, 2): Fraction(1), (2, 1): Fraction(1)})
    assert g.is_zero()
    # any degree: a five-form on six coordinates round trips
    h = AltForm(5, 6, {(2, 1, 3, 4, 6): Fraction(7), (2, 3, 4, 5, 6): 1})
    assert h.get(1, 2, 3, 4, 6) == -7 and h.get(3, 2, 4, 5, 6) == -1
    assert AltForm(5, 6, h.comps) == h
    assert form_from_dict(form_to_dict(h)) == h
    assert AltForm(7, 6, {(1, 2, 3, 4, 5, 6, 6): Fraction(1)}).is_zero()


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        AltForm(2, 3, {(1, 4): Fraction(1)})
    with pytest.raises(ValueError):
        AltForm(2, 3, {(1,): Fraction(1)})
    assert AltForm(2, 3, {(1, 1): Fraction(9)}).is_zero()


def test_wedge_against_antisymmetrization():
    rng = Lcg(31)
    cases = [(1, 1, 4), (1, 2, 4), (2, 2, 5), (1, 3, 5), (2, 1, 4),
             (2, 3, 6), (3, 3, 6), (3, 2, 4)]
    for pdeg, qdeg, dim in cases:
        a = random_form(rng, pdeg, dim)
        b = random_form(rng, qdeg, dim)
        assert wedge(a, b) == wedge_by_antisymmetrization(a, b)


def test_wedge_graded_anticommutativity():
    rng = Lcg(32)
    for pdeg, qdeg in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        a = random_form(rng, pdeg, 5)
        b = random_form(rng, qdeg, 5)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (pdeg * qdeg) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_bilinear():
    rng = Lcg(33)
    a = random_form(rng, 1, 4)
    b = random_form(rng, 2, 4)
    c = random_form(rng, 2, 4)
    assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)


def test_wedge_associative():
    rng = Lcg(34)
    # total degree 7 on 7 coordinates is the top degree of Bryant's form
    for degrees, dim in [((1, 1, 2), 5), ((2, 2, 3), 7), ((3, 3, 1), 7)]:
        a, b, c = (random_form(rng, d, dim, nterms=8) for d in degrees)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    # top-degree products: eta ^ eta ^ eta = 6 du1^...^du6
    eta = AltForm(2, 6, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
    assert wedge(wedge(eta, eta), eta) == \
        AltForm(6, 6, {(1, 2, 3, 4, 5, 6): Fraction(6)})


def test_pullback_identity():
    rng = Lcg(35)
    f = random_form(rng, 3, 4)
    assert pullback_linear(f, Matrix.identity(4)) == f


def test_pullback_functorial():
    rng = Lcg(36)
    f = random_form(rng, 3, 4)
    for _ in range(5):
        m1 = Matrix([[rng.fraction() for _ in range(4)] for _ in range(4)])
        m2 = Matrix([[rng.fraction() for _ in range(4)] for _ in range(4)])
        via_product = pullback_linear(f, m1 @ m2)
        via_steps = pullback_linear(pullback_linear(f, m1), m2)
        assert via_product == via_steps


def test_pullback_swap_and_scale():
    # swapping the last two coordinates of du^123 + du^124 swaps the terms
    f = AltForm(3, 4, {(1, 2, 3): Fraction(1), (1, 2, 4): Fraction(2)})
    swap = Matrix.from_strings([
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "1", "0"],
    ])
    g = pullback_linear(f, swap)
    assert g.get(1, 2, 3) == 2 and g.get(1, 2, 4) == 1
    # uniform scaling acts on a three-form by the cube of the factor
    c = Fraction(3)
    scale = Matrix([[c if i == j else Fraction(0) for j in range(4)]
                    for i in range(4)])
    h = pullback_linear(f, scale)
    assert h == f.scale(c ** 3)


def _affine(rng, nv):
    return Poly(nv, {tuple(int(i == k) for i in range(nv)): rng.fraction()
                     for k in range(nv + 1) if rng.randint(0, 1)})


# matrix entries of each kind, with the number of ring variables the
# minors are taken in (0 for the rationals): rationals; affine
# polynomials, the shape `conformal_check` pulls back through; and the
# rational functions c^k of the stabilizer torus
ENTRY_KINDS = {
    "fraction": (lambda rng: rng.fraction(), 0),
    "affine": (lambda rng: _affine(rng, 2), 2),
    "ratfunc": (lambda rng: rng.fraction() * RatFunc.var(1, 1)
                ** rng.randint(-1, 1), 1),
}


def test_pullback_matches_the_minor_formula():
    # component I is sum_A phi_A det(m[A, I]), each det by elimination;
    # a column count below the degree gives the zero form
    rng = Lcg(38)
    for kind, (draw, nv) in ENTRY_KINDS.items():
        ring = (lambda x: lift(x, nv)) if nv else (lambda x: x)
        for degree in (1, 2, 3):
            for ncols in range(1, 7 if kind == "fraction" else 5):
                f = random_form(rng, degree, 5, nterms=6)
                if kind == "affine":
                    f = f.map_coeffs(lambda c: c * _affine(rng, 2))
                m = Matrix([[draw(rng) if rng.randint(0, 2) else Fraction(0)
                             for _ in range(ncols)] for _ in range(5)])
                lifted = Matrix([[ring(x) for x in row] for row in m.rows])
                want = {}
                for tgt in combinations(range(1, ncols + 1), degree):
                    total = sum((ring(c) * Matrix([[lifted[a - 1, i - 1]
                                                    for i in tgt]
                                                   for a in src]).det()
                                 for src, c in f.comps.items()), ring(0))
                    if total:
                        want[tgt] = total
                got = pullback_linear(f, m)
                assert (got.degree, got.dim) == (degree, ncols)
                assert {k: ring(v) for k, v in got.comps.items()} == want


def test_pullback_needs_a_column():
    f = AltForm(1, 2, {(1,): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        pullback_linear(f, Matrix([[], []]))


def test_pullback_respects_wedge():
    rng = Lcg(37)
    a = random_form(rng, 1, 4)
    b = random_form(rng, 2, 4)
    m = Matrix([[rng.fraction() for _ in range(4)] for _ in range(4)])
    assert pullback_linear(wedge(a, b), m) == \
        wedge(pullback_linear(a, m), pullback_linear(b, m))


def test_mismatched_dims_rejected():
    a = AltForm(1, 3, {(1,): Fraction(1)})
    b = AltForm(1, 4, {(1,): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        wedge(a, b)
    with pytest.raises(DimensionMismatch):
        pullback_linear(a, Matrix.identity(4))


def test_format():
    f = AltForm(3, 4, {(1, 2, 3): Fraction(1), (1, 3, 4): Fraction(-2)})
    text = f.format()
    assert "du1^du2^du3" in text and "du1^du3^du4" in text and "-2" in text
