"""Splitting two-forms, invariants, canonical models, and the stabilizer."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hamforms import (
    AltForm,
    HamPair,
    Lcg,
    Matrix,
    NotInThetaEta,
    ProjectiveMap,
    RatFunc,
    ReciprocalMap,
    SkewMatrix,
    StructureForm,
    ValidationError,
    WrongTBlock,
    apply_projective,
    apply_reciprocal,
    canonical_form_n2,
    canonical_n2_pair,
    canonical_n4_pair,
    check_compat,
    classify_n2,
    classify_n4,
    eta_matrix,
    form_from_pair,
    format_system,
    pullback_linear,
    q_form,
    stabilizer_audit,
    symplectic_split,
    wedge,
)
from hamforms.classify import (_embed5, _first_order_preserves, _matrix5,
                               eta_gram, sp4_basis, t4_form)
from hamforms.classify import format_terms
from hamforms.linalg import rank_and_left_nullvector
from hamforms.sampling import random_skew

from helpers import pairs_equal, random_invertible, random_symplectic


def test_split_of_reference_form():
    s = symplectic_split(eta_matrix())
    assert s.theta_eta == 1 and s.theta.is_zero()


def test_split_single_component():
    f = AltForm(2, 4, {(1, 2): Fraction(1)})
    s = symplectic_split(f)
    assert s.theta_eta == Fraction(1, 2)
    assert s.components["theta0"] == Fraction(1, 2)
    assert s.reconstruct() == f


def test_split_symbolic():
    nv = 2
    te, t13 = RatFunc.var(nv, 1), RatFunc.var(nv, 2)
    f = AltForm(2, 4, {(1, 2): te, (3, 4): te, (1, 3): t13,
                       (2, 4): RatFunc.from_const(nv, 1)})
    s = symplectic_split(f)
    assert s.theta_eta == te
    assert s.components["theta13"] == t13 and s.components["theta24"] == 1
    assert s.components["theta0"] == 0 and s.components["theta14"] == 0
    assert q_form(s.theta) == -2 * t13


def test_q_is_twice_pfaffian():
    from hamforms import pfaffian
    rng = Lcg(424242)
    for _ in range(25):
        raw = random_skew(rng, 4, max_num=9)
        th = symplectic_split(raw).theta
        qv = q_form(th)
        t0, t13, t14 = th.get(1, 2), th.get(1, 3), th.get(1, 4)
        t23, t24 = th.get(2, 3), th.get(2, 4)
        assert qv == -2 * t0 * t0 - 2 * t13 * t24 + 2 * t14 * t23
        assert qv == 2 * pfaffian(SkewMatrix.from_form(th))


def test_q_rejects_outside_domain():
    with pytest.raises(NotInThetaEta):
        q_form(SkewMatrix(4, {(1, 2): Fraction(1)}))


def test_q_invariant_under_symplectic_pullback():
    rng = Lcg(424243)
    for _ in range(10):
        raw = random_skew(rng, 4, max_num=7)
        th = symplectic_split(raw).theta
        cmat = random_symplectic(rng, eta_gram())
        assert q_form(pullback_linear(th, cmat)) == q_form(th)


def test_classify_two_fields_symbolic():
    nv = 4
    g, a12, b1, b2 = (RatFunc.var(nv, i) for i in (1, 2, 3, 4))
    sf = StructureForm.from_comps(2, {(1, 2, 3): g, (1, 2, 4): a12,
                                      (1, 3, 4): b1, (2, 3, 4): b2})
    res = classify_n2(sf)
    assert res.log["pullback_matches"]
    assert res.N == 2 and res.invariants == ()
    assert res.canonical_form.form == canonical_form_n2()
    assert format_system(res.canonical_pair) == ["u1_t = u1_x",
                                                 "u2_t = u2_x"]
    v = res.canonical_pair.flux
    assert v[0] == RatFunc.var(2, 1) and v[1] == RatFunc.var(2, 2) + 1


def test_classify_two_fields_fixed_point():
    res = classify_n2(StructureForm(2, canonical_form_n2()))
    assert res.log["already_canonical"]
    ident = Matrix.identity(4)
    elt = res.log["element"]
    assert all(elt[i, j] == ident[i, j] for i in range(4) for j in range(4))


def test_classify_two_fields_numeric():
    sf = StructureForm.from_comps(2, {(1, 2, 3): Fraction(1),
                                      (1, 2, 4): Fraction(2),
                                      (1, 3, 4): Fraction(3),
                                      (2, 3, 4): Fraction(5)})
    res = classify_n2(sf)
    assert res.log["pullback_matches"] and res.log["det"] == 1


def test_classify_two_fields_zero_rotational_entry():
    # a12 = 0 lies in the one orbit too: the shear du3 -> du3 + du4 comes first
    half = Fraction(1, 2)
    for comps in ({(1, 2, 3): 1, (1, 3, 4): 1}, {(1, 2, 3): 1, (1, 3, 4): 3},
                  {(1, 2, 3): 2},
                  {(1, 2, 3): -1, (1, 3, 4): half, (2, 3, 4): 5}):
        sf = StructureForm.from_comps(2, {k: Fraction(v)
                                          for k, v in comps.items()})
        res = classify_n2(sf)
        assert res.log["pullback_matches"]
        assert not res.log["already_canonical"]
        assert res.log["det"] == 1 / Fraction(comps[(1, 2, 3)])
        assert res.log["element"].det() == res.log["det"]
        assert res.canonical_form.form == canonical_form_n2()


def test_classify_four_fields():
    j4 = eta_matrix()
    pair = HamPair(
        AltForm(3, 4), j4,
        SkewMatrix(4, {(1, 2): Fraction(1), (3, 4): Fraction(1)}),
        (Fraction(2), Fraction(0), Fraction(-1), Fraction(7)),
    )
    res = classify_n4(form_from_pair(pair))
    assert res.invariants == (1, 0)
    assert format_system(res.canonical_pair) == [
        "u1_t = u1_x - u4_x", "u2_t = u2_x",
        "u3_t = u2_x + u3_x", "u4_t = u4_x"]
    assert res.log["shift_dropped"] == (2, 0, -1, 7)
    assert check_compat(res.canonical_pair, mode="symbolic")["all_zero"]


def test_classify_four_fields_nilpotent_part():
    j4 = eta_matrix()
    pair = HamPair(AltForm(3, 4), j4, SkewMatrix(4, {(2, 4): Fraction(1)}),
                   (Fraction(0),) * 4)
    res = classify_n4(form_from_pair(pair))
    assert res.invariants == (0, 0)
    assert format_system(res.canonical_pair) == [
        "u1_t = -u4_x", "u2_t = 0", "u3_t = u2_x", "u4_t = 0"]


def test_classify_four_fields_wrong_cubic_block():
    j4 = eta_matrix()
    bad = HamPair(AltForm(3, 4, {(1, 2, 3): Fraction(1)}), j4,
                  SkewMatrix(4, {(2, 4): Fraction(1)}), (Fraction(0),) * 4)
    with pytest.raises(WrongTBlock):
        classify_n4(form_from_pair(bad))


def test_canonical_four_field_system():
    nv = 7
    te, t13 = RatFunc.var(nv, 6), RatFunc.var(nv, 7)
    cp = canonical_n4_pair(te, t13, nvars=nv)
    names = ["u1", "u2", "u3", "u4", "u5", "a", "b"]
    assert format_system(cp, names=names) == [
        "u1_t = a*u1_x - u4_x",
        "u2_t = a*u2_x + b*u3_x",
        "u3_t = u2_x + a*u3_x",
        "u4_t = -b*u1_x + a*u4_x",
    ]
    assert check_compat(cp, mode="symbolic")["all_zero"]


def test_invariants_stable_under_symplectic_change():
    rng = Lcg(424244)
    j4 = eta_matrix()
    for _ in range(5):
        raw = random_skew(rng, 4, max_num=5)
        b = [rng.fraction(5) for _ in range(4)]
        p0 = HamPair(AltForm(3, 4), j4, raw, b)
        r0 = classify_n4(form_from_pair(p0))
        cmat = random_symplectic(rng, eta_gram())
        pulled = SkewMatrix.from_form(pullback_linear(raw, cmat))
        p1 = HamPair(AltForm(3, 4), j4, pulled, b)
        r1 = classify_n4(form_from_pair(p1))
        assert r0.invariants == r1.invariants


def test_canonical_pairs_construct():
    p2 = canonical_n2_pair()
    assert p2.N == 2 and pairs_equal(p2, canonical_n2_pair())
    p4 = canonical_n4_pair(Fraction(2), Fraction(-3))
    assert p4.N == 4
    assert check_compat(p4, mode="symbolic")["all_zero"]


def test_stabilizer_audit():
    rep = stabilizer_audit()
    assert rep["ok"]
    assert rep["dimension"] == 14
    assert len(rep["generators"]) == 14
    assert all(g["first_order_ok"] for g in rep["generators"])
    assert rep["exact"] == {"transvection": True, "shear": True,
                            "torus": True}
    assert not rep["negative_control_preserved"]


def _eps_derivative(x5) -> dict:
    """Independent first-order oracle: pull t4 back through I + eps*X
    over RatFunc in eps; the value at 0 must be t4's own, and the result
    maps each component to its nonzero eps-derivative at 0."""
    eps = RatFunc.var(1, 1)
    rows = [[RatFunc.from_const(1, int(i == k)) + eps * x5[i, k]
             for k in range(5)] for i in range(5)]
    t4 = t4_form().map_coeffs(lambda c: RatFunc.from_const(1, c))
    delta = pullback_linear(t4, Matrix(rows)) - t4
    origin = (Fraction(0),)
    assert all(c.eval(origin) == 0 for _, c in delta.sorted_items())
    return {idx: d for idx, c in delta.sorted_items()
            if (d := c.diff(1).eval(origin))}


def _unit(i, k) -> Matrix:
    return _matrix5({(i, k): Fraction(1)})


def _listed_directions() -> list:
    """The fourteen directions `stabilizer_audit` lists, in its order."""
    return ([_embed5(x) for x in sp4_basis()]
            + [_unit(i, 4) for i in range(4)])


SCALING = _matrix5({(4, 4): Fraction(-2)}, 1)


def test_first_order_test_matches_the_eps_pullback():
    control = _unit(0, 2)
    for x5 in _listed_directions() + [control, SCALING]:
        assert _first_order_preserves(x5) == (not _eps_derivative(x5))
    assert not _first_order_preserves(control)
    assert _first_order_preserves(SCALING)


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(st.integers(-3, 3), min_size=25, max_size=25),
       weights=st.lists(st.integers(-2, 2), min_size=15, max_size=15),
       in_kernel=st.booleans())
def test_first_order_test_matches_the_eps_pullback_at_random(
        entries, weights, in_kernel):
    if in_kernel:
        # an integer combination of the fifteen kernel directions, with
        # at most one entry moved off it
        rows = [[Fraction(0)] * 5 for _ in range(5)]
        for w, x5 in zip(weights, _listed_directions() + [SCALING]):
            for i in range(5):
                for k in range(5):
                    rows[i][k] += w * x5[i, k]
        rows[entries[0] % 5][entries[1] % 5] += entries[2] % 2
        x5 = Matrix(rows)
    else:
        x5 = Matrix([entries[5 * i:5 * i + 5] for i in range(5)])
    assert _first_order_preserves(x5) == (not _eps_derivative(x5))


def _flat(x5) -> list:
    return [x5[i, k] for i in range(5) for k in range(5)]


def test_stabilizer_has_one_direction_more_than_the_audit_lists():
    # X -> D_X t4 on the 25 elementary matrices has rank 10, so the
    # first-order stabilizer in gl(5) is 15-dimensional
    triples = list(combinations(range(1, 6), 3))
    images = []
    for i in range(5):
        for k in range(5):
            d = _eps_derivative(_unit(i, k))
            images.append([d.get(t, Fraction(0)) for t in triples])
    rank, _ = rank_and_left_nullvector(Matrix(images))
    assert 25 - rank == 15
    # the fourteen listed directions are independent, and the scaling
    # diag(1, 1, 1, 1, -2) completes them to a basis of the kernel
    listed = _listed_directions()
    assert all(not _eps_derivative(x5) for x5 in listed + [SCALING])
    assert rank_and_left_nullvector(Matrix(map(_flat, listed)))[0] == 14
    assert rank_and_left_nullvector(
        Matrix(map(_flat, listed + [SCALING])))[0] == 15
    # and the scaling integrates to an exact symmetry
    torus = _matrix5({(4, 4): Fraction(1, 4)}, 2)
    assert pullback_linear(t4_form(), torus) == t4_form()


# -- Hitchin's quartic: an orbit invariant that needs no reduction --------


def hitchin_lambda(phi: AltForm):
    """Hitchin's quartic lambda(phi) of a three-form on six coordinates.

    K(e_b) is the vector whose contraction with du1^...^du6 is the
    five-form iota_{e_b}(phi) ^ phi, so K(e_b)^a is (-1)^(a-1) times the
    component at [6] minus a; lambda = tr(K^2) / 6.  A pullback by m
    scales it by det(m)^2, so its sign is a GL(6) invariant (Hitchin,
    J. Differential Geom. 55 (2000) 547-576).
    """
    top = range(1, 7)
    k = [[None] * 6 for _ in top]
    for b in top:
        iota = AltForm(2, 6, {(i, j): phi.get(b, i, j)
                              for i in top for j in top if i < j})
        five = wedge(iota, phi)
        for a in top:
            c = five.get(*(t for t in top if t != a))
            k[a - 1][b - 1] = c if a % 2 else -c
    return sum(k[a][b] * k[b][a] for a in range(6) for b in range(6)) / 6


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_hitchin_sign_is_minus_the_sign_of_q():
    forms = [form_from_pair(canonical_n4_pair(Fraction(te), Fraction(t13)))
             for te in (0, 3, Fraction(-1, 2))
             for t13 in (-2, 0, Fraction(5, 3))]
    # standard position: metric block eta ^ du5, integer A and B
    rng = Lcg(424245)
    upper = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(100):
        comps = {(1, 2, 5): 1, (3, 4, 5): 1}
        comps.update({(i, j, 6): rng.randint(-3, 3) for i, j in upper})
        comps.update({(i, 5, 6): rng.randint(-3, 3) for i in range(1, 5)})
        forms.append(StructureForm.from_comps(4, comps))
    signs = []
    for sf in forms:
        q = classify_n4(sf).invariants[1]
        lam = hitchin_lambda(sf.form)
        assert _sign(lam) == -_sign(q)
        signs.append(_sign(lam))
    assert {-1, 0, 1} <= set(signs)


def test_hitchin_sign_survives_the_transforms():
    # each image is the pullback of the structure form along the inverse
    # of a matrix with determinant det, so lambda is divided by det^2
    rng = Lcg(424246)
    signs = set()
    for _ in range(20):
        pair = HamPair.random(rng, 4)
        lam = hitchin_lambda(form_from_pair(pair).form)
        signs.add(_sign(lam))
        a = random_invertible(rng, 5, max_num=3)
        while True:
            c = [rng.fraction(3) for _ in range(12)]
            try:
                r = ReciprocalMap(4, c[:4], c[4], c[5], c[6:10], c[10], c[11])
                break
            except ValidationError:
                continue
        images = [(apply_projective(pair, ProjectiveMap(a))[0], a.det()),
                  (apply_reciprocal(pair, r), r.ax0 * r.dt0 - r.bt * r.cx)]
        for image, det in images:
            assert hitchin_lambda(form_from_pair(image).form) * det ** 2 == lam
    assert signs == {-1, 1}


@pytest.mark.parametrize("terms, text", [
    ([("1", "x"), ("-1", "y")], "x - y"),
    ([("u5 + 1", "x"), ("-2", "y"), ("3/2", "z")], "(u5 + 1)*x - 2*y + 3/2*z"),
    ([("-u5", "x"), ("1", "y")], "-u5*x + y"),
    ([], "0"),
])
def test_format_terms(terms, text):
    assert format_terms(terms) == text


def test_standard_position_values_move_within_one_orbit():
    # one diagonal GL(6) map keeps the standard block eta ^ du5 and takes
    # the form of canonical_n4_pair(0, 1) to that of canonical_n4_pair(0, 4),
    # so values read in standard position are no orbit invariants
    d = [Fraction(2), Fraction(1, 2), 1, 1, 1, 2]
    m = Matrix([[Fraction(d[i]) if i == k else Fraction(0) for k in range(6)]
                for i in range(6)])
    src = form_from_pair(canonical_n4_pair(0, 1)).form
    dst = form_from_pair(canonical_n4_pair(0, 4)).form
    assert src != dst
    assert pullback_linear(src, m) == dst
