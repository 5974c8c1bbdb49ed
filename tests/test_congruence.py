"""Line congruences, their coefficient matrix, rank, and quadric checks.

The two-field coefficient table and the homogeneous coordinates of the
two-field congruence are pinned entry by entry against hand-expanded
values; everything else is property-checked.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hamforms import (
    AltForm,
    DimensionMismatch,
    HamPair,
    Lcg,
    PoleError,
    Poly,
    RatFunc,
    SkewMatrix,
    annihilation_check,
    build_metric,
    congruence_checks,
    congruence_matrix,
    congruence_rank,
    form_from_pair,
    grassmann_check,
    pair_columns,
    pfaffian,
    pfaffian_adjugate,
    plucker_coords,
    plucker_homogeneous,
    rhs_covector,
)
from hamforms.congruence import _line_minors
from hamforms.poly import exact_div

from helpers import (
    N2_SYM,
    N2_VARS,
    N4_A,
    N4_B,
    N4_G0,
    N4_VARS,
    P61,
    generic_pair_n2,
    generic_pair_n4,
    mod_eval,
    sample_point,
    sym,
)


def test_pair_columns():
    assert pair_columns(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert len(pair_columns(6)) == 15


def test_line_minors_are_the_two_by_two_minors():
    # the wedge of the two points' one-forms against p_a q_b - p_b q_a;
    # zero entries make some minors vanish, and those are left out
    rng = Lcg(81)

    def entry(kind):
        if not rng.randint(0, 3):
            return Fraction(0) if kind == "fraction" else Poly.zero(3)
        if kind == "fraction":
            return rng.fraction()
        return Poly(3, {(rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1)):
                        rng.fraction() for _ in range(3)})

    for kind in ("fraction", "poly"):
        for dim in (2, 4, 6):
            p = [entry(kind) for _ in range(dim)]
            q = [entry(kind) for _ in range(dim)]
            got = _line_minors(p, q)
            want = {(a, b): p[a - 1] * q[b - 1] - p[b - 1] * q[a - 1]
                    for (a, b) in pair_columns(dim)}
            assert got == {k: v for k, v in want.items() if v}
            assert list(got) == sorted(got)


def test_matrix_two_fields_pinned():
    pair = generic_pair_n2()
    m = congruence_matrix(form_from_pair(pair))
    nv = N2_VARS
    g = sym(nv, N2_SYM["g0_12"])
    a = sym(nv, N2_SYM["a12"])
    b1 = sym(nv, N2_SYM["b1"])
    b2 = sym(nv, N2_SYM["b2"])
    z = Fraction(0)
    expected = [
        [z, z, z, g, a, b1],
        [z, -g, -a, z, z, b2],
        [g, z, -b1, z, -b2, z],
        [a, b1, z, b2, z, z],
    ]
    assert m.nrows == 4 and m.ncols == 6
    for i in range(4):
        for j in range(6):
            assert m[i, j] == expected[i][j], (i, j)


def test_rank_two_fields_always_three():
    rng = Lcg(71)
    for _ in range(8):
        pair = HamPair.random(rng, 2)
        m = congruence_matrix(form_from_pair(pair))
        report = congruence_rank(form_from_pair(pair))
        assert report["rank"] == 3 and report["dependent"]
        cert = report["certificate"]
        assert any(cert)
        for j in range(6):
            assert sum(cert[i] * m[i, j] for i in range(4)) == 0


def test_certificate_two_fields_symbolic():
    pair = generic_pair_n2(unit_metric=True)
    report = congruence_rank(form_from_pair(pair))
    cert = report["certificate"]
    nv = N2_VARS
    # scale so the last weight is -1; the other three are then the
    # pair's defining coefficients
    one = RatFunc.from_const(nv, 1)
    scale = -one / cert[3]
    scaled = tuple(c * scale for c in cert)
    a = RatFunc.var(nv, N2_SYM["a12"])
    b1 = RatFunc.var(nv, N2_SYM["b1"])
    b2 = RatFunc.var(nv, N2_SYM["b2"])
    assert scaled[0] == b2
    assert scaled[1] == -b1
    assert scaled[2] == a
    assert scaled[3] == -one


def test_rank_four_fields_generic():
    report = congruence_rank(form_from_pair(generic_pair_n4()))
    assert report["rank"] == 6
    assert not report["dependent"] and report["certificate"] is None
    rng = Lcg(72)
    numeric = congruence_rank(form_from_pair(HamPair.random(rng, 4)))
    assert numeric["rank"] == 6


def test_affine_coordinates_blocks():
    pair = generic_pair_n2()
    p = plucker_coords(pair)
    v = pair.flux
    nv = N2_VARS
    u1 = RatFunc.var(nv, 1)
    u2 = RatFunc.var(nv, 2)
    assert p[(1, 3)] == -v[0] and p[(2, 3)] == -v[1]
    assert p[(1, 4)] == u1 and p[(2, 4)] == u2
    assert p[(3, 4)] == RatFunc.from_const(nv, 1)
    assert p[(1, 2)] == u1 * v[1] - u2 * v[0]


def test_annihilation_symbolic():
    for pair in (generic_pair_n2(), generic_pair_n4()):
        sf = form_from_pair(pair)
        p = plucker_coords(pair)
        assert annihilation_check(sf, p)["ok"]


def test_annihilation_rejects_unordered_keys():
    sf = form_from_pair(HamPair.random(Lcg(76), 2))
    with pytest.raises(ValueError, match="increasing index pairs"):
        annihilation_check(sf, {(2, 1): Fraction(1)})


def test_grassmann_symbolic_two_fields():
    pair = generic_pair_n2()
    assert grassmann_check(plucker_coords(pair), 4)["ok"]


def test_checks_on_random_pairs():
    rng = Lcg(73)
    for n in (2, 4):
        pair = HamPair.random(rng, n)
        sf = form_from_pair(pair)
        p = plucker_coords(pair)
        assert annihilation_check(sf, p)["ok"]
        assert grassmann_check(p, n + 2)["ok"]


def test_coordinates_at_a_point_from_the_cleared_flux():
    pair = generic_pair_n2()
    x = tuple(Fraction(k, 3) for k in range(1, N2_VARS + 1))
    symbolic = plucker_coords(pair)
    at_x = plucker_coords(pair, x)
    for key in pair_columns(4):
        want = symbolic[key].eval(x) if key in symbolic else 0
        assert at_x.get(key, 0) == want, key
    # the metric pfaffian of this pair is its constant metric slot
    slot = N2_SYM["g0_12"] - 1
    with pytest.raises(PoleError):
        plucker_coords(pair, x[:slot] + (Fraction(0),) + x[slot + 1:])


def test_checks_at_points_six_fields():
    rng = Lcg(74)
    pair = HamPair.random(rng, 6)
    sf = form_from_pair(pair)
    pfp = pair.flux_cleared()[1]
    done = 0
    while done < 5:
        x = sample_point(rng, pair.nvars)
        if not pfp.eval(x):
            continue
        p = plucker_coords(pair, x)
        assert annihilation_check(sf, p)["ok"]
        assert grassmann_check(p, 8)["ok"]
        done += 1


def test_annihilation_rows_match_matrix():
    # each residual component is the matching matrix row dotted with the
    # coordinates, so check both routes agree at a numeric point
    rng = Lcg(75)
    pair = HamPair.random(rng, 4)
    sf = form_from_pair(pair)
    m = congruence_matrix(sf)
    cols = pair_columns(6)
    pfp = pair.flux_cleared()[1]
    while True:
        x = sample_point(rng, pair.nvars)
        if pfp.eval(x):
            break
    p = plucker_coords(pair, x)
    for i in range(6):
        dot = sum(m[i, j] * p.get(cols[j], Fraction(0)) for j in range(6 * 5 // 2))
        assert dot == 0


def _bilinear_sides(pair, uu, ww, at):
    """The congruence matrix on the minors of (u, 1, 0) and (W, 0, 1),
    and the rows -r (1..N), u.r and W.r with r = g(u) W - w(u).

    g and w come from the pair's data, not from its form; `at` reads one
    of their entries at u, and uu, ww hold ring elements or numbers."""
    n, nv = pair.N, max(pair.nvars, 2 * pair.N)
    g = build_metric(pair.mcubic, pair.mconst, nv)
    w = rhs_covector(pair.wskew, pair.wconst, nv)
    r = [sum((at(g.get(i, j)) * ww[j - 1] for j in range(1, n + 1)),
             -at(w[i - 1])) for i in range(1, n + 1)]
    want = [-x for x in r] + [sum(a * x for a, x in zip(uu, r)),
                              sum(b * x for b, x in zip(ww, r))]
    m = congruence_matrix(form_from_pair(pair))
    p, q = [*uu, 1, 0], [*ww, 0, 1]
    got = [sum((m[i, c] * (p[a - 1] * q[b - 1] - p[b - 1] * q[a - 1])
                for c, (a, b) in enumerate(pair_columns(n + 2))), 0)
           for i in range(n + 2)]
    return got, want


@pytest.mark.parametrize("n", [2, 4, 6])
def test_matrix_on_any_line_is_the_bilinear_residual(n):
    # u and W are 2N indeterminates: the fields, then N more
    pair = HamPair.random(Lcg(3), n)
    uu = [Poly.var(2 * n, i) for i in range(1, n + 1)]
    ww = [Poly.var(2 * n, i) for i in range(n + 1, 2 * n + 1)]
    got, want = _bilinear_sides(pair, uu, ww, lambda c: c)
    assert all(not (a - b) for a, b in zip(got, want))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.sampled_from([2, 4]),
       data=st.data())
def test_matrix_on_integer_lines_is_the_bilinear_residual(seed, n, data):
    pair = HamPair.random(Lcg(seed), n)
    uu, ww = (data.draw(st.lists(st.integers(-9, 9), min_size=n,
                                 max_size=n)) for _ in range(2))
    point = uu + [0] * n
    got, want = _bilinear_sides(
        pair, uu, ww, lambda c: c.eval(point) if isinstance(c, Poly) else c)
    assert got == want


def test_homogeneous_two_fields_pinned():
    pair = generic_pair_n2()
    p = plucker_homogeneous(pair)
    nv = N2_VARS
    u1, u2, u3 = (Poly.var(nv, i) for i in (1, 2, 3))
    g = sym(nv, N2_SYM["g0_12"])
    a = sym(nv, N2_SYM["a12"])
    b1 = sym(nv, N2_SYM["b1"])
    b2 = sym(nv, N2_SYM["b2"])
    assert p[(1, 2)] == b1 * u1 * u3 + b2 * u2 * u3
    assert p[(1, 3)] == -a * u1 * u3 + b2 * u3 * u3
    assert p[(1, 4)] == g * u1 * u3
    assert p[(2, 3)] == -a * u2 * u3 - b1 * u3 * u3
    assert p[(2, 4)] == g * u2 * u3
    assert p[(3, 4)] == g * u3 * u3


def test_homogeneous_reduction():
    pair = generic_pair_n2()
    full = plucker_homogeneous(pair)
    u3 = Poly.var(N2_VARS, 3)
    red = {key: exact_div(val, u3) for key, val in full.items()}
    for key, val in full.items():
        assert val == red[key] * u3


def test_homogeneous_specializes_to_affine():
    # with the homogenizing slot set to one, every homogeneous
    # coordinate is the metric pfaffian times the affine one; the scale
    # is read off the last coordinate, whose affine value is one
    rng = Lcg(76)
    pair = HamPair.random(rng, 4)
    hom = plucker_homogeneous(pair)
    pfp = pair.flux_cleared()[1]
    done = 0
    while done < 5:
        x4 = sample_point(rng, 4)
        if not pfp.eval(x4):
            continue
        x5 = tuple(x4) + (Fraction(1),)
        aff = plucker_coords(pair, x4)
        scale = hom[(5, 6)].eval(x5)
        assert scale == pfp.eval(x4)
        for key in pair_columns(6):
            got = hom[key].eval(x5) if key in hom else Fraction(0)
            want = aff.get(key, Fraction(0))
            assert got == scale * want
        done += 1


def _homogeneous_oracle(pair):
    """Polynomial Pluecker coordinates from the pair's structure form,
    with their own Pfaffian and adjugate: the metric m and the covector w
    are the two halves of the form, linear in u^1..u^{N+1}, and the line
    runs through (u, u^{N+1}, 0) and (adj(m) w, 0, Pf(m))."""
    N = pair.N
    nvars = pair.nvars if pair.nvars > N else N + 1
    sf = form_from_pair(pair)
    gh = build_metric(sf.metric_block(), SkewMatrix.zero(N + 1), nvars)
    gblock = SkewMatrix(
        N, {(i, j): v for (i, j), v in gh.upper.items() if j <= N}
    )
    pf = pfaffian(gblock)
    adj = pfaffian_adjugate(gblock)
    w = rhs_covector(SkewMatrix.from_form(sf.w_block()), [0] * (N + 1), nvars)
    second = [
        sum((adj.get(i, s) * w[s - 1] for s in range(1, N + 1)), Poly.zero(nvars))
        for i in range(1, N + 1)
    ]
    pvec = [Poly.var(nvars, i) for i in range(1, N + 2)] + [Poly.zero(nvars)]
    qvec = second + [Poly.zero(nvars), pf]
    out = {}
    for a in range(N + 2):
        for b in range(a + 1, N + 2):
            c = pvec[a] * qvec[b] - pvec[b] * qvec[a]
            if c:
                out[(a + 1, b + 1)] = c
    return out


def test_homogeneous_from_the_cleared_flux_matches_the_oracle():
    pairs = [HamPair.random(Lcg(seed), n) for n in (2, 4, 6)
             for seed in (1, 2, 3)]
    for pair in pairs + [generic_pair_n2(), generic_pair_n4()]:
        assert plucker_homogeneous(pair) == _homogeneous_oracle(pair), pair


def test_homogeneous_needs_a_free_homogenizer_slot():
    # a compatible pair whose metric is the parameter u3 of a
    # three-variable ring: slot N+1 = 3 cannot also homogenize
    def pair_with_metric_var(nvars, i):
        return HamPair(AltForm(3, 2), SkewMatrix(2, {(1, 2): Poly.var(nvars, i)}),
                       SkewMatrix(2, {(1, 2): 1}), (1, 2), nvars=nvars)

    with pytest.raises(DimensionMismatch, match="u3"):
        plucker_homogeneous(pair_with_metric_var(3, 3))
    # the same parameter one slot further on leaves u3 free
    pair = pair_with_metric_var(4, 4)
    sf = form_from_pair(pair)
    p = plucker_homogeneous(pair)
    assert annihilation_check(sf, p)["ok"]
    rep = congruence_checks(congruence_matrix(sf), p, "symbolic", 0, 0)
    assert not rep["annihilation"] and not rep["quadrics"]


def test_congruence_checks_refuse_an_unknown_mode():
    pair = HamPair.random(Lcg(1), 2)
    m = congruence_matrix(form_from_pair(pair))
    with pytest.raises(ValueError):
        congruence_checks(m, plucker_homogeneous(pair), "bogus", 5, 1)


def test_coordinates_reuse_the_cached_adjugate(monkeypatch):
    import hamforms.congruence as congruence_mod
    import hamforms.pairs as pairs_mod

    calls = []
    for mod in (pairs_mod, congruence_mod):
        real = getattr(mod, "pfaffian_adjugate", None)
        if real is not None:
            monkeypatch.setattr(mod, "pfaffian_adjugate",
                                lambda s, real=real: calls.append(s) or real(s))
    pair = HamPair.random(Lcg(77), 4)
    p = plucker_homogeneous(pair)
    congruence_checks(congruence_matrix(form_from_pair(pair)), p,
                      "sampled", 3, 1)
    plucker_homogeneous(pair)
    assert len(calls) == 1


@pytest.mark.parametrize("build", [
    lambda: HamPair.random(Lcg(52), 2), lambda: HamPair.random(Lcg(54), 4),
    generic_pair_n2, lambda: HamPair.random(Lcg(56), 6)])
def test_sampled_checks_catch_coordinates_off_the_congruence(build):
    pair = build()
    n, m = pair.N, congruence_matrix(form_from_pair(pair))
    p = plucker_homogeneous(pair)
    clean = congruence_checks(m, p, "sampled", 5, 9)
    assert clean["mode"] == "sampled"
    assert not clean["annihilation"] and not clean["quadrics"]
    # one coordinate moved off the line, keeping its degree
    nv = p[(1, 2)].num_vars
    off = dict(p)
    off[(1, 2)] = p[(1, 2)] + (Poly.var(nv, 2) * Poly.var(nv, n + 1)
                               * Fraction(3, 2))
    rep = congruence_checks(m, off, "sampled", 5, 9)
    assert rep["annihilation"] and rep["quadrics"]
    assert rep == congruence_checks(m, off, "sampled", 5, 9)
    last = off[(n + 1, n + 2)]
    assert rep["modulus"] == P61 and rep["points"] == 5
    assert rep["bound"] == Fraction(rep["degree"],
                                    P61 - last.total_degree()) ** 5
    if n == 6:
        return
    sym_rep = congruence_checks(m, off, "symbolic", 5, 9)
    assert not {"modulus", "degree", "points", "bound"} & set(sym_rep)
    for name in ("annihilation", "quadrics"):
        assert set(rep[name]) <= set(sym_rep[name])
        for key, hit in rep[name].items():
            assert len(hit["point"]) == nv
            assert mod_eval(last, hit["point"]) != 0
            assert hit["value"] != 0
            assert hit["value"] == mod_eval(sym_rep[name][key], hit["point"])
        assert max(r.total_degree()
                   for r in sym_rep[name].values()) <= rep["degree"]


def _param_coefficient(poly, diffs):
    """Coefficient of a field monomial: differentiate, zero the fields."""
    out = poly
    mult = 1
    for v, k in diffs:
        for _ in range(k):
            out = out.diff(v)
        mult *= factorial(k)
    subs = [Poly.zero(N4_VARS) if i <= 5 else Poly.var(N4_VARS, i)
            for i in range(1, N4_VARS + 1)]
    return out.compose(subs) * Fraction(1, mult)


def test_homogeneous_four_fields_spot_coefficients():
    pair = generic_pair_n4()
    nv = N4_VARS
    h = Poly.var(nv, 5)
    red = {key: exact_div(val, h) for key, val in plucker_homogeneous(pair).items()}
    p12 = red[(1, 2)]
    g13 = sym(nv, N4_G0[(1, 3)])
    g14 = sym(nv, N4_G0[(1, 4)])
    g23 = sym(nv, N4_G0[(2, 3)])
    g24 = sym(nv, N4_G0[(2, 4)])
    g34 = sym(nv, N4_G0[(3, 4)])
    a13 = sym(nv, N4_A[(1, 3)])
    a14 = sym(nv, N4_A[(1, 4)])
    b2 = sym(nv, N4_B[1])
    b3 = sym(nv, N4_B[2])
    b4 = sym(nv, N4_B[3])
    assert _param_coefficient(p12, [(1, 2)]) == -g13 * a14 + g14 * a13
    assert _param_coefficient(p12, [(2, 1), (5, 1)]) == \
        g23 * b4 - g24 * b3 + g34 * b2
