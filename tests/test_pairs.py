"""Operator-and-system pairs.

The defining relation (metric times flux equals the affine covector) is
proved symbolically here, independently of check_compat's own route.
"""

import hashlib
import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from hamforms import (
    AltForm,
    DegenerateMetric,
    ForcedPair,
    HamPair,
    Lcg,
    NoResidue,
    NullSystemWarning,
    OddDimension,
    Poly,
    RatFunc,
    ReciprocalMap,
    SkewMatrix,
    apply_reciprocal,
    build_metric,
    check_compat,
    pair_to_dict,
    pfaffian,
    rhs_covector,
)
from hamforms import DimensionMismatch
from hamforms.pairs import auto_mode
from hamforms.poly import divides, lift
from hamforms.sampling import _random_residue, run_check

from helpers import (P61, count_pair_pfaffians, generic_pair_n2,
                     generic_pair_n4, mod_eval, pairs_equal)


def _defining_residuals(pair):
    """metric . flux - covector, one rational function per row."""
    g = build_metric(pair.mcubic, pair.mconst, pair.nvars)
    v = pair.flux
    w = rhs_covector(pair.wskew, pair.wconst, pair.nvars)
    out = []
    for j in range(1, pair.N + 1):
        acc = RatFunc.from_const(pair.nvars, 0)
        for k in range(1, pair.N + 1):
            c = g.get(j, k)
            if c:
                acc = acc + c * v[k - 1]
        out.append(acc - RatFunc.from_poly(w[j - 1]))
    return out


def test_defining_system_n2():
    for res in _defining_residuals(generic_pair_n2()):
        assert res.num.is_zero()


def test_defining_system_n4():
    for res in _defining_residuals(generic_pair_n4()):
        assert res.num.is_zero()


def test_flux_invariant_under_common_scale():
    pair = generic_pair_n4()
    c = Fraction(5, 3)
    scaled = HamPair(
        pair.mcubic.scale(c),
        pair.mconst.scale(c),
        pair.wskew.scale(c),
        tuple(b * c for b in pair.wconst),
        nvars=pair.nvars,
    )
    assert scaled.flux == pair.flux


def test_flux_matches_cleared_form():
    for pair in (generic_pair_n2(), generic_pair_n4()):
        nums, den = pair.flux_cleared()
        v = pair.flux
        for k in range(pair.N):
            assert RatFunc(nums[k], den) == v[k]


def test_cleared_flux_computed_once(monkeypatch):
    calls = count_pair_pfaffians(monkeypatch)
    for make in (lambda: HamPair.random(Lcg(3), 2),
                 lambda: HamPair.random(Lcg(3), 4),
                 lambda: HamPair.random(Lcg(3), 6), generic_pair_n4):
        calls.update(pfaffian=0, pfaffian_adjugate=0)
        pair = make()
        assert calls == {"pfaffian": 0, "pfaffian_adjugate": 0}
        cleared = pair.flux_cleared()
        assert pair.flux_cleared() is cleared
        pair.flux
        check_compat(pair, mode="sampled", samples=2)
        assert calls == {"pfaffian": 0, "pfaffian_adjugate": 1}
        assert cleared[1] == pfaffian(pair.metric)


_ONE = Fraction(1)


@pytest.mark.parametrize("n, cubic, const, pf", [
    (4, {(2, 3, 4): _ONE}, {(1, 2): _ONE}, "u2"),
    (6, {(4, 5, 6): _ONE}, {(1, 2): _ONE, (3, 4): _ONE}, "u4"),
    (6, {(2, 5, 6): _ONE, (1, 3, 4): _ONE}, {(1, 2): _ONE}, "u1*u2"),
])
def test_singular_constant_block_falls_back_to_the_metric(n, cubic, const, pf):
    # Pf(g0) = 0, so only the symbolic Pf(g) shows the metric nondegenerate
    assert not pfaffian(SkewMatrix(n, const))
    pair = HamPair(AltForm(3, n, cubic), SkewMatrix(n, const),
                   SkewMatrix(n, {(1, 2): _ONE}), (_ONE,) * n)
    assert pair.flux_cleared()[1] == pfaffian(pair.metric)
    assert str(pfaffian(pair.metric)) == pf
    assert check_compat(pair, mode="symbolic")["all_zero"]


def test_singular_parametric_constant_block_falls_back_to_the_metric():
    # g0 = a du12 in the ring u1..u4 | a: Pf(g0) = 0, Pf(g) = a u2
    a = Poly.var(5, 5)
    pair = HamPair(AltForm(3, 4, {(2, 3, 4): _ONE}), SkewMatrix(4, {(1, 2): a}),
                   SkewMatrix(4, {(1, 2): _ONE}), (_ONE,) * 4, nvars=5)
    assert pair.flux_cleared()[1] == pfaffian(pair.metric) == a * Poly.var(5, 2)


# SHA-256 of the sorted JSON of pair_to_dict(HamPair.random(Lcg(s), N)):
# pins the Lcg draws and which draws are rejected as singular.  Seed 12
# at N=2 draws a singular metric first and rejects it.
_RANDOM_PAIR_DIGESTS = {
    (1, 2): "5fb3e4d6117516ae52bad5ac1b3d772f900dcdd99b42829fea12fe32f68e0979",
    (1, 4): "1e6b2bb9932a5974c0484f854f5ff1d0be73e7f77e7bc8baba83aa5a17f551a2",
    (1, 6): "279d14d2d4f2e7c99507ae02512ea26e1444789a9e1e35cddad7a8e7b3e4a55f",
    (2, 2): "ca3284e614a23716e29580b174a56eee8b7e5bb8ef38cbb5966fcfd2d22bddbf",
    (2, 4): "f65819348aba305b7d65b5afb7790829e2bda019a158e68d871e17c5409e00d8",
    (2, 6): "6417a1f7903fade88b30813a830a236941265d429f78d41c48b651cb4d80b8e3",
    (3, 2): "a6dc00157620316323ab77e7f5e5ea7c107d1eba029a9045ee877020b55dfd90",
    (3, 4): "51a828c2112a9272f2135326f0fcef01490f3c002628aac10fcaaa4c359a679b",
    (3, 6): "b54f9d6f709c566fccc72388550f7ccc18a920d2df140ed0f0a72faba2114511",
    (12, 2): "4249a2b984499ba8d8b06c08a4dec3ab3f3d492f5b6a3b9791fbbbf95d63431f",
}


@pytest.mark.parametrize("seed, n", sorted(_RANDOM_PAIR_DIGESTS))
def test_random_pair_stream_is_pinned(seed, n):
    d = pair_to_dict(HamPair.random(Lcg(seed), n))
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digest == _RANDOM_PAIR_DIGESTS[(seed, n)]


def test_check_compat_symbolic():
    for pair in (generic_pair_n2(), generic_pair_n4()):
        report = check_compat(pair, mode="symbolic")
        assert report["all_zero"]
        assert report["mode"] == "symbolic"
        n = pair.N
        assert report["checked"] == (n * (n + 1) // 2, n ** 3)
        assert not report["first_order"] and not report["second_order"]


def test_check_compat_sampled_agrees():
    pair = generic_pair_n4()
    report = check_compat(pair, mode="sampled", samples=5, seed=7)
    assert report["all_zero"]
    assert report["mode"] == "sampled"


def test_check_compat_random_pairs():
    rng = Lcg(99)
    for n in (2, 4):
        for _ in range(3):
            pair = HamPair.random(rng, n)
            assert check_compat(pair, mode="symbolic")["all_zero"]


def test_degenerate_metric_rejected():
    with pytest.raises(DegenerateMetric):
        HamPair(
            AltForm(3, 2),
            SkewMatrix.zero(2),
            SkewMatrix(2, {(1, 2): Fraction(1)}),
            (Fraction(0), Fraction(0)),
        )
    # g(u) u = 0 when g0 = 0, so no cubic block alone makes a metric
    with pytest.raises(DegenerateMetric):
        HamPair(AltForm(3, 4, {(1, 2, 3): Fraction(1)}), SkewMatrix.zero(4),
                SkewMatrix(4, {(1, 2): Fraction(1)}), (Fraction(1),) * 4)


def test_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        HamPair(
            AltForm(3, 3),
            SkewMatrix(3, {(1, 2): Fraction(1)}),
            SkewMatrix.zero(3),
            (Fraction(1), Fraction(0), Fraction(0)),
        )


def test_null_system_warns():
    with pytest.warns(NullSystemWarning):
        HamPair(
            AltForm(3, 2),
            SkewMatrix(2, {(1, 2): Fraction(1)}),
            SkewMatrix.zero(2),
            (Fraction(0), Fraction(0)),
        )


def test_pair_equality():
    assert pairs_equal(generic_pair_n4(), generic_pair_n4())
    assert generic_pair_n4() == generic_pair_n4()
    assert generic_pair_n2() != generic_pair_n4()


def test_pf_is_polynomial():
    pair = generic_pair_n4()
    pf = pair.flux_cleared()[1]
    assert isinstance(pf, Poly)
    assert not pf.is_zero()


def test_forced_pair_keeps_flux():
    pair = generic_pair_n4()
    forced = ForcedPair(pair.mcubic, pair.mconst, pair.flux,
                        nvars=pair.nvars)
    assert forced.flux == pair.flux
    nums, den = forced.flux_cleared()
    for k in range(4):
        assert RatFunc(nums[k], den) == pair.flux[k]


def test_forced_pair_clears_by_the_lcm():
    pair = generic_pair_n2()
    flux = list(pair.flux)
    g12 = Poly.var(pair.nvars, 4)
    flux[0] = flux[0] + RatFunc.from_poly(Poly.var(pair.nvars, 1)) / g12
    flux[1] = flux[1] / (g12 * g12)
    forced = ForcedPair(pair.mcubic, pair.mconst, tuple(flux),
                        nvars=pair.nvars)
    nums, den = forced.flux_cleared()
    product = Poly.one(pair.nvars)
    for k, v in enumerate(forced.flux):
        assert divides(v.den, den)
        assert RatFunc(nums[k], den) == v
        product = product * v.den
    assert divides(den, product)
    assert den.total_degree() < product.total_degree()


def _forced_n2(flux):
    """A ForcedPair on the constant metric du12 of two fields."""
    g0 = SkewMatrix(2, {(1, 2): Fraction(2)})
    return ForcedPair(AltForm(3, 2, {}), g0, flux)


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
def test_forced_pair_lifts_poly_and_rational_flux(mode):
    u1, u2 = Poly.var(2, 1), Poly.var(2, 2)
    for flux in ((u1 * u2 + 1, Fraction(3, 2)), (u2 + 1, 5)):
        lifted = tuple(RatFunc.from_poly(v) if isinstance(v, Poly)
                       else RatFunc.from_const(2, v) for v in flux)
        forced = _forced_n2(flux)
        assert forced.flux == lifted
        assert (check_compat(forced, mode=mode)
                == check_compat(_forced_n2(lifted), mode=mode))


def test_forced_pair_refuses_flux_from_another_ring():
    with pytest.raises(ValueError):
        _forced_n2((Poly.var(3, 1), Fraction(1)))


def test_check_mode_is_checked_and_auto_follows_the_field_count():
    for n in (2, 6):
        pair = HamPair.random(Lcg(1), n)
        assert check_compat(pair) == check_compat(pair, mode=auto_mode(n))
        assert check_compat(pair)["mode"] == auto_mode(n)
        with pytest.raises(ValueError):
            check_compat(pair, mode="bogus")


def _over_c(case):
    """Metric du12 on two fields in a ring with one parameter c = x3, and
    the flux `case` divided by c."""
    u1, u2, c = (Poly.var(3, i) for i in (1, 2, 3))
    flux = {"affine": (u1 + 1, u2), "symmetric": (u2 + 1, u1),
            "quadratic": (u1 * u1, u2)}[case]
    g0 = SkewMatrix.from_form(AltForm(2, 2, {(1, 2): Fraction(1)}))
    return ForcedPair(AltForm(3, 2, {}), g0, [RatFunc(v, c) for v in flux],
                      nvars=3)


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
@pytest.mark.parametrize("case, ok, counts", [
    ("affine", True, (0, 0)),
    ("symmetric", False, (2, 0)),
    ("quadratic", False, (1, 1)),
])
def test_flux_over_a_parameter_content(case, ok, counts, mode):
    # X = g.V = W/P with P = c; only the first X is affine in the fields
    # with a skew linear part.  c does not divide its W, so a decision by
    # divisibility must first divide P by its content in the fields
    rep = check_compat(_over_c(case), mode=mode)
    assert rep["all_zero"] is ok
    assert (len(rep["first_order"]), len(rep["second_order"])) == counts
    assert rep["mode"] == mode


# -- the sampled check: residues modulo the prime 2^61 - 1 -------------------

def _perturbed(pair, k, m, c):
    """ForcedPair with V^k replaced by V^k + c u^m."""
    flux = list(pair.flux)
    flux[k - 1] = flux[k - 1] + RatFunc.var(pair.nvars, m) * c
    return ForcedPair(pair.mcubic, pair.mconst, tuple(flux), nvars=pair.nvars)


def test_check_differentiates_only_in_field_directions(monkeypatch):
    pair = generic_pair_n4()
    n = pair.N
    assert pair.nvars > n
    pair.flux_cleared()
    real = Poly.diff
    calls = []

    def counted(self, var):
        calls.append(var)
        return real(self, var)

    monkeypatch.setattr(Poly, "diff", counted)
    for mode in ("sampled", "symbolic"):
        calls.clear()
        assert check_compat(pair, mode=mode, samples=3)["all_zero"]
        assert len(calls) <= (n + 1) * (n + n * (n + 1) // 2)
        assert max(calls) <= n


def _covector_numerators(pair):
    """W_q = sum_j g_qj n^j, the numerators of g . V over P."""
    nums, _ = pair.flux_cleared()
    out = []
    for q in range(1, pair.N + 1):
        acc = Poly.zero(pair.nvars)
        for j in range(1, pair.N + 1):
            g = pair.metric.get(q, j)
            if g:
                acc = acc + g * nums[j - 1]
        out.append(acc)
    return out


def _count_products_with(monkeypatch, P):
    """Wrap Poly.__mul__; the returned list collects each left factor
    multiplied by P itself."""
    real = Poly.__mul__
    formed = []

    def counted(self, other):
        if other is P:
            formed.append(self)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    return formed


def test_check_forms_each_first_derivative_product_once(monkeypatch):
    # the numerator of (W_q / P)_{,l} is W_q_{,l} P - W_q P_{,l}; its
    # product W_q_{,l} P is formed once and shared by both identities
    pair = HamPair.random(Lcg(3), 4)
    n = pair.N
    W = _covector_numerators(pair)
    P = pair.flux_cleared()[1]
    grad = {(k, l): W[k].diff(l + 1) for k in range(n) for l in range(n)}
    assert len(set(grad.values())) == len(grad)
    formed = _count_products_with(monkeypatch, P)
    assert check_compat(pair, mode="symbolic")["all_zero"]
    monkeypatch.undo()
    for key, value in grad.items():
        assert sum(x == value for x in formed) == 1, key


def test_check_forms_each_second_derivative_once(monkeypatch):
    # the numerator of (W_q / P)_{,pl} is symmetric in p and l, so only
    # one of its two leading parts, for (p, l) and for (l, p), is formed.
    # On a compatible pair W / P is affine and many leading parts vanish
    # alike; a quadratic added to every flux component keeps them apart
    base = HamPair.random(Lcg(3), 4)
    s = RatFunc.from_poly(sum((Poly.var(4, m) for m in range(2, 5)),
                              Poly.var(4, 1)))
    pair = ForcedPair(base.mcubic, base.mconst,
                      tuple(v + s * s * k for k, v in enumerate(base.flux, 1)))
    n = pair.N
    W = _covector_numerators(pair)
    P = pair.flux_cleared()[1]

    def lead(k, p, l):
        # w_{,pl} P + w_{,p} P_{,l} - w_{,l} P_{,p} - w P_{,pl}, w = W_k
        wk, Pp = W[k], P.diff(p + 1)
        return (wk.diff(p + 1).diff(l + 1) * P + wk.diff(p + 1) * P.diff(l + 1)
                - wk.diff(l + 1) * Pp - wk * Pp.diff(l + 1))

    formed = _count_products_with(monkeypatch, P)
    assert not check_compat(pair, mode="symbolic")["all_zero"]
    monkeypatch.undo()
    for k in range(n):
        for p in range(n):
            for l in range(p + 1, n):
                pair_leads = (lead(k, p, l), lead(k, l, p))
                assert pair_leads[0] != pair_leads[1]
                assert sum(x in pair_leads for x in formed) == 1, (k, p, l)


def test_check_multiplies_fewer_polynomials(monkeypatch):
    # the identities written with the derivatives of V took 778 products
    # on this pair; as derivatives of W, forming W takes N^2 and no sum
    # over the metric or the cubic coefficients follows
    pair = HamPair.random(Lcg(3), 4)
    pair.flux_cleared()
    real = Poly.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert check_compat(pair, mode="symbolic")["all_zero"]
    assert len(calls) < 778


@pytest.mark.parametrize("n, k, m", [(2, 1, 2), (4, 2, 3), (6, 1, 4)])
def test_sampled_check_catches_a_perturbed_flux(n, k, m):
    pair = HamPair.random(Lcg(40 + n), n)
    forced = _perturbed(pair, k, m, Fraction(3, 2))
    rep = check_compat(forced, mode="sampled", seed=11)
    assert rep["mode"] == "sampled" and not rep["all_zero"]
    assert rep == check_compat(forced, mode="sampled", seed=11)
    if n == 6:
        return
    sym = check_compat(forced, mode="symbolic")
    pf = forced.flux_cleared()[1]
    for order in ("first_order", "second_order"):
        assert set(rep[order]) <= set(sym[order])
        for key, hit in rep[order].items():
            assert len(hit["point"]) == forced.nvars
            assert mod_eval(pf, hit["point"]) != 0
            assert hit["value"] != 0
            assert hit["value"] == mod_eval(sym[order][key], hit["point"])


def test_sampled_report_states_its_bound():
    for pair in (generic_pair_n2(), generic_pair_n4()):
        forced = _perturbed(pair, 1, 2, Fraction(1))
        rep = check_compat(forced, mode="sampled", samples=7, seed=3)
        pf = forced.flux_cleared()[1]
        assert rep["modulus"] == P61 and rep["points"] == 7
        assert rep["bound"] == Fraction(
            rep["degree"], P61 - pf.total_degree()) ** 7
        sym = check_compat(forced, mode="symbolic")
        assert not {"modulus", "degree", "points", "bound"} & set(sym)
        degrees = [r.total_degree()
                   for order in ("first_order", "second_order")
                   for r in sym[order].values()]
        assert degrees and max(degrees) <= rep["degree"]


def test_sampled_check_refuses_coefficients_without_residue():
    pair = HamPair(
        AltForm(3, 2),
        SkewMatrix(2, {(1, 2): Fraction(1)}),
        SkewMatrix(2, {(1, 2): Fraction(1)}),
        (Fraction(1, P61), Fraction(0)),
    )
    assert check_compat(pair, mode="symbolic")["all_zero"]
    with pytest.raises(ValueError, match="2\\^61-1"):
        check_compat(pair, mode="sampled")
    with pytest.raises(NoResidue):
        check_compat(pair, mode="sampled")
    with pytest.raises(ValueError):
        check_compat(pair, mode="sampled", samples=0)


def test_sampled_checks_refuse_an_avoid_that_is_zero_mod_the_modulus():
    # the metric's Pfaffian, and with it p^{3,4}, is 2^61-1 times a
    # nonzero polynomial: every residue point is a root, and the sampler
    # used to draw points forever
    from hamforms import (congruence_checks, congruence_matrix,
                          form_from_pair, plucker_homogeneous)
    pair = HamPair(
        AltForm(3, 2),
        SkewMatrix(2, {(1, 2): Fraction(P61)}),
        SkewMatrix(2, {(1, 2): Fraction(1)}),
        (Fraction(1), Fraction(0)),
    )
    assert check_compat(pair, mode="symbolic")["all_zero"]
    with pytest.raises(NoResidue, match="2\\^61-1"):
        check_compat(pair, mode="sampled", samples=3)
    with pytest.raises(NoResidue, match="2\\^61-1"):
        congruence_checks(congruence_matrix(form_from_pair(pair)),
                          plucker_homogeneous(pair), "sampled", 3, 1)
    for avoid in (Poly.zero(2), Poly.const(2, P61),
                  Poly(2, {(1, 0): P61, (0, 2): Fraction(-2 * P61, 3)})):
        with pytest.raises(NoResidue):
            run_check("sampled", lambda conv: ({},), lambda: (avoid, 1), 3, 0)


def test_sampled_check_tables_hold_each_point_in_its_lane(monkeypatch):
    # lane i of a table entry is its monomial's residue at point i; lanes
    # out of order, or one point's residues for all, would break it
    import hamforms.sampling as sampling
    from hamforms import (congruence_checks, congruence_matrix,
                          form_from_pair, plucker_homogeneous)
    from hamforms.poly import unpack

    real = sampling._Vals.at.__func__
    seen = []

    def spy(cls, p, points, table):
        seen.append((points, table))
        return real(cls, p, points, table)

    monkeypatch.setattr(sampling._Vals, "at", classmethod(spy))
    pair = generic_pair_n4()
    check_compat(pair, mode="sampled", samples=3)
    congruence_checks(congruence_matrix(form_from_pair(pair)),
                      plucker_homogeneous(pair), "sampled", 3, 1)
    monkeypatch.undo()
    nv, width = pair.nvars, sampling._LANE
    tables = {id(t): (x, t) for x, t in seen}.values()
    assert sum(len(x) == 3 and len(t) > 50 for x, t in tables) >= 2
    for points, table in tables:
        for key, lanes in list(table.items())[:50]:
            b = lanes.to_bytes(width * len(points), "little")
            for i, x in enumerate(points):
                assert (int.from_bytes(b[i * width:(i + 1) * width], "little")
                        == mod_eval(Poly(nv, {unpack(key, nv): 1}), x))


_coeffs = (st.fractions(max_denominator=12)
           | st.integers(-2 ** 70, 2 ** 70)
           | st.sampled_from([P61 - 1, P61 + 1, Fraction(1, P61 - 1)]))


@st.composite
def _polys_and_points(draw):
    nv = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 5)] * nv)
    polys = [Poly.zero(nv), Poly.const(nv, draw(_coeffs))]
    polys += [Poly(nv, terms) for terms in draw(st.lists(
        st.dictionaries(exps, _coeffs, max_size=6), min_size=1, max_size=4))]
    n = draw(st.integers(1, 1000))
    rng = Lcg(draw(st.integers(0, 2 ** 32)))
    specials = [0, 1, 2, P61 - 1]
    points = [tuple(specials[rng.randint(0, 3)] if rng.randint(0, 4) == 0
                    else _random_residue(rng) for _ in range(nv))
              for _ in range(n)]
    return polys, points


@settings(max_examples=30, deadline=None)
@given(_polys_and_points())
def test_residues_at_all_points_match_pointwise_evaluation(case):
    # one table shared by several polynomials, as within one check
    from hamforms.sampling import _Vals
    polys, points = case
    table = {}
    for p in polys:
        assert _Vals.at(p, points, table).v == [mod_eval(p, x)
                                                for x in points]


@st.composite
def _two_polys_and_points(draw):
    nv = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nv)
    p, q = (Poly(nv, draw(st.dictionaries(exps, _coeffs, max_size=5)))
            for _ in range(2))
    rng = Lcg(draw(st.integers(0, 2 ** 32)))
    points = [tuple(_random_residue(rng) for _ in range(nv))
              for _ in range(draw(st.integers(1, 8)))]
    return p, q, points


@settings(max_examples=40, deadline=None)
@given(_two_polys_and_points(), _coeffs)
def test_residues_keep_the_ring_laws_with_rationals_on_either_side(case, r):
    # a check's formula runs unchanged on residues: each result, with a
    # rational r on either side and in a sum started at Fraction(0), is
    # the residue of the same formula on polynomials
    from hamforms.sampling import _Vals
    p, q, points = case
    table = {}
    vp, vq = (_Vals.at(x, points, table) for x in (p, q))
    cases = [(vp + vq, p + q), (vp - vq, p - q), (vp * vq, p * q),
             (vp + r, p + r), (r + vp, r + p), (vp - r, p - r),
             (r - vp, r - p), (vp * r, p * r), (r * vp, r * p),
             (sum([vp, r, vq * r], Fraction(0)), p + r + q * r)]
    for vals, poly in cases:
        assert vals.v == [mod_eval(poly, x) for x in points]


def test_residue_lanes_hold_thousands_of_largest_products():
    # 3,000 terms whose coefficient and monomial residues are all
    # 2^61-2 = -1: each lane sums 3,000 products near 2^122, past 2^128
    from hamforms.sampling import _Vals
    terms = 3000
    p = Poly(1, {(2 * k + 1,): -1 for k in range(terms)})
    points = [(P61 - 1,)] * 4 + [(2,), (P61 - 1,)]
    vals = _Vals.at(p, points, {}).v
    assert vals == [mod_eval(p, x) for x in points]
    assert vals[:4] == [terms] * 4


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.sampled_from([2, 4]),
       k=st.integers(1, 4), shift=st.integers(1, 3),
       c=st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_sampled_and_symbolic_agree(seed, n, k, shift, c):
    pair = HamPair.random(Lcg(seed), n)
    k = (k - 1) % n + 1
    m = (k - 1 + shift) % n + 1
    for p in (pair, _perturbed(pair, k, m, c)):
        assert (check_compat(p, mode="sampled", seed=seed)["all_zero"]
                == check_compat(p, mode="symbolic")["all_zero"])


# -- the oracle: both identities from the derivatives of V -------------------

def _compat_oracle(pair, mode, samples=20, seed=715225741):
    """check_compat's report from the identities written with V^k = n^k / P:
    the first sum_j g_qj V^j_{,p} + g_pj V^j_{,q} over P^2, the second
    sum_k g_qk V^k_{,pl} + mcubic_pqk V^k_{,l} + mcubic_qkl V^k_{,p} over
    P^3, proved or sampled by the same `run_check`."""
    N = pair.N
    nums, P = pair.flux_cleared()
    f = range(1, N + 1)

    def bound():
        deg_g = max((e.total_degree() for e in pair.metric.upper.values()),
                    default=0)
        return P, max(0, deg_g + max(n.total_degree() for n in nums)
                      + 2 * P.total_degree() - 1)

    def residuals(conv):
        dn = [[conv(n.diff(p)) for p in f] for n in nums]
        dP = [conv(P.diff(p)) for p in f]
        n_, P_ = [conv(n) for n in nums], conv(P)

        @cache
        def dd(k, p, l):
            # (n^k or, for k = 0, P) differentiated by u^p and u^l, p <= l
            return conv((nums[k - 1] if k else P).diff(p).diff(l))

        def g(i, j):
            c = pair.metric.get(i, j)
            return conv(c) if c else None

        def cubic(i, j, k):
            c = pair.mcubic.get(i, j, k)
            return conv(c) if c else None

        @cache
        def d1(k, l):
            return dn[k - 1][l - 1] * P_ - n_[k - 1] * dP[l - 1]

        @cache
        def d1P(k, l):
            return d1(k, l) * P_

        @cache
        def d2(k, p, l):
            lead = (dd(k, p, l) * P_ + dn[k - 1][p - 1] * dP[l - 1]
                    - dn[k - 1][l - 1] * dP[p - 1] - n_[k - 1] * dd(0, p, l))
            return lead * P_ - (dP[l - 1] * d1(k, p)) * 2

        def total(terms):
            terms = [a * b for a, b in terms if a is not None]
            return sum(terms[1:], terms[0]) if terms else None

        first, second = {}, {}
        for p in f:
            for q in range(p, N + 1):
                acc = total([(g(q, j), d1(j, p)) for j in f]
                            + [(g(p, j), d1(j, q)) for j in f])
                if acc:
                    first[(p, q)] = acc
        for q in f:
            for p in f:
                for l in f:
                    acc = total([(g(q, k), d2(k, min(p, l), max(p, l)))
                                 for k in f]
                                + [(cubic(p, q, k), d1P(k, l)) for k in f]
                                + [(cubic(q, k, l), d1P(k, p)) for k in f])
                    if acc:
                        second[(q, p, l)] = acc
        return first, second

    (first, second), keys = run_check(mode, residuals, bound, samples, seed)
    return {"mode": mode, "first_order": first, "second_order": second,
            "checked": (N * (N + 1) // 2, N ** 3),
            "all_zero": not first and not second, **keys}


def _oracle_cases():
    """(label, pair, modes): random, perturbed, parametric and
    transformed pairs, compatible or not; symbolic at N = 6 for one
    pair only, as it takes seconds there."""
    both = ("symbolic", "sampled")
    cases = []
    for n, seeds in ((2, (1, 2, 3, 4, 5)), (4, (3, 4, 5, 6)), (6, (3, 4))):
        for seed in seeds:
            pair = HamPair.random(Lcg(seed), n)
            cases.append(("random n%d seed %d" % (n, seed), pair,
                          both if (n, seed) != (6, 4) else ("sampled",)))
            if (n, seed) == (6, 4):
                continue
            k, m = seed % n + 1, (seed + 1) % n + 1
            cases.append(("perturbed n%d seed %d" % (n, seed),
                          _perturbed(pair, k, m, Fraction(seed, 3)),
                          both if n < 6 else ("sampled",)))
    for label, pair in (("generic n2", generic_pair_n2()),
                        ("generic n2 unit", generic_pair_n2(True)),
                        ("generic n4", generic_pair_n4())):
        cases.append((label, pair, both))
        cases.append((label + " perturbed", _perturbed(pair, 1, 2, 1), both))
    for n in (2, 4):
        # V^1 over a denominator that is not the pfaffian
        pair = HamPair.random(Lcg(3), n)
        nums, P = pair.flux_cleared()
        flux = (RatFunc(nums[0], P + Poly.var(n, 1)),) + pair.flux[1:]
        cases.append(("denominator n%d" % n,
                      ForcedPair(pair.mcubic, pair.mconst, flux), both))
    nv = 5
    param = HamPair(AltForm(3, 4, {(1, 2, 3): Fraction(1)}),
                    SkewMatrix(4, {(1, 2): Fraction(1), (3, 4): Poly.var(nv, 5)}),
                    SkewMatrix(4, {(1, 3): Fraction(2), (2, 4): Fraction(1)}),
                    (Fraction(1), Fraction(0), Fraction(1), Fraction(0)),
                    nvars=nv)
    r = ReciprocalMap(4, [1, 0, 0, 0], 2, 1, [0] * 4, 0, 1)
    for label, pair in (("reciprocal generic n4", generic_pair_n4()),
                        ("reciprocal parameter n4", param)):
        cases.append((label, apply_reciprocal(pair, r), both))
    return cases


def test_check_compat_matches_the_oracle():
    reports = 0
    failing = 0
    for label, pair, modes in _oracle_cases():
        for mode in modes:
            rep = check_compat(pair, mode=mode)
            assert rep == _compat_oracle(pair, mode), (label, mode)
            reports += 1
            failing += not rep["all_zero"]
    assert reports == 60 and 0 < failing < reports


def test_both_pair_classes_share_the_metric_half():
    pair = generic_pair_n4()
    flux = (pair.flux[0], Poly.var(pair.nvars, 2), Fraction(1, 3), 2)
    forced = ForcedPair(pair.mcubic, pair.mconst, flux, nvars=pair.nvars)
    assert (forced.N, forced.nvars) == (pair.N, pair.nvars)
    assert forced.metric == pair.metric
    lifted = tuple(lift(v, pair.nvars) for v in flux)
    assert forced.flux == lifted
    assert forced.flux is forced.flux
    # a ForcedPair is no HamPair, so HamPair equality never matches it
    assert not isinstance(forced, HamPair) and forced != pair
    with pytest.raises(DimensionMismatch):
        ForcedPair(pair.mcubic, pair.mconst, flux[:3], nvars=pair.nvars)


def test_both_pair_classes_refuse_an_odd_field_count():
    cubic, const = AltForm(3, 3), SkewMatrix(3, {(1, 2): Fraction(1)})
    with pytest.raises(OddDimension):
        HamPair(cubic, const, SkewMatrix.zero(3), (1, 0, 0))
    with pytest.raises(OddDimension):
        ForcedPair(cubic, const, (1, 0, 0))


def test_each_pair_class_defines_its_own_flux_cleared():
    # the bench wraps both through the class __dict__
    assert "flux_cleared" in vars(HamPair)
    assert "flux_cleared" in vars(ForcedPair)


# fields u1 u2, parameter u3
_NV = 3
_UNIT = SkewMatrix(2, {(1, 2): Fraction(1)})


def _n2_pair(mconst=_UNIT, wskew=SkewMatrix(2), wconst=(1, 0)):
    return HamPair(AltForm(3, 2), mconst, wskew, wconst, nvars=_NV)


@pytest.mark.parametrize("build,exc,match", [
    (lambda: _n2_pair(SkewMatrix(2, {(1, 2): RatFunc(Poly.one(_NV),
                                                     Poly.var(_NV, 3))})),
     ValueError, "constant metric part entries must be polynomial"),
    (lambda: _n2_pair(SkewMatrix(2, {(1, 2): Poly.var(_NV + 1, 3)})),
     ValueError, "constant metric part entry lives in a different ring"),
    (lambda: _n2_pair(SkewMatrix(2, {(1, 2): Poly.var(_NV, 1)})),
     ValueError, "constant metric part entries must not involve the fields"),
    (lambda: _n2_pair(wconst=(1.5, 0)),
     TypeError, "constant covector part must have rational or parameter"),
    (lambda: build_metric(AltForm(3, 4), _UNIT),
     DimensionMismatch, "three-form and constant part differ in size"),
    (lambda: build_metric(AltForm(3, 2), _UNIT, nvars=1),
     DimensionMismatch, "ring has fewer variables than the form"),
    (lambda: rhs_covector(SkewMatrix(2), (1,)),
     DimensionMismatch, "covector length does not match"),
    (lambda: _n2_pair(wskew=SkewMatrix(4)),
     DimensionMismatch, "skew covector part does not match the field count"),
    (lambda: _n2_pair(wconst=(1,)),
     DimensionMismatch, "constant covector part has wrong length"),
], ids=["non-polynomial", "other-ring", "uses-a-field", "unsupported-type",
        "size-mismatch", "small-ring", "covector-length", "wskew-size",
        "wconst-length"])
def test_pair_data_refusals(build, exc, match):
    with pytest.raises(exc, match=match):
        build()


def test_constant_poly_entries_are_stored_as_fractions():
    pair = _n2_pair(SkewMatrix(2, {(1, 2): Poly.const(_NV, 2)}),
                    wconst=(Poly.const(_NV, Fraction(1, 3)), 0))
    assert pair.mconst.get(1, 2) == 2 and pair.wconst == (Fraction(1, 3), 0)
    assert all(type(c) is Fraction
               for c in (pair.mconst.get(1, 2), *pair.wconst))


def test_randint_refuses_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        Lcg(1).randint(3, 2)
