"""Operator-and-system pairs.

The defining relation (metric times flux equals the affine covector) is
proved symbolically here, independently of check_compat's own route.
"""

from fractions import Fraction

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
    SkewMatrix,
    build_metric,
    check_compat,
    rhs_covector,
)
from hamforms.poly import divides

from helpers import (P61, generic_pair_n2, generic_pair_n4, mod_eval,
                     pairs_equal)


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
    import hamforms.pairs as pairs_mod

    calls = {"pfaffian": 0, "pfaffian_adjugate": 0}
    for name in calls:
        real = getattr(pairs_mod, name)

        def counted(s, name=name, real=real):
            calls[name] += 1
            return real(s)

        monkeypatch.setattr(pairs_mod, name, counted)
    pair = generic_pair_n4()
    cleared = pair.flux_cleared()
    assert pair.flux_cleared() is cleared
    pair.flux
    check_compat(pair, mode="sampled", samples=2)
    assert calls == {"pfaffian": 1, "pfaffian_adjugate": 1}


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


def test_check_forms_each_first_derivative_product_once(monkeypatch):
    pair = HamPair.random(Lcg(3), 4)
    n = pair.N
    nums, P = pair.flux_cleared()
    # d1(k, l) = n^k_{,l} P - n^k P_{,l}, the numerator of V^k_{,l}
    d1 = {(k, l): nums[k].diff(l + 1) * P - nums[k] * P.diff(l + 1)
          for k in range(n) for l in range(n)}
    assert len(set(d1.values())) == len(d1)
    real = Poly.__mul__
    formed = []

    def counted(self, other):
        if other is P:
            formed.append(self)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert check_compat(pair, mode="symbolic")["all_zero"]
    for key, value in d1.items():
        assert sum(x == value for x in formed) <= 1, key


def test_check_forms_each_second_derivative_once(monkeypatch):
    # the numerator of V^k_{,pl} is symmetric in p and l, so only one of
    # its two leading parts, for (p, l) and for (l, p), is ever formed
    pair = HamPair.random(Lcg(3), 4)
    n = pair.N
    nums, P = pair.flux_cleared()

    def lead(k, p, l):
        # n_{,pl} P + n_{,p} P_{,l} - n_{,l} P_{,p} - n P_{,pl}, n = n^k
        nk, Pp = nums[k], P.diff(p + 1)
        return (nk.diff(p + 1).diff(l + 1) * P + nk.diff(p + 1) * P.diff(l + 1)
                - nk.diff(l + 1) * Pp - nk * Pp.diff(l + 1))

    real = Poly.__mul__
    formed = []

    def counted(self, other):
        if other is P:
            formed.append(self)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert check_compat(pair, mode="symbolic")["all_zero"]
    monkeypatch.undo()
    for k in range(n):
        for p in range(n):
            for l in range(p + 1, n):
                pair_leads = (lead(k, p, l), lead(k, l, p))
                assert pair_leads[0] != pair_leads[1]
                assert sum(x in pair_leads for x in formed) == 1, (k, p, l)


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
