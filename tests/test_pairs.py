"""Operator-and-system pairs.

The defining relation (metric times flux equals the affine covector) is
proved symbolically here, independently of check_compat's own route.
"""

from fractions import Fraction

import pytest

from hamforms import (
    AltForm,
    DegenerateMetric,
    ForcedPair,
    HamPair,
    Lcg,
    NullSystemWarning,
    OddDimension,
    Poly,
    RatFunc,
    SkewMatrix,
    build_metric,
    check_compat,
    rhs_covector,
)

from helpers import generic_pair_n2, generic_pair_n4, pairs_equal


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
    assert pair.pf() is cleared[1]
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
    pf = pair.pf()
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
