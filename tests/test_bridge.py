"""Packing pairs into structure forms and back."""

from fractions import Fraction
from math import comb

import pytest

from hamforms import (
    AltForm,
    DimensionMismatch,
    HamPair,
    Lcg,
    OddDimension,
    SkewMatrix,
    StructureForm,
    dimension_audit,
    form_from_pair,
    pair_from_form,
)

from helpers import generic_pair_n2, generic_pair_n4, pairs_equal


def test_roundtrip_symbolic():
    for pair in (generic_pair_n2(), generic_pair_n4()):
        sf = form_from_pair(pair)
        back = pair_from_form(sf, nvars=pair.nvars)
        assert pairs_equal(pair, back)
        assert form_from_pair(back) == sf


def test_packing_does_not_walk_the_layout_table(monkeypatch):
    # compose and decompose cost the stored entries, not C(N+2, 3)
    import hamforms.bridge as bridge

    def refuse(N):
        raise AssertionError("layout table built")

    monkeypatch.setattr(bridge, "layout", refuse)
    pair = generic_pair_n4()
    sf = form_from_pair(pair)
    assert pairs_equal(pair_from_form(sf, nvars=pair.nvars), pair)
    assert sf.metric_block().comps and sf.w_block().comps


def test_roundtrip_random():
    rng = Lcg(55)
    for n in (2, 4, 6):
        for _ in range(3):
            pair = HamPair.random(rng, n)
            back = pair_from_form(form_from_pair(pair))
            assert pairs_equal(pair, back)


def test_block_extraction():
    pair = generic_pair_n4()
    sf = form_from_pair(pair)
    assert sf.mcubic_block() == pair.mcubic
    assert sf.mconst_block() == pair.mconst
    assert sf.wskew_block() == pair.wskew
    assert sf.wconst_block() == tuple(pair.wconst)


def test_block_placement():
    # the covector constants sit on triples (i, N+1, N+2)
    pair = generic_pair_n2()
    sf = form_from_pair(pair)
    assert sf.get(1, 3, 4) == pair.wconst[0]
    assert sf.get(2, 3, 4) == pair.wconst[1]
    assert sf.get(1, 2, 3) == pair.mconst.get(1, 2)
    assert sf.get(1, 2, 4) == pair.wskew.get(1, 2)


def test_homogenize_metric_at_one_is_affine():
    pair = generic_pair_n4()
    hom = form_from_pair(pair).metric_block()
    n = pair.N
    # every slice of the homogenized form matches the block it came from
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            slices = [hom.get(i, j, k) for k in range(1, n + 1)]
            const = hom.get(i, j, n + 1)
            assert const == pair.mconst.get(i, j)
            for k in range(1, n + 1):
                assert slices[k - 1] == pair.mcubic.get(i, j, k)


def test_homogenize_covector():
    w = form_from_pair(HamPair(
        AltForm(3, 2), SkewMatrix(2, {(1, 2): Fraction(1)}),
        SkewMatrix(2, {(1, 2): Fraction(3)}), (Fraction(4), Fraction(0)),
    )).w_block()
    assert w.get(1, 2) == 3 and w.get(1, 3) == 4 and w.get(2, 3) == 0


def test_dimension_audit():
    for n in (2, 4, 6, 8):
        report = dimension_audit(n)
        assert report["ok"]
        assert report["sum_matches"] and report["roundtrip"]
        assert report["total"] == comb(n + 2, 3)
        assert report["blocks"]["mcubic"]["count"] == comb(n, 3)
        assert report["blocks"]["mconst"]["count"] == comb(n, 2)
        assert report["blocks"]["wskew"]["count"] == comb(n, 2)
        assert report["blocks"]["wconst"]["count"] == n
        # the four block sizes exhaust the triples
        assert comb(n + 2, 3) == comb(n, 3) + 2 * comb(n, 2) + n


def test_dimension_audit_rejects_odd():
    with pytest.raises(OddDimension):
        dimension_audit(3)


def test_structure_form_validation():
    with pytest.raises(DimensionMismatch):
        StructureForm(2, AltForm(3, 5))
    with pytest.raises(OddDimension):
        StructureForm(3, AltForm(3, 5))


def test_from_comps():
    sf = StructureForm.from_comps(2, {(1, 2, 3): Fraction(1),
                                      (1, 3, 4): Fraction(2)})
    assert sf.get(1, 2, 3) == 1
    assert sf.get(3, 1, 4) == -2
