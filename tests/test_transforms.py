"""Projective, exchange, and reciprocal symmetries."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hamforms import (
    AltForm,
    DegenerateImage,
    DimensionMismatch,
    HamPair,
    Lcg,
    Matrix,
    Poly,
    ProjectiveMap,
    ReciprocalMap,
    SkewMatrix,
    StructureForm,
    ValidationError,
    apply_projective,
    apply_reciprocal,
    apply_xt_exchange,
    canonical_n2_pair,
    check_compat,
    conformal_check,
    form_from_pair,
    pair_from_form,
    pullback_linear,
)

from helpers import generic_pair_n2, pairs_equal, random_invertible


def test_identity_map():
    rng = Lcg(90901)
    for n in (2, 4):
        p = HamPair.random(rng, n)
        q, rep = apply_projective(p, ProjectiveMap.identity(n))
        assert pairs_equal(p, q)
        assert rep["denominator"] == 1
        assert rep["conformal_ok"]


def test_translation_roundtrip():
    rng = Lcg(90902)
    p = HamPair.random(rng, 4)
    rows = [list(r) for r in Matrix.identity(5).rows]
    for i, c in enumerate((1, -2, 3, 5)):
        rows[i][4] = Fraction(c)
    phi = ProjectiveMap(Matrix(rows))
    q, rep = apply_projective(p, phi)
    assert rep["denominator"] == 1 and rep["conformal_ok"]
    back, rep2 = apply_projective(q, ProjectiveMap(phi.a_inv))
    assert pairs_equal(back, p) and rep2["conformal_ok"]


def test_field_scaling():
    p = canonical_n2_pair()
    phi = ProjectiveMap(Matrix([
        [Fraction(3), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]))
    q, rep = apply_projective(p, phi)
    assert rep["denominator"] == 1 and rep["conformal_ok"]
    assert q.mcubic == p.mcubic


def test_conformal_law_random_maps():
    # the image passes; with one constant metric entry moved it fails
    rng = Lcg(90903)
    for n in (2, 4, 6):
        hits = 0
        while hits < 5:
            p = HamPair.random(rng, n)
            phi = ProjectiveMap(random_invertible(rng, n + 1))
            try:
                q, rep = apply_projective(p, phi)
            except DegenerateImage:
                continue
            assert rep["conformal_ok"]
            upper = dict(q.mconst.upper)
            upper[(1, 2)] = q.mconst.get(1, 2) + 1
            wrong = HamPair(q.mcubic, SkewMatrix(n, upper), q.wskew,
                            q.wconst, nvars=q.nvars)
            assert not conformal_check(p, wrong, phi)
            hits += 1


def test_projective_group_action_on_flux():
    rng = Lcg(90904)
    p = HamPair.random(rng, 2)
    a1 = random_invertible(rng, 3)
    a2 = random_invertible(rng, 3)
    q12, _ = apply_projective(p, ProjectiveMap(a1 @ a2))
    qa, _ = apply_projective(p, ProjectiveMap(a2))
    qb, _ = apply_projective(qa, ProjectiveMap(a1))
    assert tuple(q12.flux) == tuple(qb.flux)


def test_exchange_canonical_two_fields():
    p = canonical_n2_pair()
    q = apply_xt_exchange(p)
    assert q.mconst.get(1, 2) == 1 and q.wskew.get(1, 2) == 1
    assert tuple(q.wconst) == (Fraction(-1), Fraction(0))
    assert pairs_equal(apply_xt_exchange(q), p)


def test_exchange_is_coordinate_swap():
    rng = Lcg(90905)
    for n in (2, 4, 2, 4):
        p = HamPair.random(rng, n)
        try:
            q = apply_xt_exchange(p)
        except DegenerateImage:
            continue
        swap = [[Fraction(1 if i == j else 0) for j in range(n + 2)]
                for i in range(n + 2)]
        swap[n][n] = swap[n + 1][n + 1] = Fraction(0)
        swap[n][n + 1] = swap[n + 1][n] = Fraction(1)
        lhs = form_from_pair(q).form
        rhs = pullback_linear(form_from_pair(p).form, Matrix(swap))
        assert lhs == rhs


def test_exchange_identity_rejects_a_wrong_image():
    # gbar_ij P = g_is n^s_{,j} holds for the exchange image only
    from hamforms.transforms import _exchange_metric_identity

    for p in (canonical_n2_pair(), generic_pair_n2(), HamPair.random(Lcg(4), 2)):
        q = apply_xt_exchange(p)
        assert _exchange_metric_identity(p, q)
        wrong = HamPair(q.mcubic, q.mconst.scale(Fraction(2)), q.wskew,
                        q.wconst, nvars=q.nvars)
        assert not _exchange_metric_identity(p, wrong)


def test_exchange_degenerate_image():
    p = HamPair(AltForm(3, 2), SkewMatrix(2, {(1, 2): Fraction(1)}),
                SkewMatrix(2), (Fraction(1), Fraction(2)))
    with pytest.raises(DegenerateImage):
        apply_xt_exchange(p)


def test_reciprocal_identity_and_exchange():
    # the exchange's block swap is the pullback along the exchange map
    p = canonical_n2_pair()
    assert pairs_equal(apply_reciprocal(p, ReciprocalMap.identity(2)), p)
    rng = Lcg(90906)
    degenerate = 0
    pairs = [HamPair.random(rng, n) for n in (2, 4, 6) for _ in range(5)]
    for p in [p] + pairs:
        try:
            want = apply_xt_exchange(p)
        except DegenerateImage:
            degenerate += 1
            with pytest.raises(DegenerateImage):
                apply_reciprocal(p, ReciprocalMap.exchange(p.N))
            continue
        assert apply_reciprocal(p, ReciprocalMap.exchange(p.N)) == want
    assert degenerate == 1


def test_reciprocal_generic_map_stays_compatible():
    p = canonical_n2_pair()
    r = ReciprocalMap(2, [Fraction(1), Fraction(-1)], Fraction(2),
                      Fraction(1), [Fraction(0), Fraction(1)], Fraction(-1),
                      Fraction(1))
    q = apply_reciprocal(p, r)
    assert check_compat(q, mode="symbolic")["all_zero"]


def test_reciprocal_image_with_parameter_in_metric():
    # the map mixes u1 into x, so the parameter u5 of the constant
    # metric block moves into the image's cubic block as a polynomial
    nv = 5
    p = HamPair(AltForm(3, 4, {(1, 2, 3): Fraction(1)}),
                SkewMatrix(4, {(1, 2): Fraction(1), (3, 4): Poly.var(nv, 5)}),
                SkewMatrix(4, {(1, 3): Fraction(2), (2, 4): Fraction(1)}),
                (Fraction(1), Fraction(0), Fraction(1), Fraction(0)),
                nvars=nv)
    r = ReciprocalMap(4, [1, 0, 0, 0], 2, 1, [0] * 4, 0, 1)
    q = apply_reciprocal(p, r)
    assert check_compat(q, mode="symbolic")["all_zero"]


def test_reciprocal_factorization():
    # space-only step, exchange, space-only step: same as one pullback
    p = canonical_n2_pair()
    z = Fraction(0)
    rx1 = ReciprocalMap(2, [Fraction(1), z], Fraction(1), z, [z, z], z,
                        Fraction(1))
    rx2 = ReciprocalMap(2, [z, Fraction(2)], Fraction(1), z, [z, z], z,
                        Fraction(1))
    m = rx2.block_matrix() @ ReciprocalMap.exchange(2).block_matrix() \
        @ rx1.block_matrix()
    step = apply_reciprocal(apply_xt_exchange(apply_reciprocal(p, rx1)), rx2)
    direct = pair_from_form(
        StructureForm(2, pullback_linear(form_from_pair(p).form, m.inv())))
    assert pairs_equal(step, direct)


def test_reciprocal_rejects_singular_block():
    one = Fraction(1)
    with pytest.raises(ValidationError):
        ReciprocalMap(2, [one, one], one, one, [Fraction(0), Fraction(0)],
                      one, one)


def test_maps_of_the_wrong_size_name_both_sizes():
    pair = canonical_n2_pair()
    with pytest.raises(DimensionMismatch, match="side 4; a pair on 2 fields needs side 3"):
        apply_projective(pair, ProjectiveMap.identity(3))
    with pytest.raises(DimensionMismatch, match="acts on 4 fields; the pair has 2"):
        apply_reciprocal(pair, ReciprocalMap.identity(4))


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4]), c=st.lists(_rationals, min_size=12,
                                             max_size=12),
       singular=st.booleans())
def test_reciprocal_block_inverts_exactly_when_the_constant_part_does(
        n, c, singular):
    ax, bx = c[:n], c[6:6 + n]
    ax0, bt, cx, dt0 = c[4], c[5], c[10], c[11]
    if singular:
        # force ax0 dt0 - bt cx = 0
        if ax0:
            dt0 = bt * cx / ax0
        else:
            cx = Fraction(0)
    if ax0 * dt0 - bt * cx == 0:
        with pytest.raises(ValidationError):
            ReciprocalMap(n, ax, ax0, bt, bx, cx, dt0)
        return
    block = ReciprocalMap(n, ax, ax0, bt, bx, cx, dt0).block_matrix()
    assert block @ block.inv() == Matrix.identity(n + 2)


def test_affine_rows_are_the_rows_applied_to_u_and_one():
    rng = Lcg(90911)
    for n in (2, 4):
        nv = n + 1  # one parameter past the fields
        phi = ProjectiveMap(random_invertible(rng, n + 1))
        rows = phi.affine_rows(nv)
        assert len(rows) == n + 1
        assert rows[-1] == phi.denominator(nv).num
        for i, row in enumerate(rows):
            expect = Poly.const(nv, phi.a[i, n])
            for l in range(n):
                expect = expect + Poly.var(nv, l + 1) * phi.a[i, l]
            assert row == expect
        assert [c * phi.denominator(nv) for c in phi.components(nv)] == [
            rows[i] for i in range(n)]
