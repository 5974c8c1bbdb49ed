"""Acceptance suite: one numbered test per criterion.

Each test is marked with its number and a short label; the terminal
summary lists every criterion with PASS or FAIL.  Frozen displays (the
two-field table, the four-field table, the factored pfaffian) are
asserted exactly; randomized properties use the package generator with
fixed seeds.
"""

import json
import os
import warnings
from fractions import Fraction
from math import comb

import pytest

from hamforms import (
    AltForm,
    DegenerateImage,
    DegenerateMetric,
    HamPair,
    Lcg,
    Matrix,
    NullSystemWarning,
    Poly,
    ProjectiveMap,
    RatFunc,
    SkewMatrix,
    StructureForm,
    annihilation_check,
    apply_projective,
    apply_xt_exchange,
    build_metric,
    canonical_n4_pair,
    congruence_matrix,
    congruence_rank,
    dimension_audit,
    eta_matrix,
    form_from_pair,
    format_system,
    grassmann_check,
    pair_columns,
    pair_from_form,
    pfaffian,
    pfaffian_adjugate,
    plucker_coords,
    plucker_homogeneous,
    pullback_linear,
    q_form,
    stabilizer_audit,
    symplectic_split,
)
from hamforms.classify import eta_gram
from hamforms.poly import lift
from hamforms.sampling import random_skew, random_three_form

from helpers import (
    N2_SYM,
    N2_VARS,
    N4_A,
    N4_B,
    N4_G0,
    N4_VARS,
    generic_pair_n2,
    generic_pair_n4,
    pairs_equal,
    random_invertible,
    random_symplectic,
    sample_point,
    sym,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def two_field_pair():
    """Unit-metric two-field pair with free rotation and constants."""
    return generic_pair_n2(unit_metric=True)


@pytest.mark.criterion(1, "two-field flux from the decomposition")
def test_criterion_01_two_field_flux():
    # decomposing du123 + a*du124 + b1*du134 + b2*du234 must give the
    # flux (a*u1 - b2, a*u2 + b1); the pair is the affine slice where
    # the homogenizing coordinate is one
    nv = N2_VARS
    a = sym(nv, N2_SYM["a12"])
    b1 = sym(nv, N2_SYM["b1"])
    b2 = sym(nv, N2_SYM["b2"])
    sf = StructureForm(2, AltForm(3, 4, {
        (1, 2, 3): Fraction(1), (1, 2, 4): a, (1, 3, 4): b1, (2, 3, 4): b2,
    }))
    pair = pair_from_form(sf, nvars=nv)
    assert pairs_equal(pair, two_field_pair())
    u1 = RatFunc.var(nv, 1)
    u2 = RatFunc.var(nv, 2)
    ar, b1r, b2r = (RatFunc.from_poly(x) for x in (a, b1, b2))
    v = pair.flux
    assert v[0] == ar * u1 - b2r
    assert v[1] == ar * u2 + b1r


@pytest.mark.criterion(2, "two-field congruence equations, rank, certificate")
def test_criterion_02_two_field_congruence():
    nv = N2_VARS
    a = sym(nv, N2_SYM["a12"])
    b1 = sym(nv, N2_SYM["b1"])
    b2 = sym(nv, N2_SYM["b2"])
    one = Poly.one(nv)
    z = Poly.zero(nv)
    sf = form_from_pair(two_field_pair())
    m = congruence_matrix(sf)
    assert m.nrows == 4 and m.ncols == 6

    def as_poly(v):
        return Poly.const(nv, v) if isinstance(v, Fraction) else v

    got = [[as_poly(m[i, j]) for j in range(6)] for i in range(4)]
    # the four classical equations over columns p12 p13 p14 p23 p24 p34
    eq1 = [z, one, a, z, z, -b2]
    eq2 = [z, z, z, one, a, b1]
    eq3 = [one, z, -b1, z, -b2, z]
    eq4 = [a, b1, z, b2, z, z]
    # rows are grouped by coordinate differential, so the first two
    # equations appear in swapped order and the first with flipped sign
    assert got[0] == eq2
    assert got[1] == [-v for v in eq1]
    assert got[2] == eq3
    assert got[3] == eq4

    report = congruence_rank(sf)
    assert report["rank"] == 3 and report["dependent"]
    cert = report["certificate"]
    # normalize the last weight to -1 and read the weights off in the
    # classical equation order (eq1, eq2, eq3, eq4)
    one_r = RatFunc.from_const(nv, 1)
    scale = -one_r / cert[3]
    c = [v * scale for v in cert]
    in_equation_order = (-c[1], c[0], c[2], c[3])
    ar, b1r, b2r = (RatFunc.from_poly(x) for x in (a, b1, b2))
    assert in_equation_order == (b1r, b2r, ar, -one_r)
    # and the certificate really annihilates the rows
    for j in range(6):
        acc = RatFunc.from_const(nv, 0)
        for i in range(4):
            acc = acc + cert[i] * RatFunc.from_poly(as_poly(m[i, j]))
        assert acc.num.is_zero()


@pytest.mark.criterion(3, "two-field quadric factors through the congruence")
def test_criterion_03_quadric_substitution():
    # ring: p12 p14 p24 p34 a b1 b2
    nv = 7
    p12, p14, p24, p34, a, b1, b2 = (Poly.var(nv, i) for i in range(1, 8))
    p13 = -a * p14 + b2 * p34
    p23 = -a * p24 - b1 * p34
    quadric = p12 * p34 - p13 * p24 + p14 * p23
    assert quadric == p34 * (p12 - b1 * p14 - b2 * p24)


@pytest.mark.criterion(4, "factored pfaffian and pfaffian adjugate")
def test_criterion_04_pfaffian_display():
    # ring: u1..u5, then the six constant metric entries
    nv = 11
    u = [Poly.var(nv, i) for i in range(1, 6)]
    g12, g13, g14, g23, g24, g34 = (Poly.var(nv, i) for i in range(6, 12))
    s = SkewMatrix(4, {
        (1, 2): u[2] + g12 * u[4],
        (1, 3): -u[1] + g13 * u[4],
        (1, 4): g14 * u[4],
        (2, 3): u[0] + g23 * u[4],
        (2, 4): g24 * u[4],
        (3, 4): g34 * u[4],
    })
    pf = pfaffian(s)
    factored = u[4] * (g14 * u[0] + g24 * u[1] + g34 * u[2]
                       + (g12 * g34 - g13 * g24 + g14 * g23) * u[4])
    assert pf == factored

    adj = pfaffian_adjugate(s)
    s12, s13, s14 = s.get(1, 2), s.get(1, 3), s.get(1, 4)
    s23, s24, s34 = s.get(2, 3), s.get(2, 4), s.get(3, 4)
    z = Poly.zero(nv)
    published = [
        [z, -s34, s24, s23],
        [s34, z, -s14, s13],
        [-s24, s14, z, -s12],
        [s23, -s13, s12, z],
    ]
    mismatches = set()
    for i in range(4):
        for j in range(4):
            got = adj.get(i + 1, j + 1)
            got = Poly.const(nv, got) if isinstance(got, Fraction) else got
            if got != published[i][j]:
                mismatches.add((i + 1, j + 1))
    # the printed display carries one sign slip in its (1, 4) cell; the
    # matrix identity below is the authoritative statement
    assert mismatches == {(1, 4)}
    prod = s.to_matrix() @ adj.to_matrix()
    for i in range(4):
        for j in range(4):
            assert prod[i, j] == (pf if i == j else z)


@pytest.mark.criterion(5, "four-field coefficient table against the record")
def test_criterion_05_four_field_table():
    with open(os.path.join(DATA_DIR, "n4_congruence_table.json")) as fp:
        record = json.load(fp)
    nv = N4_VARS

    def cell(tok):
        neg = tok.startswith("-")
        if neg:
            tok = tok[1:]
        if tok in ("0", "1"):
            v = Poly.const(nv, Fraction(int(tok)))
        elif tok[0] == "g":
            v = sym(nv, N4_G0[(int(tok[1]), int(tok[2]))])
        elif tok[0] == "A":
            v = sym(nv, N4_A[(int(tok[1]), int(tok[2]))])
        else:
            v = sym(nv, N4_B[int(tok[1]) - 1])
        return -v if neg else v

    corrections = {(fix["row"], fix["col"]): fix["corrected"]
                   for fix in record["known_misprints"]}
    published, corrected = [], []
    for rname, row in zip(record["rows"], record["published"]):
        prow, crow = [], []
        for cname, tok in zip(record["columns"], row):
            prow.append(cell(tok))
            crow.append(cell(corrections.get((rname, cname), tok)))
        published.append(prow)
        corrected.append(crow)

    pair = generic_pair_n4()
    sf = form_from_pair(pair)

    def as_poly(v):
        return Poly.const(nv, v) if isinstance(v, Fraction) else v

    def normalize(rows):
        out = []
        for row in rows:
            s = 0
            for v in row:
                if not v.is_zero():
                    s = 1 if v.leading()[1] > 0 else -1
                    break
            out.append([-v for v in row] if s < 0 else list(row))
        return out

    published = normalize(published)
    corrected = normalize(corrected)
    m = normalize([[as_poly(v) for v in row]
                   for row in congruence_matrix(sf).rows])
    cols = record["columns"]
    mismatches = set()
    for i in range(6):
        for j in range(15):
            got = m[i][j]
            assert got == corrected[i][j], (i, j)
            if got != published[i][j]:
                mismatches.add((record["rows"][i], cols[j]))
    assert mismatches == set(corrections)

    # the authoritative identity: the form annihilates its own line
    # coordinates, symbolically, for the fully generic four-field pair
    assert annihilation_check(sf, plucker_coords(pair))["ok"]


@pytest.mark.criterion(6, "line-coordinate identities for random pairs")
def test_criterion_06_line_identities():
    rng = Lcg(601)
    for n in (2, 4):
        for k in range(20):
            pair = HamPair.random(rng, n)
            sf = form_from_pair(pair)
            # polynomial coordinates: clearing the pfaffian denominator
            # keeps both identities equivalent and exact
            p = plucker_homogeneous(pair)
            assert annihilation_check(sf, p)["ok"], (n, k)
            assert grassmann_check(p, n + 2)["ok"], (n, k)
            if k < 3:
                # uncleared rational-function route on a few pairs
                q = plucker_coords(pair)
                assert annihilation_check(sf, q)["ok"], (n, k)
                assert grassmann_check(q, n + 2)["ok"], (n, k)
    pair = HamPair.random(rng, 6)
    sf = form_from_pair(pair)
    pf = pair.flux_cleared()[1]
    done = 0
    while done < 20:
        x = sample_point(rng, 6)
        if not pf.eval(x):
            continue
        p = plucker_coords(pair, x)
        assert annihilation_check(sf, p)["ok"]
        assert grassmann_check(p, 8)["ok"]
        done += 1


@pytest.mark.criterion(7, "decomposition and composition invert each other")
def test_criterion_07_roundtrips():
    rng = Lcg(701)
    for n in (2, 4, 6):
        for _ in range(20):
            pair = HamPair.random(rng, n)
            assert pairs_equal(pair, pair_from_form(form_from_pair(pair)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NullSystemWarning)
        for n in (2, 4, 6):
            made = 0
            while made < 20:
                f = random_three_form(rng, n + 2)
                sf = StructureForm(n, f)
                try:
                    pair = pair_from_form(sf)
                except DegenerateMetric:
                    continue
                assert form_from_pair(pair).form == f
                made += 1


@pytest.mark.criterion(8, "exchange transform is the coordinate swap")
def test_criterion_08_exchange():
    rng = Lcg(801)
    swap = [[Fraction(1 if i == j else 0) for j in range(6)]
            for i in range(6)]
    swap[4][4] = swap[5][5] = Fraction(0)
    swap[4][5] = swap[5][4] = Fraction(1)
    swap = Matrix(swap)
    done = 0
    while done < 10:
        pair = HamPair.random(rng, 4)
        try:
            q = apply_xt_exchange(pair)
        except DegenerateImage:
            continue
        lhs = form_from_pair(q)
        rhs = StructureForm(4, pullback_linear(form_from_pair(pair).form,
                                               swap))
        assert lhs.form == rhs.form
        assert pairs_equal(pair_from_form(rhs), q)
        assert pairs_equal(apply_xt_exchange(q), pair)
        done += 1


@pytest.mark.criterion(9, "projective maps rescale the metric by the "
                          "inverse cubed denominator")
def test_criterion_09_conformal_law():
    rng = Lcg(901)
    for n in (2, 4):
        done = 0
        while done < 10:
            pair = HamPair.random(rng, n)
            a = random_invertible(rng, n + 1)
            phi = ProjectiveMap(a)
            try:
                q, rep = apply_projective(pair, phi)
            except DegenerateImage:
                continue
            assert rep["conformal_ok"], (n, done)
            _pointwise_conformal_oracle(rng, pair, q, a)
            if done == 0:
                # independent uncleared route on the first map of each
                # size proves the same identity a second way
                assert _conformal_check_generic(pair, q, phi)
            done += 1


def _conformal_check_generic(pair, new_pair, phi):
    """Uncleared rational-function route of the conformal law.

    Composes the transformed metric with the point map and wedges it
    with the Jacobian minors as rational functions, reducing by gcd at
    every step; the library's cleared route never builds these.
    """
    n, nv = pair.N, pair.nvars
    comps = phi.components(nv)
    values = list(comps) + [RatFunc.var(nv, k) for k in range(n + 1, nv + 1)]
    jac = [[comps[i].diff(k) for k in range(1, n + 1)] for i in range(n)]
    a3 = phi.denominator(nv) ** 3
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            lhs = RatFunc.from_const(nv, 0)
            for (i, j), gbar in new_pair.metric.upper.items():
                minor = (jac[i - 1][k - 1] * jac[j - 1][l - 1]
                         - jac[i - 1][l - 1] * jac[j - 1][k - 1])
                lhs = lhs + lift(gbar, nv).compose(values) * minor
            if lhs != lift(pair.metric.get(k, l), nv) / a3:
                return False
    return True


def _pointwise_conformal_oracle(rng, pair, new_pair, a, points=3):
    """Evaluate the two-form transformation law at rational points.

    The map, its denominator, and the Jacobian are recomputed here from
    the raw matrix with plain Fraction arithmetic.
    """
    n = pair.N
    g = build_metric(pair.mcubic, pair.mconst, pair.nvars)
    gbar = build_metric(new_pair.mcubic, new_pair.mconst, new_pair.nvars)
    rows = a.rows

    def ev(entry, pt):
        # diagonal entries of a skew matrix come back as plain fractions
        return entry if isinstance(entry, Fraction) else entry.eval(pt)

    done = 0
    attempts = 0
    while done < points:
        attempts += 1
        assert attempts <= 50 * points, "ran out of points off the bad locus"
        x = sample_point(rng, n)
        den = sum(rows[n][k] * x[k] for k in range(n)) + rows[n][n]
        if not den:
            continue
        num = [sum(rows[i][k] * x[k] for k in range(n)) + rows[i][n]
               for i in range(n)]
        y = tuple(v / den for v in num)
        # jacobian of component i by field k at x
        jac = [[(rows[i][k] * den - num[i] * rows[n][k]) / den ** 2
                for k in range(n)] for i in range(n)]
        gbar_y = {(i, j): ev(gbar.get(i, j), y)
                  for i in range(1, n + 1) for j in range(1, n + 1)}
        g_x = {(i, j): ev(g.get(i, j), x)
               for i in range(1, n + 1) for j in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = sum(gbar_y[(k, l)] * jac[k - 1][i - 1]
                          * jac[l - 1][j - 1]
                          for k in range(1, n + 1)
                          for l in range(1, n + 1))
                assert lhs == g_x[(i, j)] / den ** 3
        done += 1


@pytest.mark.criterion(10, "quadratic invariant is twice the pfaffian and "
                           "is symplectically invariant")
def test_criterion_10_quadratic_invariant():
    rng = Lcg(1001)
    for _ in range(50):
        raw = random_skew(rng, 4, max_num=9)
        theta = symplectic_split(raw).theta
        assert q_form(theta) == 2 * pfaffian(SkewMatrix.from_form(theta))
    jm = eta_gram()
    for _ in range(20):
        raw = random_skew(rng, 4, max_num=7)
        theta = symplectic_split(raw).theta
        cmat = random_symplectic(rng, jm)
        assert q_form(pullback_linear(theta, cmat)) == q_form(theta)


@pytest.mark.criterion(11, "canonical four-field system with symbolic "
                           "invariants")
def test_criterion_11_canonical_system():
    nv = 7
    te = RatFunc.var(nv, 6)
    t13 = RatFunc.var(nv, 7)
    cp = canonical_n4_pair(te, t13, nvars=nv)
    names = ["u1", "u2", "u3", "u4", "u5", "a", "b"]
    assert format_system(cp, names=names) == [
        "u1_t = a*u1_x - u4_x",
        "u2_t = a*u2_x + b*u3_x",
        "u3_t = u2_x + a*u3_x",
        "u4_t = -b*u1_x + a*u4_x",
    ]


@pytest.mark.criterion(12, "component counts split across the four blocks")
def test_criterion_12_dimension_audit():
    for n in (2, 4, 6, 8):
        report = dimension_audit(n)
        assert report["ok"], n
        assert comb(n + 2, 3) == comb(n, 3) + 2 * comb(n, 2) + n
    assert comb(6, 3) == 20 and comb(4, 3) + 2 * comb(4, 2) + 4 == 20


@pytest.mark.criterion(13, "stabilizer directions preserve the four-field "
                           "model")
def test_criterion_13_stabilizer():
    report = stabilizer_audit()
    assert report["ok"]
    assert report["dimension"] == 14
    assert len(report["generators"]) == 14
    assert all(g["first_order_ok"] for g in report["generators"])
    assert report["exact"] == {"transvection": True, "shear": True,
                               "torus": True}
    assert not report["negative_control_preserved"]
