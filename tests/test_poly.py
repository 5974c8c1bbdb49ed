"""Exact polynomial and rational-function arithmetic.

Oracles: ring axioms checked on random inputs, differentiation against
the product and quotient rules, evaluation as a ring homomorphism, and
division checked by multiplying back.
"""

from fractions import Fraction

import pytest

from hamforms import Lcg, PoleError, Poly, RatFunc
from hamforms.poly import as_fraction, divides, exact_div, poly_gcd


def random_poly(rng, nvars, nterms=4, max_deg=2):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = rng.fraction()
    return Poly(nvars, terms)


def test_construction_and_queries():
    p = Poly(3, {(1, 0, 0): Fraction(2), (0, 0, 0): Fraction(-1)})
    assert p.coeff_of((1, 0, 0)) == 2
    assert p.coeff_of((0, 1, 0)) == 0
    assert p.total_degree() == 1
    assert p.degree_in(1) == 1 and p.degree_in(2) == 0
    assert Poly.var(3, 2) == Poly(3, {(0, 1, 0): Fraction(1)})
    assert Poly.const(3, 0).is_zero()
    assert Poly.one(3).const_value() == 1
    with pytest.raises(ValueError):
        Poly.var(3, 4)


def test_zero_terms_dropped():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(3)})
    assert p == Poly.var(2, 2) * 3
    assert (p - p).is_zero()


def test_ring_axioms_random():
    rng = Lcg(101)
    for _ in range(25):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        r = random_poly(rng, 3)
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p - p == Poly.zero(3)


def test_eval_is_homomorphism():
    rng = Lcg(202)
    for _ in range(25):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        x = tuple(rng.fraction() for _ in range(3))
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_diff_product_rule():
    rng = Lcg(303)
    for _ in range(20):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        for var in (1, 2, 3):
            assert (p * q).diff(var) == p.diff(var) * q + p * q.diff(var)


def test_diff_basic():
    # d/du1 (u1^2 u2 + 3 u1) = 2 u1 u2 + 3
    u1, u2 = Poly.var(2, 1), Poly.var(2, 2)
    p = u1 * u1 * u2 + u1 * 3
    assert p.diff(1) == u1 * u2 * 2 + Poly.const(2, 3)
    assert p.diff(2) == u1 * u1


def test_compose_matches_eval():
    rng = Lcg(404)
    for _ in range(15):
        p = random_poly(rng, 2)
        vals = [random_poly(rng, 3), random_poly(rng, 3)]
        comp = p.compose(vals)
        x = tuple(rng.fraction() for _ in range(3))
        assert comp.eval(x) == p.eval(tuple(v.eval(x) for v in vals))


def test_exact_division_roundtrip():
    rng = Lcg(505)
    for _ in range(15):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2)
        if p.is_zero():
            continue
        prod = p * q
        assert divides(p, prod)
        assert exact_div(prod, p) == q
    u1 = Poly.var(2, 1)
    assert not divides(u1, u1 + Poly.one(2))


def test_gcd_common_factor():
    rng = Lcg(606)
    for _ in range(10):
        p = random_poly(rng, 2, nterms=2)
        q = random_poly(rng, 2, nterms=2)
        r = random_poly(rng, 2, nterms=2)
        if r.is_zero():
            continue
        g = poly_gcd(p * r, q * r)
        assert divides(r, g) or (p * r).is_zero() or (q * r).is_zero()


def test_format():
    u1, u2 = Poly.var(2, 1), Poly.var(2, 2)
    assert (u1 * u1 * 3 + u2 - 1).format() == "3*u1^2 + u2 - 1"
    assert (-u2).format() == "-u2"
    assert Poly.zero(2).format() == "0"
    assert (u1 * u2).format(names=("x", "y")) == "x*y"


def test_ratfunc_reduction():
    p = Poly.var(2, 1) + Poly.one(2)
    q = Poly.var(2, 2)
    r = Poly.var(2, 1) * Poly.var(2, 2) + Poly.const(2, 7)
    assert RatFunc(p * r, q * r) == RatFunc(p, q)
    assert RatFunc(p, p) == RatFunc.from_const(2, 1)


def test_ratfunc_field_ops():
    rng = Lcg(707)
    for _ in range(12):
        num1, den1 = random_poly(rng, 2), random_poly(rng, 2, nterms=2)
        num2, den2 = random_poly(rng, 2), random_poly(rng, 2, nterms=2)
        if den1.is_zero() or den2.is_zero():
            continue
        a = RatFunc(num1, den1)
        b = RatFunc(num2, den2)
        s = a + b
        assert s.num * (den1 * den2) == (num1 * den2 + num2 * den1) * s.den
        prod = a * b
        assert prod.num * (den1 * den2) == (num1 * num2) * prod.den
        if not b.is_zero():
            assert (a / b) * b == a
        assert a - a == RatFunc.from_const(2, 0)


def test_ratfunc_scaling_by_a_constant_skips_the_gcd(monkeypatch):
    import hamforms.poly as poly_mod

    x, y = Poly.var(2, 1), Poly.var(2, 2)
    f = RatFunc(x * x + y, x * y - Poly.const(2, 3))
    c = Fraction(-5, 7)
    real = poly_mod.poly_gcd
    calls = []
    monkeypatch.setattr(poly_mod, "poly_gcd",
                        lambda a, b: calls.append(1) or real(a, b))
    got = [c * f, f * c, RatFunc.from_const(2, c) * f,
           f * RatFunc.from_const(2, c)]
    assert calls == []
    want = RatFunc(f.num * c, f.den)
    for g in got:
        # the same stored form, not only an equal fraction
        assert (g.num.terms, g.den.terms) == (want.num.terms, want.den.terms)


def test_ratfunc_adding_zero_skips_the_gcd(monkeypatch):
    # a matrix-vector product adds the zero products of its zero entries
    import hamforms.poly as poly_mod

    x, y = Poly.var(2, 1), Poly.var(2, 2)
    f = RatFunc(x * x + y, x * y - Poly.const(2, 3))
    zero = RatFunc.from_const(2, 0)
    real = poly_mod.poly_gcd
    calls = []
    monkeypatch.setattr(poly_mod, "poly_gcd",
                        lambda a, b: calls.append(1) or real(a, b))
    got = [f + 0, Fraction(0) + f, f + zero, zero + f, f - zero, 0 - -f]
    assert calls == []
    for g in got:
        assert (g.num.terms, g.den.terms) == (f.num.terms, f.den.terms)


def test_ratfunc_diff_quotient_rule():
    rng = Lcg(808)
    for _ in range(10):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2, nterms=2)
        if q.is_zero():
            continue
        f = RatFunc(p, q)
        for var in (1, 2):
            expect = RatFunc(p.diff(var) * q - p * q.diff(var), q * q)
            assert f.diff(var) == expect


def test_ratfunc_eval_and_pole():
    f = RatFunc(Poly.var(1, 1), Poly.var(1, 1) - Poly.one(1))
    assert f.eval((Fraction(2),)) == 2
    with pytest.raises(PoleError):
        f.eval((Fraction(1),))


def test_ratfunc_compose():
    rng = Lcg(909)
    u1 = RatFunc.var(2, 1)
    u2 = RatFunc.var(2, 2)
    f = (u1 + u2) / (u1 - u2)
    vals = [u1 * u2, u1 + RatFunc.from_const(2, 1)]
    comp = f.compose(vals)
    for _ in range(5):
        x = (rng.fraction(), rng.fraction())
        a = vals[0].eval(x)
        b = vals[1].eval(x)
        if a == b:
            continue
        assert comp.eval(x) == (a + b) / (a - b)


def test_ratfunc_format():
    f = RatFunc(Poly.var(2, 1), Poly.var(2, 2))
    assert "u1" in f.format() and "u2" in f.format()
    assert RatFunc.from_const(2, Fraction(-3, 2)).format() == "-3/2"


@pytest.mark.parametrize("other", [Poly.var(3, 1), RatFunc.var(3, 1),
                                   Poly.one(3), RatFunc.from_const(3, 0)])
def test_ratfunc_from_another_ring_is_unequal_and_refused(other):
    f = RatFunc.var(2, 1)
    for x in (f, RatFunc.from_const(2, 0), RatFunc.from_const(2, 1)):
        assert (x == other) is False
        assert x != other
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            with pytest.raises(ValueError):
                getattr(x, op)(other)


_U = Poly.var(2, 1)


@pytest.mark.parametrize("call,exc,match", [
    (lambda: as_fraction(1.5), TypeError, "expected a rational value"),
    (lambda: Poly(2, {(1,): 1}), ValueError, "exponent vector has wrong length"),
    (lambda: _U.const_value(), ValueError, "polynomial is not constant"),
    (lambda: Poly.zero(2).leading(), ValueError, "zero polynomial has no"),
    (lambda: _U + Poly.var(3, 1), ValueError, "polynomials from different rings"),
    (lambda: _U ** -1, ValueError, "negative power of a polynomial"),
    (lambda: _U.diff(3), ValueError, "variable index out of range"),
    (lambda: _U.eval([1]), ValueError, "wrong length"),
    (lambda: _U.compose([1, 2, 3]), ValueError, "substitution list has wrong"),
    (lambda: poly_gcd(_U, Poly.var(3, 1)), ValueError,
     "polynomials from different rings"),
    (lambda: RatFunc(_U, Poly.one(3)), ValueError,
     "numerator and denominator from different rings"),
    (lambda: RatFunc(_U, Poly.zero(2)), ZeroDivisionError, "zero denominator"),
    (lambda: RatFunc(_U) / 0, ZeroDivisionError,
     "division by zero rational function"),
    (lambda: RatFunc.from_const(2, 0) ** -1, ZeroDivisionError,
     "inverse of zero"),
], ids=["as-fraction", "exponents", "const-value", "leading", "ring", "power",
        "diff", "eval", "compose", "gcd-ring", "ratfunc-ring",
        "zero-denominator", "divide-by-zero", "invert-zero"])
def test_poly_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


@pytest.mark.parametrize("left", [1.5, object(), [1]],
                         ids=["float", "object", "list"])
def test_ratfunc_refuses_a_left_dividend_it_cannot_coerce(left):
    r = RatFunc.var(3, 1)
    with pytest.raises(TypeError):
        left / r
    with pytest.raises(TypeError):
        r / left


def test_ratfunc_divides_rationals_on_the_left():
    r, u = RatFunc.var(3, 1), Poly.var(3, 1)
    assert 2 / r == RatFunc(Poly.const(3, 2), u)
    assert Fraction(1, 3) / r == RatFunc(Poly.const(3, Fraction(1, 3)), u)


@pytest.mark.parametrize("names", [["x", "y"], ["a"], ["a", "b", "c", "d"]])
def test_format_needs_one_name_per_ring_variable(names):
    u1, u2, u3 = (Poly.var(3, i) for i in (1, 2, 3))
    for value in (u1 * u3 + u2, RatFunc(Poly.one(3), u3), Poly.zero(3)):
        with pytest.raises(ValueError, match="one name per ring variable"):
            value.format(names)
    assert (u1 * u3 + u2).format(["x", "y", "z"]) == "x*z + y"
