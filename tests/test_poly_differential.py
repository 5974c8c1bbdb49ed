"""The polynomial kernel against SymPy, plus ring-axiom properties.

Hypothesis draws sparse polynomials with rational coefficients in 1 to
21 variables; a few terms each, at most three variables per term.  Half
of the draws use exponents so large that a product nearly fills the
packed degree field, so the carry-free key addition runs near its
limit.  Every result is compared with SymPy's sparse polynomial rings
over QQ in graded-lex order (the dense sympy.Poly slows down on large
exponents) and must be in the stored canonical form.
"""

import math
from fractions import Fraction
from functools import cache

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.orderings import grlex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from hamforms import Poly, RatFunc
from hamforms.poly import MAX_DEGREE, divides, exact_div, poly_gcd

RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def polys(draw, nv, exp_max, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = [0] * nv
        for i in draw(st.lists(st.integers(0, nv - 1), max_size=3)):
            e[i] += draw(st.integers(1, exp_max))
        terms[tuple(e)] = draw(RATIONALS)
    return Poly(nv, terms)


@st.composite
def rings(draw, count, max_terms=5, exp_max=(3, MAX_DEGREE // 6)):
    """count polynomials in one ring with nv variables, and nv."""
    nv = draw(st.integers(1, 21))
    # three variables of at most exp_max each: a product of two stays
    # within MAX_DEGREE
    exp_max = draw(st.sampled_from(exp_max))
    return nv, [draw(polys(nv, exp_max, max_terms)) for _ in range(count)]


@cache
def _ring(nv):
    return ring(["u%d" % i for i in range(1, nv + 1)], QQ, grlex)[0]


def _sym(p):
    return _ring(p.num_vars).from_dict(
        {e: QQ(c.numerator, c.denominator) for e, c in p.items()})


def _frac(c):
    return Fraction(int(c.numerator), int(c.denominator))


def _ours(s, nv):
    return Poly(nv, {e: _frac(c) for e, c in s.items()})


def _canonical(p):
    assert p.den > 0 and all(p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1
    return p


@settings(max_examples=80, deadline=None)
@given(data=rings(2))
def test_ring_operations_match_sympy(data):
    nv, (p, q) = data
    a, b = _sym(p), _sym(q)
    assert _canonical(p * q) == _ours(a * b, nv)
    assert _canonical(p + q) == _ours(a + b, nv)
    assert _canonical(p - q) == _ours(a - b, nv)
    assert _canonical(-p) == _ours(-a, nv)
    assert _canonical(p * Fraction(-4, 3)) == _ours(a * QQ(-4, 3), nv)
    for var in {1, nv, (nv + 1) // 2}:
        assert _canonical(p.diff(var)) == _ours(a.diff(a.ring.gens[var - 1]), nv)


@settings(max_examples=80, deadline=None)
@given(data=rings(1))
def test_leading_term_format_and_round_trip(data):
    nv, (p,) = data
    assert Poly(nv, dict(p.items())) == p
    assert hash(Poly(nv, dict(p.items()))) == hash(p)
    s = _sym(p)
    if p.is_zero():
        assert p.format() == "0" and p.total_degree() == -1
        return
    want = [(m, _frac(c)) for m, c in s.terms()]
    assert p.sorted_terms() == want
    assert p.leading() == want[0]
    assert p.total_degree() == sum(want[0][0])
    gens = s.ring.symbols
    parsed = sympy.sympify(p.format().replace("^", "**"),
                           locals={str(g): g for g in gens})
    assert sympy.expand(parsed - s.as_expr()) == 0


@settings(max_examples=60, deadline=None)
@given(data=rings(3, max_terms=3))
def test_exact_division_matches_sympy(data):
    nv, (p, q, r) = data
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            exact_div(p, q)
        return
    assert _canonical(exact_div(p * q, q)) == p
    a, b = _sym(p + r), _sym(q)
    try:
        want = _ours(a.exquo(b), nv)
    except ExactQuotientFailed:
        assert not divides(q, p + r)
    else:
        assert _canonical(exact_div(p + r, q)) == want


# small exponents: at degrees in the thousands both gcds can take
# minutes, and the pseudo-remainders can pass MAX_DEGREE
@settings(max_examples=40, deadline=None)
@given(data=rings(3, max_terms=3, exp_max=(3,)))
def test_gcd_matches_sympy(data):
    nv, (p, q, c) = data
    f, g = p * c, q * c
    got = _canonical(poly_gcd(f, g))
    want = _sym(f).gcd(_sym(g))
    if not want:
        assert got.is_zero()
        return
    assert got.den == 1 and got.leading()[1] > 0
    assert _sym(got).monic() == want.monic()


@settings(max_examples=60, deadline=None)
@given(data=rings(3, max_terms=3))
def test_ring_axioms(data):
    nv, (p, q, r) = data
    assert p * q == q * p and p + q == q + p
    assert p + (q + r) == (p + q) + r
    assert p - p == Poly.zero(nv) and p + Poly.zero(nv) == p
    assert p * Poly.one(nv) == p and (p * Poly.zero(nv)).is_zero()
    if p.total_degree() + q.total_degree() + r.total_degree() <= MAX_DEGREE:
        assert p * (q * r) == (p * q) * r
    assert p * (q + r) == p * q + p * r


def _expr(x):
    """A SymPy expression for a Poly or a rational."""
    if isinstance(x, Poly):
        return _sym(x).as_expr()
    return sympy.Rational(x.numerator, x.denominator)


# evaluation and substitution against SymPy's own substitution, an
# oracle independent of both; small exponents keep the expansions small
@settings(max_examples=60, deadline=None)
@given(data=rings(1, max_terms=4, exp_max=(3,)), draw=st.data())
def test_eval_and_compose_match_sympy_substitution(data, draw):
    nv, (p,) = data
    gens, expr = _ring(nv).symbols, _expr(p)
    point = draw.draw(st.lists(RATIONALS, min_size=nv, max_size=nv))
    want = expr.subs(dict(zip(gens, map(_expr, point))), simultaneous=True)
    assert p.eval(point) == _frac(want)
    mv = draw.draw(st.integers(1, 3))
    values = [draw.draw(polys(mv, 2, max_terms=2)) for _ in range(nv)]
    want = expr.subs(dict(zip(gens, map(_expr, values))), simultaneous=True)
    assert sympy.expand(_expr(p.compose(values)) - want) == 0


@settings(max_examples=60, deadline=None)
@given(data=rings(2, max_terms=3, exp_max=(3,)), c=RATIONALS)
def test_equal_values_hash_equal_across_types(data, c):
    nv, (p, q) = data
    constants = [c, Poly.const(nv, c), RatFunc.from_const(nv, c)]
    if c.denominator == 1:
        constants.append(int(c))
    polynomials = [p, RatFunc(p), RatFunc(p * q, q) if q else RatFunc(p)]
    for group in (constants, polynomials):
        for a in group:
            for b in group:
                assert a == b and hash(a) == hash(b)
    assert {c: "x"}.get(Poly.const(nv, c)) == "x"


@pytest.mark.parametrize("nv", [1, 2, 21])
def test_overflow_guard_at_the_field_limit(nv):
    top = [0] * nv
    top[0] += MAX_DEGREE - MAX_DEGREE // 2
    top[-1] += MAX_DEGREE // 2
    m = Poly(nv, {tuple(top): Fraction(3, 2)})
    assert m.leading() == (tuple(top), Fraction(3, 2))
    assert m.total_degree() == MAX_DEGREE
    assert _ours(_sym(m).diff(_ring(nv).gens[0]), nv) == m.diff(1)
    half = Poly.var(nv, nv) ** (MAX_DEGREE // 2)
    assert half * Poly.var(nv, 1) ** (MAX_DEGREE - MAX_DEGREE // 2) \
        == Poly(nv, {tuple(top): 1})
    with pytest.raises(OverflowError):
        m * Poly.var(nv, nv)
    with pytest.raises(OverflowError):
        Poly.var(nv, 1) ** (MAX_DEGREE + 1)
    over = list(top)
    over[-1] += 1
    with pytest.raises(OverflowError):
        Poly(nv, {tuple(over): 1})
    with pytest.raises(ValueError):
        Poly(nv, {(-1,) + (0,) * (nv - 1): 1})
