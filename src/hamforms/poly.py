"""Exact multivariate polynomials and rational functions over the rationals.

A polynomial is an integer polynomial over one positive integer
denominator.  Each monomial is packed into one int of fixed-width
fields: the total degree in the most significant field, then the
exponents of u1 .. un.  Int order on the packed keys is therefore the
graded-lexicographic order, so the leading term is the largest key, and
the sum of two keys is the key of the product monomial.  A product whose
total degree would not fit in a field raises OverflowError.  The stored
form is canonical (the denominator shares no factor with every
coefficient), so equality is structural and printed and serialized
output is reproducible bit for bit.  A rational function keeps a
gcd-reduced numerator/denominator pair with the denominator scaled to be
integer-primitive with positive leading coefficient.

Variable indices are 1-based everywhere in the public interface.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PoleError

# Bits per packed field; the largest total degree a monomial may have.
_BITS = 16
MAX_DEGREE = (1 << _BITS) - 1


def as_fraction(x) -> Fraction:
    """Coerce int / str / Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("expected a rational value, got %r" % (x,))


def _pack(exps) -> int:
    if min(exps, default=0) < 0:
        raise ValueError("negative exponent")
    key = sum(exps)
    if key > MAX_DEGREE:
        raise OverflowError("total degree above %d" % MAX_DEGREE)
    for e in exps:
        key = key << _BITS | e
    return key


def unpack(key: int, num_vars: int) -> tuple:
    """The exponent vector of a packed monomial."""
    return tuple(key >> _BITS * (num_vars - i) & MAX_DEGREE
                 for i in range(1, num_vars + 1))


def _poly(num_vars: int, terms: dict, den: int = 1) -> "Poly":
    """The Poly terms/den from nonzero int terms and a positive den,
    brought to lowest terms by one gcd."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    out = Poly.__new__(Poly)
    out.num_vars, out.terms, out.den = num_vars, terms, den
    return out


class Poly:
    """Sparse polynomial in `num_vars` variables over Q.

    `terms` maps packed monomials to nonzero int coefficients and `den`
    is a positive int with gcd(den, coefficients) = 1; the polynomial is
    sum(c * u^unpack(k)) / den.  `items()` gives the terms as (exponent
    tuple, Fraction) pairs.
    """

    __slots__ = ("num_vars", "terms", "den")

    def __init__(self, num_vars: int, terms=None):
        fracs = {}
        for exps, c in (terms or {}).items():
            if len(exps) != num_vars:
                raise ValueError("exponent vector has wrong length")
            c = as_fraction(c)
            if c:
                fracs[_pack(exps)] = c
        # the lcm of reduced denominators shares no factor with all numerators
        den = math.lcm(*(c.denominator for c in fracs.values()))
        self.num_vars, self.den = num_vars, den
        self.terms = {k: c.numerator * (den // c.denominator)
                      for k, c in fracs.items()}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Poly":
        return _poly(num_vars, {})

    @classmethod
    def const(cls, num_vars: int, c) -> "Poly":
        c = as_fraction(c)
        return _poly(num_vars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def one(cls, num_vars: int) -> "Poly":
        return _poly(num_vars, {0: 1})

    @classmethod
    def var(cls, num_vars: int, i: int) -> "Poly":
        """The monomial u_i (1-based)."""
        if not 1 <= i <= num_vars:
            raise ValueError("variable index out of range")
        key = (1 << _BITS * num_vars) + (1 << _BITS * (num_vars - i))
        return _poly(num_vars, {key: 1})

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def const_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(0, 0), self.den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> _BITS * self.num_vars

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        s = _BITS * (self.num_vars - var)
        return max(k >> s & MAX_DEGREE for k in self.terms)

    def uses_var(self, var: int) -> bool:
        return self.degree_in(var) > 0

    def coeff_of(self, exps) -> Fraction:
        return Fraction(self.terms.get(_pack(exps), 0), self.den)

    def items(self):
        """The terms as (exponent tuple, Fraction) pairs."""
        nv, den = self.num_vars, self.den
        return ((unpack(k, nv), Fraction(c, den)) for k, c in self.terms.items())

    def leading(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.terms)
        return unpack(k, self.num_vars), Fraction(self.terms[k], self.den)

    def sorted_terms(self):
        nv, den = self.num_vars, self.den
        return [(unpack(k, nv), Fraction(self.terms[k], den))
                for k in sorted(self.terms, reverse=True)]

    # -- ring operations ------------------------------------------------

    def _check(self, other: "Poly"):
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials from different rings")

    def _plus(self, other, sign: int):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        terms = {k: c * fa for k, c in self.terms.items()} if fa != 1 else dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, 0) + c * fb
            if s:
                terms[k] = s
            else:
                del terms[k]
        return _poly(self.num_vars, terms, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.num_vars, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        nv = self.num_vars
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            if not n:
                return _poly(nv, {})
            return _poly(nv, {k: c * n for k, c in self.terms.items()}, self.den * d)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return _poly(nv, {})
        if (max(a) >> _BITS * nv) + (max(b) >> _BITS * nv) > MAX_DEGREE:
            raise OverflowError("product of total degree above %d" % MAX_DEGREE)
        terms: dict = {}
        get = terms.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        return _poly(nv, {k: c for k, c in terms.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.num_vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.num_vars, self.den, self.terms) == (other.num_vars, other.den, other.terms)

    def __hash__(self):
        # a constant hashes like the Fraction it equals
        if self.is_constant():
            return hash(self.const_value())
        return hash((self.num_vars, self.den, frozenset(self.terms.items())))

    # -- calculus and evaluation --------------------------------------

    def diff(self, var: int) -> "Poly":
        """Partial derivative in variable `var` (1-based)."""
        if not 1 <= var <= self.num_vars:
            raise ValueError("variable index out of range")
        s = _BITS * (self.num_vars - var)
        step = (1 << _BITS * self.num_vars) + (1 << s)
        terms = {}
        for k, c in self.terms.items():
            e = k >> s & MAX_DEGREE
            if e:
                terms[k - step] = c * e
        return _poly(self.num_vars, terms, self.den)

    def eval(self, point) -> Fraction:
        """Evaluate at a full point of rationals: `compose` at rationals."""
        return self.compose([as_fraction(x) for x in point])

    def compose(self, values):
        """Substitute values[i] for variable i+1; values are any ring elements.

        Whatever arithmetic the values support (Fraction, Poly, RatFunc)
        determines the result type.
        """
        if len(values) != self.num_vars:
            raise ValueError("substitution list has wrong length")
        total = None
        for e, c in self.sorted_terms():
            term = None
            for v, k in zip(values, e):
                if k:
                    p = v ** k
                    term = p if term is None else term * p
            term = c if term is None else term * c
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    # -- normal forms ---------------------------------------------------

    def content_unit(self):
        """Return (u, p) with self == u * p, u a positive rational times a
        sign, and p integer-primitive with positive leading coefficient."""
        if not self.terms:
            return Fraction(1), self
        g = math.gcd(*self.terms.values())
        if self.terms[max(self.terms)] < 0:
            g = -g
        prim = {k: c // g for k, c in self.terms.items()}
        return Fraction(g, self.den), _poly(self.num_vars, prim)

    def primitive(self) -> "Poly":
        return self.content_unit()[1]

    # -- presentation ----------------------------------------------------

    def format(self, names=None) -> str:
        if names is None:
            names = ["u%d" % (i + 1) for i in range(self.num_vars)]
        if len(names) != self.num_vars:
            raise ValueError("format needs one name per ring variable")
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for n, k in zip(names, e):
                if k == 1:
                    factors.append(n)
                elif k > 1:
                    factors.append("%s^%d" % (n, k))
            if not factors:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = "*".join(([str(mag)] if mag != 1 else []) + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "Poly(%d, %s)" % (self.num_vars, self.format())


# -- gcd machinery ------------------------------------------------------


def exact_div(f: Poly, d: Poly) -> Poly:
    """Exact quotient f/d; raises ValueError if d does not divide f."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if d.is_constant():
        return f * (Fraction(1) / d.const_value())
    # divide the integer numerators, scaling both remainder r and
    # quotient q where a leading coefficient would leave the integers;
    # the quotient of the numerators is q / s
    nv, dterms = f.num_vars, d.terms
    dk = max(dterms)
    dc, de = dterms[dk], unpack(dk, nv)
    r, q, s = dict(f.terms), {}, 1
    while r:
        rk = max(r)
        if any(a < b for a, b in zip(unpack(rk, nv), de)):
            raise ValueError("not an exact multiple")
        m = abs(dc) // math.gcd(r[rk], dc)
        if m != 1:
            r = {k: c * m for k, c in r.items()}
            q = {k: c * m for k, c in q.items()}
            s *= m
        qk = rk - dk
        q[qk] = t = r[rk] // dc
        for k2, c2 in dterms.items():
            k = qk + k2
            v = r.get(k, 0) - t * c2
            if v:
                r[k] = v
            else:
                del r[k]
    return _poly(nv, {k: c * d.den for k, c in q.items()}, s * f.den)


def divides(d: Poly, f: Poly) -> bool:
    try:
        exact_div(f, d)
        return True
    except ValueError:
        return False


def _coeffs_in_var(f: Poly, var: int):
    """Split f into {degree: coefficient Poly} with respect to one variable."""
    s, ds = _BITS * (f.num_vars - var), _BITS * f.num_vars
    out: dict = {}
    for k, c in f.terms.items():
        e = k >> s & MAX_DEGREE
        out.setdefault(e, {})[k - (e << s) - (e << ds)] = c
    return {e: _poly(f.num_vars, t, f.den) for e, t in out.items()}


def _prem(f: Poly, g: Poly, var: int) -> Poly:
    """Pseudo-remainder of f by g with respect to `var` (both nonzero)."""
    dg = g.degree_in(var)
    cg = _coeffs_in_var(g, var)
    lg = cg[dg]
    r = f
    while not r.is_zero():
        dr = r.degree_in(var)
        if dr < dg:
            break
        cr = _coeffs_in_var(r, var)
        lr = cr[dr]
        shift = Poly.var(f.num_vars, var) ** (dr - dg)
        r = lg * r - lr * shift * g
    return r


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """gcd over Q[x1..xn], integer-primitive with positive leading coefficient.

    Content/primitive-part recursion on the highest variable in use; within
    one variable a primitive pseudo-remainder sequence.
    """
    if f.num_vars != g.num_vars:
        raise ValueError("polynomials from different rings")
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    if f.is_constant() or g.is_constant():
        return Poly.one(f.num_vars)
    if f == g or f == -g:
        return f.primitive()
    var = max(
        v
        for v in range(1, f.num_vars + 1)
        if f.uses_var(v) or g.uses_var(v)
    )
    cf, pf = _cont_prim(f, var)
    cg, pg = _cont_prim(g, var)
    c = poly_gcd(cf, cg)
    if pf.is_constant() or pg.is_constant():
        return c
    if pf.degree_in(var) < pg.degree_in(var):
        pf, pg = pg, pf
    while not pg.is_zero():
        r = _prem(pf, pg, var)
        pf, pg = pg, r.primitive() if not r.is_zero() else r
        if not pg.is_zero() and pg.degree_in(var) == 0:
            # remainder free of `var`: primitive gcd in `var` is trivial
            pf = Poly.one(f.num_vars)
            break
    h = _cont_prim(pf, var)[1]
    return (c * h).primitive()


def _cont_prim(f: Poly, var: int):
    """Content (gcd of coefficients w.r.t. var) and primitive part."""
    coeffs = _coeffs_in_var(f, var)
    if len(coeffs) == 1 and 0 in coeffs:
        return f, Poly.one(f.num_vars)
    cont = Poly.zero(f.num_vars)
    for p in coeffs.values():
        cont = poly_gcd(cont, p)
        if cont.is_constant():
            cont = Poly.one(f.num_vars)
            break
    return cont, exact_div(f, cont)


# -- rational functions ---------------------------------------------------


class RatFunc:
    """Reduced fraction of two polynomials over Q.

    Stored form: gcd(num, den) constant, den integer-primitive with positive
    leading coefficient.  Zero is 0/1.  The constructor is the one no-gcd
    path for a constant denominator: it skips the gcd and scales num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.num_vars)
        if num.num_vars != den.num_vars:
            raise ValueError("numerator and denominator from different rings")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.num_vars)
        elif not den.is_constant():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = exact_div(num, g)
                den = exact_div(den, g)
        unit, den = den.content_unit()
        if unit != 1:
            num = num * (Fraction(1) / unit)
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------

    @classmethod
    def from_const(cls, num_vars: int, c) -> "RatFunc":
        return cls(Poly.const(num_vars, c))

    @classmethod
    def var(cls, num_vars: int, i: int) -> "RatFunc":
        return cls(Poly.var(num_vars, i))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p)

    # -- views -------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.num.num_vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (RatFunc, Poly, int, Fraction)):
            return lift(other, self.num_vars)
        return None

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self and o):
            # adding zero: no gcd, whichever the denominators
            return o if self.is_zero() else self
        if self.den.terms == o.den.terms:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero() or self.is_zero():
            return RatFunc.from_const(self.num_vars, 0)
        if self.is_constant() or o.is_constant():
            # scaling keeps the stored form reduced: no gcd
            c, f = (self, o) if self.is_constant() else (o, self)
            out = RatFunc.__new__(RatFunc)
            out.num = f.num * c.const_value()
            out.den = f.den
            return out
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverse of zero")
            return RatFunc(self.den ** (-k), self.num ** (-k))
        return RatFunc(self.num ** k, self.den ** k)

    def __eq__(self, other):
        if isinstance(other, (Poly, RatFunc)) and other.num_vars != self.num_vars:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # stored forms are canonical
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a polynomial hashes like its numerator, the Poly it equals
        if self.den.is_constant():
            return hash(self.num)
        return hash((self.num, self.den))

    # -- calculus and evaluation ----------------------------------------

    def diff(self, var: int) -> "RatFunc":
        n = self.num.diff(var) * self.den - self.num * self.den.diff(var)
        return RatFunc(n, self.den * self.den)

    def eval(self, point) -> Fraction:
        d = self.den.eval(point)
        if not d:
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.eval(point) / d

    def compose(self, values) -> "RatFunc":
        """Substitute ring elements for all variables."""
        n, d = self.num.compose(values), self.den.compose(values)
        if values:
            n, d = lift(n, values[0].num_vars), lift(d, values[0].num_vars)
        return n / d

    # -- presentation ----------------------------------------------------

    def format(self, names=None) -> str:
        if self.den == Poly.one(self.num_vars):
            return self.num.format(names)
        return "(%s)/(%s)" % (self.num.format(names), self.den.format(names))

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "RatFunc(%s)" % self.format()


def lift(x, num_vars: int) -> RatFunc:
    """Lift int/Fraction/Poly/RatFunc to a RatFunc in the given ring."""
    if isinstance(x, (Poly, RatFunc)):
        if x.num_vars != num_vars:
            raise ValueError("%s from a different ring" % type(x).__name__)
        return x if isinstance(x, RatFunc) else RatFunc(x)
    return RatFunc.from_const(num_vars, as_fraction(x))
