"""Alternating forms with exact coefficients.

A form of degree k >= 1 on a dim-dimensional space stores one
coefficient per strictly increasing index tuple (1-based).  Coefficients
are Fraction, Poly or RatFunc; an accessor with indices in arbitrary
order applies the permutation sign.  Stored data has degree 1..3;
wedges of it reach any degree, and a degree above dim gives the zero
form.  `skew.SkewMatrix` is the degree-2 `AltForm` read as an
antisymmetric matrix; sums, negatives, multiples and `map_coeffs` of a
SkewMatrix are again SkewMatrix.  A three-form contracted with a
bivector is `congruence.congruence_matrix` applied to the bivector's
coordinates.  `wedge` is the one exterior product: linear pullbacks and
the Pluecker coordinates of a line are sums of wedges of one-forms
(`one_form`).
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch
from .linalg import Matrix
from .poly import Poly, RatFunc


def perm_sign(seq) -> int:
    """Sign of the permutation sorting seq; 0 when an index repeats."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _scalar_ok(c) -> bool:
    return isinstance(c, (int, Fraction, Poly, RatFunc))


class AltForm:
    """Exterior form of any degree >= 1, stored sparsely by increasing
    index tuples."""

    __slots__ = ("degree", "dim", "comps")

    def __init__(self, degree: int, dim: int, comps=None):
        if degree < 1:
            raise ValueError("degree must be positive")
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.degree = degree
        self.dim = dim
        clean = {}
        if comps:
            for idx, c in comps.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError("index tuple has wrong length")
                if any(not 1 <= i <= dim for i in idx):
                    raise ValueError("index out of range")
                s = perm_sign(idx)
                if s == 0:
                    continue
                key = tuple(sorted(idx))
                if not _scalar_ok(c):
                    raise TypeError("unsupported coefficient type %r" % type(c))
                if isinstance(c, int):
                    c = Fraction(c)
                if s < 0:
                    c = -c
                prev = clean.get(key)
                clean[key] = c if prev is None else prev + c
        self.comps = {k: v for k, v in clean.items() if v}

    def get(self, *idx):
        """Component for an arbitrary-order index tuple, with sign."""
        if len(idx) != self.degree:
            raise ValueError("wrong number of indices")
        s = perm_sign(idx)
        if s == 0:
            return Fraction(0)
        c = self.comps.get(tuple(sorted(idx)))
        if c is None:
            return Fraction(0)
        return -c if s < 0 else c

    def is_zero(self) -> bool:
        return not self.comps

    def sorted_items(self):
        return sorted(self.comps.items())

    def _like(self, comps: dict) -> "AltForm":
        """A form of this type, degree and dimension with cleaned comps."""
        out = type(self).__new__(type(self))
        out.degree, out.dim, out.comps = self.degree, self.dim, comps
        return out

    def _check_same(self, other: "AltForm"):
        if self.degree != other.degree or self.dim != other.dim:
            raise DimensionMismatch("forms of different degree or dimension")

    def __add__(self, other):
        if not isinstance(other, AltForm):
            return NotImplemented
        self._check_same(other)
        comps = dict(self.comps)
        for k, c in other.comps.items():
            s = comps.get(k)
            s = c if s is None else s + c
            if s:
                comps[k] = s
            else:
                comps.pop(k, None)
        return self._like(comps)

    def __neg__(self):
        return self._like({k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        if not isinstance(other, AltForm):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "AltForm":
        if isinstance(c, int):
            c = Fraction(c)
        return self._like({k: v * c for k, v in self.comps.items()} if c else {})

    def __eq__(self, other):
        if not isinstance(other, AltForm):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.dim == other.dim
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.degree, self.dim, frozenset(self.comps)))

    def map_coeffs(self, fn) -> "AltForm":
        comps = {}
        for k, c in self.comps.items():
            v = fn(c)
            if v:
                comps[k] = v
        return self._like(comps)

    def format(self) -> str:
        if not self.comps:
            return "0"
        return " + ".join("(%s) %s" % (c, "^".join("du%d" % i for i in idx))
                          for idx, c in self.sorted_items())

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "AltForm(%d, %d, %s)" % (self.degree, self.dim, self.format())


def wedge(a: AltForm, b: AltForm) -> AltForm:
    """Exterior product, of degree a.degree + b.degree; the zero form
    when that exceeds the dimension."""
    if a.dim != b.dim:
        raise DimensionMismatch("wedge of forms on different spaces")
    k = a.degree + b.degree
    comps: dict = {}
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            s = perm_sign(ia + ib)
            if s == 0:
                continue
            key = tuple(sorted(ia + ib))
            c = ca * cb
            if s < 0:
                c = -c
            prev = comps.get(key)
            c = c if prev is None else prev + c
            if c:
                comps[key] = c
            else:
                comps.pop(key, None)
    out = AltForm.__new__(AltForm)
    out.degree, out.dim, out.comps = k, a.dim, comps
    return out


def one_form(coeffs) -> AltForm:
    """The one-form sum_i coeffs[i-1] du_i, zero terms left out."""
    return AltForm(1, len(coeffs), {(i,): c for i, c in enumerate(coeffs, 1)})


def pullback_linear(phi: AltForm, m: Matrix) -> AltForm:
    """Pullback of phi along the linear map with matrix m.

    m has phi.dim rows (output space) and at least one column (input
    space).  Pullback respects `wedge`: du_a pulls back to the one-form
    of row a, and component phi_A adds phi_A times the wedge of the rows
    indexed by A, a sum of minors of m.  A degree above the column count
    gives the zero form.
    """
    if m.nrows != phi.dim:
        raise DimensionMismatch("matrix output dimension must match the form")
    if not m.ncols:
        raise DimensionMismatch("matrix has no columns")
    rows = [one_form(r) for r in m.rows]
    # phi is the sum over heads H of du_H ^ (sum_a phi_{H,a} du_a), so
    # the components sharing all but their last index share one wedge
    tails: dict = {}
    for src, c in phi.comps.items():
        t = rows[src[-1] - 1].scale(c)
        head = src[:-1]
        tails[head] = tails[head] + t if head in tails else t
    out = AltForm(phi.degree, m.ncols)
    for head, term in tails.items():
        for a in reversed(head):
            term = wedge(rows[a - 1], term)
        out = out + term
    return out
