"""Projective and reciprocal actions on pairs.

Projective and reciprocal maps are realized the same way: the pair's
structure form is pulled back along the inverse of a block matrix acting
on the (N+2)-dimensional coordinate space, and the result is re-read as
a pair.  Field-variable projective maps use a block fixing the last
coordinate; changes of the independent variables mix the last two
coordinates with the fields.  The pullback route keeps every output in
the constant-tensor shape automatically, so form invariance holds by
construction and the interesting verification is the conformal law for
the metric, read from the map's rows applied to (u, 1), `affine_rows`.
The x-t exchange, the reciprocal map swapping the last two coordinates,
is done as the cheaper equivalent swap of the pair's blocks; the tests
check it against that pullback.
"""

from __future__ import annotations

from fractions import Fraction

from .bridge import StructureForm, form_from_pair, pair_from_form
from .errors import (DegenerateImage, DegenerateMetric, DimensionMismatch,
                     ValidationError)
from .forms import pullback_linear
from .linalg import Matrix
from .pairs import HamPair
from .poly import Poly, RatFunc


class ProjectiveMap:
    """Fractional-linear change of the field variables.

    The matrix has side N+1; the image of u is
    (a[i,l] u^l + a[i,N+1]) / A(u) with A(u) the last row applied to
    (u, 1).  The matrix must be invertible.
    """

    __slots__ = ("N", "a", "a_inv")

    def __init__(self, a: Matrix):
        if a.nrows != a.ncols or a.nrows < 2:
            raise DimensionMismatch("projective matrix must be square, side N+1")
        self.N = a.nrows - 1
        self.a = a
        self.a_inv = a.inv()  # raises SingularMatrix when not invertible

    @classmethod
    def identity(cls, N: int) -> "ProjectiveMap":
        return cls(Matrix.identity(N + 1))

    def affine_rows(self, nvars: int) -> tuple:
        """All N+1 rows applied to (u, 1): a[i,l] u^l + a[i,N+1] as Polys
        in a ring of size nvars, the last one A(u)."""
        u = [Poly.var(nvars, l) for l in range(1, self.N + 1)]
        return self.a.apply(u + [Poly.one(nvars)])

    def denominator(self, nvars: int) -> RatFunc:
        """A(u), the last row applied to (u, 1), in a ring of size nvars."""
        return RatFunc(self.affine_rows(nvars)[-1])

    def components(self, nvars: int) -> list:
        """The N image components as rational functions of the fields."""
        *nums, den = map(RatFunc, self.affine_rows(nvars))
        return [v / den for v in nums]

    def __repr__(self):
        return "ProjectiveMap(%r)" % (self.a,)


class ReciprocalMap:
    """Constant-coefficient change of the independent variables.

    dx~ = (ax_i u^i + ax0) dx + (ax_i V^i + bt) dt
    dt~ = (bx_i u^i + cx) dx + (bx_i V^i + dt0) dt

    with all coefficients rational constants.  The constant part
    [[ax0, bt], [cx, dt0]] must be invertible, which also makes the
    block action on the coordinate space invertible.
    """

    __slots__ = ("N", "ax", "ax0", "bt", "bx", "cx", "dt0")

    def __init__(self, N: int, ax, ax0, bt, bx, cx, dt0):
        if len(ax) != N or len(bx) != N:
            raise DimensionMismatch("coefficient vectors must have length N")
        self.N = N
        self.ax = tuple(Fraction(v) for v in ax)
        self.ax0 = Fraction(ax0)
        self.bt = Fraction(bt)
        self.bx = tuple(Fraction(v) for v in bx)
        self.cx = Fraction(cx)
        self.dt0 = Fraction(dt0)
        if self.ax0 * self.dt0 - self.bt * self.cx == 0:
            raise ValidationError("constant part of the reciprocal map is singular")

    @classmethod
    def identity(cls, N: int) -> "ReciprocalMap":
        zero = [Fraction(0)] * N
        return cls(N, zero, 1, 0, zero, 0, 1)

    @classmethod
    def exchange(cls, N: int) -> "ReciprocalMap":
        """dx~ = dt, dt~ = dx: the pure exchange of x and t."""
        zero = [Fraction(0)] * N
        return cls(N, zero, 0, 1, zero, 1, 0)

    def block_matrix(self) -> Matrix:
        """Action on the coordinate space: fields fixed, last two mixed."""
        fields = Matrix.identity(self.N + 2).rows[:self.N]
        return Matrix(fields + ((*self.ax, self.ax0, self.bt),
                                (*self.bx, self.cx, self.dt0)))

    def __repr__(self):
        return ("ReciprocalMap(N=%d, ax=%r, ax0=%s, bt=%s, bx=%r, cx=%s, dt0=%s)"
                % (self.N, self.ax, self.ax0, self.bt, self.bx, self.cx, self.dt0))


def _image(pair: HamPair, m: Matrix) -> HamPair:
    """The pair whose structure form is the pullback of pair's along m."""
    sf = StructureForm(pair.N, pullback_linear(form_from_pair(pair).form, m))
    try:
        return pair_from_form(sf, nvars=pair.nvars)
    except DegenerateMetric as exc:
        raise DegenerateImage("transformed metric is degenerate") from exc


def apply_projective(pair: HamPair, phi: ProjectiveMap):
    """Transform a pair by a projective change of the field variables.

    Returns (new pair, report).  The report carries the denominator
    A(u) and the outcome of the symbolic conformal check: the pullback
    of the transformed metric two-form through the point map equals
    A(u)^-3 times the original metric two-form.  The affine shape of
    the covector block is preserved by construction on the pullback
    route; it is a structural fact, not a check, and is not reported.
    """
    if phi.N != pair.N:
        raise DimensionMismatch("projective map has side %d; a pair on %d "
                                "fields needs side %d" % (phi.N + 1, pair.N, pair.N + 1))
    block = Matrix.block_diag(phi.a_inv, Matrix([[Fraction(1)]]))
    new_pair = _image(pair, block)
    report = {
        "denominator": phi.denominator(pair.nvars),
        "conformal_ok": conformal_check(pair, new_pair, phi),
    }
    return new_pair, report


def conformal_check(pair: HamPair, new_pair: HamPair, phi: ProjectiveMap) -> bool:
    """Exact two-form comparison of the metric conformal law.

    Pulls the transformed metric back through the point map and compares
    it against the original metric scaled by the inverse cube of the
    denominator A.  Denominators are cleared up front: the Jacobian of a
    fractional-linear map is M / A^2, where M has the polynomial entries
    M[i,k] = A a[i,k] - (row i applied to (u, 1)) a[N+1,k], so the law
    reads: the pullback through M of A times the substituted transformed
    metric is A^2 times the original metric, a polynomial identity that
    needs no rational-function reduction.
    """
    n, nv = pair.N, pair.nvars
    *nums, den = phi.affine_rows(nv)

    def substituted(f):
        # A * (f composed with the point map); metric entries are affine
        # in the fields, so each term keeps at most one field factor
        out = Poly.zero(nv)
        for exps, c in f.items():
            rest = Poly(nv, {(0,) * n + exps[n:]: c})
            field = exps[:n]
            out = out + rest * (nums[field.index(1)] if any(field) else den)
        return out

    a = phi.a
    m = Matrix([[den * a[i, k] - nums[i] * a[n, k] for k in range(n)]
                for i in range(n)])
    lhs = pullback_linear(new_pair.metric.map_coeffs(substituted), m)
    return lhs == pair.metric.map_coeffs(lambda g: den * den * g)


def apply_xt_exchange(pair: HamPair) -> HamPair:
    """Swap the roles of the two independent variables.

    The cubic block survives unchanged, the constant metric block and
    the rotational block of the covector trade places, and the constant
    shift flips sign.  For two-field pairs the result is additionally
    checked against the substitution identity: the rebuilt metric,
    evaluated along the flux, must match the original metric times the
    flux Jacobian.
    """
    try:
        new_pair = HamPair(pair.mcubic, pair.wskew, pair.mconst,
                           tuple(-b for b in pair.wconst), nvars=pair.nvars)
    except DegenerateMetric as exc:
        raise DegenerateImage("exchanged metric is degenerate") from exc
    if pair.N == 2:
        if not _exchange_metric_identity(pair, new_pair):
            raise ValidationError("exchange identity failed; pair data inconsistent")
    return new_pair


def _exchange_metric_identity(pair: HamPair, new_pair: HamPair) -> bool:
    # gbar_{ij} evaluated at ubar = V equals g_{is} dV^s/du^j.  At N = 2
    # both metrics and P = Pf(g) are free of the fields, so with V = n / P
    # this is gbar_{ij} P = g_{is} dn^s/du^j
    n, g = pair.N, pair.metric.to_matrix()
    nums, P = pair.flux_cleared()
    for j in range(1, n + 1):
        g_dn = g.apply([v.diff(j) for v in nums])
        for i in range(1, n + 1):
            if i != j and new_pair.metric.get(i, j) * P != g_dn[i - 1]:
                return False
    return True


def apply_reciprocal(pair: HamPair, r: ReciprocalMap) -> HamPair:
    """Transform a pair by a reciprocal change of the independent variables.

    The block matrix mixes the last two coordinates with the fields; the
    structure form is pulled back along its inverse and re-read as a
    pair.  A degenerate metric or a vanishing leading block in the
    result raises DegenerateImage.
    """
    if r.N != pair.N:
        raise DimensionMismatch("reciprocal map acts on %d fields; the pair "
                                "has %d" % (r.N, pair.N))
    # the block is the identity on the fields, so its determinant is
    # ax0 dt0 - bt cx, which ReciprocalMap already checks is nonzero
    return _image(pair, r.block_matrix().inv())
