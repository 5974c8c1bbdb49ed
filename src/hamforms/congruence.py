"""Line congruences attached to a pair, in Pluecker coordinates.

A pair's flux traces out an N-parameter family of lines through the
points (u, 1, 0) and (flux(u), 0, 1) of the (N+2)-dimensional coordinate
space.  The 2x2 minors of those two points are the line's Pluecker
coordinates; contracting them against the pair's structure form gives
zero, and the coefficients of that contraction are the congruence
matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .bridge import StructureForm, form_from_pair
from .errors import DimensionMismatch, PoleError
from .forms import contract_bivector
from .linalg import Matrix, rank_and_left_nullvector
from .pairs import linear_skew, rhs_covector
from .poly import Poly, RatFunc, exact_div, divides, lift
from .skew import SkewMatrix, pfaffian, pfaffian_adjugate


def pair_columns(dim: int) -> list:
    """Lexicographic list of the increasing index pairs from 1..dim."""
    return list(combinations(range(1, dim + 1), 2))


def _line_minors(p, q) -> dict:
    """Pluecker coordinates p^{ab} = p_a q_b - p_b q_a (a < b, 1-based)
    of the line through the points p and q; zero minors are left out."""
    out = {}
    for a, b in combinations(range(len(p)), 2):
        c = p[a] * q[b] - p[b] * q[a]
        if c:
            out[(a + 1, b + 1)] = c
    return out


def plucker_coords(pair, point=None) -> dict:
    """Pluecker coordinates of the line at u, keyed by increasing pairs.

    With point=None the coordinates are rational functions of the
    fields, built from the reduced flux; with a point they are rationals,
    evaluated from the cleared flux, and the metric pfaffian must not
    vanish there (PoleError).  The line runs through (u, 1, 0) and
    (V, 0, 1), so p^{kl} = u^k V^l - u^l V^k for field indices,
    p^{k,N+1} = -V^k, p^{k,N+2} = u^k and p^{N+1,N+2} = 1.
    """
    N, nvars = pair.N, pair.nvars
    if point is None:
        uu = [RatFunc.var(nvars, i) for i in range(1, N + 1)]
        vv = list(pair.flux)
        one, zero = RatFunc.from_const(nvars, 1), RatFunc.from_const(nvars, 0)
    else:
        if len(point) != nvars:
            raise DimensionMismatch("point length does not match the ring")
        nums, pf = pair.flux_cleared()
        d = pf.eval(point)
        if not d:
            raise PoleError("metric pfaffian vanishes at the point")
        uu = [Fraction(point[i]) if isinstance(point[i], int) else point[i] for i in range(N)]
        vv = [n.eval(point) / d for n in nums]
        one, zero = Fraction(1), Fraction(0)
    return _line_minors(uu + [one, zero], vv + [zero, one])


def plucker_homogeneous(pair, reduce_common: bool = False) -> dict:
    """Polynomial Pluecker coordinates from the homogenized spans.

    Works with the homogenizing variable N+1; extra ring variables past
    it are treated as parameters, so a pair living in a larger ring must
    keep slot N+1 free for the homogenizer.  The metric m and the
    covector w are read from the two halves of the pair's structure
    form, linear in u^1..u^{N+1}.  The two spanning points become
    (u, u^{N+1}, 0) and (adj(m) w, 0, pf(m)), making every coordinate a
    polynomial.  With reduce_common=True each coordinate is divided by
    the homogenizing variable, which must divide exactly (it does for
    N=4).
    """
    N = pair.N
    nvars = pair.nvars if pair.nvars > N else N + 1
    sf = form_from_pair(pair)
    gh = linear_skew(sf.metric_block(), nvars)
    # drop row/column N+1: the metric block of the pair itself
    gblock = SkewMatrix(
        N, {(i, j): v for (i, j), v in gh.upper.items() if j <= N}
    )
    pf = pfaffian(gblock)
    adj = pfaffian_adjugate(gblock)
    w = rhs_covector(SkewMatrix.from_form(sf.w_block()), [0] * (N + 1), nvars)
    second = [
        sum((adj.get(i, s) * w[s - 1] for s in range(1, N + 1)), Poly.zero(nvars))
        for i in range(1, N + 1)
    ]
    pvec = [Poly.var(nvars, i) for i in range(1, N + 2)] + [Poly.zero(nvars)]
    qvec = second + [Poly.zero(nvars), pf]
    out = _line_minors(pvec, qvec)
    if reduce_common:
        h = Poly.var(nvars, N + 1)
        reduced = {}
        for key, c in out.items():
            if not divides(h, c):
                raise ValueError("coordinate %r lacks the common factor" % (key,))
            reduced[key] = exact_div(c, h)
        out = reduced
    return out


def grassmann_check(p: dict, dim: int) -> dict:
    """Three-term quadric relations over all 4-subsets of indices.

    p^{ab}p^{cd} - p^{ac}p^{bd} + p^{ad}p^{bc} must vanish for the
    coordinates to describe an actual line.
    """

    def get(a, b):
        v = p.get((a, b))
        return v if v is not None else Fraction(0)

    bad = {}
    for (a, b, c, d) in combinations(range(1, dim + 1), 4):
        r = get(a, b) * get(c, d) - get(a, c) * get(b, d) + get(a, d) * get(b, c)
        if r:
            bad[(a, b, c, d)] = r
    return {"residuals": bad, "ok": not bad}


def congruence_matrix(sf: StructureForm) -> Matrix:
    """Rows indexed by the coordinate differentials, columns by the
    increasing index pairs: entry (i, (j, k)) is the form's (i, j, k)
    component with its permutation sign."""
    dim = sf.N + 2
    cols = pair_columns(dim)
    return Matrix(
        [[sf.get(i, j, k) for (j, k) in cols] for i in range(1, dim + 1)]
    )


def annihilation_check(sf: StructureForm, p: dict) -> dict:
    """Contract the structure form against Pluecker coordinates.

    For the coordinates of the pair encoded by the same form the result
    is identically zero; each component of the contraction is one row of
    the congruence system evaluated on the line.
    """
    res = contract_bivector(sf.form, p)
    bad = {i + 1: r for i, r in enumerate(res) if r}
    return {"residuals": bad, "ok": not bad}


def _lead_sign(v) -> int:
    if isinstance(v, (int, Fraction)):
        return (v > 0) - (v < 0)
    if isinstance(v, RatFunc):
        v = v.num
    if v.is_zero():
        return 0
    return 1 if v.leading()[1] > 0 else -1


def sign_normalize_rows(m: Matrix) -> Matrix:
    """Scale each row by -1 when its first nonzero entry is negative."""
    rows = []
    for row in m.rows:
        s = 0
        for v in row:
            s = _lead_sign(v)
            if s:
                break
        rows.append([-v for v in row] if s < 0 else list(row))
    return Matrix(rows)


def congruence_rank(sf: StructureForm) -> dict:
    """Rank of the congruence matrix plus one dependency certificate.

    The certificate c satisfies sum_i c_i row_i = 0 and is returned
    unnormalized; it is None when the rows are independent.
    """
    m = congruence_matrix(sf)
    if any(isinstance(v, Poly) for row in m.rows for v in row):
        nv = next(v.num_vars for row in m.rows for v in row
                  if isinstance(v, Poly))
        m = Matrix([[lift(v, nv) for v in row] for row in m.rows])
    rank, cert = rank_and_left_nullvector(m)
    return {
        "rank": rank,
        "rows": m.nrows,
        "dependent": cert is not None,
        "certificate": cert,
    }
