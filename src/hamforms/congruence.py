"""Line congruences attached to a pair, in Pluecker coordinates.

A pair's flux traces out an N-parameter family of lines through the
points (u, 1, 0) and (flux(u), 0, 1) of the (N+2)-dimensional coordinate
space.  The 2x2 minors of those two points are the line's Pluecker
coordinates.  The congruence matrix holds the pair's structure form,
one row per coordinate differential and one column per index pair, and
applied to the coordinates of the pair's own lines it vanishes: its N+2
rows are linear equations of the congruence.
"""

from __future__ import annotations

from itertools import combinations

from .bridge import StructureForm
from .errors import DimensionMismatch, PoleError
from .forms import one_form, wedge
from .linalg import Matrix, rank_and_left_nullvector
from .poly import Poly, RatFunc, lift
from .sampling import run_check


def pair_columns(dim: int) -> list:
    """Lexicographic list of the increasing index pairs from 1..dim."""
    return list(combinations(range(1, dim + 1), 2))


def _line_minors(p, q) -> dict:
    """Pluecker coordinates p^{ab} = p_a q_b - p_b q_a (a < b, 1-based) of
    the line through the points p and q, the wedge of their one-forms;
    keys in increasing order, zero minors left out."""
    return dict(sorted(wedge(one_form(p), one_form(q)).comps.items()))


def plucker_coords(pair, point=None) -> dict:
    """Pluecker coordinates of the line at u, keyed by increasing pairs.

    The minors of (u, 1, 0) and (n, 0, P), for the cleared flux V = n / P,
    divided once by P: RatFuncs of the fields with point=None, rationals
    at a point, where P must not vanish (PoleError).  So p^{kl} =
    u^k V^l - u^l V^k for field indices, p^{k,N+1} = -V^k,
    p^{k,N+2} = u^k and p^{N+1,N+2} = 1.
    """
    N, nvars = pair.N, pair.nvars
    nums, pf = pair.flux_cleared()
    uu = [Poly.var(nvars, i) for i in range(1, N + 1)]
    if point is not None:
        if len(point) != nvars:
            raise DimensionMismatch("point length does not match the ring")
        uu, nums, pf = ([q.eval(point) for q in uu],
                        [q.eval(point) for q in nums], pf.eval(point))
        if not pf:
            raise PoleError("metric pfaffian vanishes at the point")
    minors = _line_minors(uu + [1, 0], [*nums, 0, pf])
    return {k: RatFunc(c, pf) if point is None else c / pf
            for k, c in minors.items()}


def plucker_homogeneous(pair) -> dict:
    """Polynomial Pluecker coordinates from the pair's cleared flux.

    Works with the homogenizing variable N+1; extra ring variables past
    it are treated as parameters, so a pair living in a larger ring must
    keep slot N+1 free for the homogenizer (DimensionMismatch otherwise).
    The cached cleared flux, numerators adj(g) w over Pf(g), is
    homogenized in slot N+1 to degree N/2 (or its field degree, if
    higher), so the spanning points (u, u^{N+1}, 0) and (hom n, 0, hom Pf)
    make every coordinate a polynomial.
    """
    N = pair.N
    nvars = pair.nvars if pair.nvars > N else N + 1
    nums, pf = pair.flux_cleared()
    if any(e[N] for q in (*nums, pf) for e, _ in q.items() if len(e) > N):
        raise DimensionMismatch("ring variable u%d is the homogenizer, but "
                                "the pair's flux uses it" % (N + 1))
    degree = max([N // 2] + [sum(e[:N]) for q in (*nums, pf) for e, _ in q.items()])

    def hom(q):
        # each term times the power of u^{N+1} that lifts it to `degree`
        pad = (0,) * (nvars - q.num_vars)
        return Poly(nvars, {e[:N] + (degree - sum(e[:N]),) + (e + pad)[N + 1:]: c
                            for e, c in q.items()})

    pvec = [Poly.var(nvars, i) for i in range(1, N + 2)] + [Poly.zero(nvars)]
    qvec = [hom(q) for q in nums] + [Poly.zero(nvars), hom(pf)]
    return _line_minors(pvec, qvec)


def grassmann_check(p: dict, dim: int) -> dict:
    """Three-term quadric relations over all 4-subsets of indices.

    p^{ab}p^{cd} - p^{ac}p^{bd} + p^{ad}p^{bc} must vanish for the
    coordinates to describe an actual line; a missing coordinate is zero
    and its products are left out.
    """
    bad = {}
    for (a, b, c, d) in combinations(range(1, dim + 1), 4):
        terms = [p[x] * p[y] * sign for x, y, sign in (
            ((a, b), (c, d), 1), ((a, c), (b, d), -1), ((a, d), (b, c), 1))
            if x in p and y in p]
        r = sum(terms[1:], terms[0]) if terms else 0
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


def _rows_on(rows, p: dict) -> dict:
    """The congruence matrix rows applied to the line coordinates p; the
    nonzero results, keyed by the 1-based row."""
    keys = pair_columns(len(rows))
    if not p.keys() <= set(keys):
        raise ValueError("coordinate keys must be increasing index pairs")
    cols = [(c, p[jk]) for c, jk in enumerate(keys) if jk in p]
    out = {}
    for i, row in enumerate(rows, 1):
        terms = [row[c] * v for c, v in cols if row[c] and v]
        if terms and (total := sum(terms[1:], terms[0])):
            out[i] = total
    return out


def annihilation_check(sf: StructureForm, p: dict) -> dict:
    """The congruence matrix of sf applied to Pluecker coordinates p.

    For the coordinates of the pair encoded by the same form every row
    vanishes identically.
    """
    bad = _rows_on(congruence_matrix(sf).rows, p)
    return {"residuals": bad, "ok": not bad}


def congruence_checks(m: Matrix, p: dict, mode: str, samples: int,
                      seed: int) -> dict:
    """Annihilation and quadric checks of the polynomial line coordinates
    p against the congruence matrix m, proved symbolically or sampled.

    Sampled mode evaluates the coordinates, and any polynomial entry of
    m, through `sampling.run_check` at residue points where p^{N+1,N+2}
    does not vanish, with the residual degree bound
    d = max deg p^{ab} + max(max deg p^{ab}, max degree of the entries)."""
    dim = m.nrows

    def bound():
        deg_p = max(c.total_degree() for c in p.values())
        deg_w = max((v.total_degree() for row in m.rows for v in row
                     if isinstance(v, Poly)), default=0)
        return p[(dim - 1, dim)], deg_p + max(deg_p, deg_w)

    def residuals(conv):
        q = {k: conv(c) for k, c in p.items()}
        rows = [[conv(v) for v in row] for row in m.rows]
        return _rows_on(rows, q), grassmann_check(q, dim)["residuals"]

    (ann, quad), keys = run_check(mode, residuals, bound, samples, seed)
    return {"mode": mode, **keys, "annihilation": ann, "quadrics": quad}


def congruence_rank(sf: StructureForm) -> dict:
    """Rank of the congruence matrix plus one dependency certificate.

    The certificate c satisfies sum_i c_i row_i = 0 and is returned
    unnormalized; it is None when the rows are independent.  "matrix"
    is the congruence matrix itself.
    """
    matrix = m = congruence_matrix(sf)
    if any(isinstance(v, Poly) for row in m.rows for v in row):
        nv = next(v.num_vars for row in m.rows for v in row
                  if isinstance(v, Poly))
        m = Matrix([[lift(v, nv) for v in row] for row in m.rows])
    rank, cert = rank_and_left_nullvector(m)
    return {
        "matrix": matrix,
        "rank": rank,
        "rows": m.nrows,
        "dependent": cert is not None,
        "certificate": cert,
    }
