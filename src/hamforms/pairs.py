"""Metric-flux pairs with affine-linear antisymmetric metrics.

A pair in N fields (N even) is determined by four constant pieces of
data: a three-form `mcubic` and a skew matrix `mconst` building the
metric

    metric_ij = sum_k mcubic_ijk u^k + mconst_ij,

plus a skew matrix `wskew` and a covector `wconst` building the affine
covector w_j = sum_l wskew_jl u^l + wconst_j.  The flux of the
associated first-order system solves  metric . flux = w.

The two metric blocks are checked against each other and the ring, and
their entries coerced, once (`_checked_blocks`).  `build_metric` and
`_Pair`, the metric half shared by `HamPair` and `ForcedPair`, build
the metric from those blocks; the two classes differ in the covector half.
Every polynomial quantity of a pair is a `Poly`: the parameter entries
of the data, the metric entries, and the cleared flux, numerators
adj(metric) . w over the common denominator Pf(metric), both read from
one adjugate.  Construction only shows Pf(metric) is not identically 0:
by Pf(mconst), its value at the origin of the fields, unless that is 0.
The flux is reduced to `RatFunc`s only in `_Pair.flux`, for display.
Pairs built this way satisfy the compatibility identities checked by
`check_compat`; the check exists to demonstrate that and to expose
failures for hand-edited fluxes.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache

from .errors import DegenerateMetric, DimensionMismatch, NullSystemWarning
from .errors import OddDimension
from .forms import AltForm
from .linalg import Matrix
from .poly import Poly, RatFunc, as_fraction, exact_div, lift, poly_gcd
from .sampling import Lcg, random_skew, random_three_form, random_vector
from .sampling import run_check
from .skew import SkewMatrix, pfaffian, pfaffian_adjugate

_DEFAULT_SEED = 715225741


def _data_entry(c, nvars: int, nfields: int, what: str):
    """Coerce a defining coefficient to a Fraction, or to a Poly in the
    ring's parameter variables (never the fields).  A polynomial RatFunc
    is accepted here, at the input edge, and nowhere further in."""
    if isinstance(c, (int, Fraction)):
        return as_fraction(c)
    if isinstance(c, RatFunc):
        if not c.is_polynomial():
            raise ValueError("%s entries must be polynomial" % what)
        # the stored form of a polynomial RatFunc has denominator 1
        c = c.num
    if isinstance(c, Poly):
        if c.num_vars != nvars:
            raise ValueError("%s entry lives in a different ring" % what)
        if any(c.uses_var(i) for i in range(1, nfields + 1)):
            raise ValueError("%s entries must not involve the fields" % what)
        if c.is_constant():
            return c.const_value()
        return c
    raise TypeError("%s must have rational or parameter entries" % what)


def _linear_comb(parts, const, nvars: int) -> Poly:
    """sum of coeff * u_var plus a constant term, as one polynomial."""
    acc = Poly.zero(nvars) + const
    for v, c in parts:
        acc = acc + Poly.var(nvars, v) * c
    return acc


def _checked_blocks(mcubic: AltForm, mconst: SkewMatrix, nvars: int | None) -> tuple:
    """(mcubic, mconst, nvars): the two metric blocks checked against each
    other and against the ring, every entry coerced by _data_entry, and
    the ring size, N when nvars is None."""
    n = mconst.n
    if mcubic.degree != 3 or mcubic.dim != n:
        raise DimensionMismatch("three-form and constant part differ in size")
    if nvars is None:
        nvars = n
    if nvars < n:
        raise DimensionMismatch("ring has fewer variables than the form")
    return (mcubic.map_coeffs(lambda c: _data_entry(c, nvars, n, "three-form")),
            mconst.map_coeffs(lambda c: _data_entry(c, nvars, n, "constant metric part")),
            nvars)


def _metric(mcubic: AltForm, mconst: SkewMatrix, nvars: int) -> SkewMatrix:
    """The affine metric of checked blocks, entries Poly."""
    rows: dict = {}
    for (i, j, k), c in mcubic.comps.items():
        for (a, b, v, s) in ((i, j, k, 1), (i, k, j, -1), (j, k, i, 1)):
            rows.setdefault((a, b), []).append((v, c if s > 0 else -c))
    upper = {}
    for key in list(rows) + [k for k in mconst.upper if k not in rows]:
        p = _linear_comb(rows.get(key, ()), mconst.get(*key), nvars)
        if p:
            upper[key] = p
    return SkewMatrix(mconst.n, upper)


def build_metric(mcubic: AltForm, mconst: SkewMatrix, nvars: int | None = None) -> SkewMatrix:
    """The affine metric of a pair, entries Poly:
    metric_ij = sum_k mcubic_ijk u^k + mconst_ij."""
    return _metric(*_checked_blocks(mcubic, mconst, nvars))


def rhs_covector(wskew: SkewMatrix, wconst, nvars: int | None = None) -> tuple:
    """w_j = sum_l wskew_jl u^l + wconst_j as polynomials."""
    n = wskew.n
    if len(wconst) != n:
        raise DimensionMismatch("covector length does not match")
    if nvars is None:
        nvars = n
    out = []
    for j in range(1, n + 1):
        parts = [(l, _data_entry(wskew.get(j, l), nvars, n, "skew covector part"))
                 for l in range(1, n + 1) if wskew.get(j, l)]
        b = _data_entry(wconst[j - 1], nvars, n, "constant covector part")
        out.append(_linear_comb(parts, b, nvars))
    return tuple(out)


def build_flux(nums, pf: Poly) -> tuple:
    """Reduce the cleared flux nums / pf to one RatFunc per component."""
    return tuple(RatFunc(n, pf) for n in nums)


class _Pair:
    """The metric half both pair classes share: N, nvars, the checked
    blocks mcubic and mconst, the metric, and the caches behind `flux`
    and `flux_cleared`, which each subclass defines for its covector half."""

    __slots__ = ("N", "nvars", "mcubic", "mconst", "metric", "_cleared", "_flux")

    def __init__(self, mcubic: AltForm, mconst: SkewMatrix, nvars):
        if mconst.n % 2:
            raise OddDimension("pair needs an even number of fields")
        self.mcubic, self.mconst, self.nvars = _checked_blocks(mcubic, mconst, nvars)
        self.N = mconst.n
        self.metric = _metric(self.mcubic, self.mconst, self.nvars)
        self._cleared = self._flux = None

    @property
    def flux(self) -> tuple:
        """The flux as reduced RatFuncs: the display form."""
        if self._flux is None:
            self._flux = build_flux(*self.flux_cleared())
        return self._flux


class HamPair(_Pair):
    """Compatible metric-flux pair in N field variables.

    Variables 1..N of the coefficient ring are the fields; nvars may
    exceed N when the pair lives in a ring with extra parameters.  The
    defining data mcubic, mconst, wskew, wconst are constant, each entry
    checked and coerced once to a Fraction or a Poly in the parameters.
    `metric` is built from the checked blocks with Poly entries; a
    nonzero Pf(mconst) shows it nondegenerate, and only a singular
    mconst costs the symbolic Pf(metric).  The flux is held in cleared
    form, numerators adj(metric) . w over Pf(metric), both read from
    one adjugate on first use and shared by `flux_cleared` and
    `check_compat`; `flux` reduces it to RatFuncs for display.
    """

    __slots__ = ("wskew", "wconst")

    def __init__(self, mcubic: AltForm, mconst: SkewMatrix, wskew: SkewMatrix, wconst, nvars=None):
        super().__init__(mcubic, mconst, nvars)
        N, nvars = self.N, self.nvars
        if wskew.n != N:
            raise DimensionMismatch("skew covector part does not match the field count")
        if len(wconst) != N:
            raise DimensionMismatch("constant covector part has wrong length")
        self.wskew = wskew.map_coeffs(
            lambda c: _data_entry(c, nvars, N, "skew covector part"))
        self.wconst = tuple(_data_entry(b, nvars, N, "constant covector part") for b in wconst)
        if not (pfaffian(self.mconst) or pfaffian(self.metric)):
            raise DegenerateMetric("metric pfaffian vanishes identically")
        if self.wskew.is_zero() and not any(self.wconst):
            warnings.warn(
                "covector data vanishes: the system is trivial", NullSystemWarning
            )

    def flux_cleared(self) -> tuple:
        """Flux numerators adj . w over Pf(metric) = (metric . adj)_11,
        all Poly, from one adjugate."""
        if self._cleared is None:
            adj = pfaffian_adjugate(self.metric).to_matrix()
            w = rhs_covector(self.wskew, self.wconst, self.nvars)
            # Pf = (metric . adj)_11 alone: the whole product costs N times more
            row1 = Matrix(self.metric.to_matrix().rows[:1])
            self._cleared = adj.apply(w), row1.apply([r[0] for r in adj.rows])[0]
        return self._cleared

    def _key(self) -> tuple:
        return (self.N, self.nvars, self.mcubic, self.mconst, self.wskew, self.wconst)

    def __eq__(self, other):
        if not isinstance(other, HamPair):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "HamPair(N=%d, nvars=%d)" % (self.N, self.nvars)

    @classmethod
    def random(cls, rng: Lcg, N: int, nvars=None) -> "HamPair":
        """Random pair with nondegenerate metric and nontrivial covector."""
        while True:
            mcubic = random_three_form(rng, N, max_num=3)
            mconst = random_skew(rng, N, max_num=3)
            if not (pfaffian(mconst) or pfaffian(build_metric(mcubic, mconst, N))):
                continue
            wskew = random_skew(rng, N, max_num=3)
            wconst = random_vector(rng, N, max_num=3)
            if wskew.is_zero() and not any(wconst):
                continue
            return cls(mcubic, mconst, wskew, wconst, nvars=nvars)


class ForcedPair(_Pair):
    """Metric with a hand-supplied flux, for exercising failure paths.

    Skips the linear-algebra solve; `check_compat` treats it like any
    other pair, so incompatible fluxes produce nonzero residuals instead
    of construction errors.
    """

    __slots__ = ()

    def __init__(self, mcubic: AltForm, mconst: SkewMatrix, flux, nvars=None):
        if len(flux) != mconst.n:
            raise DimensionMismatch("flux has wrong length")
        super().__init__(mcubic, mconst, nvars)
        self._flux = tuple(lift(v, self.nvars) for v in flux)

    def flux_cleared(self) -> tuple:
        """Flux numerators over the lcm of the denominators; computed once."""
        if self._cleared is None:
            den = Poly.one(self.nvars)
            for v in self._flux:
                den = den * exact_div(v.den, poly_gcd(den, v.den))
            nums = tuple(v.num * exact_div(den, v.den) for v in self._flux)
            self._cleared = nums, den
        return self._cleared


def _hessian(grad, conv) -> list:
    """Second derivatives over the field directions from the gradient;
    each entry is computed once for p <= l and mirrored."""
    n = len(grad)
    h = [[None] * n for _ in range(n)]
    for p in range(n):
        for l in range(p, n):
            h[p][l] = h[l][p] = conv(grad[p].diff(l + 1))
    return h


def auto_mode(n: int) -> str:
    """The check mode "auto" picks at n fields: a proof while that stays
    cheap (n <= 4), sampling above."""
    return "symbolic" if n <= 4 else "sampled"


def check_compat(pair, mode: str = "auto", samples: int = 20, seed: int = _DEFAULT_SEED) -> dict:
    """Verify the first- and second-order compatibility identities.

    With the flux written as V^k = n^k / P over a common denominator,
    both identities are derivatives of g . V = W / P, where
    W_q = sum_k g_qk n^k: the first is the symmetrised Jacobian
    (W_q / P)_{,p} + (W_p / P)_{,q}, cleared over P^2, the second the
    Hessian (W_q / P)_{,pl}, cleared over P^3.  These are the identities
    as written with the derivatives of V, because the metric derivative
    g_qk_{,l} = mcubic_qkl is constant in the fields, so the Hessian of
    g . V holds no second derivative of g, and totally antisymmetric, so
    its terms cancel from the symmetrised Jacobian.  Only derivatives in
    the field directions u^1..u^N enter.  The symbolic mode proves the
    identities as polynomial identities; the sampled mode evaluates them
    through `sampling.run_check` at residue points where P does not
    vanish, with the "degree" d = deg g + max deg n^k + 2 deg P - 1 that
    bounds the total degree of every residual in the ring variables.

    Returns a report holding any nonzero residuals: the residual
    polynomial in symbolic mode, the first failing point (residues) and
    the residue there in sampled mode.
    """
    if mode == "auto":
        mode = auto_mode(pair.N)
    N = pair.N
    nums, P = pair.flux_cleared()

    def bound():
        deg_g = max((e.total_degree() for e in pair.metric.upper.values()),
                    default=0)
        deg_n = max(n.total_degree() for n in nums)
        return P, max(0, deg_g + deg_n + 2 * P.total_degree() - 1)

    def residuals(conv):
        fields = range(1, N + 1)
        # one derivative table: row 0 is P, row q is W_q; values, field
        # gradients and Hessians, each converted once
        rows = [P, *pair.metric.to_matrix().apply(nums)]
        grads = [[f.diff(p) for p in fields] for f in rows]
        val = [conv(f) for f in rows]
        d = [[conv(p) for p in grad] for grad in grads]
        dd = [_hessian(grad, conv) for grad in grads]
        P_, dP, ddP = val[0], d[0], dd[0]

        @cache
        def d1(q, l):
            # numerator of (W_q / P)_{,l} over P^2; q and l are 1-based
            return d[q][l - 1] * P_ - val[q] * dP[l - 1]

        @cache
        def d2(q, p, l):
            # numerator of (W_q / P)_{,pl} over P^3; all indices 1-based
            lead = (
                dd[q][p - 1][l - 1] * P_
                + d[q][p - 1] * dP[l - 1]
                - d[q][l - 1] * dP[p - 1]
                - val[q] * ddP[p - 1][l - 1]
            )
            return lead * P_ - (dP[l - 1] * d1(q, p)) * 2

        first, second = {}, {}
        for p in fields:
            for q in range(p, N + 1):
                acc = d1(q, p) + d1(p, q)
                if acc:
                    first[(p, q)] = acc
        for q in fields:
            for p in fields:
                for l in fields:
                    # the Hessian is symmetric in p and l
                    acc = d2(q, min(p, l), max(p, l))
                    if acc:
                        second[(q, p, l)] = acc
        return first, second

    (first, second), bound_keys = run_check(mode, residuals, bound, samples,
                                            seed)
    return {
        "mode": mode,
        "first_order": first,
        "second_order": second,
        "checked": (N * (N + 1) // 2, N ** 3),
        "all_zero": not first and not second,
        **bound_keys,
    }
