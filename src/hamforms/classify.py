"""Canonical forms for pairs with two or four fields.

The two-field case is a single orbit once the metric slot is nonzero;
the normalizing matrix is written down explicitly and logged.  The
four-field case reads the pair (eta-trace, quadric value) from the
splitting of the right-hand-side matrix along the standard symplectic
form, in standard position, and emits the canonical representative
directly from those values.  They are not orbit invariants: a GL(6)
map can move them (ROADMAP direction 3 plans an orbit decision).
"""

from __future__ import annotations

from fractions import Fraction

from .bridge import StructureForm, form_from_pair
from .errors import (DegenerateMetric, DimensionMismatch, NotInThetaEta,
                     WrongTBlock)
from .forms import AltForm, perm_sign, pullback_linear, wedge
from .linalg import Matrix
from .pairs import HamPair
from .poly import Poly, RatFunc
from .skew import SkewMatrix

TOP4 = (1, 2, 3, 4)


def eta_matrix() -> SkewMatrix:
    """The standard symplectic two-form du1^du2 + du3^du4."""
    return SkewMatrix(4, {(1, 2): Fraction(1), (3, 4): Fraction(1)})


def eta_gram() -> Matrix:
    """The same form as a dense matrix, for building transvections."""
    return eta_matrix().to_matrix()


def t4_form() -> AltForm:
    """The standard three-form eta ^ du5 on five coordinates."""
    return AltForm(3, 5, {(1, 2, 5): Fraction(1), (3, 4, 5): Fraction(1)})


class SymplecticSplit:
    """Decomposition A = theta_eta * eta + theta with theta trace-free.

    Trace-free means wedge(eta, theta) = 0, which pins theta's (1,2)
    slot to the negative of its (3,4) slot; that shared value is the
    theta0 component.
    """

    __slots__ = ("theta_eta", "theta")

    def __init__(self, theta_eta, theta: AltForm):
        self.theta_eta = theta_eta
        self.theta = theta

    @property
    def components(self) -> dict:
        t = self.theta
        return {
            "theta0": t.get(1, 2),
            "theta13": t.get(1, 3),
            "theta14": t.get(1, 4),
            "theta23": t.get(2, 3),
            "theta24": t.get(2, 4),
        }

    def reconstruct(self) -> AltForm:
        return eta_matrix().scale(self.theta_eta) + self.theta

    def __repr__(self):
        return "SymplecticSplit(theta_eta=%r, theta=%r)" % (self.theta_eta, self.theta)


def symplectic_split(a) -> SymplecticSplit:
    """Split a two-form on four coordinates along the symplectic line.

    The eta-coefficient is the ratio of top-form coefficients
    (a ^ eta) / (eta ^ eta); the remainder is trace-free by
    construction.  A SkewMatrix is such a two-form.
    """
    if a.degree != 2 or a.dim != 4:
        raise DimensionMismatch("splitting needs a two-form on four coordinates")
    eta = eta_matrix()
    # eta ^ eta = 2 du1234; halving by a product keeps Poly entries Poly
    theta_eta = wedge(a, eta).get(*TOP4) * Fraction(1, 2)
    theta = a - eta.scale(theta_eta)
    return SymplecticSplit(theta_eta, theta)


def q_form(theta):
    """The quadric value Q with theta ^ theta = Q du1^du2^du3^du4.

    Only defined on the trace-free complement of the symplectic line;
    a nonzero wedge against eta raises NotInThetaEta.  Equals twice the
    Pfaffian of theta read as a skew matrix.
    """
    if theta.degree != 2 or theta.dim != 4:
        raise DimensionMismatch("the quadric takes a two-form on four coordinates")
    trace = wedge(eta_matrix(), theta)
    if not trace.is_zero():
        raise NotInThetaEta("the form has a nonzero component along eta")
    return wedge(theta, theta).get(*TOP4)


class ClassificationResult:
    """Invariants, canonical representative, and the normalization log."""

    __slots__ = ("N", "invariants", "canonical_form", "canonical_pair", "log")

    def __init__(self, N, invariants, canonical_form, canonical_pair, log):
        self.N = N
        self.invariants = invariants
        self.canonical_form = canonical_form
        self.canonical_pair = canonical_pair
        self.log = log

    def __repr__(self):
        return "ClassificationResult(N=%d, invariants=%r)" % (self.N, self.invariants)


def canonical_n2_pair() -> HamPair:
    """The normal-form two-field pair: decoupled transport equations."""
    return HamPair(
        AltForm(3, 2),
        SkewMatrix(2, {(1, 2): Fraction(1)}),
        SkewMatrix(2, {(1, 2): Fraction(1)}),
        (Fraction(1), Fraction(0)),
    )


def canonical_n4_pair(theta_eta, theta13, nvars=None) -> HamPair:
    """The four-field normal form for given invariant data.

    The right-hand-side matrix is theta_eta * eta + theta13 du1^du3
    + du2^du4 over the constant symplectic metric; the constant shift
    is zero because it drops out of the system after differentiation.
    """
    wskew = SkewMatrix(4, {
        (1, 2): theta_eta,
        (3, 4): theta_eta,
        (1, 3): theta13,
        (2, 4): Fraction(1),
    })
    zero = Fraction(0)
    return HamPair(AltForm(3, 4), eta_matrix(), wskew,
                   (zero, zero, zero, zero), nvars=nvars)


def system_coefficients(pair) -> list:
    """Row coefficients of the first-order system carried by the flux.

    Row i maps field index j to the partial derivative of flux
    component i by field j; zero entries are omitted.
    """
    rows = []
    for v in pair.flux:
        row = {}
        for j in range(1, pair.N + 1):
            d = v.diff(j)
            if not d.is_zero():
                row[j] = d
        rows.append(row)
    return rows


def format_terms(terms) -> str:
    """The linear sum of (coefficient text, label) pairs: a unit
    coefficient is dropped, -1 leaves its sign, a coefficient holding a
    space is parenthesised, and the empty sum is 0."""
    parts = []
    for c, label in terms:
        c = "(%s)" % c if " " in c else c
        parts.append({"1": "", "-1": "-"}.get(c, c + "*") + label)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def format_system(pair, names=None) -> list:
    """Human-readable rendering, one string per evolution equation."""
    out = []
    for i, row in enumerate(system_coefficients(pair), start=1):
        terms = [(row[j].format(names), "u%d_x" % j) for j in sorted(row)]
        out.append("u%d_t = %s" % (i, format_terms(terms)))
    return out


def classify_n2(sf: StructureForm) -> ClassificationResult:
    """Normal form of a two-field structure form.

    Requires a nondegenerate metric slot; under it the orbit is unique,
    the canonical form has unit coefficients on the first three basis
    monomials, and the normalizing matrix (unimodular on the first
    three coordinates whenever the metric slot is already one) is
    logged together with a pullback verification flag.
    """
    if sf.N != 2:
        raise DimensionMismatch("two-field classification needs N=2")
    gamma = sf.mconst_block().get(1, 2)
    if not gamma:
        raise DegenerateMetric("the metric slot vanishes")
    a12 = sf.wskew_block().get(1, 2)
    # a12 = 0: the element S @ E first shears du3 -> du3 + du4 (entry
    # (3, 4) of S @ E), which adds gamma du124
    shear, a12 = Fraction(not a12), a12 or gamma
    b1, b2 = sf.wconst_block()

    one, zero = Fraction(1), Fraction(0)
    # prescale the first coordinate so the metric slot becomes one
    a = a12 / gamma
    c1 = b1 / gamma
    c2 = b2
    element = Matrix([
        [one / (gamma * a), zero, c2 / gamma, zero],
        [zero, one, one - c1, zero],
        [zero, zero, a, shear],
        [zero, zero, zero, one],
    ])
    pair = canonical_n2_pair()
    canon = form_from_pair(pair)
    pulled = pullback_linear(sf.form, element)
    log = {
        "element": element,
        "det": one / gamma,
        "pullback_matches": pulled == canon.form,
        "already_canonical": sf.form == canon.form,
    }
    return ClassificationResult(2, (), canon, pair, log)


def canonical_form_n2() -> AltForm:
    """Unit coefficients on du123, du124, du134; nothing else: the form
    of `canonical_n2_pair`."""
    return form_from_pair(canonical_n2_pair()).form


def classify_n4(sf: StructureForm) -> ClassificationResult:
    """Canonical pair of a four-field structure form in standard position.

    The cubic-with-homogenizer block must already sit in the standard
    position eta ^ du5 (reducing a generic block to it is out of
    scope); otherwise WrongTBlock.  The reported values are the
    eta-trace of the right-hand-side matrix and the quadric value of its
    trace-free part, read from this split; the canonical representative
    realizes them with a single du1^du3 slot and a unit du2^du4 slot,
    and drops the constant shift.  A GL(6) map that keeps the standard
    block can move both values (ROADMAP direction 3 decides orbits).
    """
    if sf.N != 4:
        raise DimensionMismatch("four-field classification needs N=4")
    if not sf.metric_block() == t4_form():
        raise WrongTBlock("cubic block is not in the standard position")
    split = symplectic_split(sf.wskew_block())
    q = q_form(split.theta)
    theta13 = q * Fraction(-1, 2)
    # the ring of the symbolic entries, None when all are rational
    nvars = next((c.num_vars for c in sf.form.comps.values()
                  if isinstance(c, (Poly, RatFunc))), None)
    pair = canonical_n4_pair(split.theta_eta, theta13, nvars=nvars)
    log = {
        "method": "invariants",
        "split": split.components,
        "shift_dropped": tuple(sf.wconst_block()),
    }
    return ClassificationResult(4, (split.theta_eta, q),
                                form_from_pair(pair), pair, log)


# -- stabilizer of the standard three-form on five coordinates -------------


def sp4_basis() -> list:
    """Ten generators of the symplectic algebra of eta.

    The algebra is the image of the symmetric matrices under
    multiplication by the inverse symplectic matrix; the basis below
    comes from the elementary symmetric matrices.
    """
    one, zero = Fraction(1), Fraction(0)
    jm = eta_gram()
    out = []
    for (r, c) in [(1, 1), (2, 2), (3, 3), (4, 4),
                   (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        s = [[zero] * 4 for _ in range(4)]
        s[r - 1][c - 1] = one
        s[c - 1][r - 1] = one
        out.append((jm @ Matrix(s)) * Fraction(-1))
    return out


def _first_order_preserves(x5: Matrix) -> bool:
    """Whether I + h*X preserves the standard three-form at order one.

    The derivative at h = 0 of its pullback through I + h*X (row m is
    the pullback of du_m, as in `pullback_linear`) is the derivation
    (D_X t)_ijk = sum_m X[m,i] t_mjk + X[m,j] t_imk + X[m,k] t_ijm.
    Read from the nonzero components: t_A adds X[a,n] t_A at A with one
    index a replaced by n.  All ten summed components must vanish.
    """
    d = {}
    for src, c in t4_form().comps.items():
        for p, a in enumerate(src):
            for n in range(1, 6):
                tgt = src[:p] + (n,) + src[p + 1:]
                if (x := x5[a - 1, n - 1]) and (s := perm_sign(tgt)):
                    key = tuple(sorted(tgt))
                    d[key] = d.get(key, 0) + s * c * x
    return not any(d.values())


def _matrix5(entries, diagonal=0) -> Matrix:
    """The 5x5 matrix with `diagonal` on the diagonal and the 0-based
    (row, column): value `entries` set over it."""
    return Matrix([[entries.get((i, k), Fraction(diagonal * (i == k)))
                    for k in range(5)] for i in range(5)])


def _embed5(x4: Matrix) -> Matrix:
    # algebra directions act only on the first four coordinates, so the
    # corner entry is zero (a one would add a scaling of the fifth)
    return Matrix.block_diag(x4, Matrix([[Fraction(0)]]))


def stabilizer_audit() -> dict:
    """Check fourteen of the fifteen stabilizer directions of the
    standard block.

    Ten symplectic directions and four shear directions (the last
    column above the fixed fifth coordinate) must each preserve the
    form to first order; three representative group elements are also
    checked exactly, and a non-symplectic direction serves as the
    negative control.  The stabilizer in gl(5) is fifteen-dimensional:
    the list, and the "dimension" it reports, omit the scaling
    diag(1, 1, 1, 1, -2), which rescales eta against du5.
    """
    report = {"N": 4, "dimension": 14, "generators": [], "exact": {}, "ok": True}

    gens = []
    for k, x in enumerate(sp4_basis(), start=1):
        gens.append(("symplectic-%d" % k, _embed5(x)))
    for i in range(1, 5):
        gens.append(("shear-%d" % i, _matrix5({(i - 1, 4): Fraction(1)})))

    for label, x5 in gens:
        ok = _first_order_preserves(x5)
        report["generators"].append({"label": label, "first_order_ok": ok})
        report["ok"] = report["ok"] and ok

    # exact group elements, one of each kind, with a symbolic parameter
    # (the torus needs its inverse)
    c = RatFunc.var(1, 1)
    t4 = t4_form()

    def preserves(entries):
        return pullback_linear(t4, _matrix5(entries, 1)) == t4

    report["exact"] = {
        # transvection along the first coordinate pair
        "transvection": preserves({(0, 1): c}),
        # shear of the first coordinate into the fifth
        "shear": preserves({(0, 4): c}),
        "torus": preserves({(0, 0): c, (1, 1): 1 / c}),
    }
    report["ok"] = report["ok"] and all(report["exact"].values())

    # negative control: a direction outside the symplectic algebra
    control_preserved = _first_order_preserves(_matrix5({(0, 2): Fraction(1)}))
    report["negative_control_preserved"] = control_preserved
    report["ok"] = report["ok"] and not control_preserved
    return report
