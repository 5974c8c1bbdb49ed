"""Bijection between structure three-forms and metric-flux pairs.

A pair in N fields is equivalent to a single alternating three-form on
N + 2 coordinates.  Coordinates 1..N match the fields, coordinate N + 1
homogenizes the constant parts, and coordinate N + 2 carries the
covector data.  `_block` is the one statement of where each triple
sits; the readers classify every stored triple with it:

    component (i, j, k), k <= N      ->  metric three-form   mcubic[i, j, k]
    component (i, j, N+1)            ->  constant metric part mconst[i, j]
    component (i, j, N+2)            ->  skew covector part   wskew[i, j]
    component (i, N+1, N+2)          ->  constant covector    wconst[i]

Every strictly increasing triple from {1, .., N+2} lands in exactly one
of the four blocks, so the packaging loses nothing.  `_assemble` writes
each block entry at its triple, and `dimension_audit` verifies the
bookkeeping and that the two directions agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import DimensionMismatch, OddDimension
from .forms import AltForm
from .pairs import HamPair
from .skew import SkewMatrix


def _check_n(N: int) -> None:
    if N % 2 or N < 2:
        raise OddDimension("field count must be even and positive")


def _block(t: tuple, N: int) -> tuple:
    """The block an increasing triple of 1..N+2 sits in, and the indices
    that block keeps."""
    i, j, k = t
    if k <= N:
        return "mcubic", t
    if j > N:
        return "wconst", (i,)
    if k == N + 1:
        return "mconst", (i, j)
    return "wskew", (i, j)


def layout(N: int) -> dict:
    """The four-block layout as a table: each increasing triple of
    1..N+2 mapped to `_block` of it."""
    _check_n(N)
    return {t: _block(t, N) for t in combinations(range(1, N + 3), 3)}


class StructureForm:
    """Three-form on the (N + 2)-dimensional coordinate space of a pair."""

    __slots__ = ("N", "form")

    def __init__(self, N: int, form: AltForm):
        _check_n(N)
        if form.degree != 3 or form.dim != N + 2:
            raise DimensionMismatch("expected a three-form on N + 2 coordinates")
        self.N = N
        self.form = form

    @classmethod
    def from_comps(cls, N: int, comps) -> "StructureForm":
        return cls(N, AltForm(3, N + 2, comps))

    def get(self, *idx):
        return self.form.get(*idx)

    def _parts(self, *blocks) -> list:
        """(triple, kept indices, component) over the named blocks."""
        out = []
        for t, v in self.form.comps.items():
            block, kept = _block(t, self.N)
            if block in blocks:
                out.append((t, kept, v))
        return out

    # -- the four stored blocks --------------------------------------

    def mcubic_block(self) -> AltForm:
        return AltForm(3, self.N, {k: v for _, k, v in self._parts("mcubic")})

    def mconst_block(self) -> SkewMatrix:
        return SkewMatrix(self.N, {k: v for _, k, v in self._parts("mconst")})

    def wskew_block(self) -> SkewMatrix:
        return SkewMatrix(self.N, {k: v for _, k, v in self._parts("wskew")})

    def wconst_block(self) -> tuple:
        b = {k: v for _, k, v in self._parts("wconst")}
        return tuple(b.get((i,), Fraction(0)) for i in range(1, self.N + 1))

    # -- the two homogeneous halves -----------------------------------

    def metric_block(self) -> AltForm:
        """Terms free of the last coordinate: a three-form on N + 1."""
        comps = {t: v for t, _, v in self._parts("mcubic", "mconst")}
        return AltForm(3, self.N + 1, comps)

    def w_block(self) -> AltForm:
        """Coefficient of the last coordinate: a two-form on N + 1."""
        comps = {t[:2]: v for t, _, v in self._parts("wskew", "wconst")}
        return AltForm(2, self.N + 1, comps)

    def __eq__(self, other):
        if not isinstance(other, StructureForm):
            return NotImplemented
        return self.N == other.N and self.form == other.form

    def __hash__(self):
        return hash((self.N, self.form))

    def __repr__(self):
        return "StructureForm(N=%d, %s)" % (self.N, self.form.format())


def _assemble(N: int, mcubic, mconst, wskew, wconst) -> StructureForm:
    """Place each entry of the four blocks of a pair at its triple, the
    inverse of `_block`; zero entries are left out."""
    comps = dict(mcubic.comps)
    comps.update({(i, j, N + 1): v for (i, j), v in mconst.upper.items()})
    comps.update({(i, j, N + 2): v for (i, j), v in wskew.upper.items()})
    comps.update({(i, N + 1, N + 2): b for i, b in enumerate(wconst, 1)})
    return StructureForm.from_comps(N, comps)


def form_from_pair(pair) -> StructureForm:
    """Package a pair's data as its structure form."""
    return _assemble(pair.N, pair.mcubic, pair.mconst, pair.wskew,
                     pair.wconst)


def pair_from_form(sf: StructureForm, nvars: int | None = None) -> HamPair:
    """Unpack a structure form into the metric-flux pair it encodes.

    Raises DegenerateMetric when the metric blocks give an identically
    singular metric; warns NullSystemWarning when both covector blocks
    vanish.
    """
    return HamPair(
        sf.mcubic_block(),
        sf.mconst_block(),
        sf.wskew_block(),
        sf.wconst_block(),
        nvars=nvars,
    )


def dimension_audit(N: int) -> dict:
    """Count how the component triples split across the four blocks.

    Every strictly increasing triple must land in exactly one block and
    the block sizes must match the binomial counts; the reassembly of a
    fully generic form from its blocks must be the identity.
    """
    table = layout(N)
    expected = {
        "mcubic": comb(N, 3),
        "mconst": comb(N, 2),
        "wskew": comb(N, 2),
        "wconst": N,
    }
    counts = dict.fromkeys(expected, 0)
    for block, _ in table.values():
        counts[block] += 1
    total = comb(N + 2, 3)

    # reassembly on a dense form with distinct markers per component
    marker = {t: Fraction(val) for val, t in enumerate(table, start=2)}
    sf = StructureForm.from_comps(N, marker)
    rebuilt = _assemble(N, sf.mcubic_block(), sf.mconst_block(),
                        sf.wskew_block(), sf.wconst_block())
    roundtrip = rebuilt == sf
    split = sf.metric_block(), sf.w_block()
    halves = (
        len(split[0].comps) + len(split[1].comps) == len(sf.form.comps)
    )

    ok = (
        counts == expected
        and sum(counts.values()) == total
        and roundtrip
        and halves
    )
    return {
        "N": N,
        "total": total,
        "blocks": {k: {"count": counts[k], "expected": expected[k]} for k in counts},
        "sum_matches": sum(counts.values()) == total,
        "roundtrip": roundtrip,
        "ok": ok,
    }
