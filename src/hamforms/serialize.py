"""JSON file formats for forms, pairs, structure three-forms and maps.

Every number travels as an exact rational string "p/q" (or "p"), an
alternating form as {"degree": d, "dim": n, "terms": [{"idx": [...],
"coeff": "p/q"}, ...]} with 1-based strictly increasing indices, a pair
as {"N": n, "T": form, "g0": form, "A": form, "B": [...]}, and a
structure three-form file as {"N": n, "terms": [...]} on n+2
coordinates.  The transform inputs are read only: a projective map is
{"matrix": [[...], ...]}, a square matrix of side N+1, and a reciprocal
map {"ax": [...], "ax0": r, "bt": r, "bx": [...], "cx": r, "dt0": r}
with N entries in ax and bx.  Writers emit sorted keys and sorted terms
so identical data always produces identical bytes.  Readers are strict:
structural problems raise ParseError with a field path, semantic ones
raise ValidationError.
"""

import json
import re
import sys
from fractions import Fraction

from .errors import (DimensionMismatch, ParseError, SingularMatrix,
                     ValidationError)
from .forms import AltForm
from .linalg import Matrix
from .poly import Poly, RatFunc
from .skew import SkewMatrix
from .pairs import HamPair
from .bridge import StructureForm
from .transforms import ProjectiveMap, ReciprocalMap

__all__ = [
    "rational_to_str", "rational_from_str",
    "form_to_dict", "form_from_dict",
    "pair_to_dict", "pair_from_dict",
    "omega_to_dict", "omega_from_dict",
    "load_json", "dump_json", "save_json",
    "load_pair", "save_pair", "parse_omega_file", "save_omega",
    "load_projective", "load_reciprocal",
]


# -- rationals ---------------------------------------------------------

def rational_to_str(c) -> str:
    c = _as_rational(c, "coefficient")
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
# Python refuses to convert longer digit strings to int (a ValueError)
_TOO_LONG = "%s: an integer has more than %d digits, the conversion limit"


def rational_from_str(s, where: str = "coefficient") -> Fraction:
    if not isinstance(s, str):
        raise ParseError("%s: expected a rational string, got %r" % (where, s))
    if not _RATIONAL.match(s.strip()):
        raise ParseError("%s: expected \"p\" or \"p/q\", got %r" % (where, s))
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ParseError("%s: zero denominator in %r" % (where, s))
    except ValueError:
        raise ParseError(_TOO_LONG % (where, sys.get_int_max_str_digits()))


def _rationals(v, n: int, where: str) -> list:
    """A list of n rational strings, read."""
    if not isinstance(v, list):
        raise ParseError("%s: expected a list" % where)
    if len(v) != n:
        raise ValidationError("%s: expected %d entries, got %d"
                              % (where, n, len(v)))
    return [rational_from_str(x, "%s[%d]" % (where, k))
            for k, x in enumerate(v)]


def _as_rational(c, where: str) -> Fraction:
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if isinstance(c, (Poly, RatFunc)) and c.is_constant():
        return Fraction(c.const_value())
    raise ValidationError("%s is not a rational constant: %r" % (where, c))


# -- alternating forms -------------------------------------------------

def form_to_dict(form: AltForm) -> dict:
    terms = [{"idx": list(idx), "coeff": rational_to_str(c)}
             for idx, c in form.sorted_items()]
    return {"degree": form.degree, "dim": form.dim, "terms": terms}


def form_from_dict(d, where: str = "form", degree=None, dim=None) -> AltForm:
    _expect_object(d, {"degree", "dim", "terms"}, where)
    deg = _expect_int(d, "degree", where)
    n = _expect_int(d, "dim", where)
    if degree is not None and deg != degree:
        raise ValidationError("%s: degree must be %d, got %d"
                              % (where, degree, deg))
    if dim is not None and n != dim:
        raise ValidationError("%s: dim must be %d, got %d" % (where, dim, n))
    if deg < 1 or n < 1:
        raise ValidationError("%s: degree %d on dim %d is not supported"
                              % (where, deg, n))
    comps = _terms_from_list(d.get("terms"), deg, n, where)
    return AltForm(deg, n, comps)


def _terms_from_list(terms, degree: int, dim: int, where: str) -> dict:
    if not isinstance(terms, list):
        raise ParseError("%s.terms: expected a list" % where)
    comps = {}
    for pos, t in enumerate(terms):
        here = "%s.terms[%d]" % (where, pos)
        if not isinstance(t, dict) or set(t) != {"idx", "coeff"}:
            raise ParseError("%s: expected {idx, coeff}" % here)
        idx = t["idx"]
        if (not isinstance(idx, list)
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           for i in idx)):
            raise ParseError("%s.idx: expected a list of integers" % here)
        if len(idx) != degree:
            raise ValidationError("%s.idx: expected %d indices, got %d"
                                  % (here, degree, len(idx)))
        if any(not 1 <= i <= dim for i in idx):
            raise ValidationError("%s.idx: index out of range 1..%d"
                                  % (here, dim))
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValidationError("%s.idx: indices must be strictly "
                                  "increasing" % here)
        key = tuple(idx)
        if key in comps:
            raise ValidationError("%s.idx: duplicate index tuple %r"
                                  % (here, idx))
        comps[key] = rational_from_str(t["coeff"], here + ".coeff")
    return comps


def _expect_object(d, keys, where: str) -> None:
    if not isinstance(d, dict):
        raise ParseError("%s: expected an object" % where)
    extra = set(d) - set(keys)
    if extra:
        raise ParseError("%s: unknown keys %s" % (where, sorted(extra)))


def _expect_int(d, key: str, where: str) -> int:
    v = d.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError("%s.%s: expected an integer" % (where, key))
    return v


# the Pfaffian recurses N/2 deep: N = 2,002 overflows the recursion limit
_MAX_N = 1000


def _expect_even_n(d, where: str) -> int:
    n = _expect_int(d, "N", where)
    if n < 2 or n % 2 or n > _MAX_N:
        raise ValidationError("%s.N: expected an even integer from 2 to %d, "
                              "got %d" % (where, _MAX_N, n))
    return n


# -- pairs -------------------------------------------------------------

def pair_to_dict(pair: HamPair) -> dict:
    n = pair.N
    return {
        "N": n,
        "T": form_to_dict(pair.mcubic),
        "g0": form_to_dict(pair.mconst),
        "A": form_to_dict(pair.wskew),
        "B": [rational_to_str(b) for b in pair.wconst],
    }


def pair_from_dict(d, where: str = "pair") -> HamPair:
    _expect_object(d, {"N", "T", "g0", "A", "B"}, where)
    n = _expect_even_n(d, where)
    mcubic = form_from_dict(d.get("T"), where + ".T", degree=3, dim=n)
    mconst = SkewMatrix.from_form(form_from_dict(d.get("g0"), where + ".g0",
                                                 degree=2, dim=n))
    wskew = SkewMatrix.from_form(form_from_dict(d.get("A"), where + ".A",
                                                degree=2, dim=n))
    wconst = tuple(_rationals(d.get("B"), n, where + ".B"))
    return HamPair(mcubic, mconst, wskew, wconst)


# -- structure three-forms ---------------------------------------------

def omega_to_dict(sf: StructureForm) -> dict:
    d = form_to_dict(sf.form)
    return {"N": sf.N, "terms": d["terms"]}


def omega_from_dict(d, where: str = "omega") -> StructureForm:
    _expect_object(d, {"N", "terms"}, where)
    n = _expect_even_n(d, where)
    comps = _terms_from_list(d.get("terms"), 3, n + 2, where)
    return StructureForm(n, AltForm(3, n + 2, comps))


# -- files -------------------------------------------------------------

def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise ParseError("%s: not UTF-8 text: %s" % (path, exc.reason))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: invalid JSON at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    except ValueError:
        raise ParseError(_TOO_LONG % (path, sys.get_int_max_str_digits()))
    except RecursionError:
        raise ParseError("%s: JSON nested too deeply to read" % path)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dump_json(obj))


def load_pair(path: str) -> HamPair:
    return pair_from_dict(load_json(path), where=path)


def save_pair(pair: HamPair, path: str) -> None:
    save_json(pair_to_dict(pair), path)


def parse_omega_file(path: str) -> StructureForm:
    return omega_from_dict(load_json(path), where=path)


def save_omega(sf: StructureForm, path: str) -> None:
    save_json(omega_to_dict(sf), path)


def _built(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), a refusal of the data re-raised naming the
    file."""
    try:
        return make(*args, **kwargs)
    except (DimensionMismatch, SingularMatrix, ValidationError) as exc:
        raise ValidationError("%s: %s" % (path, exc))


def load_projective(path: str) -> ProjectiveMap:
    """The projective map of a file, its matrix of side N+1."""
    d = load_json(path)
    _expect_object(d, {"matrix"}, path)
    rows = d.get("matrix")
    if not (isinstance(rows, list) and rows and isinstance(rows[0], list)):
        raise ValidationError("%s: matrix must be a list of rows" % path)
    return _built(path, ProjectiveMap, Matrix(
        [_rationals(r, len(rows[0]), "%s.matrix[%d]" % (path, i))
         for i, r in enumerate(rows)]))


_RECIPROCAL_KEYS = ("ax", "ax0", "bt", "bx", "cx", "dt0")


def load_reciprocal(path: str, n: int) -> ReciprocalMap:
    """The reciprocal map of a file, for a pair on n fields."""
    d = load_json(path)
    _expect_object(d, _RECIPROCAL_KEYS, path)
    coeffs = {k: _rationals(d.get(k), n, "%s.%s" % (path, k))
              if k in ("ax", "bx")
              else rational_from_str(d.get(k), "%s.%s" % (path, k))
              for k in _RECIPROCAL_KEYS}
    return _built(path, ReciprocalMap, n, **coeffs)
