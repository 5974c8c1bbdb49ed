"""Spans around the public functions of each `hamforms` layer.

`install(tracer, modules)` replaces each traced function with a wrapper
wherever a module holds it: in every `hamforms.*` module namespace and
in the benchmark modules passed in, which is where calls are bound.
Methods are wrapped on their class.  Nothing under `src/` changes.

Each span is (name, start, end, parent) in flat arrays kept in memory
until the run ends.  The self time of a span is its duration minus the
durations of its direct children; a layer's self time is the sum over
its spans.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# span name -> (module, function) or a list of them
FUNCTIONS = {
    "poly.gcd": ("hamforms.poly", "poly_gcd"),
    "poly.exact_div": ("hamforms.poly", "exact_div"),
    "skew.pfaffian": ("hamforms.skew", "pfaffian"),
    "skew.adjugate": ("hamforms.skew", "pfaffian_adjugate"),
    "pairs.flux": ("hamforms.pairs", "build_flux"),
    "pairs.check": ("hamforms.pairs", "check_compat"),
    "congruence.plucker_coords": ("hamforms.congruence", "plucker_coords"),
    "congruence.plucker_homogeneous": ("hamforms.congruence",
                                       "plucker_homogeneous"),
    "congruence.annihilation": ("hamforms.congruence", "annihilation_check"),
    "congruence.grassmann": ("hamforms.congruence", "grassmann_check"),
    "congruence.rank": ("hamforms.congruence", "congruence_rank"),
    "bridge.form_from_pair": ("hamforms.bridge", "form_from_pair"),
    "bridge.pair_from_form": ("hamforms.bridge", "pair_from_form"),
    "linalg.rank_nullvector": ("hamforms.linalg", "rank_and_left_nullvector"),
    "transforms.projective": ("hamforms.transforms", "apply_projective"),
    "transforms.reciprocal": ("hamforms.transforms", "apply_reciprocal"),
    "transforms.xt": ("hamforms.transforms", "apply_xt_exchange"),
    "classify.n4": ("hamforms.classify", "classify_n4"),
    "classify.n2": ("hamforms.classify", "classify_n2"),
    "serialize.parse": [("hamforms.serialize", "load_json"),
                        ("hamforms.serialize", "pair_from_dict"),
                        ("hamforms.serialize", "omega_from_dict")],
    "serialize.emit": [("hamforms.serialize", "dump_json"),
                       ("hamforms.serialize", "pair_to_dict"),
                       ("hamforms.serialize", "omega_to_dict")],
}
# span name -> (module, class, method), wrapped on the class
METHODS = {
    "poly.mul": [("hamforms.poly", "Poly", "__mul__"),
                 ("hamforms.poly", "Poly", "__rmul__")],
    "poly.ratfunc": [("hamforms.poly", "RatFunc", "__init__")],
    "pairs.flux_cleared": [("hamforms.pairs", "HamPair", "flux_cleared"),
                           ("hamforms.pairs", "ForcedPair", "flux_cleared")],
    "linalg.inv": [("hamforms.linalg", "Matrix", "inv")],
}

# the layer metrics reported per traced run, in report order
SELF_TIME = (
    "poly.mul", "poly.gcd", "poly.exact_div", "skew.pfaffian",
    "skew.adjugate", "pairs.flux", "pairs.flux_cleared",
    "pairs.check_symbolic", "pairs.check_sampled",
    "congruence.plucker_coords", "congruence.plucker_homogeneous",
    "congruence.annihilation", "congruence.grassmann", "congruence.rank",
    "bridge.form_from_pair", "bridge.pair_from_form",
    "linalg.rank_nullvector", "linalg.inv", "transforms.projective",
    "transforms.reciprocal", "transforms.xt", "classify.n4", "classify.n2",
    "serialize.parse", "serialize.emit",
)
CALLS = ("poly.mul", "poly.gcd", "poly.ratfunc", "skew.pfaffian")
COUNTERS = ("poly.mul.terms_max", "pairs.check_sampled.points",
            "serialize.bytes_out")


class Tracer:
    """In-memory span store plus counters measured at the same wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._undo = []

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; the root span of one op groups its spans."""
        idx = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list:
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def summary(self) -> dict:
        """name -> {"calls", "self_s"} plus the counters."""
        out = {}
        for i, s in enumerate(self.self_times()):
            rec = out.setdefault(self.names[self.name[i]],
                                 {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += s
        return {"layers": out, "counters": dict(self.counters)}

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (max for terms_max, sum otherwise)."""
    for name, rec in part["layers"].items():
        dst = total["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
        dst["calls"] += rec["calls"]
        dst["self_s"] += rec["self_s"]
    for key, v in part["counters"].items():
        if key.endswith("_max"):
            total["counters"][key] = max(total["counters"].get(key, 0), v)
        else:
            total["counters"][key] = total["counters"].get(key, 0) + v
    return total


def empty_summary() -> dict:
    return {"layers": {}, "counters": dict.fromkeys(COUNTERS, 0)}


def _after_mul(tr, args, kwargs, out):
    terms = getattr(out, "terms", None)
    if terms is not None and len(terms) > tr.counters["poly.mul.terms_max"]:
        tr.counters["poly.mul.terms_max"] = len(terms)


def _after_emit(tr, args, kwargs, out):
    if isinstance(out, str):
        tr.counters["serialize.bytes_out"] += len(out.encode())


def _check_wrapper(tr: Tracer, fn):
    sym, smp = tr.name_id("pairs.check_symbolic"), tr.name_id(
        "pairs.check_sampled")

    # one function, two span names: "auto" resolves as check_compat does
    def traced(pair, mode="auto", samples=20, seed=None, **kwargs):
        kind = mode if mode != "auto" else (
            "symbolic" if pair.N <= 4 else "sampled")
        if kind == "sampled":
            tr.counters["pairs.check_sampled.points"] += samples
        idx = tr.open(sym if kind == "symbolic" else smp)
        try:
            if seed is None:
                return fn(pair, mode, samples, **kwargs)
            return fn(pair, mode, samples, seed, **kwargs)
        finally:
            tr.close(idx)

    traced.__wrapped__ = fn
    return traced


def _rebind(tr: Tracer, orig, repl, modules) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                tr._undo.append((mod, attr, orig))
                setattr(mod, attr, repl)


def install(tr: Tracer, extra_modules=()) -> None:
    """Wrap every traced function at each place a module binds it."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and n.split(".")[0] == "hamforms"]
    mods += list(extra_modules)
    for name, where in FUNCTIONS.items():
        for modname, attr in (where if isinstance(where, list) else [where]):
            orig = getattr(sys.modules[modname], attr)
            if name == "pairs.check":
                repl = _check_wrapper(tr, orig)
            else:
                after = _after_emit if attr == "dump_json" else None
                repl = tr.wrap(name, orig, after)
            _rebind(tr, orig, repl, mods)
    for name, where in METHODS.items():
        for modname, cls_name, attr in where:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[attr]
            after = _after_mul if name == "poly.mul" else None
            tr._undo.append((cls, attr, orig))
            setattr(cls, attr, tr.wrap(name, orig, after))


def layer_metrics(summary: dict) -> dict:
    """The per-layer metric values of one summary, by metric name."""
    layers, counters = summary["layers"], summary["counters"]
    out = {}
    for name in CALLS:
        out[name + ".calls"] = layers.get(name, {}).get("calls", 0)
    for name in SELF_TIME:
        out[name + ".self_s"] = layers.get(name, {}).get("self_s", 0.0)
    out.update(counters)
    return out
