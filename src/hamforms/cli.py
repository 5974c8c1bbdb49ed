"""Command-line front end for reproducible runs over pair and form files.

Subcommands:

  compose     pair file -> structure three-form file
  decompose   structure three-form file -> pair file
  verify      compatibility identities of a pair, symbolic or sampled
  congruence  congruence table, rank, certificate, annihilation check
  classify    invariants and canonical system of a structure form
  transform   projective / x-t exchange / reciprocal transformation
  audit       dimension bookkeeping and stabilizer checks

Shared flags: --seed <s>, --format text|json|csv, --output <path>.  The
flags of each subcommand come from one table, `_COMMANDS`, which also
names its handler; `build_parser` reads nothing else.
verify, congruence and transform also take --symbolic or --sample <n>.
With neither they follow the library's "auto" rule: symbolic for N <= 4,
sampled at 20 points above.  Sampled checks evaluate at residues modulo
the prime 2^61-1 and record the Schwartz-Zippel bound of the run in the
"mode" object.  transform samples only the --reciprocal check and
rejects --sample with --projective or --xt; the other commands only run
symbolic checks and reject --sample.

Four caps exit with code 2: --symbolic above N = 6 (a dense N = 8
proof takes half a minute), --sample above 1000 points (1,000 points
take 0.4 to 0.9 s at dense N = 6), audit field counts above 64 (audit
time grows as N^3) and pair or form files above N = 1000 (the
Pfaffian recurses N/2 deep).

Every subcommand builds one JSON report, and --format renders it: json
is the report with sorted keys; text is one "path: value" line per
scalar in the same key order, a nested key written a.b and a list item
a[i]; csv is the coefficient table for congruence (header row,p12,...,
one row per du_i) and "key,value" rows of the text's scalars otherwise.

Exit codes: 0 all checks pass, 1 a verification check fails, 2 input or
usage error.  Output is deterministic for fixed inputs and seed: reports
carry no timestamps, and every check records whether it ran symbolically
or on sampled points along with the seed.  compose and decompose report
the produced file format itself so runs can be chained; transform
reports carry the transformed pair under the "pair" key.
"""

import argparse
import csv
import io
import json
import math
import sys
import warnings
from collections import namedtuple
from fractions import Fraction

from .errors import HamformsError, ValidationError
from .pairs import auto_mode, check_compat
from .bridge import form_from_pair, pair_from_form, dimension_audit
from .congruence import (pair_columns, plucker_homogeneous,
                         congruence_rank, congruence_checks)
from .classify import classify_n2, classify_n4, stabilizer_audit
from .classify import format_system, format_terms
from .transforms import apply_projective, apply_xt_exchange, apply_reciprocal
from .serialize import (rational_to_str, dump_json, load_pair, pair_to_dict,
                        parse_omega_file, omega_to_dict, load_projective,
                        load_reciprocal)

__all__ = ["main"]

_DEFAULT_SAMPLES = 20
# a symbolic proof above this many fields runs for half a minute or more:
# 36 s for a dense N = 8 pair on one core of a 2-core x86-64 machine
_SYMBOLIC_MAX_N = 6
# layout(N) lists all C(N+2, 3) triples, so audit time grows as N^3
_AUDIT_MAX_N = 64
# the sampler builds every point before it checks any; 1,000 points on a
# dense N = 6 pair take 0.4 to 0.9 s per command
_SAMPLE_MAX = 1000


# -- shared plumbing ---------------------------------------------------

def _scalar_str(v) -> str:
    if isinstance(v, (int, Fraction)):
        return rational_to_str(Fraction(v))
    return v.format()


def _mode_of(args, n=None) -> dict:
    """Check mode of a run that may sample at n fields; n is None where
    nothing is sampled.  With neither --symbolic nor --sample the mode is
    the one `auto_mode(n)` names; --symbolic above _SYMBOLIC_MAX_N fields
    and a --sample count outside 1.._SAMPLE_MAX are refused."""
    sample = args.sample
    if sample is not None and not 1 <= sample <= _SAMPLE_MAX:
        raise ValidationError("--sample count must be between 1 and %d"
                              % _SAMPLE_MAX)
    if (sample is None and n is not None and not args.symbolic
            and auto_mode(n) == "sampled"):
        sample = _DEFAULT_SAMPLES
    if n is not None and args.symbolic and n > _SYMBOLIC_MAX_N:
        raise ValidationError(
            "--symbolic at N = %d runs for half a minute or more; "
            "--sample <n> tests n random points" % n)
    if n is None or sample is None:
        return {"kind": "symbolic", "samples": None, "seed": args.seed}
    return {"kind": "sampled", "samples": sample, "seed": args.seed}


def _bound_str(b: Fraction) -> str:
    """A probability bound in base-10 notation, three digits rounded up;
    exact, so bounds far below the float range print too."""
    if not b:
        return "0"
    # from bit lengths, as str() refuses ints above 4,300 digits; the
    # estimate is off by at most one
    e = math.floor(math.log10(2) * (b.numerator.bit_length()
                                    - b.denominator.bit_length()))
    while b < Fraction(10) ** e:
        e -= 1
    while b >= Fraction(10) ** (e + 1):
        e += 1
    m = math.ceil(b * Fraction(10) ** (2 - e))
    if m == 1000:
        m, e = 100, e + 1
    return "%d.%02de%d" % (m // 100, m % 100, e)


def _add_bound(mode, rep) -> None:
    """Record the bound of a sampled check report `rep` in the mode
    object: a nonzero residual of degree <= `degree` vanishes at all
    `points` residues modulo `modulus` with probability <= `bound`."""
    if mode["kind"] == "sampled":
        mode.update(modulus=rep["modulus"], degree=rep["degree"],
                    points=rep["points"], bound=_bound_str(rep["bound"]))


def _check(name, ok, provenance, residuals=None) -> dict:
    return {"name": name, "status": "pass" if ok else "fail",
            "provenance": provenance, "residuals": residuals or {}}


def _report(command, inputs, mode, checks, **payload) -> tuple:
    """(ok, report, table), as every handler returns them; `table` is the
    report's coefficient table where it has one."""
    ok = all(c["status"] == "pass" for c in checks)
    return ok, dict(payload, command=command, inputs=inputs, mode=mode,
                    checks=checks, ok=ok), payload.get("table")


def _scalars(value, path=""):
    """(path, text) for every scalar of a JSON value in sorted-key order;
    an empty object or list counts as one scalar."""
    if isinstance(value, dict) and value:
        for key in sorted(value):
            yield from _scalars(value[key], "%s.%s" % (path, key) if path
                                else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _scalars(item, "%s[%d]" % (path, i))
    else:
        yield path, value if isinstance(value, str) else json.dumps(value)


def _emit(args, payload, table) -> None:
    """Render the report in the asked format; `table` is the command's
    coefficient table, the CSV rendering where there is one."""
    if args.format == "json":
        body = dump_json(payload)
    elif args.format == "text":
        body = "".join("%s: %s\n" % kv for kv in _scalars(payload))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if table is None:
            writer.writerow(["key", "value"])
            writer.writerows(_scalars(payload))
        else:
            writer.writerow(["row"] + table["columns"])
            writer.writerows([name] + entries for name, entries
                             in zip(table["rows"], table["entries"]))
        body = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(body)
    else:
        sys.stdout.write(body)


# -- subcommands -------------------------------------------------------

def cmd_compose(args) -> tuple:
    pair = load_pair(args.pair)
    sf = form_from_pair(pair)
    return pair_from_form(sf) == pair, omega_to_dict(sf), None


def cmd_decompose(args) -> tuple:
    sf = parse_omega_file(args.omega)
    pair = pair_from_form(sf)
    return form_from_pair(pair).form == sf.form, pair_to_dict(pair), None


def _residual_checks(rep, names) -> list:
    """The check of each (name, key) pair: it passes when rep[key] holds
    no residual, and lists each residual by its comma-joined key."""
    checks = []
    for name, key in names:
        out = {}
        for k, val in sorted(rep[key].items(), key=lambda kv: str(kv[0])):
            k = ",".join(map(str, k)) if isinstance(k, tuple) else str(k)
            out[k] = ({"point": [_scalar_str(x) for x in val["point"]],
                       "value": _scalar_str(val["value"])}
                      if isinstance(val, dict) else _scalar_str(val))
        checks.append(_check(name, not rep[key], rep["mode"], out))
    return checks


def cmd_verify(args) -> tuple:
    pair = load_pair(args.pair)
    mode = _mode_of(args, pair.N)
    rep = check_compat(pair, mode=mode["kind"], samples=mode["samples"],
                       seed=mode["seed"])
    n1, n2 = rep["checked"]
    checks = _residual_checks(rep, [
        ("first-order compatibility (%d combinations)" % n1, "first_order"),
        ("second-order compatibility (%d combinations)" % n2, "second_order"),
    ])
    _add_bound(mode, rep)
    return _report("verify", {"pair": args.pair}, mode, checks)


def _equation_strings(table) -> list:
    out = []
    for row, entries in zip(table["rows"], table["entries"]):
        # entries are rationals: a pair file holds constant blocks only
        terms = [(s, label) for s, label in zip(entries, table["columns"])
                 if s != "0"]
        out.append("%s: %s = 0" % (row, format_terms(terms)))
    return out


def cmd_congruence(args) -> tuple:
    pair = load_pair(args.pair)
    mode = _mode_of(args, pair.N)
    sf = form_from_pair(pair)
    dim = pair.N + 2
    rank_info = congruence_rank(sf)
    m = rank_info["matrix"]

    rep = congruence_checks(m, plucker_homogeneous(pair), mode["kind"],
                            mode["samples"], mode["seed"])
    suffix = " (%d points)" % rep["points"] if "points" in rep else ""
    checks = _residual_checks(rep, [
        ("annihilation of the line coordinates" + suffix, "annihilation"),
        ("quadric relations of the line coordinates" + suffix, "quadrics"),
    ])

    label = "p%d%d" if dim <= 9 else "p%d_%d"
    table = {
        "rows": ["du%d" % i for i in range(1, dim + 1)],
        "columns": [label % jk for jk in pair_columns(dim)],
        "entries": [[_scalar_str(m[i, c]) for c in range(m.ncols)]
                    for i in range(m.nrows)],
    }
    rank_payload = {
        "rank": rank_info["rank"],
        "rows": rank_info["rows"],
        "dependent": rank_info["dependent"],
        "certificate": ([_scalar_str(v) for v in rank_info["certificate"]]
                        if rank_info["certificate"] is not None else None),
    }
    _add_bound(mode, rep)
    extra = {"equations": _equation_strings(table)} if args.table else {}
    return _report("congruence", {"pair": args.pair}, mode, checks,
                   table=table, rank=rank_payload, **extra)


def cmd_classify(args) -> tuple:
    sf = parse_omega_file(args.omega)
    if sf.N == 2:
        result = classify_n2(sf)
        invariants = {}
    elif sf.N == 4:
        result = classify_n4(sf)
        invariants = {"theta_eta": _scalar_str(result.invariants[0]),
                      "q": _scalar_str(result.invariants[1])}
    else:
        raise ValidationError("classification is implemented for N=2 and "
                              "N=4, got N=%d" % sf.N)
    system = format_system(result.canonical_pair)
    log = {k: v if isinstance(v, (bool, int, str)) else _scalar_str(v)
           for k, v in sorted(result.log.items())
           if isinstance(v, (bool, int, str, Fraction))}
    mode = _mode_of(args)
    checks = []
    if sf.N == 2:
        checks.append(_check("normalization verified by pullback",
                             result.log["pullback_matches"], "symbolic"))
    return _report("classify", {"omega": args.omega}, mode, checks,
                   N=sf.N, invariants=invariants,
                   canonical=omega_to_dict(result.canonical_form),
                   system=system, log=log)


def cmd_transform(args) -> tuple:
    if args.sample is not None and not args.reciprocal:
        raise ValidationError("--sample: only --reciprocal samples; the "
                              "projective and x-t checks are symbolic")
    pair = load_pair(args.pair)
    mode = _mode_of(args, pair.N if args.reciprocal else None)
    inputs = {"pair": args.pair}
    checks = []

    if args.projective:
        inputs["projective"] = args.projective
        new_pair, rep = apply_projective(pair,
                                         load_projective(args.projective))
        checks.append(_check("metric conformal law under the point map",
                             rep["conformal_ok"], "symbolic"))
        extra = {"kind": "projective",
                 "denominator": _scalar_str(rep["denominator"])}
    elif args.xt:
        new_pair = apply_xt_exchange(pair)
        twice = apply_xt_exchange(new_pair)
        checks.append(_check("applying the exchange twice returns the "
                             "original pair", twice == pair, "symbolic"))
        extra = {"kind": "xt"}
    else:
        inputs["reciprocal"] = args.reciprocal
        new_pair = apply_reciprocal(
            pair, load_reciprocal(args.reciprocal, pair.N))
        rep = check_compat(new_pair, mode=mode["kind"],
                           samples=mode["samples"], seed=mode["seed"])
        _add_bound(mode, rep)
        checks.append(_check("transformed pair satisfies the "
                             "compatibility identities",
                             rep["all_zero"], rep["mode"]))
        extra = {"kind": "reciprocal"}

    return _report("transform", inputs, mode, checks,
                   pair=pair_to_dict(new_pair), **extra)


def cmd_audit(args) -> tuple:
    try:
        dims = sorted({int(v) for v in args.dims.split(",") if v.strip()})
    except ValueError:
        raise ValidationError("--dims expects comma-separated integers")
    if not dims:
        raise ValidationError("--dims must name at least one field count")
    if dims[-1] > _AUDIT_MAX_N:
        raise ValidationError("--dims: field count %d is above the limit %d"
                              % (dims[-1], _AUDIT_MAX_N))
    mode = _mode_of(args)
    dim_reports = [dimension_audit(n) for n in dims]
    checks = [_check("block dimensions add up at N=%d (%d coefficients)"
                     % (rep["N"], rep["total"]), rep["ok"], "symbolic")
              for rep in dim_reports]
    stab = stabilizer_audit()
    checks.append(_check("all %d stabilizer directions preserve the "
                         "standard block" % stab["dimension"],
                         all(g["first_order_ok"] for g in stab["generators"]),
                         "symbolic"))
    checks.append(_check("representative group elements preserve it exactly",
                         all(stab["exact"].values()), "symbolic"))
    checks.append(_check("non-symplectic control direction breaks it",
                         not stab["negative_control_preserved"], "symbolic"))
    return _report("audit", {"dims": dims}, mode, checks,
                   dimension=dim_reports, stabilizer=stab)


# -- argument parsing --------------------------------------------------

def _add_sampling(sp) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--symbolic", action="store_true",
                       help="prove checks as exact identities (default for "
                            "N <= 4 fields)")
    group.add_argument("--sample", type=int, metavar="N", default=None,
                       help="evaluate checks at N random points, residues "
                            "modulo 2^61-1 (default 20 for N > 4 fields, "
                            "at most %d)" % _SAMPLE_MAX)


def _add_table(sp) -> None:
    sp.add_argument("--table", action="store_true",
                    help="add the rendered equations to the report under "
                         "\"equations\", so every format shows them")


def _add_kind(sp) -> None:
    kind = sp.add_mutually_exclusive_group(required=True)
    kind.add_argument("--projective", metavar="FILE",
                      help="JSON file {\"matrix\": [[...]]} of size N+1")
    kind.add_argument("--xt", action="store_true",
                      help="swap the two independent variables")
    kind.add_argument("--reciprocal", metavar="FILE",
                      help="JSON file with keys ax, ax0, bt, bx, cx, dt0")


def _add_dims(sp) -> None:
    sp.add_argument("--dims", default="2,4,6,8", metavar="LIST",
                    help="comma-separated field counts (default 2,4,6,8)")


# a subcommand's help line, its handler, the flag naming its input file
# and the builders of its own flags, in the order help lists them; every
# handler returns (ok, report, table) and `main` renders the report
_Command = namedtuple("_Command", "help run infile flags")
_COMMANDS = {
    "compose": _Command("pair file to structure-form file", cmd_compose,
                        "--pair", ()),
    "decompose": _Command("structure-form file to pair file", cmd_decompose,
                          "--omega", ()),
    "verify": _Command("compatibility identities of a pair", cmd_verify,
                       "--pair", (_add_sampling,)),
    "congruence": _Command("congruence table, rank, and line checks",
                           cmd_congruence, "--pair",
                           (_add_table, _add_sampling)),
    "classify": _Command("invariants and canonical form of a structure form",
                         cmd_classify, "--omega", ()),
    "transform": _Command("transform a pair", cmd_transform, "--pair",
                          (_add_kind, _add_sampling)),
    "audit": _Command("dimension bookkeeping and stabilizer checks",
                      cmd_audit, None, (_add_dims,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamforms",
        description="Exact correspondence between alternating three-forms, "
                    "second-order homogeneous Hamiltonian operators, and "
                    "hydrodynamic conservation laws.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        if command.infile:
            sp.add_argument(command.infile, required=True, metavar="FILE")
        for add_flags in command.flags:
            add_flags(sp)
        sp.set_defaults(sample=None)  # _mode_of reads it on every command
        sp.add_argument("--seed", type=int, default=1, metavar="S",
                        help="seed of the documented linear congruential "
                             "generator (default 1)")
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text",
                        help="render the JSON report as text (a path: value "
                             "line per scalar, the default), json (the "
                             "report itself) or csv (the congruence table, "
                             "else key,value rows)")
        sp.add_argument("--output", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each distinct warning prints once, with no source path, before any error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ok, payload, table = _COMMANDS[args.command].run(args)
            _emit(args, payload, table)
            error = None
        except (HamformsError, OSError) as exc:
            error = exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print("warning: %s" % message, file=sys.stderr)
    if error is not None:
        print("error: %s" % error, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
