"""hamforms benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, no threads, one op at a time and at most one child process
at a time.  With --trace 0 the run measures the end-to-end metrics with
tracing off; with --trace 1 it measures the per-layer metrics over a
fixed number of ops per workload (TRACE_OPS; --seconds is not used) and
a frontier sweep (see README.md).  Human-readable lines go first; the
last line of standard output is the JSON result.  A full record of the run is written to
bench/out/.  Exit code 0 on a completed run, 2 when the source tree or
the golden set is missing or does not match.  `--workload all` runs the
workloads one after another and passes their reports through.

Modules that import hamforms are imported inside functions, once
`_import_program` has put the checkout's src/ first on the path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from math import ceil
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
GOLDEN = os.path.join(BENCH_DIR, "golden", "cli.json")

WORKLOADS = ("cli_mix", "cli_kernel", "lib_n4_many", "lib_n6_heavy")
# one fresh-interpreter import per this many seconds of loop time, so
# that the median of setup_s spans the whole run
SETUP_EVERY_S = 1.0
# ops of each traced run, the same for every seed and machine: three
# schedule cycles (each N=4 and N=6 pool member once) for the CLI
# workloads, two class cycles of lib_n4_many, two lib_n6_heavy pairs
TRACE_OPS = {"cli_mix": 60, "cli_kernel": 21, "lib_n4_many": 20,
             "lib_n6_heavy": 2}
OK_STATUSES = ("ok", "detected")


def fail(msg: str) -> None:
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _import_program():
    init = os.path.join(ROOT, "src", "hamforms", "__init__.py")
    if not os.path.isfile(init):
        fail("no hamforms source tree at %s" % os.path.dirname(init))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hamforms
    if os.path.dirname(os.path.abspath(hamforms.__file__)) != \
            os.path.dirname(init):
        fail("imported hamforms from %s, not from the checkout"
             % hamforms.__file__)


# -- the closed loop ------------------------------------------------------

class Record:
    __slots__ = ("label", "status", "secs", "detail", "rss_kb", "summary")

    def __init__(self, label, status, secs, detail="", rss_kb=0,
                 summary=None):
        self.label = label
        self.status = status
        self.secs = secs
        self.detail = detail
        self.rss_kb = rss_kb
        self.summary = summary

    def as_dict(self):
        return {"label": self.label, "status": self.status,
                "s": self.secs, "detail": self.detail}


def run_op(op, cap_s, tracer=None) -> Record:
    from caps import Timeout, capped
    from oracle import WrongAnswer

    fn = op.run if tracer is None else (lambda: tracer.span("op", op.run))
    try:
        result, secs = capped(fn, cap_s)
    except Timeout as exc:
        return Record(op.label, "timeout", exc.elapsed, "cap %.0f s" % cap_s)
    except Exception as exc:
        return Record(op.label, "error", getattr(exc, "elapsed", 0.0),
                      "%s: %s" % (type(exc).__name__, exc))
    rss, summary = 0, None
    if isinstance(result, CliResult):
        secs, rss, summary = result.secs, result.rss_kb, result.summary
    try:
        status = op.check(result)
    except WrongAnswer as exc:
        return Record(op.label, "wrong", secs, str(exc), rss, summary)
    return Record(op.label, status, secs, "", rss, summary)


def closed_loop(ops, seconds, cap_s, tracer=None, count=None, setup=None):
    """Run ops in order until `seconds` of loop time have passed (or
    `count` ops); returns (records, loop seconds).

    With a `setup` list, a fresh-interpreter import is timed into it
    before the first op and then every SETUP_EVERY_S of loop time; that
    time is not loop time.
    """
    import procs

    records, wall, next_setup = [], 0.0, 0.0
    for op in ops:
        if count is None and wall >= seconds:
            break
        if count is not None and len(records) >= count:
            break
        if setup is not None and wall >= next_setup:
            setup.append(procs.fresh_import_s())
            next_setup = wall + SETUP_EVERY_S
        t0 = perf_counter()
        records.append(run_op(op, cap_s, tracer))
        wall += perf_counter() - t0
    return records, wall


# -- CLI ops ---------------------------------------------------------------

class CliResult:
    __slots__ = ("code", "stdout", "secs", "rss_kb", "summary")

    def __init__(self, code, stdout, secs, rss_kb, summary=None):
        self.code = code
        self.stdout = stdout
        self.secs = secs
        self.rss_kb = rss_kb
        self.summary = summary


def pool_digest() -> str:
    import workloads
    h = hashlib.sha256()
    for cls, size in workloads.POOL.items():
        for i in range(size):
            for name, text in sorted(workloads.pool_files(cls, i).items()):
                h.update(name.encode() + b"\0" + text.encode())
    return h.hexdigest()


def load_golden() -> dict:
    if not os.path.isfile(GOLDEN):
        fail("golden set %s is missing" % GOLDEN)
    with open(GOLDEN, encoding="utf-8") as fp:
        return json.load(fp)


def cli_ops(workdir, golden, schedule, trace_dir=None):
    import procs
    import workloads
    from oracle import check_cli
    from workloads import Op

    if golden["pool_sha256"] != pool_digest():
        fail("pool corpus differs from the one the golden set was "
             "recorded on; rerun record_golden.py")
    workloads.write_pool(workdir)
    stdout_path = os.path.join(workdir, "stdout.json")
    ops = []
    for n, (op_id, sub, argv) in enumerate(schedule):
        def run(argv=argv, n=n):
            trace_out = (None if trace_dir is None else
                         os.path.join(trace_dir, "span%05d.json" % n))
            code, secs, rss = procs.run_child(
                procs.cli_argv(argv + ["--format", "json"], trace_out),
                workdir, workloads.OP_CAP_S["cli_mix"], stdout_path)
            with open(stdout_path, encoding="utf-8") as fp:
                text = fp.read()
            summary = None
            if trace_out is not None:
                with open(trace_out, encoding="utf-8") as fp:
                    summary = json.load(fp)
            return CliResult(code, text, secs, rss, summary)

        ops.append(Op(op_id, run,
                      lambda r, sub=sub, g=golden["ops"][op_id]:
                      check_cli(sub, r.code, r.stdout, g)))
    return ops


# -- workloads ---------------------------------------------------------------

def build_ops(workload, seed, workdir, golden, trace_dir=None, schedule=None):
    import workloads
    if workload.startswith("cli_"):
        if schedule is None:
            schedule = workloads.cli_schedule(
                seed, kernel=workload == "cli_kernel")
        return cli_ops(workdir, golden, schedule, trace_dir)
    if workload == "lib_n4_many":
        return workloads.n4_ops(seed)
    return workloads.n6_ops(seed)


def end_to_end(workload, records, wall, setup):
    secs = [r.secs for r in records]
    ordered = sorted(secs)
    ok = sum(r.status in OK_STATUSES for r in records)
    if workload.startswith("cli_"):
        rss_kb = max(r.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok / wall, "1/s"),
        "op_s.p50": (statistics.median(secs), "s"),
        "op_s.max": (max(secs), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "median of %d fresh interpreters importing hamforms, "
                   "one per %g s of the loop" % (len(setup), SETUP_EVERY_S),
        "ops_per_s": "%d ops correct of %d attempted in %.3f s"
                     % (ok, len(records), wall),
        "op_s.p50": "%d samples" % len(secs),
        "op_s.max": "%d samples; p90 %.6g s"
                    % (len(secs), ordered[ceil(0.9 * len(ordered)) - 1]),
        "peak_rss_mb": ("largest child ru_maxrss"
                        if workload.startswith("cli_")
                        else "ru_maxrss of the bench process"),
    }
    return metrics, notes


# -- traced run --------------------------------------------------------------

CLI_SUBCOMMANDS = ("compose", "decompose", "verify", "congruence", "classify",
                   "transform", "audit")


def probe_schedule() -> list:
    """One process per subcommand kind on the first pool members."""
    import workloads
    n2 = workloads.pool_commands("n2", 0)
    n4 = [c for c in workloads.pool_commands("n4", 0)
          if c[1] == "classify"]
    return n2 + n4 + [workloads.AUDIT]


def traced_run(workload, seed, workdir, golden):
    """Untraced pass, traced pass over the same ops, layer probe, frontier.

    Both passes run the first TRACE_OPS[workload] ops of the seed's
    schedule, so the call counts and the work behind the self-time totals
    and trace.overhead_ratio do not depend on how fast the machine or the
    code is.  The probe (two lib_n4_many ops
    in-process, ten CLI processes) is the same for every workload and
    makes every layer metric a measurement on every workload; its spans
    are part of the totals.
    """
    import frontier
    import spans
    import workloads

    cap, count = workloads.OP_CAP_S[workload], TRACE_OPS[workload]
    base, base_wall = closed_loop(
        build_ops(workload, seed, workdir, golden), 0, cap, count=count)
    trace_dir = os.path.join(workdir, "spans")
    os.makedirs(trace_dir, exist_ok=True)
    total = spans.empty_summary()
    tracer = spans.Tracer()
    spans.install(tracer, [workloads])
    try:
        if workload.startswith("cli_"):
            traced, traced_wall = closed_loop(
                build_ops(workload, seed, workdir, golden, trace_dir), 0,
                cap, count=count)
        else:
            traced, traced_wall = closed_loop(
                build_ops(workload, seed, workdir, golden), 0, cap, tracer,
                count=count)
        # the fixed layer probe: two library ops and ten CLI processes
        probe, _ = closed_loop(workloads.n4_ops(seed, 2), 0,
                               workloads.OP_CAP_S["lib_n4_many"], tracer,
                               count=2)
    finally:
        tracer.uninstall()
    spans.merge(total, tracer.summary())
    probe_cli = build_ops("cli_mix", seed, workdir, golden, trace_dir,
                          probe_schedule())
    probe += closed_loop(probe_cli, 0, workloads.OP_CAP_S["cli_mix"],
                         count=len(probe_cli))[0]
    cli_records = [r for r in traced + probe if r.summary is not None]
    for rec in cli_records:
        spans.merge(total, rec.summary)
    sweep = frontier.sweep(seed)

    metrics = {k: (v, _layer_unit(k))
               for k, v in spans.layer_metrics(total).items()}
    metrics["cli.import_s"] = (statistics.median(
        r.summary["import_s"] for r in cli_records), "s")
    for sub in CLI_SUBCOMMANDS:
        walls = [r.secs for r in cli_records if _subcommand(r.label) == sub]
        metrics["cli.%s.s" % sub] = (statistics.median(walls), "s")
    metrics["trace.overhead_ratio"] = (traced_wall / base_wall, "ratio")
    # frontier.TARGETS have no time metric, only their status; a TIMED
    # case that hits the cap reports the cap and counts as a timeout
    for name in frontier.TIMED:
        res = sweep[name]
        metrics["frontier.%s.s" % name] = (
            res["s"] if res["s"] is not None else res["elapsed_s"], "s")
    metrics["frontier.timeouts"] = (
        sum(r["status"] == "timeout" for r in sweep.values()), "count")
    metrics["frontier.errors"] = (
        sum(r["status"] in ("error", "wrong") for r in sweep.values()),
        "count")
    return base + traced + probe, metrics, sweep


def _subcommand(label: str) -> str:
    """CLI op ids are "<member>.<subcommand>[.<kind>]" or "audit"."""
    return label if label == "audit" else label.split(".")[1]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


# -- reporting ---------------------------------------------------------------

def _commit():
    """HEAD of the repository the checkout is, or None outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fp:
                    h.update(fp.read())
    return h.hexdigest()


def run_all(args) -> int:
    """Each workload in its own process, sequentially; reports pass through."""
    code = 0
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)])
        code = code or out.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    _import_program()
    sys.path.insert(0, BENCH_DIR)
    golden = load_golden()
    workdir = os.path.join(OUT_DIR, "work-%s-%d-%d"
                           % (args.workload, args.seed, args.trace))
    os.makedirs(workdir, exist_ok=True)

    import workloads
    extra = {}
    if args.trace:
        records, metrics, extra["frontier"] = traced_run(
            args.workload, args.seed, workdir, golden)
        notes = {}
    else:
        setup = []
        ops = build_ops(args.workload, args.seed, workdir, golden)
        records, wall = closed_loop(ops, args.seconds,
                                    workloads.OP_CAP_S[args.workload],
                                    setup=setup)
        metrics, notes = end_to_end(
            args.workload, records, wall, setup)
        extra["setup_samples_s"] = setup
        if args.workload == "lib_n6_heavy":
            extra["n6_pairs"] = [workloads.n6_term_counts(op.info)
                                 for op in ops[:len(records)]]

    failed = sum(r.status not in OK_STATUSES for r in records)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(), "src_sha256": _src_digest(),
        "attempted": len(records), "failed": failed,
        "fail_ratio": failed / len(records),
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k, "")}
                    for k, (v, u) in metrics.items()},
        "ops": [r.as_dict() for r in records],
    }
    report.update(extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    with open(out_path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=1, sort_keys=True)

    print("workload %s  seed %d  seconds %g  trace %d  python %s  nproc %s"
          % (args.workload, args.seed, args.seconds, args.trace,
             report["python"], report["nproc"]))
    for k, (v, u) in metrics.items():
        print("  %-40s %14.6g %-6s %s" % (k, v, u, notes.get(k, "")))
    print("  %-40s %14.6g %-6s %d failed of %d attempted"
          % ("fail_ratio", report["fail_ratio"], "", failed, len(records)))
    for r in records:
        if r.status not in OK_STATUSES:
            print("  FAILED %s: %s %s" % (r.label, r.status, r.detail))
    print("  record: %s" % os.path.relpath(out_path, ROOT))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
