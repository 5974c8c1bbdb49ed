"""Child processes: CLI calls and fresh-interpreter imports.

At most one child exists at a time.  Each is reaped with `os.wait4`,
which gives its own peak resident set size; a child that outlives its
cap is killed and reaped before `Timeout` propagates.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

from caps import capped

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, cwd, cap_s, stdout_path=os.devnull):
    """Run argv to completion; returns (exit code, seconds, maxrss KiB).

    Raises Timeout after killing the child once cap_s has passed.
    """
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        try:
            (_, status, usage), _ = capped(lambda: os.wait4(proc.pid, 0),
                                           cap_s)
        except BaseException:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
        secs = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, secs, usage.ru_maxrss


def cli_argv(args, trace_out=None) -> list:
    """`python -m hamforms ...`, or the tracing shim when trace_out is set."""
    if trace_out is None:
        return [sys.executable, "-m", "hamforms"] + list(args)
    return [sys.executable, os.path.join(BENCH_DIR, "child.py"),
            trace_out] + list(args)


def fresh_import_s(cap_s: float = 60.0) -> float:
    """Wall time of a new interpreter that imports hamforms and exits."""
    code, secs, _ = run_child([sys.executable, "-c", "import hamforms"],
                              ROOT, cap_s)
    if code != 0:
        raise RuntimeError("a fresh interpreter could not import hamforms")
    return secs
