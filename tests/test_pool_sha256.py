"""Every benchmark pool command prints the same bytes in every format.

All commands of the benchmark pool run in process with --format json,
text and csv, and each run's exit code and the SHA-256 of its stdout and
stderr are compared with tests/golden/pool_sha256.json.  A change meant
to keep the CLI output byte-identical then shows any byte it moved.  The
test only reads `bench/`; the pool files are written to a temporary
directory.  After a deliberate output change, rewrite the recording with

    PYTHONPATH=src python tests/test_pool_sha256.py

and review the diff of tests/golden/pool_sha256.json.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hamforms.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "pool_sha256.json")
FORMATS = ("json", "text", "csv")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool_digests(workdir):
    """"op id/format" -> [exit code, stdout SHA-256, stderr SHA-256] of
    every pool command, run in workdir."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    workloads.write_pool(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    digests = {}
    try:
        for op_id, _, argv in workloads.all_pool_commands():
            for fmt in FORMATS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv + ["--format", fmt])
                digests["%s/%s" % (op_id, fmt)] = [
                    code, _sha(out.getvalue()), _sha(err.getvalue())]
    finally:
        os.chdir(cwd)
    return digests


def test_pool_output_is_byte_identical(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fp:
        golden = json.load(fp)
    digests = pool_digests(str(tmp_path))
    assert digests.keys() == golden.keys()
    assert {k: v for k, v in digests.items() if v != golden[k]} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = pool_digests(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fp:
        # one run a line, so a changed output is one changed line
        fp.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(k), json.dumps(v))
            for k, v in sorted(digests.items())))
