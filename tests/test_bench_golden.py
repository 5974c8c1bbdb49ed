"""The CLI still gives the benchmark's golden answers.

Every command of the benchmark pool runs in process with `--format
json`, and the benchmark's own oracle compares it with its entry in
`bench/golden/cli.json`.  A changed answer then fails here, not only in
a benchmark run.  The test only reads `bench/`; the pool files are
written to a temporary directory.
"""

import os

from hamforms.cli import main

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def test_pool_commands_match_the_bench_goldens(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import oracle
    import run
    import workloads

    golden = run.load_golden()
    assert run.pool_digest() == golden["pool_sha256"]
    workloads.write_pool(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    wrong = {}
    for op_id, sub, argv in workloads.all_pool_commands():
        code = main(argv + ["--format", "json"])
        try:
            oracle.check_cli(sub, code, capsys.readouterr().out,
                             golden["ops"][op_id])
        except oracle.WrongAnswer as exc:
            wrong[op_id] = str(exc)
    assert not wrong
