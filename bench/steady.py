"""Steadiness check: two sets of runs of the same tree, compared.

    python3 bench/steady.py [--workloads a,b]

Runs bench/run.py sequentially (one run at a time) for each workload,
set A on seeds 1..10 and set B on seeds 11..20, with --seconds from
BENCHMARK.json.  Per end-to-end metric and workload it prints each set's
median and quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and whether

- each set's spread is within the metric's bound, and
- set B's median is not worse than set A's by more than the bound.

The full table is written to bench/out/steady.json.  Exit code 1 when
any comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10


def one_run(workload, seed, seconds) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError("run failed: %s\n%s" % (" ".join(argv),
                                                   out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("incorrect outputs: %s" % " ".join(argv))
    return {k: v["value"] for k, v in result["metrics"].items()}


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def worse_by(metric, a, b) -> float:
    """Share by which median b is worse than median a."""
    if metric["better"] == "lower":
        return (b - a) / a
    return (a - b) / a


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)

    table, ok = {}, True
    for workload in args.workloads.split(","):
        sets = [[one_run(workload, seed, bench["run_seconds"])
                 for seed in range(first, first + RUNS)]
                for first in (1, 1 + RUNS)]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            per_set = [stats([r[name] for r in runs]) for runs in sets]
            row = {"sets": per_set, "bound": metric["bound"]}
            row["spread_ok"] = all(st["spread"] <= metric["bound"]
                                   for st in per_set)
            row["worse_by"] = worse_by(metric, per_set[0]["median"],
                                       per_set[1]["median"])
            row["median_ok"] = row["worse_by"] <= metric["bound"]
            ok = ok and row["spread_ok"] and row["median_ok"]
            table["%s/%s" % (workload, name)] = row
            print("%-13s %-12s bound %.2f  %s  B worse by %+.3f  %s" % (
                workload, name, metric["bound"],
                "  ".join("med %.5g [%.5g, %.5g] spread %.3f"
                          % (st["median"], st["q1"], st["q3"], st["spread"])
                          for st in per_set),
                row["worse_by"],
                "ok" if row["spread_ok"] and row["median_ok"] else "FAIL"),
                flush=True)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "steady.json"), "w",
              encoding="utf-8") as fp:
        json.dump(table, fp, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
