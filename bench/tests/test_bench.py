"""Self-tests of the benchmark: python3 -m pytest -q bench/tests"""

import json
import os
import time

import pytest

import corpus
import frontier
import oracle
import run
import spans
import workloads
from caps import Timeout, capped
from oracle import WrongAnswer
from workloads import Op


def _corpus_bytes(seed):
    parts = [corpus.dumps(d) for d in workloads.n6_stream(seed, 4)]
    for label, src, a, recip, std in workloads.n4_stream(seed, 20):
        if isinstance(src, dict):
            parts.append(corpus.dumps(src))
        if std is not None:
            parts.append(corpus.dumps(std))
        if recip is not None:
            parts.append(repr(recip))
        parts.append(repr(a))
    parts.append(json.dumps(workloads.cli_schedule(seed, cycles=3)))
    parts.append(json.dumps(workloads.cli_schedule(seed, 3, kernel=True)))
    return "".join(parts).encode()


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    assert _corpus_bytes(7) == _corpus_bytes(7)
    assert _corpus_bytes(7) != _corpus_bytes(8)
    trees = []
    for sub in ("a", "b"):
        workloads.write_pool(str(tmp_path / sub))
        trees.append({name: (tmp_path / sub / name).read_bytes()
                      for name in sorted(os.listdir(tmp_path / sub))})
    assert trees[0] == trees[1] and trees[0]


def test_pool_omega_matches_the_library_layout():
    from hamforms import form_from_pair, pair_from_dict
    from hamforms.serialize import omega_to_dict
    for cls in ("n2", "n4"):
        files = workloads.pool_files(cls, 0)
        pair = json.loads(files["%s_0.pair.json" % cls])
        omega = json.loads(files["%s_0.omega.json" % cls])
        assert omega == omega_to_dict(form_from_pair(pair_from_dict(pair)))


def test_negative_control_is_detected_and_unperturbed_is_not():
    src = corpus.pair_dict(__import__("random").Random(3), 4,
                           corpus.N4_CUBIC[1])
    assert workloads._check_negative(workloads._negative(src, (1, 2, 1))) \
        == "detected"
    with pytest.raises(WrongAnswer):
        workloads._check_negative(workloads._negative(src, (1, 2, 0)))


def test_pipeline_oracle_flags_a_perturbed_pair():
    label, src, proj, recip, std = workloads.n4_stream(5, 1)[0]
    out = workloads._pipeline(src, proj, recip, std)
    assert workloads._check_pipeline(src, std, out) == "ok"
    other = workloads.n4_stream(6, 1)[0][1]
    from hamforms import pair_from_dict
    out["back"] = pair_from_dict(other)
    with pytest.raises(WrongAnswer):
        workloads._check_pipeline(src, std, out)


def test_cli_oracle_flags_an_altered_payload(tmp_path):
    import procs
    workloads.write_pool(str(tmp_path))
    golden = run.load_golden()["ops"]["n2_0.decompose"]
    out = str(tmp_path / "out.json")
    code, _, _ = procs.run_child(procs.cli_argv(
        ["decompose", "--omega", "n2_0.omega.json", "--format", "json"]),
        str(tmp_path), 60, out)
    text = open(out, encoding="utf-8").read()
    assert oracle.check_cli("decompose", code, text, golden) == "ok"
    payload = json.loads(text)
    payload["B"][0] = str(int(payload["B"][0]) + 1)
    with pytest.raises(WrongAnswer):
        oracle.check_cli("decompose", code, json.dumps(payload), golden)
    with pytest.raises(WrongAnswer):
        oracle.check_cli("decompose", 1, text, golden)


def test_untrusted_checks_are_not_hashed():
    checks = [{"name": "normalization verified by pullback",
               "status": "pass"}]
    a = oracle.payload_digest("transform", {"checks": checks})
    b = oracle.payload_digest("transform", {"checks": []})
    assert a == b


def _slow():
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5:
        pass


def test_capped_op_counts_as_timeout_failure():
    with pytest.raises(Timeout):
        capped(_slow, 0.05)
    ops = [Op("slow", _slow, lambda r: "ok"), Op("fast", lambda: 1,
                                                 lambda r: "ok")]
    records, wall = run.closed_loop(ops, 60, 0.2)
    assert [r.status for r in records] == ["timeout", "ok"]
    assert 0.2 <= records[0].secs < 1.0
    metrics, _ = run.end_to_end("lib_n4_many", records, wall, [0.1])
    assert metrics["ops_per_s"][0] == pytest.approx(1 / wall)
    failed = sum(r.status not in run.OK_STATUSES for r in records)
    assert failed / len(records) == 0.5


def test_span_self_times_are_nonnegative_and_within_op_wall():
    tracer = spans.Tracer()
    ops = workloads.n4_ops(11)[:2]
    spans.install(tracer, [workloads])
    try:
        records, _ = run.closed_loop(ops, 0, 60, tracer, count=2)
    finally:
        tracer.uninstall()
    assert [r.status for r in records] == ["ok", "ok"]
    selfs = tracer.self_times()
    assert len(selfs) > 10 and min(selfs) >= -1e-9
    roots = [i for i in range(len(selfs)) if tracer.parent[i] == -1]
    assert len(roots) == 2
    for root, rec in zip(roots, records):
        inside = [i for i in range(len(selfs)) if _root_of(tracer, i) == root]
        assert sum(selfs[i] for i in inside) <= rec.secs + 1e-9
    names = set(tracer.summary()["layers"])
    assert {"op", "poly.mul", "pairs.check_symbolic",
            "congruence.grassmann"} <= names


def _root_of(tracer, i):
    while tracer.parent[i] != -1:
        i = tracer.parent[i]
    return i


def test_tracing_is_removed_after_uninstall():
    import hamforms.poly
    before = hamforms.poly.Poly.__mul__
    tracer = spans.Tracer()
    spans.install(tracer, [workloads])
    assert hamforms.poly.Poly.__mul__ is not before
    tracer.uninstall()
    assert hamforms.poly.Poly.__mul__ is before
    assert workloads.check_compat is hamforms.pairs.check_compat


def test_every_frontier_case_is_timed_or_a_target():
    names = [name for name, _, _ in frontier.cases(1)]
    assert sorted(names) == sorted(frontier.TIMED + frontier.TARGETS)
    assert not set(frontier.TIMED) & set(frontier.TARGETS)
    bench = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    layer = {m["name"] for m in bench["per_layer"]}
    assert {"frontier.%s.s" % n for n in frontier.TIMED} <= layer
    assert not {"frontier.%s.s" % n for n in frontier.TARGETS} & layer
