"""Tests of the benchmark itself, on toy-sized corpora.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer

TOY = {"n_universities": 3, "n_sds": 3, "staff_min": 1, "staff_max": 2}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Toy workloads of both session kinds, working under tmp_path."""
    for name, session in (("toy_chain", "chain"), ("toy_queries", "chain_then_queries")):
        monkeypatch.setitem(run.WORKLOADS, name, {
            "generator": TOY, "session": session,
            "loop": "closed", "clients": 1})
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "MIN_QUERIES", 2)
    monkeypatch.setattr(run, "QUERY_BLOCK", 1)
    monkeypatch.setattr(run, "TRACED_QUERIES", 2)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    return tmp_path


def run_bench(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_end_to_end_metric_prints_with_its_unit(toy, capsys):
    spec = run.bench_spec()["end_to_end"]
    for workload in ("toy_chain", "toy_queries"):
        lines, result = run_bench(capsys, "--workload", workload, "--seed", "3",
                                  "--seconds", "0.1", "--trace", "0")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert [m["name"] for m in spec] == list(result["metrics"])
        for m in spec:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert result["metrics"][m["name"]]["value"] > 0
            assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                       for line in lines)
        assert any(line.split()[:1] == ["ops_failed_frac"] for line in lines)


@pytest.mark.parametrize("workload", ["toy_chain", "toy_queries"])
def test_traced_run_prints_every_per_layer_metric_and_repeats_counts(
        toy, capsys, workload):
    names = [m["name"] for m in run.bench_spec()["per_layer"]]
    results = []
    for _ in range(2):
        _, result = run_bench(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "0.1", "--trace", "1")
        assert result["correct"]
        assert list(result["metrics"]) == names
        results.append(result["metrics"])
    queries = run.TRACED_QUERIES if workload == "toy_queries" else 1
    for metrics in results:
        assert metrics["loader.load_corpus.calls"]["value"] == len(run.CHAIN) + queries
        assert metrics["rankshift.sds_rank_list.calls"]["value"] > 0
        assert metrics["rankshift.sds_rank_list.total_s"]["value"] > 0
    for name in names:
        if name.endswith(".calls") or name == "cli.emit_bytes":
            assert results[0][name] == results[1][name], name
    assert results[0]["indicators.unit_indicator.calls"]["value"] > 0


def test_flipped_report_byte_counts_as_failed_operation(toy):
    from bibliorank import cli
    corpus = toy / "corpus"
    run.Generations(run.gen_config("toy_chain", 0)).make(corpus)
    op = run.Op("indicators")
    reference = run.Checker(None)
    rc, err, _ = run.run_cli_inproc(cli, op, corpus, toy / "a")
    reference.check(op, rc, err, toy / "a")
    assert reference.failed == 0

    checker = run.Checker(reference.seen)
    rc, err, _ = run.run_cli_inproc(cli, op, corpus, toy / "b")
    report = toy / "b" / "uda_scores.csv"
    header, body = report.read_bytes().split(b"\n", 1)
    # the provenance line is not part of the digest
    report.write_bytes(header + b"x\n" + body)
    checker.check(op, rc, err, toy / "b")
    assert checker.failed == 0
    flipped = bytearray(report.read_bytes())
    flipped[-2] ^= 1
    report.write_bytes(bytes(flipped))
    checker.check(op, rc, err, toy / "b")
    assert (checker.failed, checker.attempted) == (1, 2)
    assert "uda_scores digest mismatch" in checker.problems[0]


def test_error_line_and_exit_status_count_as_failures(toy):
    checker = run.Checker(None)
    checker.check(run.Op("ingest"), 0, '{"error": "SchemaError", "message": "x"}\n', toy)
    checker.check(run.Op("ingest"), 1, "", toy)
    checker.check(run.Op("rank"), 0, "", toy)
    assert (checker.failed, checker.attempted) == (3, 3)


def test_tracer_patches_every_importing_namespace_and_tolerates_absent_names():
    from bibliorank import aggregate, cli, rankshift
    original = aggregate.sds_unit_scores
    with Tracer(spans=("aggregate.sds_unit_scores", "model.no_such_function",
                       "rankshift.sds_rank_list")) as t:
        assert rankshift.sds_unit_scores is aggregate.sds_unit_scores is not original
        assert cli.sds_unit_scores is aggregate.sds_unit_scores
    assert rankshift.sds_unit_scores is aggregate.sds_unit_scores is original
    assert t.absent == ["model.no_such_function"]
    assert t.calls["rankshift.sds_rank_list"] == 0


def test_tracer_counts_distinct_arguments_per_command_without_the_corpus():
    from bibliorank import indicators
    from bibliorank.baseline import build_baselines
    from bibliorank.model import staff
    from bibliorank.synthgen import GenConfig, make_corpus
    corpora = [make_corpus(GenConfig(seed=0, **TOY)) for _ in range(2)]
    period = corpora[0].early
    unit = next(u for u in corpora[0].units() if staff(corpora[0], *u, period) > 0)
    name = "indicators.unit_indicator"
    with Tracer(counts=(name,), keyed=(name,)) as t:
        for corpus in corpora + corpora[:1]:
            indicators.unit_indicator(corpus, *unit, "P", period,
                                      indicators.ShareScheme(), build_baselines(corpus))
        t.end_op()
        indicators.unit_indicator(corpora[0], *unit, "FP", period,
                                  indicators.ShareScheme(), build_baselines(corpora[0]))
        t.end_op()
    assert (t.calls[name], t.distinct[name]) == (4, 2)


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "national",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
