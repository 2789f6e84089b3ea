import filecmp
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bibliorank import indicators
from bibliorank.cli import main
from bibliorank.loader import write_corpus
from bibliorank.synthgen import GenConfig, generate

from conftest import A, P, R, make_corpus

SRC = str(Path(indicators.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    d = tmp_path_factory.mktemp("demo")
    generate(GenConfig(seed=42, n_universities=8, n_sds=4, turnover_rate=0.1,
                       staff_min=2, staff_max=5), d)
    return d


def run_all(demo, out):
    common = ["--input", str(demo), "--out", str(out), "--min-staff", "1"]
    assert main(["indicators", *common]) == 0
    assert main(["rank", *common]) == 0
    assert main(["compare", *common]) == 0


class TestCommands:
    def test_ingest_ok(self, demo, capsys):
        assert main(["ingest", "--input", str(demo)]) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_missing_taxonomy(self, tmp_path, capsys):
        generate(GenConfig(seed=1), tmp_path)
        (tmp_path / "taxonomy.csv").unlink()
        assert main(["ingest", "--input", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MissingFile"

    def test_full_run_produces_reports(self, demo, tmp_path):
        run_all(demo, tmp_path)
        expected = ["unit_scores.csv", "researcher_scores.csv", "uda_scores.csv",
                    "rank_lists.csv", "quintiles.csv", "shift_stats.csv",
                    "transition_matrices.csv", "university_shift_table.csv",
                    "shift_balance.csv"]
        for name in expected:
            assert (tmp_path / name).exists(), name
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first.startswith("# corpus=") and "version=" in first

    def test_drilldown(self, demo, tmp_path):
        assert main(["drilldown", "--input", str(demo), "--out", str(tmp_path),
                     "--min-staff", "1", "--university", "UNI001",
                     "--uda", "UDA01"]) == 0
        assert (tmp_path / "sds_drilldown.csv").exists()
        assert (tmp_path / "indicator_comparison.csv").exists()

    def test_synth_roundtrip(self, tmp_path, capsys):
        assert main(["synth", "--seed", "5", "--out", str(tmp_path / "s")]) == 0
        counts = json.loads(capsys.readouterr().out.strip())
        assert counts["n_researchers"] > 0
        assert main(["ingest", "--input", str(tmp_path / "s")]) == 0


class TestFormats:
    def test_json_format(self, demo, tmp_path):
        assert main(["rank", "--input", str(demo), "--out", str(tmp_path),
                     "--min-staff", "1", "--format", "json"]) == 0
        doc = json.loads((tmp_path / "rank_lists.json").read_text())
        assert set(doc) == {"provenance", "columns", "rows"}
        assert doc["provenance"]["version"]

    def test_markdown_na_cells(self, demo, tmp_path):
        assert main(["compare", "--input", str(demo), "--out", str(tmp_path),
                     "--min-staff", "2", "--format", "markdown"]) == 0
        text = (tmp_path / "university_shift_table.md").read_text()
        assert text.splitlines()[0].startswith("# corpus=")
        assert "|" in text

    def test_csv_null_cells_empty(self, demo, tmp_path):
        assert main(["compare", "--input", str(demo), "--out", str(tmp_path),
                     "--min-staff", "3"]) == 0
        assert (tmp_path / "university_shift_table.csv").exists()


class TestDeterminism:
    def test_reruns_byte_identical(self, demo, tmp_path):
        run_all(demo, tmp_path / "one")
        run_all(demo, tmp_path / "two")
        for f in sorted((tmp_path / "one").iterdir()):
            assert filecmp.cmp(f, tmp_path / "two" / f.name, shallow=False), f.name


class TestBadInput:
    @pytest.mark.parametrize("scheme", ["2,2", "a,b,c", "0,2,1", "nan,1,1"])
    def test_malformed_scheme(self, demo, tmp_path, capsys, scheme):
        out = tmp_path / "out"
        assert main(["rank", "--input", str(demo), "--out", str(out),
                     "--scheme", scheme]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidConfig"
        assert not out.exists()

    @pytest.mark.parametrize("min_staff", ["nan", "inf"])
    def test_non_finite_min_staff(self, demo, tmp_path, capsys, min_staff):
        out = tmp_path / "out"
        assert main(["rank", "--input", str(demo), "--out", str(out),
                     "--min-staff", min_staff]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidConfig"
        assert not out.exists()

    @pytest.mark.parametrize("body", [b"CAT_A,2002\n", b"CAT_\xff,2002,1,1,5\n",
                                      b"CAT_A,2002,nan,1,5\n"],
                             ids=["short_row", "invalid_utf8", "nan_median"])
    def test_malformed_baselines(self, demo, tmp_path, capsys, body):
        bad = tmp_path / "baselines.csv"
        bad.write_bytes(b"subject_category,year,median,mean,n_pubs\n" + body)
        out = tmp_path / "out"
        assert main(["indicators", "--input", str(demo), "--out", str(out),
                     "--baselines", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SchemaError"
        assert str(bad) in json.loads(lines[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, error", [
        ("--university", "UNI999", "UnknownUniversity"),
        ("--uda", "UDA99", "UnknownUDA"),
    ])
    def test_drilldown_unknown_scope(self, demo, tmp_path, capsys, flag, value,
                                     error):
        scope = {"--university": "UNI001", "--uda": "UDA01", flag: value}
        out = tmp_path / "out"
        argv = ["drilldown", "--input", str(demo), "--out", str(out),
                "--min-staff", "1"]
        for k, v in scope.items():
            argv += [k, v]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == error
        assert not out.exists()


INVALID_CORPORA = {
    "repeated_position": ([P("p1", n_authors=2)], [A("p1", "r1", 1), A("p1", "r2", 1)],
                          "[duplicate_position] position 1 repeated on p1"),
    "too_few_authors": ([P("p1", n_authors=1)], [A("p1", "r1", 1), A("p1", "r2", 2)],
                        "[author_count_too_small] publication p1 lists 1 authors "
                        "but has 2 authorship records"),
}


class TestInvalidCorpus:
    @pytest.mark.parametrize("case", sorted(INVALID_CORPORA))
    @pytest.mark.parametrize("command", ["indicators", "rank", "compare", "drilldown"])
    def test_scoring_commands_refuse_what_ingest_rejects(self, tmp_path, capsys,
                                                         command, case):
        pubs, authorships, first = INVALID_CORPORA[case]
        corpus_dir = tmp_path / "corpus"
        write_corpus(make_corpus([R("r1"), R("r2")], pubs, authorships), corpus_dir)
        assert main(["ingest", "--input", str(corpus_dir)]) == 1
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--input", str(corpus_dir), "--out", str(out)]
        if command == "drilldown":
            argv += ["--university", "U1", "--uda", "A"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "InvalidCorpus"
        assert record["message"].endswith(first)
        assert not out.exists()


class TestOnePassScoring:
    def test_one_ledger_per_command_and_no_rescoring(self, demo, tmp_path,
                                                     monkeypatch):
        """Each command builds one ledger and computes each unit score at
        most once: the UDA rollup reads the unit table's scores, the shift
        table the rank lists', and the indicator comparison the drilldown's."""
        builds = []
        original_init = indicators.UnitLedger.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(indicators.UnitLedger, "__init__", counting_init)
        scored = []
        original = indicators.unit_indicator

        def spy(corpus, university_id, sds, indicator, period, *args, **kwargs):
            scored.append((university_id, sds, indicator, period.label))
            return original(corpus, university_id, sds, indicator, period,
                            *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("bibliorank")
                    and getattr(module, "unit_indicator", None) is original):
                monkeypatch.setattr(module, "unit_indicator", spy)
        drilldown = ["drilldown", "--university", "UNI001", "--uda", "UDA01",
                     "--indicator", "P"]
        for command in (["indicators"], ["rank"], ["compare"], drilldown):
            builds.clear()
            scored.clear()
            assert main([*command, "--input", str(demo), "--out",
                         str(tmp_path / command[0]), "--min-staff", "1"]) == 0
            assert len(builds) == 1, command
            assert scored, command
            assert max(Counter(scored).values()) == 1, command

    @pytest.mark.parametrize("indicator", ["P", "FP", "AQ"])
    def test_drilldown_agrees_with_its_comparison_column(self, demo, tmp_path,
                                                         indicator):
        out = tmp_path / "out"
        assert main(["drilldown", "--input", str(demo), "--out", str(out),
                     "--min-staff", "1", "--university", "UNI001",
                     "--uda", "UDA01", "--indicator", indicator,
                     "--format", "json"]) == 0
        rows = json.loads((out / "sds_drilldown.json").read_text())["rows"]
        doc = json.loads((out / "indicator_comparison.json").read_text())
        column = doc["columns"].index(indicator)
        comparison = {row[0]: row[column] for row in doc["rows"]}
        shared = [(sds, shift) for sds, shift in rows if sds in comparison]
        assert shared
        for sds, shift in shared:
            assert comparison[sds] == shift, sds


@pytest.mark.parametrize("module", ["numpy", "concurrent.futures", "dataclasses",
                                    "statistics"])
def test_cli_import_does_not_load(module):
    """Each of these costs start-up time that no scoring command needs."""
    code = f"import sys, bibliorank.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.strip() == "False"


def test_package_still_serves_the_generator():
    import bibliorank
    assert bibliorank.generate is generate
    assert bibliorank.GenConfig is GenConfig
