import csv
import filecmp
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bibliorank import aggregate, cli, indicators
from bibliorank.cli import main
from bibliorank.errors import BiblioRankError
from bibliorank.indicators import ShareScheme
from bibliorank.loader import write_corpus
from bibliorank.model import Corpus, Taxonomy
from bibliorank.synthgen import GenConfig, generate, make_corpus as synth_corpus

from conftest import A, P, R, make_corpus, make_taxonomy
from test_cli_digests import SEED, SHAPES
from test_corpus import write_fileset
from test_indicators import cross_scope

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

    def test_ingest_refuses_a_year_that_only_python_reads(self, tmp_path, capsys):
        generate(GenConfig(seed=1), tmp_path)
        pubs = tmp_path / "publications.csv"
        header, first, *rest = pubs.read_text().splitlines(keepends=True)
        pid, year, *cells = first.split(",")
        pubs.write_text("".join([header, ",".join([pid, year[:2] + "_" + year[2:], *cells]),
                                 *rest]))
        assert main(["ingest", "--input", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [{
            "error": "SchemaError",
            "message": f"{pubs}: year='{year[:2]}_{year[2:]}' is not an integer (row 2)"}]

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

    def test_synth_writes_a_benchmark_corpus(self, tmp_path):
        """Every generator setting of the `dense` shape has a synth option."""
        argv = [f"--{k.replace('_', '-')}={v}" for k, v in SHAPES["dense"].items()]
        assert main(["synth", "--seed", "1", *argv, "--out", str(tmp_path / "cli")]) == 0
        generate(GenConfig(seed=1, **SHAPES["dense"]), tmp_path / "lib")
        cli_files, lib_files = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                                for d in ("cli", "lib"))
        assert len(lib_files) == 6 and cli_files == lib_files


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

    def test_markdown_escapes_a_pipe_in_an_id(self, tmp_path):
        """A university, SDS or UDA id holding `|` keeps every row of every
        markdown report at the header's cell count."""
        corpus = synth_corpus(GenConfig(seed=3, n_universities=6, n_sds=4, sds_per_uda=2))
        tax = corpus.taxonomy

        def bar(name):
            return name[:3] + "|" + name[3:]

        corpus = Corpus(
            Taxonomy({bar(s): bar(u) for s, u in tax.sds_to_uda.items()},
                     frozenset(map(bar, tax.life_science_sds))),
            [r._replace(sds=bar(r.sds), university_id=bar(r.university_id))
             for r in corpus.researchers],
            corpus.publications,
            [a._replace(byline_university_id=bar(a.byline_university_id))
             for a in corpus.authorships],
            corpus.periods)
        write_corpus(corpus, tmp_path / "bars")
        out = tmp_path / "out"
        for command in ("indicators", "rank", "compare"):
            assert main([command, "--input", str(tmp_path / "bars"), "--out", str(out),
                         "--min-staff", "1", "--format", "markdown"]) == 0
        reports = sorted(out.glob("*.md"))
        assert len(reports) == 9
        escaped = 0
        for path in reports:
            rows = path.read_text(encoding="utf-8").splitlines()[2:]
            widths = {len(re.split(r"(?<!\\)\|", row)) for row in rows}
            assert len(widths) == 1, path.name
            escaped += sum("\\|" in row for row in rows)
        assert escaped

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_markdown_writes_a_line_break_in_an_id_as_br(self, tmp_path, fmt):
        """A university, SDS or UDA id holding a line break, read from a quoted
        CSV cell or a JSON string, keeps each entry of every markdown report
        on one row: each of \\n, \\r\\n and \\r is written as <br>."""
        corpus = synth_corpus(GenConfig(seed=3, n_universities=6, n_sds=4, sds_per_uda=2))
        tax = corpus.taxonomy

        def split(name, brk):
            return name[:3] + brk + name[3:]

        corpus = Corpus(
            Taxonomy({split(s, "\r\n"): split(u, "\r") for s, u in tax.sds_to_uda.items()},
                     frozenset(split(s, "\r\n") for s in tax.life_science_sds)),
            [r._replace(sds=split(r.sds, "\r\n"), university_id=split(r.university_id, "\n"))
             for r in corpus.researchers],
            corpus.publications,
            [a._replace(byline_university_id=split(a.byline_university_id, "\n"))
             for a in corpus.authorships],
            corpus.periods)
        fileset = tmp_path / "breaks"
        write_corpus(corpus, fileset)
        if fmt == "json":
            for path in fileset.glob("*.csv"):
                with open(path, newline="", encoding="utf-8") as fh:
                    path.with_suffix(".json").write_text(json.dumps(list(csv.DictReader(fh))))
                path.unlink()
        for report in ("csv", "markdown"):
            for command in ("indicators", "rank", "compare"):
                assert main([command, "--input", str(fileset), "--out",
                             str(tmp_path / report), "--min-staff", "1",
                             "--format", report]) == 0
        reports = sorted((tmp_path / "markdown").glob("*.md"))
        assert len(reports) == 9
        for path in reports:
            text = path.read_bytes().decode("utf-8")
            assert "\r" not in text
            header, blank, *rows, end = text.split("\n")
            assert (blank, end) == ("", "")
            assert all(row.startswith("| ") and row.endswith(" |") for row in rows)
            with open(tmp_path / "csv" / f"{path.stem}.csv", newline="",
                      encoding="utf-8") as fh:
                entries = list(csv.reader(fh))[1:]  # the provenance line is one cell
            assert len(rows) == len(entries) + 1, path.name  # and the --- row
        text = (tmp_path / "markdown" / "rank_lists.md").read_text(encoding="utf-8")
        assert "| UDA<br>01 |" in text and "| UNI<br>001 |" in text

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

    def test_config_hash_reads_the_baselines_content(self, demo, tmp_path):
        def provenance(baselines, out):
            assert main(["rank", "--input", str(demo), "--out", str(tmp_path / out),
                         "--min-staff", "1", "--baselines", str(baselines)]) == 0
            lines = {f.read_text().splitlines()[0]
                     for f in (tmp_path / out).iterdir()}
            assert len(lines) == 1
            return lines.pop()

        body = "subject_category,year,median,mean,n_pubs\nCAT_Q,2001,2,2.5,4\n"
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "baselines.csv").write_text(body)
        (tmp_path / "b" / "copy.csv").write_text(body)
        first = provenance(tmp_path / "a" / "baselines.csv", "out_a")
        assert provenance(tmp_path / "b" / "copy.csv", "out_b") == first
        (tmp_path / "a" / "baselines.csv").write_text(body.replace("2.5", "3.5"))
        assert provenance(tmp_path / "a" / "baselines.csv", "out_c") != first


def unit_values(out_dir: Path) -> dict:
    """unit_scores.csv below its provenance line, keyed by unit, indicator and period."""
    with open(out_dir / "unit_scores.csv", newline="", encoding="utf-8") as fh:
        next(fh)
        return {(row["university_id"], row["sds"], row["indicator"], row["period"]):
                row["value"] for row in csv.DictReader(fh)}


class TestSchemeShares:
    """--scheme weighs byline positions only on a life-science publication
    whose bylines name two universities. The generator draws coauthors from
    one unit, so this corpus adds one author from another university."""

    def test_scheme_moves_fp_and_fss_only(self, tmp_path):
        corpus = cross_scope(synth_corpus(GenConfig(seed=SEED, **SHAPES["life_science"])))
        write_corpus(corpus, tmp_path / "corpus")
        values = {}
        for scheme in ("2,2,1", "3,1,1"):
            out = tmp_path / scheme
            assert main(["indicators", "--input", str(tmp_path / "corpus"),
                         "--out", str(out), "--scheme", scheme]) == 0
            values[scheme] = unit_values(out)
        default, weighted = values["2,2,1"], values["3,1,1"]
        assert default.keys() == weighted.keys()
        # every SDS of the shape is a life science
        moved = {key[2] for key in default if default[key] != weighted[key]}
        assert moved == {"FP", "FSS"}

    def test_a_power_of_two_moves_no_report(self, tmp_path):
        """Only the weights' ratios matter: the default weights times 2**k give
        every report of `indicators`, `rank` and `compare` byte for byte below
        its provenance line, also at k = 1022, where the byline's total of the
        weights is beyond the largest float."""
        corpus = cross_scope(synth_corpus(GenConfig(seed=SEED, **SHAPES["life_science"])))
        write_corpus(corpus, tmp_path / "corpus")

        def bodies(scheme, out):
            for command in ("indicators", "rank", "compare"):
                assert main([command, "--input", str(tmp_path / "corpus"), "--out", str(out),
                             f"--scheme={scheme}"]) == 0
            reports = sorted(out.iterdir())
            assert len(reports) == 9
            return {p.name: p.read_bytes().split(b"\n", 1)[1] for p in reports}

        default = bodies("2,2,1", tmp_path / "default")
        for k in (-1000, -1, 3, 1022):
            scheme = ",".join(repr(math.ldexp(w, k)) for w in ShareScheme())
            assert bodies(scheme, tmp_path / f"k{k}") == default, scheme


# case -> (publications column, or None for every median and mean of a
# --baselines file; its cell; whether every row, not only the first, has it)
BEYOND_THE_ARITHMETIC = {
    "citations_of_400_digits": ("citations", str(10**400), False),
    "n_authors_total_of_400_digits": ("n_authors_total", str(10**400), False),
    "every_citation_308_nines": ("citations", "9" * 308, True),
    "subnormal_baselines": (None, "1e-320", True),
}


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

    @pytest.mark.parametrize("body, error", [
        (b"CAT_A,2002\n", "SchemaError"), (b"CAT_\xff,2002,1,1,5\n", "SchemaError"),
        (b"CAT_A,2002,nan,1,5\n", "SchemaError"),
        (b"CAT_X,2001,1,1,5\nCAT_X,2001,5,5,5\n", "DuplicateKey"),
    ], ids=["short_row", "invalid_utf8", "nan_median", "repeated_stratum"])
    def test_malformed_baselines(self, demo, tmp_path, capsys, body, error):
        bad = tmp_path / "baselines.csv"
        bad.write_bytes(b"subject_category,year,median,mean,n_pubs\n" + body)
        out = tmp_path / "out"
        assert main(["indicators", "--input", str(demo), "--out", str(out),
                     "--baselines", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert str(bad) in json.loads(lines[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BEYOND_THE_ARITHMETIC))
    @pytest.mark.parametrize("command", ["indicators", "rank", "compare", "drilldown"])
    def test_numbers_beyond_the_arithmetic(self, tmp_path, capsys, command, case):
        """Numbers the scoring arithmetic cannot hold fail at their row, before
        any report is written; an integer cell fails `ingest` too."""
        corpus = tmp_path / "corpus"
        generate(GenConfig(seed=1, n_universities=3, n_sds=3, staff_min=2, staff_max=3),
                 corpus)
        column, cell, every_row = BEYOND_THE_ARITHMETIC[case]
        with open(corpus / "publications.csv", newline="") as fh:
            pubs = list(csv.DictReader(fh))
        argv = []
        if column is None:  # a --baselines file of the corpus's strata
            path = tmp_path / "baselines.csv"
            path.write_text("subject_category,year,median,mean,n_pubs\n" + "".join(
                f"{c},{y},{cell},{cell},5\n"
                for c, y in sorted({(p["subject_category"], p["year"]) for p in pubs})))
            argv = ["--baselines", str(path)]
            message = f"{path}: median={cell} is positive but below 0.5 (row 2)"
        else:
            path = corpus / "publications.csv"
            rows = [{**p, column: cell} if every_row or i == 0 else p
                    for i, p in enumerate(pubs)]
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(pubs[0]))
                writer.writeheader()
                writer.writerows(rows)
            message = f"{path}: {column}='{cell}' is outside [-2**53, 2**53] (row 2)"
            assert main(["ingest", "--input", str(corpus)]) == 1
            assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
                {"error": "SchemaError", "message": message}]
        out = tmp_path / "out"
        argv = [command, "--input", str(corpus), "--out", str(out), *argv]
        if command == "drilldown":
            argv += ["--university", "UNI001", "--uda", "UDA01"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "SchemaError", "message": message}]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "rank"])
    def test_header_only_file_lacking_columns(self, tmp_path, capsys, command):
        (tmp_path / "corpus").mkdir()
        corpus = write_fileset(tmp_path / "corpus",
                               {"publications.csv": "pub_id,yr\n",
                                "authorships.csv": "pubid,researcher\n"})
        out = tmp_path / "out"
        argv = [command, "--input", str(corpus)]
        if command == "rank":
            argv += ["--out", str(out), "--min-staff", "0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "SchemaError",
            "message": f"{corpus / 'publications.csv'}: missing columns ['year', "
                       "'subject_category', 'citations', 'n_authors_total'] (row 1)"}
        assert not out.exists()

    def test_json_baselines(self, demo, tmp_path):
        """A .json baseline table is read as the corpus reader reads a JSON
        file, and scores as its CSV form does."""
        columns = ("subject_category", "year", "median", "mean", "n_pubs")
        with open(demo / "publications.csv", newline="") as fh:
            pubs = list(csv.DictReader(fh))
        rows = [(pubs[0]["subject_category"], int(pubs[0]["year"]), 0.5, 0.75, 3),
                (pubs[-1]["subject_category"], int(pubs[-1]["year"]), 2.0, 2.5, 9)]
        (tmp_path / "b.csv").write_text(",".join(columns) + "\n" + "".join(
            ",".join(map(str, r)) + "\n" for r in rows))
        (tmp_path / "b.json").write_text(json.dumps([dict(zip(columns, r)) for r in rows]))
        bodies = []
        for name in ("b.csv", "b.json", None):
            out = tmp_path / f"out_{name}"
            argv = ["indicators", "--input", str(demo), "--out", str(out), "--min-staff", "1"]
            if name:
                argv += ["--baselines", str(tmp_path / name)]
            assert main(argv) == 0
            bodies.append((out / "unit_scores.csv").read_text().split("\n", 1)[1])
        assert bodies[0] == bodies[1] != bodies[2]

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


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["rank", "--input", "DEMO", "--out", "OUT", "--format", "xml"],
        ["rank", "--out", "OUT"],
        ["rank", "--input", "DEMO", "--out", "OUT", "--min-staff", "abc"],
        ["rank", "--input", "DEMO", "--out", "OUT", "--min-staff", "-inf"],
        ["rerank", "--input", "DEMO", "--out", "OUT"],
        [],
    ], ids=["unknown_format", "missing_input", "non_number_min_staff",
            "min_staff_minus_inf", "unknown_command", "no_command"])
    def test_one_json_line_and_exit_1(self, demo, tmp_path, capsys, argv):
        out = tmp_path / "out"
        paths = {"DEMO": str(demo), "OUT": str(out)}
        assert main([paths.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidConfig"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bibliorank")


class TestCompareEdgeCases:
    """compare exits 0 on valid corpora where no university is ranked in both
    periods, and writes nothing when a table fails."""

    def run_compare(self, corpus_dir, out, capsys):
        code = main(["compare", "--input", str(corpus_dir), "--out", str(out),
                     "--min-staff", "0"])
        assert capsys.readouterr().err == ""
        assert code == 0
        for name in ("shift_stats", "transition_matrices", "university_shift_table",
                     "shift_balance"):
            assert (out / f"{name}.csv").exists(), name

    def test_universities_disjoint_between_periods(self, tmp_path, capsys):
        researchers = [R("r1", univ="U1", years=(2001, 2002, 2003)),
                       R("r2", univ="U2", years=(2004, 2005))]
        pubs = [P("p1", 2001), P("p2", 2004)]
        authorships = [A("p1", "r1", 1, "U1"), A("p2", "r2", 1, "U2")]
        write_corpus(make_corpus(researchers, pubs, authorships,
                                 make_taxonomy({"S1": "A"})), tmp_path / "corpus")
        self.run_compare(tmp_path / "corpus", tmp_path / "out", capsys)
        stats = (tmp_path / "out" / "shift_stats.csv").read_text().splitlines()
        assert len(stats) == 2  # provenance and column names only
        table = (tmp_path / "out" / "university_shift_table.csv").read_text()
        assert table.splitlines()[2:] == ["U1,,0", "U2,,0", "pct_changed,0.0,0.0"]

    def test_header_only_fileset(self, tmp_path, capsys):
        write_corpus(make_corpus([], [], []), tmp_path / "corpus")
        self.run_compare(tmp_path / "corpus", tmp_path / "out", capsys)
        balance = (tmp_path / "out" / "shift_balance.csv").read_text()
        assert balance.splitlines()[2:] == ["0.0,0.0,0.0"]

    def test_failing_table_leaves_no_output_directory(self, demo, tmp_path, capsys,
                                                      monkeypatch):
        def failing(*args):
            raise BiblioRankError("patched")

        monkeypatch.setattr(cli, "transition_matrix", failing)
        out = tmp_path / "out"
        assert main(["compare", "--input", str(demo), "--out", str(out),
                     "--min-staff", "1"]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == "patched"
        assert not out.exists()


class TestReportStep:
    """A scoring command writes nothing until every table is built."""

    @pytest.mark.parametrize("command, table", [
        ("indicators", "uda_scores"), ("rank", "period_rankings"),
        ("compare", "university_shift_table"), ("drilldown", "compare_drilldowns")])
    def test_late_failing_table_leaves_no_output_directory(self, demo, tmp_path,
                                                           capsys, monkeypatch,
                                                           command, table):
        def failing(*args):
            raise BiblioRankError("patched")

        monkeypatch.setattr(cli, table, failing)
        out = tmp_path / "out"
        argv = [command, "--input", str(demo), "--out", str(out), "--min-staff", "1"]
        if command == "drilldown":
            argv += ["--university", "UNI001", "--uda", "UDA01"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["message"] == "patched"
        assert not out.exists()


def error_line(argv, capsys) -> str:
    """The `error` of the one JSON line a failing command prints."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


class TestIOErrors:
    """An OSError prints one JSON error line named by its class, and exits 1."""

    def test_out_names_an_existing_file(self, demo, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert error_line(["rank", "--input", str(demo), "--out", str(out),
                           "--min-staff", "1"], capsys) == "FileExistsError"
        assert out.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_baselines_names_a_directory(self, demo, tmp_path, capsys):
        out = tmp_path / "out"
        assert error_line(["indicators", "--input", str(demo), "--out", str(out),
                           "--baselines", str(tmp_path)], capsys) == "IsADirectoryError"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "indicators"])
    def test_corpus_file_is_a_directory(self, demo, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(demo, corpus)
        (corpus / "researchers.csv").unlink()
        (corpus / "researchers.csv").mkdir()
        out = tmp_path / "out"
        argv = [command, "--input", str(corpus)]
        if command != "ingest":
            argv += ["--out", str(out)]
        assert error_line(argv, capsys) == "IsADirectoryError"
        assert not out.exists()


class TestSynthErrors:
    """synth fails with one InvalidConfig line and writes nothing."""

    def run_synth(self, argv, tmp_path, capsys):
        out = tmp_path / "synth"
        assert error_line(["synth", *argv, "--out", str(out)], capsys) == "InvalidConfig"
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        self.run_synth(["--seed", "-1"], tmp_path, capsys)

    @pytest.mark.parametrize("option", ["--pubs-per-researcher-year", "--citation-mean"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rate(self, tmp_path, capsys, option, value):
        self.run_synth([option, value], tmp_path, capsys)

    # numpy's draws refuse these rates
    @pytest.mark.parametrize("option", ["--pubs-per-researcher-year", "--citation-mean"])
    @pytest.mark.parametrize("value", ["1e19", "1e300"])
    def test_rate_beyond_numpy(self, tmp_path, capsys, option, value):
        self.run_synth([option, value], tmp_path, capsys)

    @pytest.mark.parametrize("option, value", [("--pubs-per-researcher-year", "1e9"),
                                               ("--n-universities", "1000000000")])
    def test_corpus_beyond_the_size_limit(self, tmp_path, capsys, monkeypatch,
                                          option, value):
        from bibliorank import synthgen

        def no_corpus(*args, **kwargs):
            raise AssertionError("the generator began to build the corpus")

        # the taxonomy is built before anything whose size the config sets
        monkeypatch.setattr(synthgen, "Taxonomy", no_corpus)
        self.run_synth([option, value], tmp_path, capsys)

    def test_drawn_count_beyond_the_loader(self, tmp_path, capsys):
        """numpy draws citation counts over 2**53 at this mean, and ingest
        would refuse them."""
        self.run_synth(["--n-universities", "1", "--n-sds", "1", "--staff-min", "1",
                        "--staff-max", "1", "--citation-mean", "1e17"], tmp_path, capsys)

    def test_without_numpy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delitem(sys.modules, "bibliorank.synthgen")
        monkeypatch.setitem(sys.modules, "numpy", None)
        self.run_synth([], tmp_path, capsys)


INVALID_CORPORA = {
    "repeated_position": ([P("p1", n_authors=2)], [A("p1", "r1", 1), A("p1", "r2", 1)],
                          "[duplicate_position] position 1 repeated on p1"),
    "too_few_authors": ([P("p1", n_authors=1)], [A("p1", "r1", 1), A("p1", "r2", 2)],
                        "[author_count_too_small] publication p1 lists 1 authors "
                        "but has 2 authorship records"),
    "position_past_byline": ([P("p1", n_authors=2)], [A("p1", "r1", 1), A("p1", "r2", 3)],
                             "[position_out_of_range] author position 3 outside "
                             "[1, 2] on p1"),
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
        most once: the shift table reads the rank lists', and the indicator
        comparison the drilldown's. The UDA rollups read the unit tallies, so
        `rank` and `compare` compute no unit score."""
        builds = []
        original_init = indicators.UnitLedger.__init__

        def counting_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            builds.append(self.sds_scope)

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
            # only drilldown's ledger is limited, to the SDS codes of its UDA
            assert builds[0] == (frozenset(["SDS001", "SDS002", "SDS003"])
                                 if command is drilldown else None), command
            if command[0] in ("rank", "compare", "drilldown"):
                assert not scored, command
                continue
            assert scored, command
            assert max(Counter(scored).values()) == 1, command

    @pytest.mark.parametrize("tables", ["indicator_tables", "rank_tables",
                                        "compare_tables"])
    def test_one_rollup_per_uda_and_period(self, demo, monkeypatch, tables):
        """A command rolls each (UDA, period) up once, for all four indicators."""
        rolled = []
        original = aggregate._roll_up

        def counting(ledger, uda, period):
            rolled.append((uda, period.label))
            return original(ledger, uda, period)

        monkeypatch.setattr(aggregate, "_roll_up", counting)
        args = cli.build_parser().parse_args(
            ["compare", "--input", str(demo), "--min-staff", "1"])
        ledger = cli._load_inputs(args)
        getattr(cli, tables)(ledger, args)
        corpus = ledger.corpus
        assert len(rolled) == len(corpus.taxonomy.uda_list) * 2
        assert sorted(rolled) == sorted((uda, p.label) for uda in corpus.taxonomy.uda_list
                                        for p in corpus.periods)

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


class TestCollector:
    """A command runs with the cyclic garbage collector paused; main gives
    the caller's collector back in the state it found it."""

    @pytest.mark.parametrize("argv, status", [
        (["ingest", "--input", "DEMO"], 0),
        (["ingest", "--input", "MISSING"], 1),
        (["rank", "--input", "DEMO", "--format", "xml"], 1),
        (["--help"], SystemExit),
    ], ids=["success", "biblio_rank_error", "argument_error", "help"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_the_collector(self, demo, tmp_path, capsys, monkeypatch,
                                         argv, status, enabled):
        seen = []
        real_ingest = cli.cmd_ingest
        monkeypatch.setattr(cli, "cmd_ingest",
                            lambda args: seen.append(gc.isenabled()) or real_ingest(args))
        paths = {"DEMO": str(demo), "MISSING": str(tmp_path / "missing")}
        argv = [paths.get(a, a) for a in argv]
        (gc.enable if enabled else gc.disable)()
        try:
            if status is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == status
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == ([False] if argv[0] == "ingest" else [])


class TestProgram:
    """`python -m bibliorank.cli` and the `bibliorank` script run cli.run,
    which exits as an in-process main returns and freezes the collector."""

    @pytest.mark.parametrize("argv, status", [
        (["rank", "--min-staff", "1"], 0),
        (["drilldown", "--university", "UNI001", "--uda", "NOPE"], 1),
    ], ids=["rank", "drilldown_unknown_uda"])
    def test_child_exits_as_main_returns(self, demo, tmp_path, capsys, argv, status):
        child, here = tmp_path / "child", tmp_path / "main"
        proc = subprocess.run(
            [sys.executable, "-m", "bibliorank.cli", *argv, "--input", str(demo),
             "--out", str(child)],
            capture_output=True, env={**os.environ, "PYTHONPATH": SRC})
        assert main([*argv, "--input", str(demo), "--out", str(here)]) == status
        captured = capsys.readouterr()
        assert proc.returncode == status
        assert proc.stderr == captured.err.encode()
        assert proc.stdout == captured.out.encode()
        assert child.exists() == here.exists() == (status == 0)
        if status == 0:
            assert sorted(p.name for p in child.iterdir()) == ["quintiles.csv",
                                                               "rank_lists.csv"]
            for p in child.iterdir():
                assert p.read_bytes() == (here / p.name).read_bytes(), p.name

    @pytest.mark.parametrize("argv, status", [
        (["ingest", "--input", "DEMO"], 0),
        (["ingest", "--input", "MISSING"], 1),
        (["--help"], 0),
    ], ids=["success", "error", "help"])
    def test_run_freezes_the_collector_after_main(self, demo, tmp_path, capsys,
                                                  monkeypatch, argv, status):
        events = []
        real_main = cli.main
        monkeypatch.setattr(cli, "main", lambda: events.append("main") or real_main())
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        paths = {"DEMO": str(demo), "MISSING": str(tmp_path / "missing")}
        monkeypatch.setattr(sys, "argv", ["bibliorank"] + [paths.get(a, a) for a in argv])
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == status
        assert events == ["main", "freeze"]

    def test_the_script_entry_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text())
        assert project["project"]["scripts"] == {"bibliorank": "bibliorank.cli:run"}


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
