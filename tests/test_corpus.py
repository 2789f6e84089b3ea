import contextlib
import csv
import functools
import io
import json
import math
import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bibliorank import loader
from bibliorank.cli import main
from bibliorank.errors import (BiblioRankError, DanglingReference, DuplicateKey,
                               MissingFile, SchemaError, UnknownSDS,
                               UnknownUniversity)
from bibliorank.loader import FILESET, _read_rows, load_corpus, write_corpus
from bibliorank.model import (Corpus, Period, Taxonomy, Violation, presence, staff,
                              validate)
from bibliorank.synthgen import GenConfig, generate, make_corpus as make_synth_corpus

from conftest import A, EARLY, LATE, P, R, make_corpus


def write_fileset(tmp_path, overrides=None):
    files = {
        "taxonomy.csv": "sds,uda,is_life_science\nS1,A,0\n",
        "periods.csv": "label,start_year,end_year\nE,2001,2003\nL,2004,2008\n",
        "researchers.csv": "researcher_id,sds,university_id,active_years\nr1,S1,U1,2001;2002;2003\n",
        "publications.csv": "pub_id,year,subject_category,citations,n_authors_total\np1,2001,CAT_X,5,2\n",
        "authorships.csv": "pub_id,researcher_id,author_position,byline_university_id\np1,r1,1,U1\n",
    }
    files.update(overrides or {})
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        elif content is not None:
            (tmp_path / name).write_text(content)
        elif (tmp_path / name).exists():
            (tmp_path / name).unlink()
    return tmp_path


class TestLoad:
    def test_minimal_fileset(self, tmp_path):
        corpus = load_corpus(write_fileset(tmp_path))
        assert (len(corpus.researchers), len(corpus.publications),
                len(corpus.authorships)) == (1, 1, 1)
        assert corpus.early.label == "E"
        assert corpus.late.length_years == 5

    def test_missing_file(self, tmp_path):
        write_fileset(tmp_path, {"taxonomy.csv": None})
        with pytest.raises(MissingFile):
            load_corpus(tmp_path)

    def test_dangling_authorship(self, tmp_path):
        write_fileset(tmp_path, {"authorships.csv":
                                 "pub_id,researcher_id,author_position,byline_university_id\n"
                                 "ghost,r1,1,U1\n"})
        with pytest.raises(DanglingReference):
            load_corpus(tmp_path)

    def test_duplicate_pub_id(self, tmp_path):
        write_fileset(tmp_path, {"publications.csv":
                                 "pub_id,year,subject_category,citations,n_authors_total\n"
                                 "p1,2001,CAT_X,5,2\np1,2002,CAT_X,1,1\n"})
        with pytest.raises(DuplicateKey):
            load_corpus(tmp_path)

    def test_negative_citations_rejected(self, tmp_path):
        write_fileset(tmp_path, {"publications.csv":
                                 "pub_id,year,subject_category,citations,n_authors_total\n"
                                 "p1,2001,CAT_X,-1,2\n"})
        with pytest.raises(SchemaError):
            load_corpus(tmp_path)

    def test_bad_column_reports_row(self, tmp_path):
        write_fileset(tmp_path, {"publications.csv":
                                 "pub_id,year,subject_category,citations,n_authors_total\n"
                                 "p1,noyear,CAT_X,1,2\n"})
        with pytest.raises(SchemaError, match="row 2"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("overrides, error, name, message", [
        ({"researchers.csv": "researcher_id,sds,university_id,active_years\n"
                             "r1,S9,U1,2001\n"},
         DanglingReference, None, "researcher r1 references unknown SDS S9"),
        ({"authorships.csv": "pub_id,researcher_id,author_position,byline_university_id\n"
                             "p1,r9,1,U1\n"},
         DanglingReference, None, "authorship references unknown researcher_id r9"),
        ({"researchers.csv": "researcher_id,sds,university_id,active_years\n"
                             "r1,S1,U1,\n"},
         SchemaError, "researchers.csv", "active_years is empty (row 2)"),
        ({"publications.csv": "pub_id,year,subject_category,citations,n_authors_total\n"
                              "p1,2001,CAT_X,5,0\n"},
         SchemaError, "publications.csv", "n_authors_total=0 below minimum 1 (row 2)"),
        ({"authorships.csv": "pub_id,researcher_id,author_position,byline_university_id\n"
                             "p1,r1,0,U1\n"},
         SchemaError, "authorships.csv", "author_position=0 below minimum 1 (row 2)"),
    ], ids=["unknown_sds", "unknown_researcher", "no_active_years", "zero_authors",
            "position_zero"])
    def test_row_rule_is_the_loader_s(self, tmp_path, overrides, error, name, message):
        """validate() does not repeat these checks: the loader is their only guard."""
        write_fileset(tmp_path, overrides)
        with pytest.raises(error) as exc:
            load_corpus(tmp_path)
        assert type(exc.value) is error
        assert str(exc.value) == (message if name is None
                                  else f"{tmp_path / name}: {message}")

    @pytest.mark.parametrize("overrides, name, error", [
        ({"publications.json": '[{"pub_id": "p1",'}, "publications.json",
         "not valid JSON (Expecting property name enclosed in double quotes: "
         "line 1 column 18 (char 17))"),
        ({"publications.json": "[3]"}, "publications.json",
         "expected a JSON object, got int (row 1)"),
        ({"publications.json": '["pub_id"]'}, "publications.json",
         "expected a JSON object, got str (row 1)"),
        ({"publications.json": '{"pub_id": "p1"}'}, "publications.json",
         "expected a JSON array of objects"),
        ({"publications.json": "3"}, "publications.json",
         "expected a JSON array of objects"),
        ({"researchers.csv": b"researcher_id,sds,university_id,active_years\n"
                             b"r\xff1,S1,U1,2001\n"}, "researchers.csv",
         "not valid UTF-8 (invalid start byte)"),
        ({"researchers.csv": "researcher_id,sds,university_id,active_years\n"
                             "r1,S1,U1,2001\n\nr2,S1,U1,"
                             + "9" * (csv.field_size_limit() + 1) + "\n"},
         "researchers.csv",
         f"not valid CSV (field larger than field limit ({csv.field_size_limit()})) "
         "(row 3)"),
        ({"periods.csv": "label,start_year,end_year\nE,2003,2001\nL,2004,2008\n"},
         "periods.csv", "start_year=2003 is after end_year=2001 (row 2)"),
        ({"periods.csv": "label,start_year,end_year\nE,2001,2003\n"},
         "periods.csv", "corpus requires exactly two periods (early, late)"),
        ({"periods.csv": "label,start_year,end_year\nE,2001,2003\nL,2004,2008\n"
                         "X,2009,2010\n"},
         "periods.csv", "corpus requires exactly two periods (early, late)"),
        ({"periods.csv": "label,start_year,end_year\nL,2004,2008\nE,2001,2005\n"},
         "periods.csv", "periods E and L overlap: E ends in 2005, L starts in 2004"),
        ({"publications.json": '[{"pub_id": "p1", "year": 2001, "subject_category": '
                               '"CAT_X", "citations": 2.7, "n_authors_total": 2}]'},
         "publications.json", "citations=2.7 is not an integer (row 1)"),
        ({"publications.json": '[{"pub_id": "p1", "year": 2001, "subject_category": '
                               '"CAT_X", "citations": 5, "n_authors_total": true}]'},
         "publications.json", "n_authors_total=True is not an integer (row 1)"),
        ({"researchers.json": '[{"researcher_id": "r1", "sds": "S1", '
                              '"university_id": "U\\udfff", "active_years": [2001]}]'},
         "researchers.json", "'U\\udfff' is not UTF-8 text (row 1)"),
        ({"periods.json": '[{"label": "E", "start_year": 2001, "end_year": 2003}, '
                          '{"label": "L\\ud800", "start_year": 2004, "end_year": 2008}]'},
         "periods.json", "'L\\ud800' is not UTF-8 text (row 2)"),
        ({"researchers.json": '[{"researcher_id": "r1", "sds": "S1", '
                              '"university_id": {"a": 1}, "active_years": [2001]}]'},
         "researchers.json", "{'a': 1} is not text (row 1)"),
        ({"authorships.json": '[{"pub_id": "p1", "researcher_id": "r1", '
                              '"author_position": 1, "byline_university_id": ["U1"]}]'},
         "authorships.json", "['U1'] is not text (row 1)"),
        ({"taxonomy.json": '[{"sds": "S1", "uda": true, "is_life_science": 0}]'},
         "taxonomy.json", "True is not text (row 1)"),
        ({"periods.json": '[{"label": "E", "start_year": 2001, "end_year": 2003}, '
                          '{"label": 2.5, "start_year": 2004, "end_year": 2008}]'},
         "periods.json", "2.5 is not text (row 2)"),
        *(({"publications.csv": "pub_id,year,subject_category,citations,n_authors_total\n"
                                f"p1,{year},CAT_X,5,2\n"}, "publications.csv",
           f"year={year!r} is not an integer (row 2)")
          for year in ("2_001", "\uff12\uff10\uff10\uff11", " 2001", "2001 ")),
        ({"publications.csv": "pub_id,year,subject_category,citations,n_authors_total\n"
                              f"p1,2001,CAT_X,{10**400},2\n"}, "publications.csv",
         f"citations='{10**400}' is outside [-2**53, 2**53] (row 2)"),
        ({"publications.json": '[{"pub_id": "p1", "year": 2001, "subject_category": '
                               f'"CAT_X", "citations": 5, "n_authors_total": {10**400}}}]'},
         "publications.json", f"n_authors_total={10**400} is outside [-2**53, 2**53] (row 1)"),
        ({"publications.csv": "pub_id,year,subject_category,citations,n_authors_total\n"
                              f"p1,2001,CAT_X,{'9' * 308},2\n"}, "publications.csv",
         f"citations='{'9' * 308}' is outside [-2**53, 2**53] (row 2)"),
        ({"publications.csv": "pub_id,year,subject_category,citations,n_authors_total\n"
                              f"p1,2001,CAT_X,{'9' * 5000},2\n"}, "publications.csv",
         f"citations='{'9' * 5000}' is outside [-2**53, 2**53] (row 2)"),
        ({"authorships.csv": "pub_id,researcher_id,author_position,byline_university_id\n"
                             f"p1,r1,{2**53 + 1},U1\n"}, "authorships.csv",
         f"author_position='{2**53 + 1}' is outside [-2**53, 2**53] (row 2)"),
        ({"researchers.csv": "researcher_id,sds,university_id,active_years\n"
                             f"r1,S1,U1,2001;{-2**53 - 1}\n"}, "researchers.csv",
         f"active_years='{-2**53 - 1}' is outside [-2**53, 2**53] (row 2)"),
    ], ids=["json_syntax", "json_number_row", "json_string_row", "json_object",
            "json_number", "invalid_utf8",
            "cell_over_field_size_limit", "period_start_after_end", "one_period",
            "three_periods", "overlapping_periods", "json_float",
            "json_bool", "json_lone_surrogate", "json_lone_surrogate_label",
            "json_object_as_text", "json_array_as_text", "json_bool_as_text",
            "json_float_as_text",
            "year_with_underscore", "year_in_fullwidth_digits",
            "year_after_a_blank", "year_before_a_blank", "citations_of_400_digits",
            "json_n_authors_of_400_digits", "citations_of_308_nines",
            "citations_past_int_s_digit_limit", "position_past_2_53",
            "active_year_below_minus_2_53"])
    def test_malformed_file_is_a_schema_error(self, tmp_path, capsys, overrides,
                                              name, error):
        for json_name in [name for name in overrides if name.endswith(".json")]:
            overrides[json_name.replace(".json", ".csv")] = None
        write_fileset(tmp_path, overrides)
        with pytest.raises(SchemaError) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == f"{tmp_path / name}: {error}"
        assert main(["ingest", "--input", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {"error": "SchemaError", "message": str(exc.value)}

    def test_integers_at_plus_or_minus_2_53_load(self, tmp_path):
        """A float holds every integer up to 2**53 exactly, so each loads as itself."""
        write_fileset(tmp_path, {
            "periods.csv": f"label,start_year,end_year\nE,{-2**53},2003\nL,2004,{2**53}\n",
            "publications.csv": "pub_id,year,subject_category,citations,n_authors_total\n"
                                f"p1,2001,CAT_X,{2**53},+{'0' * 20}{2**53}\n"})
        corpus = load_corpus(tmp_path)
        assert corpus.publications[0][3:] == (2**53, 2**53)
        assert (corpus.early.start_year, corpus.late.end_year) == (-2**53, 2**53)

    def test_synth_counts_match_manifest(self, tmp_path):
        manifest = generate(GenConfig(seed=3), tmp_path)
        corpus = load_corpus(tmp_path)
        assert len(corpus.researchers) == manifest["n_researchers"]
        assert len(corpus.publications) == manifest["n_publications"]
        assert len(corpus.authorships) == manifest["n_authorships"]

    def test_round_trip(self, tmp_path, simple_corpus):
        write_corpus(simple_corpus, tmp_path)
        reloaded = load_corpus(tmp_path)
        assert reloaded.researchers == simple_corpus.researchers
        assert reloaded.publications == simple_corpus.publications
        assert reloaded.authorships == simple_corpus.authorships
        assert reloaded.periods == simple_corpus.periods
        assert reloaded.taxonomy == simple_corpus.taxonomy

    def test_a_period_label_with_a_comma(self, tmp_path):
        """A cell csv.writer quotes is written quoted and loads back."""
        generate(GenConfig(early=("P,1", 2001, 2003)), tmp_path)
        assert (tmp_path / "periods.csv").read_bytes() == (
            b'label,start_year,end_year\r\n"P,1",2001,2003\r\nP2,2004,2008\r\n')
        assert load_corpus(tmp_path).early == Period("P,1", 2001, 2003)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_csv_and_json_filesets_load_equal_records(self, tmp_path, seed):
        """All five files written as CSV and as JSON (JSON numbers and
        active_years lists) load to equal records, of the same classes, and
        so do copies of them that start with a UTF-8 byte-order mark."""
        corpus = make_synth_corpus(GenConfig(seed=seed, coauthorship_rate=0.6))
        write_corpus(corpus, tmp_path / "csv")
        taxonomy = corpus.taxonomy
        rows = {
            "researchers": [(*r[:3], sorted(r.active_years)) for r in corpus.researchers],
            "publications": corpus.publications,
            "authorships": corpus.authorships,
            "taxonomy": [(sds, taxonomy.sds_to_uda[sds], int(sds in taxonomy.life_science_sds))
                         for sds in taxonomy.sds_list],
            "periods": corpus.periods,
        }
        (tmp_path / "json").mkdir()
        for stem, columns in FILESET.items():
            (tmp_path / "json" / f"{stem}.json").write_text(
                json.dumps([dict(zip(columns, row)) for row in rows[stem]]))
        for fmt in ("csv", "json"):
            (tmp_path / f"{fmt}_bom").mkdir()
            for f in (tmp_path / fmt).iterdir():
                bom = b"\xef\xbb\xbf" + f.read_bytes()
                (tmp_path / f"{fmt}_bom" / f.name).write_bytes(bom)
        loaded = [load_corpus(tmp_path / fmt)
                  for fmt in ("csv", "json", "csv_bom", "json_bom")]
        for name in ("researchers", "publications", "authorships", "periods", "taxonomy"):
            expected = getattr(corpus, name)
            for other in loaded:
                assert getattr(other, name) == expected, name
                assert list(map(type, getattr(other, name))) == list(map(type, expected))
        assert len(corpus.authorships) > len(corpus.publications) > 0

    def test_row_order_does_not_matter(self, tmp_path):
        generate(GenConfig(seed=7), tmp_path)
        corpus = load_corpus(tmp_path)
        rng = random.Random(0)
        for name in ("researchers.csv", "publications.csv", "authorships.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            body = lines[1:]
            rng.shuffle(body)
            (tmp_path / name).write_text("\n".join([lines[0]] + body) + "\n")
        shuffled = load_corpus(tmp_path)
        assert shuffled.researchers == corpus.researchers
        assert shuffled.publications == corpus.publications
        assert shuffled.authorships == corpus.authorships


# id -> (formats, {stem: rows}, (error, stem of a SchemaError, message, index
# of the failing row among the stem's rows)); the other files are write_fileset's
EARLIEST_ROW_CASES = {
    "duplicate_key_then_bad_integer": (("csv", "json"), {"publications": [
        ["p1", "2001", "CAT_X", "5", "2"], ["p1", "2002", "CAT_X", "1", "1"],
        ["p2", "noyear", "CAT_X", "1", "1"]]},
        (DuplicateKey, None, "publications: duplicate pub_id p1", None)),
    "bad_integer_then_duplicate_key": (("csv", "json"), {"publications": [
        ["p1", "noyear", "CAT_X", "5", "2"], ["p1", "2002", "CAT_X", "1", "1"]]},
        (SchemaError, "publications", "year='noyear' is not an integer", 0)),
    "bad_integer_then_dangling_id": (("csv", "json"), {"authorships": [
        ["p1", "r1", "x", "U1"], ["ghost", "r1", "1", "U1"]]},
        (SchemaError, "authorships", "author_position='x' is not an integer", 0)),
    "dangling_id_then_bad_integer": (("csv", "json"), {"authorships": [
        ["ghost", "r1", "1", "U1"], ["p1", "r1", "x", "U1"]]},
        (DanglingReference, None, "authorship references unknown pub_id ghost", None)),
    "below_minimum_then_duplicate_key": (("csv", "json"), {"authorships": [
        ["p1", "r1", "0", "U1"], ["p1", "r1", "1", "U1"]]},
        (SchemaError, "authorships", "author_position=0 below minimum 1", 0)),
    "last_column_then_duplicate_key": (("csv", "json"), {"publications": [
        ["p1", "2001", "CAT_X", "5", "0"], ["p1", "2001", "CAT_X", "5", "1"]]},
        (SchemaError, "publications", "n_authors_total=0 below minimum 1", 0)),
    "same_row_unknown_pub_and_researcher": (("csv", "json"), {"authorships": [
        ["p1", "r1", "1", "U1"], ["ghost", "r9", "0", "U1"]]},
        (DanglingReference, None, "authorship references unknown pub_id ghost", None)),
    "same_row_unknown_researcher_and_bad_integer": (("csv", "json"), {"authorships": [
        ["p1", "r9", "x", "U1"]]},
        (DanglingReference, None, "authorship references unknown researcher_id r9",
         None)),
    "same_row_duplicate_authorship_and_bad_integer": (("csv", "json"), {"authorships": [
        ["p1", "r1", "1", "U1"], ["p1", "r1", "x", "U1"]]},
        (DuplicateKey, None,
         "authorships: duplicate (pub_id, researcher_id) ('p1', 'r1')", None)),
    "same_row_duplicate_pub_and_bad_integers": (("csv", "json"), {"publications": [
        ["p1", "2001", "CAT_X", "5", "2"], ["p1", "noyear", "CAT_X", "-1", "0"]]},
        (DuplicateKey, None, "publications: duplicate pub_id p1", None)),
    "same_row_below_minimum_and_bad_integer": (("csv", "json"), {"publications": [
        ["p1", "2001", "CAT_X", "-1", "x"]]},
        (SchemaError, "publications", "citations=-1 below minimum 0", 0)),
    "same_row_duplicate_researcher_and_unknown_sds": (("csv", "json"), {"researchers": [
        ["r1", "S1", "U1", "2001"], ["r1", "S9", "U1", ""]]},
        (DuplicateKey, None, "researchers: duplicate researcher_id r1", None)),
    "same_row_unknown_sds_and_bad_years": (("csv", "json"), {"researchers": [
        ["r1", "S9", "U1", "x"]]},
        (DanglingReference, None, "researcher r1 references unknown SDS S9", None)),
    "bad_years_then_unknown_sds": (("csv", "json"), {"researchers": [
        ["r1", "S1", "U1", "2001;x"], ["r2", "S9", "U1", "2001"]]},
        (SchemaError, "researchers", "active_years='x' is not an integer", 0)),
    "empty_years_then_duplicate_key": (("csv", "json"), {"researchers": [
        ["r1", "S1", "U1", ";"], ["r1", "S1", "U1", "2001"]]},
        (SchemaError, "researchers", "active_years is empty", 0)),
    "same_row_duplicate_sds_and_bad_flag": (("csv", "json"), {"taxonomy": [
        ["S1", "A", "0"], ["S1", "B", "7"]]},
        (DuplicateKey, None, "taxonomy: SDS S1 listed twice", None)),
    "flag_out_of_range_then_duplicate_key": (("csv", "json"), {"taxonomy": [
        ["S1", "A", "7"], ["S1", "A", "0"]]},
        (SchemaError, "taxonomy", "is_life_science must be 0 or 1", 0)),
    "bad_flag_then_flag_out_of_range": (("csv", "json"), {"taxonomy": [
        ["S1", "A", "x"], ["S2", "A", "7"]]},
        (SchemaError, "taxonomy", "is_life_science='x' is not an integer", 0)),
    "start_after_end_then_bad_integer": (("csv", "json"), {"periods": [
        ["E", "2003", "2001"], ["L", "x", "2008"]]},
        (SchemaError, "periods", "start_year=2003 is after end_year=2001", 0)),
    "bad_end_then_start_after_end": (("csv", "json"), {"periods": [
        ["E", "2001", "y"], ["L", "2009", "2008"]]},
        (SchemaError, "periods", "end_year='y' is not an integer", 0)),
    "same_row_two_bad_integers": (("csv", "json"), {"periods": [
        ["E", "2001", "2003"], ["L", "x", "y"]]},
        (SchemaError, "periods", "start_year='x' is not an integer", 1)),
    "bad_row_before_the_period_count": (("csv", "json"), {"periods": [
        ["E", "2001", "y"]]},
        (SchemaError, "periods", "end_year='y' is not an integer", 0)),
    "duplicate_period_label": (("csv", "json"), {"periods": [
        ["P1", "2001", "2003"], ["P1", "2004", "2008"]]},
        (DuplicateKey, None, "periods: duplicate label P1", None)),
    "same_row_duplicate_label_and_bad_integer": (("csv", "json"), {"periods": [
        ["E", "2001", "2003"], ["E", "x", "2008"]]},
        (DuplicateKey, None, "periods: duplicate label E", None)),
    "bad_integer_then_duplicate_label": (("csv", "json"), {"periods": [
        ["E", "x", "2003"], ["E", "2004", "2008"]]},
        (SchemaError, "periods", "start_year='x' is not an integer", 0)),
    "earlier_file_first": (("csv", "json"), {
        "taxonomy": [["S1", "A", "x"]], "researchers": [["r1", "S9", "U1", "2001"]]},
        (SchemaError, "taxonomy", "is_life_science='x' is not an integer", 0)),
    "json_duplicate_id_then_float": (("json",), {"publications": [
        [1, 2001, "CAT_X", 5, 2], ["1", 2001.0, "CAT_X", 5, 2]]},
        (DuplicateKey, None, "publications: duplicate pub_id 1", None)),
    "json_bool_then_duplicate_key": (("json",), {"publications": [
        ["p1", True, "CAT_X", 5, 2], ["p1", 2001, "CAT_X", 5, 2]]},
        (SchemaError, "publications", "year=True is not an integer", 0)),
    "beyond_2_53_then_duplicate_key": (("csv", "json"), {"publications": [
        ["p1", "2001", "CAT_X", str(2**53 + 1), "2"], ["p1", "2001", "CAT_X", "5", "2"]]},
        (SchemaError, "publications", f"citations='{2**53 + 1}' is outside [-2**53, 2**53]",
         0)),
    "beyond_2_53_then_bad_integer": (("csv", "json"), {"periods": [
        ["E", "2001", str(10**20)], ["L", "x", "2008"]]},
        (SchemaError, "periods", f"end_year='{10**20}' is outside [-2**53, 2**53]", 0)),
    "json_int_beyond_2_53_in_active_years": (("json",), {"researchers": [
        ["r1", "S1", "U1", [2001, 2**53 + 1]], ["r2", "S9", "U1", [2001]]]},
        (SchemaError, "researchers", f"active_years={2**53 + 1} is outside [-2**53, 2**53]",
         0)),
    "json_float_year_then_unknown_sds": (("json",), {"researchers": [
        ["r1", "S1", "U1", [2001, 2002.0]], ["r2", "S9", "U1", [2001]]]},
        (SchemaError, "researchers", "active_years=2002.0 is not an integer", 0)),
}


# cells csv.writer quotes, blanks or writes as they are, and cells the fast
# path of write_corpus must refuse although csv.writer writes them plainly
SPECIAL_CELLS = [",", '"', "\r", "\n", "\r\n", "\0", ";", "None", '""', "",
                 "é", "日本", None, True, 0.1, -0.0, float("nan")]
ANY_CELL = (st.text(st.sampled_from(',"\r\n\0;aé日 N'), max_size=4)
            | st.sampled_from(SPECIAL_CELLS) | st.integers() | st.floats()
            | st.booleans() | st.none())
PLAIN_CELL = (st.text("abyz019_;- é日", max_size=6) | st.integers() | st.floats()
              | st.booleans())


@st.composite
def written_rows(draw, width):
    """A block size and rows of plain cells, where the first row, the two
    rows around the first block boundary and the last row may each be
    drawn from any cells instead."""
    block = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3 * block + 2))
    rows = draw(st.lists(st.tuples(*[PLAIN_CELL] * width), min_size=n, max_size=n))
    # the header fills the first line of the first block
    for i in {0, block - 2, block - 1, n - 1}:
        if 0 <= i < n and draw(st.booleans()):
            rows[i] = draw(st.tuples(*[ANY_CELL] * width))
    return block, rows


def csv_writer_bytes(columns, rows) -> bytes:
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows([columns, *rows])
    return fh.getvalue().encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), stem=st.sampled_from(["publications", "authorships", "periods"]))
def test_write_corpus_writes_csv_writer_bytes(data, stem):
    """Each file write_corpus writes, a block of rows at a time, has the bytes
    csv.writer writes for the same rows: quoted, blanked and plain cells
    anywhere, a block boundary included. The rows of these three files are
    the records themselves, so any cells stand in for them."""
    block, rows = data.draw(written_rows(len(FILESET[stem])))
    records = {**dict.fromkeys(["researchers", "publications", "authorships", "periods"], []),
               stem: rows}
    corpus = SimpleNamespace(taxonomy=Taxonomy({}, frozenset()), **records)
    with tempfile.TemporaryDirectory() as out, mock.patch.object(loader, "BLOCK_ROWS", block):
        write_corpus(corpus, out)
        for name, columns in FILESET.items():
            assert (Path(out) / f"{name}.csv").read_bytes() == csv_writer_bytes(
                columns, records.get(name, [])), name


class TestEarliestRowWins:
    """A fileset that breaks several rules fails at its earliest failing row;
    within one row the loader's check order decides, and files load in the
    order taxonomy, periods, researchers, publications, authorships."""

    @pytest.mark.parametrize("fmt, files, expected", [
        pytest.param(fmt, files, expected, id=f"{case}-{fmt}")
        for case, (formats, files, expected) in EARLIEST_ROW_CASES.items()
        for fmt in formats])
    def test_error_type_message_and_row(self, tmp_path, fmt, files, expected):
        overrides = {}
        for stem, rows in files.items():
            if fmt == "json":
                overrides[f"{stem}.csv"] = None
                overrides[f"{stem}.json"] = json.dumps(
                    [dict(zip(FILESET[stem], row)) for row in rows])
            else:
                buf = io.StringIO()
                csv.writer(buf).writerows([FILESET[stem], *rows])
                overrides[f"{stem}.csv"] = buf.getvalue()
        write_fileset(tmp_path, overrides)
        error, stem, message, index = expected
        with pytest.raises(BiblioRankError) as exc:
            load_corpus(tmp_path)
        assert type(exc.value) is error
        if stem is None:
            assert str(exc.value) == message
        else:
            row = index + (1 if fmt == "json" else 2)
            assert str(exc.value) == f"{tmp_path / f'{stem}.{fmt}'}: {message} (row {row})"
            assert exc.value.row == row


PUB_COLUMNS = ("pub_id", "year", "subject_category", "citations", "n_authors_total")


def dictreader_rows(path, required):
    """The rows csv.DictReader gives, checked as the loader checks them."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("missing header row", path=path)
        rows = list(reader)
    missing = [c for c in required if c not in reader.fieldnames]
    if not rows and missing:
        raise SchemaError(f"missing columns {missing}", path=path, row=1)
    for i, row in enumerate(rows, start=2):
        missing = [c for c in required if c not in row or row[c] is None]
        if missing:
            raise SchemaError(f"missing columns {missing}", path=path, row=i)
    return [tuple(row[c] for c in required) for row in rows]


class TestCorpusPeriods:
    """A Corpus built directly checks its periods as load_corpus does."""

    @pytest.mark.parametrize("periods, message", [
        ((EARLY,), "corpus requires exactly two periods (early, late)"),
        ((Period("P1", 2001, 2003), Period("P1", 2004, 2008)),
         "both periods are labelled P1"),
        ((EARLY, LATE, Period("P3", 2009, 2010)),
         "corpus requires exactly two periods (early, late)"),
        ((Period("P1", 2001, 2005), Period("P2", 2004, 2008)),
         "periods P1 and P2 overlap: P1 ends in 2005, P2 starts in 2004"),
        ((Period("P2", 2004, 2008), Period("P1", 2001, 2004)),
         "periods P1 and P2 overlap: P1 ends in 2004, P2 starts in 2004"),
    ], ids=["one_period", "repeated_label", "three_periods", "overlapping",
            "late_first_and_overlapping"])
    def test_rejected(self, periods, message):
        with pytest.raises(ValueError) as exc:
            make_corpus([R("r1")], [P("p1")], [A("p1", "r1")], periods=periods)
        assert str(exc.value) == message


class TestCorpusKeys:
    """A Corpus built directly rejects a repeated key, as load_corpus does,
    and names the smallest one: else each copy would be counted."""

    @pytest.mark.parametrize("records, message", [
        (([R("r2"), R("r1"), R("r2", univ="U2"), R("r1", univ="U2")], [P("p1")],
          [A("p1", "r1")]), "researchers: duplicate researcher_id r1"),
        (([R("r1")], [P("p2"), P("p1", cites=10), P("p1", cites=0), P("p2")],
          [A("p1", "r1")]), "publications: duplicate pub_id p1"),
        (([R("r1"), R("r2")], [P("p1", n_authors=4)],
          [A("p1", "r2", 1), A("p1", "r2", 2), A("p1", "r1", 3), A("p1", "r1", 4)]),
         "authorships: duplicate (pub_id, researcher_id) ('p1', 'r1')"),
    ], ids=["researcher_id", "pub_id", "pub_id_and_researcher_id"])
    def test_a_repeated_key_is_rejected(self, records, message):
        with pytest.raises(DuplicateKey) as exc:
            make_corpus(*records)
        assert str(exc.value) == message


class TestReadRows:
    """The positional CSV reader keeps csv.DictReader's semantics."""

    @pytest.mark.parametrize("text, error", [
        ("a,b,c\n\n1,2,3\n\n\n4,5\n", "missing columns ['c'] (row 3)"),
        ("a,b,c\n1,2,3\n4\n", "missing columns ['b', 'c'] (row 3)"),
        ("a,c\n\n1,3\n", "missing columns ['b'] (row 2)"),
        ("a,c\n\n", "missing columns ['b'] (row 1)"),
        ("a,b,c,a\n1,2,3\n", "missing columns ['a'] (row 2)"),
        ("", "missing header row"),
    ], ids=["blank_lines_not_counted", "short_row", "column_absent_from_header",
            "column_absent_from_header_empty_body", "repeated_name_takes_the_last_cell",
            "empty_file"])
    def test_schema_error_names_the_row(self, tmp_path, text, error):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            _read_rows(path, ("a", "b", "c"))
        assert str(exc.value) == f"{path}: {error}"

    @pytest.mark.parametrize("text, rows", [
        ("a,b,c,a\n1,2,3,4\n", [("4", "2", "3")]),
        ("a,b,c\n1,2,3,4,5\n", [("1", "2", "3")]),
        ("\ufeffa,b,c\n1,2,3\n", [("1", "2", "3")]),
        ("a,b,c\n\ufeff1,2,3\n", [("\ufeff1", "2", "3")]),
    ], ids=["repeated_name_takes_the_last_cell", "extra_cells_ignored",
            "bom_prefixed_header", "bom_after_the_start_is_data"])
    def test_rows_in_required_order(self, tmp_path, text, rows):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert list(zip(*_read_rows(path, ("a", "b", "c")))) == rows

    def test_header_only_file_lacking_columns_fails_at_row_1(self, tmp_path):
        """With no row to fail at, the header fails, so a mistyped header is not
        read as an empty file."""
        write_fileset(tmp_path, {"publications.csv": "pub_id,yr\n",
                                 "authorships.csv": "pubid,researcher\n"})
        with pytest.raises(SchemaError) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == (
            f"{tmp_path / 'publications.csv'}: missing columns ['year', "
            "'subject_category', 'citations', 'n_authors_total'] (row 1)")
        assert exc.value.row == 1
        write_fileset(tmp_path, {"publications.csv": ",".join(PUB_COLUMNS) + "\n",
                                 "authorships.csv": "pubid,researcher\n"})
        with pytest.raises(SchemaError, match=r"authorships.csv: missing columns "
                                              r"\['pub_id', 'researcher_id', "
                                              r"'author_position', "
                                              r"'byline_university_id'\] \(row 1\)$"):
            load_corpus(tmp_path)

    def test_loader_reports_the_row_after_blank_lines(self, tmp_path):
        write_fileset(tmp_path, {"publications.csv": ",".join(PUB_COLUMNS) + "\n\n"
                                 "p1,2001,CAT_X,5,2\n\np2,noyear,CAT_X,1,1\n"})
        with pytest.raises(SchemaError) as exc:
            load_corpus(tmp_path)
        assert str(exc.value) == (f"{tmp_path / 'publications.csv'}: "
                                  "year='noyear' is not an integer (row 3)")

    def test_json_rows_are_the_same_tuples(self, tmp_path):
        write_fileset(tmp_path)
        csv_corpus = load_corpus(tmp_path)
        (tmp_path / "publications.csv").unlink()
        (tmp_path / "publications.json").write_text(
            '[{"pub_id": "p1", "year": 2001, "subject_category": "CAT_X", '
            '"citations": 5, "n_authors_total": 2, "extra": 1}]')
        assert load_corpus(tmp_path).publications == csv_corpus.publications
        assert list(zip(*_read_rows(tmp_path / "publications.json", PUB_COLUMNS))) == [
            ("p1", 2001, "CAT_X", 5, 2)]
        (tmp_path / "publications.json").write_text('[{"pub_id": "p1", "year": null}]')
        with pytest.raises(SchemaError, match=r"\['year', 'subject_category', "
                                              r"'citations', 'n_authors_total'\] \(row 1\)"):
            load_corpus(tmp_path)

    @settings(max_examples=300, deadline=None)
    @given(header=st.lists(st.sampled_from("abcd"), max_size=5),
           body=st.lists(st.one_of(
               st.none(),
               st.lists(st.sampled_from(["", "1", "x", "a", "q,r", 'say "hi"', " "]),
                        max_size=6)),
               max_size=6),
           required=st.lists(st.sampled_from("abc"), min_size=2, max_size=3,
                             unique=True),
           empty=st.booleans())
    def test_matches_dictreader(self, header, body, required, empty):
        """Generated CSV text (blank lines, short and long rows, repeated header
        names) reads as csv.DictReader reads it, or fails at the same row."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        if not empty:
            writer.writerow(header)
            for row in body:
                if row is None:
                    buf.write("\r\n")
                else:
                    writer.writerow(row)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(buf.getvalue(), encoding="utf-8", newline="")
            outcomes = []
            for read in (dictreader_rows,
                         lambda path, required: list(zip(*_read_rows(path, required)))):
                try:
                    outcomes.append(("rows", read(path, tuple(required))))
                except SchemaError as exc:
                    outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]


FUZZ_BASE = {
    "taxonomy": (["sds", "uda", "is_life_science"], [["S1", "A", 0], ["S2", "A", 1]]),
    "periods": (["label", "start_year", "end_year"],
                [["E", 2001, 2003], ["L", 2004, 2008]]),
    "researchers": (["researcher_id", "sds", "university_id", "active_years"],
                    [["r1", "S1", "U1", "2001;2002"], ["r2", "S2", "U2", "2004"]]),
    "publications": (list(PUB_COLUMNS),
                     [["p1", 2001, "CAT_X", 5, 2], ["p2", 2004, "CAT_Y", 0, 1]]),
    "authorships": (["pub_id", "researcher_id", "author_position",
                     "byline_university_id"],
                    [["p1", "r1", 1, "U1"], ["p1", "r2", 2, "U2"], ["p2", "r2", 1, "U2"]]),
}
# the rules' edges: the loader's integer bound, and each period's first and
# last year with the years just outside
INT_EDGES = [2**53, -2**53, 2**53 + 1, -(2**53 + 1)]
YEAR_EDGES = [2001, 2003, 2004, 2008, 2000, 2009]
FUZZ_CELLS = st.one_of(
    st.booleans(), st.floats(), st.integers(-2, 3000), st.none(), st.just(""),
    st.just("\ud800"),
    st.sampled_from(INT_EDGES + YEAR_EDGES),
    st.text(alphabet="0123456789;-.eE xS", max_size=5),
    st.lists(st.one_of(st.integers(2000, 2010), st.floats(), st.booleans()),
             max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))


def fuzzed_base(data) -> dict:
    """FUZZ_BASE with years drawn at the periods' edges, counts up to the
    loader's bound, and up to three more bylines of two or three of r1 (S1),
    r2 and r3 (life-science S2), each of its own university. Counts past
    the bound come from the mutations' FUZZ_CELLS."""
    years = st.sampled_from(YEAR_EDGES)
    counts = st.sampled_from([1, 5, 0, 2**53])
    researchers = [("r1", "S1", "U1"), ("r2", "S2", "U2"), ("r3", "S2", "U3")]
    pubs = [[pid, data.draw(years), category, data.draw(counts), n_total]
            for pid, _, category, _, n_total in FUZZ_BASE["publications"][1]]
    bylines = list(FUZZ_BASE["authorships"][1])
    for k in range(data.draw(st.integers(0, 3))):
        pid, n_total = f"p{k + 3}", data.draw(st.sampled_from([3, 4, 2**53]))
        pubs.append([pid, data.draw(years), data.draw(st.sampled_from(["CAT_X", "CAT_Y"])),
                     data.draw(counts), n_total])
        authors = data.draw(st.permutations(researchers))[:data.draw(st.integers(2, 3))]
        positions = data.draw(st.permutations([1, 2, n_total]))
        bylines += [[pid, rid, pos, univ] for (rid, _, univ), pos in zip(authors, positions)]
    active = st.sets(years, min_size=1, max_size=3).map(lambda ys: ";".join(map(str, sorted(ys))))
    return {**FUZZ_BASE,
            "researchers": (FUZZ_BASE["researchers"][0],
                            [[*r, data.draw(active)] for r in researchers]),
            "publications": (FUZZ_BASE["publications"][0], pubs),
            "authorships": (FUZZ_BASE["authorships"][0], bylines)}


def fuzzed_file(data, header, rows, fmt, mutate) -> bytes:
    """One stem's file as bytes, after mutations drawn from `data` if `mutate`."""
    header, rows = list(header), [list(r) for r in rows]
    draw = data.draw if mutate else (lambda strategy: "none")
    if mutate:
        for i, j, value in draw(st.lists(st.tuples(
                st.integers(0, 9), st.integers(0, 9), FUZZ_CELLS), max_size=3)):
            rows[i % len(rows)][j % len(header)] = value
    if fmt == "json":
        doc = [dict(zip(header, r)) for r in rows]
        shape = draw(st.sampled_from(["none", "scalar_row", "object_top"]))
        if shape == "scalar_row":
            doc[0] = draw(st.one_of(st.integers(), st.text(max_size=3), st.none(),
                                    st.lists(st.integers(), max_size=1)))
        elif shape == "object_top":
            doc = doc[0]
        blob = json.dumps(doc).encode()
    else:
        edit = draw(st.sampled_from(["none", "duplicate", "drop", "blank_lines"]))
        if edit == "duplicate":  # a repeated name takes the last column
            header.append(header[0])
            for r in rows:
                r.append(draw(FUZZ_CELLS))
        elif edit == "drop":
            header.pop(draw(st.integers(0, len(header) - 1)))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for r in rows:
            writer.writerow(r)
            if edit == "blank_lines":
                buf.write("\r\n")
        # a lone surrogate keeps its UTF-8 form, bytes the loader refuses
        blob = buf.getvalue().encode("utf-8", "surrogatepass")
    corruption = draw(st.sampled_from(
        ["none", "truncate", "invalid_utf8", "bom", "huge_cell", "deep_json"]))
    at = draw(st.integers(0, len(blob))) if corruption != "none" else 0
    if corruption == "truncate":
        blob = blob[:at]
    elif corruption == "invalid_utf8":
        blob = (blob[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
                + blob[at:])
    elif corruption == "bom":
        blob = b"\xef\xbb\xbf" + blob
    elif corruption == "huge_cell":
        blob = blob[:at] + b'"' + b"9" * (csv.field_size_limit() + 1) + b'"' + blob[at:]
    elif corruption == "deep_json":
        blob = b"[" * 100_000 + blob
    return blob


# command -> the reports it writes
SCORING_REPORTS = {
    "indicators": ("unit_scores", "researcher_scores", "uda_scores"),
    "rank": ("rank_lists", "quintiles"),
    "compare": ("shift_stats", "transition_matrices", "university_shift_table",
                "shift_balance"),
    "drilldown": ("sds_drilldown", "indicator_comparison"),
}
# report columns that hold ids or text; every other cell is a number or empty
TEXT_COLUMNS = {"university_id", "sds", "uda", "indicator", "period", "researcher_id",
                "entries", "exits", "flags"}
FUZZ_BASELINES = (["subject_category", "year", "median", "mean", "n_pubs"],
                  [["CAT_X", 2001], ["CAT_Y", 2004]])
FUZZ_SCHEMES = st.one_of(
    st.tuples(*[st.floats(5e-324, 1.7976931348623157e308)] * 3).map(
        lambda weights: ",".join(map(repr, weights))),
    st.sampled_from(["2,2", "a,b,c", "0,2,1", "-1,2,1", "nan,1,1", "inf,1,1", "1e309,1,1", ""]),
    st.text(alphabet="0123456789,-.eEnx ", max_size=8))


def fuzzed_options(data, root) -> list:
    """Options of a scoring command drawn from `data`; a drawn `--baselines`
    table, its values at the loader's bounds, is written under `root`."""
    options = [f"--scheme={data.draw(FUZZ_SCHEMES)}",
               "--min-staff=" + data.draw(st.sampled_from(["0", "1", "2.5", "-1", "-1e300", "1e300"])),
               "--basis", data.draw(st.sampled_from(["median", "mean"])),
               "--staff-mode", data.draw(st.sampled_from(["prorata", "headcount"])),
               "--format", data.draw(st.sampled_from(["csv", "json", "markdown"]))]
    if data.draw(st.booleans()):
        header, keys = FUZZ_BASELINES
        rows = []
        for key in keys:
            n_pubs = data.draw(st.sampled_from([1, 3, 7, 2**53]))
            rows.append(key + [data.draw(st.sampled_from([0.5, 0, 1, 2.5])),
                               data.draw(st.sampled_from([1 / n_pubs, 0.5, 0, 3.0])), n_pubs])
        fmt = data.draw(st.sampled_from(["csv", "json"]))
        path = root / f"baselines.{fmt}"
        path.write_bytes(fuzzed_file(data, header, rows, fmt, data.draw(st.booleans())))
        options += ["--baselines", str(path)]
    return options


def number(cell):
    """A report's number cell as a float, None where it is empty."""
    if cell is None or cell in ("", "n.a."):
        return None
    assert not isinstance(cell, bool)
    return float(cell)


def strict_report(path, fmt) -> None:
    """The report parses back strictly: JSON refusing NaN and Infinity, one
    cell per column in every row, and every number cell finite."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        def refuse(constant):
            raise ValueError(f"{path.name}: {constant}")
        doc = json.loads(text, parse_constant=refuse)
        columns, rows = doc["columns"], doc["rows"]
    elif fmt == "csv":
        provenance, body = text.split("\n", 1)
        assert provenance.startswith("# corpus=")
        columns, *rows = csv.reader(io.StringIO(body, newline=""))
    else:  # four lines, then one per row
        provenance, blank, header, rule, *lines, end = text.split("\n")
        assert provenance.startswith("# corpus=") and (blank, end) == ("", "")
        columns, rule, *rows = ([c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
                                for line in (header, rule, *lines))
        assert rule == ["---"] * len(columns)
    for row in rows:
        assert len(row) == len(columns), path.name
        for column, cell in zip(columns, row):
            if column not in TEXT_COLUMNS:
                value = number(cell)
                assert value is None or math.isfinite(value), (path.name, column, cell)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_fileset_fails_only_with_a_biblio_rank_error(data):
    """Mutated CSV and JSON filesets (JSON bools and floats, non-object rows,
    truncation, invalid bytes, blank cells, BOMs, duplicate headers, a CSV and
    a JSON file for the same stem) load or raise a BiblioRankError, and
    `ingest` exits 0 or 1 without a traceback. Then `indicators`, `rank`,
    `compare` and `drilldown`, with drawn options, each exit 0 with every
    report parsing back strictly, or exit 1 with one JSON line on stderr and
    no `--out`. The base's p1 is a life-science byline of two universities,
    and `fuzzed_base` draws more, so a drawn `--scheme` weighs them; its
    years and counts lie at the edges of the rules."""
    base = fuzzed_base(data)
    mutated = data.draw(st.sets(st.sampled_from(sorted(base)), max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for stem, (header, rows) in base.items():
            fmts = data.draw(st.sampled_from([("csv",), ("json",), ("csv", "json")]))
            for fmt in fmts:
                (root / f"{stem}.{fmt}").write_bytes(
                    fuzzed_file(data, header, rows, fmt, stem in mutated))
        try:
            load_corpus(root)
        except BiblioRankError:
            pass
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["ingest", "--input", str(root)]) in (0, 1)
        assert "Traceback" not in err.getvalue()

        options = fuzzed_options(data, root)
        fmt = options[options.index("--format") + 1]
        for command, reports in SCORING_REPORTS.items():
            target = root / "out" / command
            argv = [command, "--input", str(root), "--out", str(target), *options]
            if command == "drilldown":
                argv += ["--university", data.draw(st.sampled_from(["U1", "U2", "U9"])),
                         "--uda", data.draw(st.sampled_from(["A", "B"]))]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main(argv)
            event(f"{command} exits {status}")
            if status == 0:
                assert err.getvalue() == ""
                suffix = "md" if fmt == "markdown" else fmt
                assert sorted(p.name for p in target.iterdir()) == sorted(
                    f"{name}.{suffix}" for name in reports)
                for name in reports:
                    strict_report(target / f"{name}.{suffix}", fmt)
            else:
                assert status == 1, command
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
                assert not target.exists()


class TestStaff:
    def test_full_period(self):
        corpus = make_corpus([R("r1", years=(2001, 2002, 2003))], [], [])
        assert staff(corpus, "U1", "S1", EARLY) == 1.0

    def test_two_of_five_years(self):
        corpus = make_corpus([R("r1", years=(2004, 2005))], [], [])
        assert staff(corpus, "U1", "S1", LATE) == pytest.approx(0.4)

    def test_hand_sum(self):
        researchers = [R(f"r{i}", years=(2001, 2002, 2003)) for i in range(3)]
        researchers.append(R("rh", years=(2001,)))  # 1 of 3 years
        researchers.append(R("rq", years=(2002,)))
        corpus = make_corpus(researchers, [], [])
        # 3 full + 1/3 + 1/3
        assert staff(corpus, "U1", "S1", EARLY) == pytest.approx(3 + 2 / 3)

    def test_three_full_one_half(self):
        # 4-year period so a 2-year stay is exactly half
        period = type(EARLY)("H", 2001, 2004)
        researchers = [R(f"r{i}", years=(2001, 2002, 2003, 2004)) for i in range(3)]
        researchers.append(R("rh", years=(2001, 2002)))
        late = type(EARLY)("L", 2005, 2008)  # the periods may not share a year
        corpus = make_corpus(researchers, [], [], periods=(period, late))
        assert staff(corpus, "U1", "S1", period) == pytest.approx(3.5)

    def test_headcount_mode(self):
        corpus = make_corpus([R("r1", years=(2001,))], [], [])
        assert staff(corpus, "U1", "S1", EARLY, staff_mode="headcount") == 1.0

    def test_unknown_sds(self):
        corpus = make_corpus([R("r1")], [], [])
        with pytest.raises(UnknownSDS):
            staff(corpus, "U1", "NOPE", EARLY)

    def test_unknown_university(self):
        corpus = make_corpus([R("r1")], [], [])
        with pytest.raises(UnknownUniversity):
            staff(corpus, "U9", "S1", EARLY)

    def test_staff_sums_match_direct_headcount(self, simple_corpus):
        for period in simple_corpus.periods:
            total = sum(staff(simple_corpus, u, s, period)
                        for (u, s) in simple_corpus.units())
            direct = sum(presence(r, period) for r in simple_corpus.researchers)
            assert total == pytest.approx(direct)


class TestPresence:
    """presence counts the active years between a period's bounds, so a long
    period costs no more than a short one."""

    @staticmethod
    def naive(researcher, period, staff_mode):
        overlap = sum(y in researcher.active_years for y in period.years)
        if not overlap:
            return 0.0
        return 1.0 if staff_mode == "headcount" else overlap / period.length_years

    @settings(max_examples=200, deadline=None)
    @given(start=st.integers(-100, 2100), length=st.integers(1, 10_000),
           years=st.frozensets(st.integers(-200, 12_200), max_size=40),
           staff_mode=st.sampled_from(["prorata", "headcount"]))
    def test_equals_the_count_over_every_year_of_the_period(self, start, length, years,
                                                            staff_mode):
        period = Period("X", start, start + length - 1)
        researcher = R("r1", years=years)
        assert presence(researcher, period, staff_mode) == self.naive(
            researcher, period, staff_mode)

    def test_a_million_year_period_takes_no_memory(self):
        researcher = R("r1", years=(2001, 2002, 2003))
        period = Period("L", 2001, 2001 + 10**6)
        tracemalloc.start()
        try:
            value = presence(researcher, period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 3 / (10**6 + 1)
        assert peak < 2**20


class TestValidate:
    def test_valid_corpus_empty_report(self, simple_corpus):
        assert validate(simple_corpus) == ()

    def test_position_out_of_range_listed(self):
        corpus = make_corpus([R("r1")],
                             [P("p1", n_authors=3)],
                             [A("p1", "r1", pos=5)])
        report = validate(corpus)
        assert any(v.kind == "position_out_of_range" for v in report)

    def test_author_count_below_resident_authorships(self):
        corpus = make_corpus([R("r1"), R("r2")],
                             [P("p1", n_authors=1)],
                             [A("p1", "r1", 1), A("p1", "r2", 1)])
        report = validate(corpus)
        kinds = {v.kind for v in report}
        assert "author_count_too_small" in kinds
        assert "duplicate_position" in kinds

    @given(seed=st.integers(0, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_a_two_loop_reference(self, seed, data):
        corpus = synth_corpus(seed)
        pubs, auths = list(corpus.publications), list(corpus.authorships)
        for _ in range(data.draw(st.integers(0, 6), label="n_mutations")):
            if data.draw(st.booleans(), label="mutate_position"):
                i = data.draw(st.integers(0, len(auths) - 1), label="authorship")
                auths[i] = auths[i]._replace(author_position=data.draw(st.integers(1, 5)))
            else:
                i = data.draw(st.integers(0, len(pubs) - 1), label="publication")
                pubs[i] = pubs[i]._replace(n_authors_total=data.draw(st.integers(1, 3)))
        mutated = Corpus(corpus.taxonomy, corpus.researchers, pubs, auths,
                         corpus.periods)
        assert validate(mutated) == naive_validate(mutated)


@functools.lru_cache(maxsize=None)
def synth_corpus(seed):
    return make_synth_corpus(GenConfig(seed=seed, n_universities=3, n_sds=3))


def naive_validate(corpus):
    """The three byline rules as two plain loops: publications, then authorships."""
    out = []
    for p in corpus.publications:
        n_resident = sum(a.pub_id == p.pub_id for a in corpus.authorships)
        if p.n_authors_total < n_resident:
            out.append(Violation("author_count_too_small", p.pub_id,
                                 f"publication {p.pub_id} lists {p.n_authors_total} "
                                 f"authors but has {n_resident} authorship records"))
    seen = set()
    for a in corpus.authorships:
        n = corpus.publication_by_id[a.pub_id].n_authors_total
        if not 1 <= a.author_position <= n:
            out.append(Violation("position_out_of_range", f"{a.pub_id}/{a.researcher_id}",
                                 f"author position {a.author_position} outside "
                                 f"[1, {n}] on {a.pub_id}"))
        if (a.pub_id, a.author_position) in seen:
            out.append(Violation("duplicate_position", a.pub_id,
                                 f"position {a.author_position} repeated on {a.pub_id}"))
        seen.add((a.pub_id, a.author_position))
    return tuple(out)
