import json
import math
import statistics

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibliorank.baseline import (build_baselines, load_external_baselines, median,
                                 standardize_citations)
from bibliorank.errors import (DuplicateKey, MissingBaseline, MissingFile, NegativeValue,
                               SchemaError)

from conftest import P, R, A, make_corpus


def corpus_with_citations(cites, cat="CAT_X", year=2001):
    pubs = [P(f"p{i}", year, cat, c, 1) for i, c in enumerate(cites)]
    return make_corpus([R("r1")], pubs, [])


class TestBuild:
    def test_median_and_mean(self):
        table = build_baselines(corpus_with_citations([0, 1, 3, 5, 10]))
        entry = table.get("CAT_X", 2001)
        assert entry.median == 3
        assert entry.mean == pytest.approx(3.8)
        assert entry.n_pubs == 5
        assert entry.source == "corpus_derived"

    def test_singleton_stratum(self):
        entry = build_baselines(corpus_with_citations([7])).get("CAT_X", 2001)
        assert entry.median == 7 and entry.mean == 7

    def test_all_zero_stratum(self):
        entry = build_baselines(corpus_with_citations([0, 0, 0, 0])).get("CAT_X", 2001)
        assert entry.median == 0 and entry.mean == 0

    def test_even_n_mid_interpolation(self):
        entry = build_baselines(corpus_with_citations([1, 2, 3, 10])).get("CAT_X", 2001)
        assert entry.median == 2.5

    def test_every_stratum_covered(self, simple_corpus):
        table = build_baselines(simple_corpus)
        for pub in simple_corpus.publications:
            assert (pub.subject_category, pub.year) in table.entries


class TestExternal:
    def test_single_row(self, tmp_path):
        f = tmp_path / "baselines.csv"
        f.write_text("subject_category,year,median,mean,n_pubs\nCAT_A,2002,2.0,3.1,500\n")
        table = load_external_baselines(f)
        entry = table.get("CAT_A", 2002)
        assert entry.median == 2.0 and entry.mean == 3.1 and entry.source == "external"

    def test_external_wins_on_merge(self, tmp_path):
        corpus_table = build_baselines(corpus_with_citations([0, 1, 3]))
        f = tmp_path / "baselines.csv"
        f.write_text("subject_category,year,median,mean,n_pubs\nCAT_X,2001,9.0,9.0,10\n")
        external = load_external_baselines(f)
        assert corpus_table.merge(external).get("CAT_X", 2001).median == 9.0
        # an external entry is kept over a corpus-derived one merged onto it
        assert external.merge(corpus_table).get("CAT_X", 2001).median == 9.0
        # of two external entries, the one merged on, `other`'s, is kept
        g = tmp_path / "other.csv"
        g.write_text("subject_category,year,median,mean,n_pubs\nCAT_X,2001,4.0,4.0,10\n")
        other = load_external_baselines(g)
        assert external.merge(other).get("CAT_X", 2001).median == 4.0
        assert other.merge(external).get("CAT_X", 2001).median == 9.0

    def test_header_only_is_valid(self, tmp_path):
        f = tmp_path / "baselines.csv"
        f.write_text("subject_category,year,median,mean,n_pubs\n")
        assert len(load_external_baselines(f).entries) == 0

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        f = tmp_path / "baselines.csv"
        f.write_text("subject_category,year,median,mean,n_pubs,median\n"
                     "CAT_A,2002,2.0,3.1,500,4.0\n")
        assert load_external_baselines(f).get("CAT_A", 2002).median == 4.0

    def test_negative_rejected(self, tmp_path):
        f = tmp_path / "baselines.csv"
        f.write_text("subject_category,year,median,mean,n_pubs\nCAT_A,2002,-1,3.1,500\n")
        with pytest.raises(NegativeValue):
            load_external_baselines(f)

    def test_repeated_stratum_is_a_duplicate_key(self, tmp_path):
        # the year is read as an integer, so "+02001" names the same stratum
        f = tmp_path / "baselines.csv"
        f.write_text("subject_category,year,median,mean,n_pubs\n"
                     "CAT_X,2001,1.0,1.0,5\nCAT_Y,2001,2.0,2.0,5\n"
                     "CAT_X,+02001,5.0,5.0,5\n")
        with pytest.raises(DuplicateKey) as exc:
            load_external_baselines(f)
        assert str(exc.value) == f"{f}: duplicate stratum (CAT_X, 2001) at row 4"

    def test_wrong_columns(self, tmp_path):
        f = tmp_path / "baselines.csv"
        f.write_text("category,year\nCAT_A,2002\n")
        with pytest.raises(SchemaError):
            load_external_baselines(f)

    @pytest.mark.parametrize("body, error", [
        (b"CAT_A,2002\n", "missing columns ['median', 'mean', 'n_pubs'] (row 2)"),
        (b"CAT_\xff,2002,1.0,1.0,5\n", "not valid UTF-8 (invalid start byte)"),
        (b"CAT_A,2002,x,1.0,5\n", "could not convert string to float: 'x' (row 2)"),
        (b"CAT_A,2002,nan,1.0,5\n", "median and mean must be finite (row 2)"),
        (b"CAT_A,2002,1.0,1.0,5\nCAT_A,2003,1.0,inf,5\n",
         "median and mean must be finite (row 3)"),
        (b"\nCAT_A,2002\n", "missing columns ['median', 'mean', 'n_pubs'] (row 2)"),
        (b"CAT_A,2002,1_0,1.0,5\n", "median='1_0' is not a number (row 2)"),
        ("CAT_A,2002,\uff11.5,1.0,5\n".encode(), "median='\uff11.5' is not a number (row 2)"),
        (b"CAT_A,2002, 2.0,1.0,5\n", "median=' 2.0' is not a number (row 2)"),
        (b"CAT_A,2002,1.0,2.0 ,5\n", "mean='2.0 ' is not a number (row 2)"),
        (b"CAT_A, 2002,1.0,1.0,5\n", "year=' 2002' is not an integer (row 2)"),
        (b"CAT_A,2002,1.0,1.0,1_0\n", "n_pubs='1_0' is not an integer (row 2)"),
        (b"CAT_A,2002,1.0,1.0,5\nCAT_A,2003,0.25,1.0,5\n",
         "median=0.25 is positive but below 0.5 (row 3)"),
        (b"CAT_A,2002,1.0,0.1,5\n", "mean=0.1 is positive but below 1/n_pubs=5 (row 2)"),
        (b"CAT_A,2002,1e-320,1e-320,5\n", "median=1e-320 is positive but below 0.5 (row 2)"),
        (b"CAT_A,2002,0,1e-320,5\n", "mean=1e-320 is positive but below 1/n_pubs=5 (row 2)"),
        (b"CAT_A,9007199254740993,1.0,1.0,5\n",
         "year='9007199254740993' is outside [-2**53, 2**53] (row 2)"),
        (b"CAT_A,2002,1.0,1.0,1" + b"0" * 400 + b"\n",
         f"n_pubs='{10**400}' is outside [-2**53, 2**53] (row 2)"),
    ], ids=["short_row", "invalid_utf8", "not_a_number", "nan_median", "inf_mean",
            "blank_line_not_counted", "median_with_underscore", "median_fullwidth_digit",
            "median_after_a_blank", "mean_before_a_blank", "year_after_a_blank",
            "n_pubs_with_underscore", "median_below_a_half", "mean_below_one_per_pub",
            "subnormal_baselines", "zero_median_subnormal_mean", "year_past_2_53",
            "n_pubs_of_400_digits"])
    def test_malformed_file_is_a_schema_error(self, tmp_path, body, error):
        f = tmp_path / "baselines.csv"
        f.write_bytes(b"subject_category,year,median,mean,n_pubs\n" + body)
        with pytest.raises(SchemaError) as exc:
            load_external_baselines(f)
        assert str(exc.value) == f"{f}: {error}"


    @pytest.mark.parametrize("body, error", [
        (b"CAT_A,2002,x,1.0,5\nCAT_B,2003\n",
         "missing columns ['median', 'mean', 'n_pubs'] (row 3)"),
        (b"CAT_A,x,1.0,1.0,5\n", "year='x' is not an integer (row 2)"),
        (b"CAT_A,2002,1.0,1.0,2.5\n", "n_pubs='2.5' is not an integer (row 2)"),
        (b"CAT_A,2002,1.0,1.0,5\nCAT_A,y,x,1.0,5\n", "year='y' is not an integer (row 3)"),
        (b"CAT_A,2002,x,y,z\n", "could not convert string to float: 'x' (row 2)"),
        (b"CAT_A,2002,1.0,y,z\n", "could not convert string to float: 'y' (row 2)"),
        (b"CAT_A,2002,1.0,1.0,z\nCAT_A,2003,nan,1.0,5\n",
         "n_pubs='z' is not an integer (row 2)"),
        (b"CAT_A,2002,-inf,1.0,0\n", "median and mean must be finite (row 2)"),
        (b"CAT_A,2002,1.0,1.0,0\n", "n_pubs must be positive (row 2)"),
        (b"CAT_A,2002,0.1,0.1,0\n", "n_pubs must be positive (row 2)"),
        (b"CAT_A,2002,0.1,0.1,5\n", "median=0.1 is positive but below 0.5 (row 2)"),
        (b"CAT_A,2002,1.0,0.1,5\nCAT_A,2003,0.1,1.0,5\n",
         "mean=0.1 is positive but below 1/n_pubs=5 (row 2)"),
    ], ids=["missing_cells_before_values", "year_not_an_integer", "n_pubs_not_an_integer",
            "earliest_row_first", "median_before_mean", "mean_before_n_pubs",
            "cell_before_a_later_row", "finite_before_n_pubs", "n_pubs_below_1",
            "n_pubs_before_low_baselines", "low_median_before_low_mean",
            "low_mean_before_a_later_low_median"])
    def test_one_error_per_file_as_a_row_by_row_pass(self, tmp_path, body, error):
        """The corpus reader's order: missing cells over the whole file first,
        then the earliest failing row, the first failing check within it."""
        f = tmp_path / "baselines.csv"
        f.write_bytes(b"subject_category,year,median,mean,n_pubs\n" + body)
        with pytest.raises(SchemaError) as exc:
            load_external_baselines(f)
        assert str(exc.value) == f"{f}: {error}"

    @pytest.mark.parametrize("body, error", [
        (b"CAT_A,2002,1.0,1.0,5\nCAT_A,2002,nan,-1,0\n", DuplicateKey),
        (b"CAT_A,2002,-1.0,1.0,0\n", NegativeValue),
    ], ids=["duplicate_before_finite", "negative_before_n_pubs"])
    def test_key_and_sign_errors_keep_their_place(self, tmp_path, body, error):
        f = tmp_path / "baselines.csv"
        f.write_bytes(b"subject_category,year,median,mean,n_pubs\n" + body)
        with pytest.raises(error):
            load_external_baselines(f)

    @pytest.mark.parametrize("text, error", [
        ("category,year\n", "missing columns ['subject_category', 'median', 'mean', "
                             "'n_pubs'] (row 1)"),
        ("category,year\nCAT_A,2002\n", "missing columns ['subject_category', "
                                         "'median', 'mean', 'n_pubs'] (row 2)"),
        ("", "missing header row"),
    ], ids=["header_only", "with_a_row", "empty_file"])
    def test_header_lacking_a_column_fails_at_its_row(self, tmp_path, text, error):
        f = tmp_path / "baselines.csv"
        f.write_text(text)
        with pytest.raises(SchemaError) as exc:
            load_external_baselines(f)
        assert str(exc.value) == f"{f}: {error}"

    def test_smallest_baselines_of_integer_counts_load(self, tmp_path):
        """A median of 0.5 (0 and 1), a mean of 1/n_pubs (one citation) and
        zero baselines (which fall back) are what integer counts can give."""
        f = tmp_path / "baselines.csv"
        f.write_text("subject_category,year,median,mean,n_pubs\n"
                     f"CAT_A,2002,0.5,{1 / 49!r},49\nCAT_A,2003,0,0,7\n")
        assert load_external_baselines(f).entries == {
            ("CAT_A", 2002): (0.5, 1 / 49, 49, "external"),
            ("CAT_A", 2003): (0.0, 0.0, 7, "external")}

    def test_a_missing_file(self, tmp_path):
        with pytest.raises(MissingFile, match="baseline file .* not found"):
            load_external_baselines(tmp_path / "baselines.csv")

    def test_json_array_is_the_same_table_as_its_csv(self, tmp_path):
        rows = [("CAT_A", 2002, 2.0, 3.1, 500), ("CAT_B", 2002, 0.0, 0.5, 2),
                ("CAT_A", 2003, 1.5, 1.25, 7)]
        (tmp_path / "b.csv").write_text("subject_category,year,median,mean,n_pubs\n"
                                        + "".join(",".join(map(str, r)) + "\n" for r in rows))
        (tmp_path / "b.json").write_text(json.dumps(
            [dict(zip(("subject_category", "year", "median", "mean", "n_pubs"), r))
             for r in rows]))
        table = load_external_baselines(tmp_path / "b.csv")
        assert load_external_baselines(tmp_path / "b.json").entries == table.entries
        assert table.get("CAT_B", 2002) == (0.0, 0.5, 2, "external")

    @pytest.mark.parametrize("median, error", [
        ("true", "median=True is not a number (row 2)"),
        ("[1]", "median=[1] is not a number (row 2)"),
        ('"x"', "could not convert string to float: 'x' (row 2)"),
        ("1" + "0" * 400, "int too large to convert to float (row 2)"),
        ("null", "missing columns ['median'] (row 2)"),
    ], ids=["bool", "list", "text", "huge_int", "null"])
    def test_json_cell_that_is_not_a_number(self, tmp_path, median, error):
        f = tmp_path / "baselines.json"
        f.write_text('[{"subject_category": "CAT_A", "year": 2002, "median": 1, '
                     '"mean": 1, "n_pubs": 5}, {"subject_category": "CAT_A", '
                     f'"year": 2003, "median": {median}, "mean": 1, "n_pubs": 5}}]')
        with pytest.raises(SchemaError) as exc:
            load_external_baselines(f)
        assert str(exc.value) == f"{f}: {error}"

    def test_json_duplicate_counts_rows_from_1(self, tmp_path):
        f = tmp_path / "baselines.json"
        row = {"subject_category": "CAT_A", "year": 2002, "median": 1, "mean": 1,
               "n_pubs": 5}
        f.write_text(json.dumps([row, row]))
        with pytest.raises(DuplicateKey) as exc:
            load_external_baselines(f)
        assert str(exc.value) == f"{f}: duplicate stratum (CAT_A, 2002) at row 2"


class TestStandardize:
    def test_division(self):
        table = build_baselines(corpus_with_citations([0, 3, 10]))
        assert standardize_citations(P("q", 2001, "CAT_X", 6, 1), table) == 2.0

    def test_at_median_is_one(self):
        table = build_baselines(corpus_with_citations([0, 3, 10]))
        assert standardize_citations(P("q", 2001, "CAT_X", 3, 1), table) == 1.0

    def test_zero_over_zero_median(self):
        table = build_baselines(corpus_with_citations([0, 0, 0]))
        assert standardize_citations(P("q", 2001, "CAT_X", 0, 1), table) == 0.0

    def test_fallback_to_smallest_positive_of_category(self):
        pubs = [P("a", 2001, "CAT_X", 0, 1), P("b", 2001, "CAT_X", 0, 1),
                P("c", 2002, "CAT_X", 4, 1), P("d", 2003, "CAT_X", 2, 1)]
        table = build_baselines(make_corpus([R("r1")], pubs, []))
        events = []
        value = standardize_citations(P("q", 2001, "CAT_X", 6, 1), table,
                                      fallback_events=events)
        assert value == 3.0  # divisor 2, the smallest positive median
        assert events == [("q", "CAT_X", 2001)]

    def test_fallback_divisor_one_when_no_positive(self):
        table = build_baselines(corpus_with_citations([0, 0]))
        assert standardize_citations(P("q", 2001, "CAT_X", 5, 1), table) == 5.0

    def test_missing_stratum(self):
        table = build_baselines(corpus_with_citations([1]))
        with pytest.raises(MissingBaseline):
            standardize_citations(P("q", 1999, "CAT_Z", 1, 1), table)

    def test_mean_basis(self):
        table = build_baselines(corpus_with_citations([0, 1, 5]))
        assert standardize_citations(P("q", 2001, "CAT_X", 4, 1), table,
                                     basis="mean") == pytest.approx(2.0)


class TestProperties:
    @given(cites=st.lists(st.integers(0, 50), min_size=1, max_size=20),
           k=st.sampled_from([2, 3, 10]),
           target=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance(self, cites, k, target):
        # the divisor-1 fallback (all-zero median, no positive sibling
        # baseline) is deliberately not scale-invariant; exclude it
        assume(statistics.median(cites) > 0)
        base = build_baselines(corpus_with_citations(cites))
        scaled = build_baselines(corpus_with_citations([c * k for c in cites]))
        v1 = standardize_citations(P("q", 2001, "CAT_X", target, 1), base)
        v2 = standardize_citations(P("q", 2001, "CAT_X", target * k, 1), scaled)
        assert v2 == pytest.approx(v1, abs=1e-12)

    @given(cites=st.lists(st.integers(0, 50), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_citations(self, cites):
        table = build_baselines(corpus_with_citations(cites))
        values = [standardize_citations(P("q", 2001, "CAT_X", c, 1), table)
                  for c in range(0, 30)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(xs=st.lists(st.integers(0, 10**12), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_median_and_mean_match_statistics(self, xs):
        assert repr(median(xs)) == repr(statistics.median(xs))
        assert math.fsum(xs) / len(xs) == statistics.fmean(xs)

    def test_weighted_sum_identity(self, simple_corpus):
        # sum of standardized scores times the stratum median recovers raw
        # citations when no fallback fires
        table = build_baselines(simple_corpus)
        total = 0.0
        for pub in simple_corpus.publications:
            events = []
            std = standardize_citations(pub, table, fallback_events=events)
            assert not events
            total += std * table.get(pub.subject_category, pub.year).median
        assert total == pytest.approx(sum(p.citations for p in simple_corpus.publications))
