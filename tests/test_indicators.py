import argparse
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank.aggregate import uda_scores
from bibliorank.baseline import (BaselineEntry, BaselineTable, build_baselines,
                                 standardize_citations)
from bibliorank.cli import drilldown_tables, indicator_tables
from bibliorank.errors import (BiblioRankError, DanglingReference, MissingBaseline,
                               NoPublications, UnknownSDS, UnknownUniversity, ZeroStaff)
from bibliorank.indicators import (ShareScheme, UnitLedger, _Tally, fractional_share,
                                   researcher_indicator, unit_indicator)
from bibliorank.model import Authorship, Corpus, Period, presence, staff, validate
from bibliorank.oracle import Oracle
from bibliorank.synthgen import GenConfig, make_corpus as synth_corpus

from conftest import A, EARLY, LATE, P, R, make_corpus, make_taxonomy
from test_cli_digests import SEED, SHAPES

ONE_YEAR = Period("Y", 2001, 2001)


class TestFractionalShare:
    def test_single_author(self):
        pub = P("p1", n_authors=1)
        assert fractional_share(A("p1", "r1", 1), pub, ShareScheme(), True) == 1.0

    def test_equal_split_outside_life_sciences(self):
        pub = P("p1", n_authors=4)
        for pos in range(1, 5):
            assert fractional_share(A("p1", "r1", pos), pub, ShareScheme(), False) == 0.25

    def test_position_weights_in_life_sciences(self):
        pub = P("p1", n_authors=4)
        scheme = ShareScheme(first_weight=2, last_weight=2, middle_weight=1)
        shares = [fractional_share(A("p1", "r1", pos), pub, scheme, True)
                  for pos in range(1, 5)]
        assert shares == pytest.approx([2 / 6, 1 / 6, 1 / 6, 2 / 6])

    def test_intramural_fallback(self):
        pub = P("p1", n_authors=4)
        share = fractional_share(A("p1", "r1", 1), pub, ShareScheme(), True,
                                 known_bylines=["U1", "U1"])
        assert share == 0.25

    def test_mixed_bylines_keep_weights(self):
        pub = P("p1", n_authors=4)
        share = fractional_share(A("p1", "r1", 1), pub, ShareScheme(), True,
                                 known_bylines=["U1", "U2"])
        assert share == pytest.approx(2 / 6)

    @pytest.mark.parametrize("pos, weight", [(1, 2), (2, 1), (10**9 - 1, 1), (10**9, 2)])
    def test_huge_byline_costs_one_sum(self, pos, weight):
        # 2 + 2 + (10**9 - 2) * 1 weights, not a sum over a billion positions
        share = fractional_share(A("p1", "r1", pos), P("p1", n_authors=10**9),
                                 ShareScheme(), True)
        assert share == weight / 1_000_000_002

    @given(n=st.integers(1, 25),
           first=st.floats(0.01, 5.0), last=st.floats(0.01, 5.0),
           middle=st.floats(0.01, 5.0), life=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_shares_sum_to_one(self, n, first, last, middle, life):
        pub = P("p1", n_authors=n)
        scheme = ShareScheme(first, last, middle)
        total = sum(fractional_share(A("p1", "r1", pos), pub, scheme, life)
                    for pos in range(1, n + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(weights=st.tuples(*[st.floats(5e-324, 1.7976931348623157e308)] * 3),
           n=st.integers(2, 2**53), k=st.integers(-2200, 2200), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_scheme_gives_shares_that_a_power_of_two_keeps(self, weights, n, k, data):
        """Every positive finite scheme gives a finite share in [0, 1], and
        scaling all three weights by 2**k, where that is exact, moves no share:
        only the weights' ratios matter, even where their total overflows."""
        position = data.draw(st.sampled_from([1, 2, n - 1, n]) | st.integers(1, n))
        pub, a = P("p1", n_authors=n), A("p1", "r1", position)
        share = fractional_share(a, pub, ShareScheme(*weights), True)
        assert 0.0 <= share <= 1.0

        def scaled(w):
            try:
                v = math.ldexp(w, k)
            except OverflowError:
                return None
            return v if math.ldexp(v, -k) == w else None

        moved = [scaled(w) for w in weights]
        if None not in moved:
            assert fractional_share(a, pub, ShareScheme(*moved), True) == share

    @pytest.mark.parametrize("weights", [(1e-300, 1e-300, 1e300), (5e-324, 5e-324, 1e308)])
    def test_a_byline_of_two_leaves_the_middle_weight_out(self, weights):
        """A byline of two has no middle author: a huge middle weight neither
        scales the two used weights to 0.0 nor enters the total."""
        pub = P("p1", n_authors=2)
        assert [fractional_share(A("p1", "r1", pos), pub, ShareScheme(*weights), True)
                for pos in (1, 2)] == [0.5, 0.5]

    @pytest.mark.parametrize("weights", [(1e308, 1e308, 1.0), (2.0**1023, 2.0**1023, 2.0**1022),
                                         (1.7976931348623157e308, 1.0, 1e300)])
    def test_a_total_beyond_the_largest_float_keeps_the_ratios(self, weights):
        """The byline's total of these weights is not a finite float; the
        shares are those of the same ratios at a small scale."""
        pub = P("p1", n_authors=3)
        small = ShareScheme(*(math.ldexp(w, -1000) for w in weights))
        shares = [fractional_share(A("p1", "r1", pos), pub, ShareScheme(*weights), True)
                  for pos in (1, 2, 3)]
        assert shares == [fractional_share(A("p1", "r1", pos), pub, small, True)
                          for pos in (1, 2, 3)]
        assert sum(shares) == pytest.approx(1.0)


def one_unit_corpus(publications, authorships, n_researchers=1, life=False,
                    periods=(EARLY, LATE), years=(2001, 2002, 2003)):
    researchers = [R(f"r{i+1}", "S1", "U1", years) for i in range(n_researchers)]
    tax = make_taxonomy({"S1": "A"}, life=("S1",) if life else ())
    return make_corpus(researchers, publications, authorships, tax, periods)


class TestUnitP:
    def test_one_pub_per_year(self):
        pubs = [P(f"p{y}", y) for y in (2001, 2002, 2003)]
        auths = [A(p.pub_id, "r1") for p in pubs]
        corpus = one_unit_corpus(pubs, auths)
        assert UnitLedger(corpus).unit_score("U1", "S1", "P", EARLY).value == 1.0

    def test_annualized_over_staff(self):
        pubs = [P(f"p{i}", 2001 + i % 3) for i in range(9)]
        auths = [A(p.pub_id, "r1") for p in pubs]
        corpus = one_unit_corpus(pubs, auths, n_researchers=2)
        assert (UnitLedger(corpus).unit_score("U1", "S1", "P", EARLY).value
                == pytest.approx(1.5))

    def test_shared_pub_counted_once(self):
        corpus = one_unit_corpus(
            [P("p1", 2001, n_authors=2)],
            [A("p1", "r1", 1), A("p1", "r2", 2)],
            n_researchers=2, periods=(ONE_YEAR, LATE), years=(2001,))
        score = UnitLedger(corpus).unit_score("U1", "S1", "P", ONE_YEAR)
        assert score.value == 0.5
        assert score.n_pubs == 1

    def test_zero_staff(self):
        corpus = one_unit_corpus([], [], years=(2001,))
        with pytest.raises(ZeroStaff):
            UnitLedger(corpus).unit_score("U1", "S1", "P", LATE)


class TestUnitFP:
    def test_single_authored_equals_P(self):
        pubs = [P(f"p{y}", y, n_authors=1) for y in (2001, 2002, 2003)]
        auths = [A(p.pub_id, "r1") for p in pubs]
        corpus = one_unit_corpus(pubs, auths)
        ledger = UnitLedger(corpus, ShareScheme())
        assert (ledger.unit_score("U1", "S1", "FP", EARLY).value
                == ledger.unit_score("U1", "S1", "P", EARLY).value)

    def test_quarter_share(self):
        corpus = one_unit_corpus([P("p1", 2001, n_authors=4)], [A("p1", "r1", 2)],
                                 periods=(ONE_YEAR, LATE), years=(2001,))
        ledger = UnitLedger(corpus, ShareScheme())
        assert ledger.unit_score("U1", "S1", "FP", ONE_YEAR).value == 0.25

    def test_mixed_fixture_against_oracle(self):
        pubs = [P("p1", 2001, "CAT_X", 2, 3), P("p2", 2001, "CAT_X", 0, 1),
                P("p3", 2002, "CAT_X", 5, 2), P("p4", 2002, "CAT_Y", 1, 4),
                P("p5", 2003, "CAT_Y", 3, 5)]
        auths = [A("p1", "r1", 1), A("p2", "r1", 1), A("p3", "r2", 2),
                 A("p4", "r2", 4), A("p5", "r1", 3)]
        corpus = one_unit_corpus(pubs, auths, n_researchers=2, life=True)
        expected = Oracle(corpus).unit_scores()[("U1", "S1", "FP", "E")]
        got = UnitLedger(corpus, ShareScheme()).unit_score("U1", "S1", "FP", EARLY).value
        assert got == pytest.approx(expected, abs=1e-9)


class TestUnitAQ:
    def test_all_at_median_is_one(self):
        pubs = [P("p1", 2001, "CAT_X", 3, 1), P("p2", 2001, "CAT_X", 3, 1)]
        auths = [A("p1", "r1"), A("p2", "r1")]
        corpus = one_unit_corpus(pubs, auths)
        baselines = build_baselines(corpus)
        ledger = UnitLedger(corpus, baselines=baselines)
        assert ledger.unit_score("U1", "S1", "AQ", EARLY).value == 1.0

    def test_mean_of_standardized(self):
        # strata medians: CAT_X/2001 over {6,0,3,3} -> 3
        pubs = [P("p1", 2001, "CAT_X", 6, 1), P("p2", 2001, "CAT_X", 0, 1),
                P("p3", 2001, "CAT_X", 3, 1), P("p4", 2001, "CAT_X", 3, 1)]
        auths = [A("p1", "r1"), A("p2", "r1")]
        corpus = one_unit_corpus(pubs, auths)
        baselines = build_baselines(corpus)
        # unit pubs standardized: {2.0, 0.0} -> mean 1.0
        ledger = UnitLedger(corpus, baselines=baselines)
        assert ledger.unit_score("U1", "S1", "AQ", EARLY).value == 1.0

    def test_no_publications_absent(self):
        corpus = one_unit_corpus([], [])
        with pytest.raises(NoPublications):
            UnitLedger(corpus, baselines=build_baselines(
                one_unit_corpus([P("p1")], [A("p1", "r1")]))
            ).unit_score("U1", "S1", "AQ", EARLY)


class TestUnitFSS:
    def test_direct_product(self):
        # one authorship: share 0.25, standardized 2.0, staff 1, 1 year
        pubs = [P("p1", 2001, "CAT_X", 6, 4), P("p2", 2001, "CAT_X", 0, 1),
                P("p3", 2001, "CAT_X", 3, 1)]
        auths = [A("p1", "r1", 2)]
        corpus = one_unit_corpus(pubs, auths, periods=(ONE_YEAR, LATE), years=(2001,))
        baselines = build_baselines(corpus)
        ledger = UnitLedger(corpus, ShareScheme(), baselines)
        score = ledger.unit_score("U1", "S1", "FSS", ONE_YEAR)
        assert score.value == pytest.approx(0.5)

    def test_equals_P_when_shares_and_scores_are_one(self):
        pubs = [P(f"p{y}", y, "CAT_X", 3, 1) for y in (2001, 2002, 2003)]
        # make every stratum's median equal each pub's citations
        auths = [A(p.pub_id, "r1") for p in pubs]
        corpus = one_unit_corpus(pubs, auths)
        baselines = build_baselines(corpus)
        ledger = UnitLedger(corpus, ShareScheme(), baselines)
        assert (ledger.unit_score("U1", "S1", "FSS", EARLY).value
                == ledger.unit_score("U1", "S1", "P", EARLY).value)

    def test_random_fixture_against_oracle(self):
        corpus = synth_corpus(GenConfig(seed=11, n_universities=2, n_sds=2))
        baselines = build_baselines(corpus)
        oracle_scores = Oracle(corpus).unit_scores()
        ledger = UnitLedger(corpus, ShareScheme(), baselines)
        for (u, s) in corpus.units():
            for period in corpus.periods:
                expected = oracle_scores[(u, s, "FSS", period.label)]
                if expected is None:
                    continue
                got = ledger.unit_score(u, s, "FSS", period).value
                assert got == pytest.approx(expected, abs=1e-9)


class TestResearcherLevel:
    def test_unit_of_one(self):
        pubs = [P(f"p{y}", y, "CAT_X", 3, 1) for y in (2001, 2002, 2003)]
        auths = [A(p.pub_id, "r1") for p in pubs]
        corpus = one_unit_corpus(pubs, auths)
        baselines = build_baselines(corpus)
        for ind in ("P", "FP", "AQ", "FSS"):
            score = researcher_indicator(corpus, "r1", ind, EARLY,
                                         ShareScheme(), baselines)
            assert score.value == 1.0

    def test_inactive_researcher(self):
        corpus = one_unit_corpus([], [], years=(2001,))
        with pytest.raises(ZeroStaff):
            researcher_indicator(corpus, "r1", "P", LATE, ShareScheme(),
                                 build_baselines(one_unit_corpus(
                                     [P("p1")], [A("p1", "r1")])))

    def test_against_oracle(self):
        corpus = synth_corpus(GenConfig(seed=5, n_universities=2, n_sds=2))
        baselines = build_baselines(corpus)
        expected = Oracle(corpus).researcher_scores()
        for r in corpus.researchers:
            for period in corpus.periods:
                for ind in ("P", "FP", "AQ", "FSS"):
                    want = expected[(r.researcher_id, ind, period.label)]
                    try:
                        got = researcher_indicator(
                            corpus, r.researcher_id, ind, period,
                            ShareScheme(), baselines).value
                    except (ZeroStaff, NoPublications):
                        got = None
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("corpus", [
        synth_corpus(GenConfig(seed=5, n_universities=2, n_sds=2)),
        # on staff in both periods, publishing only in the late one
        one_unit_corpus([P("p1", 2004)], [A("p1", "r1")], years=(2001, 2004))],
        ids=["synthetic", "no_early_publications"])
    def test_rows_are_the_scores_of_staffed_researchers(self, corpus):
        """The researcher_scores report holds researcher_score's values of
        every researcher on staff, and None, 0, None for an undefined AQ."""
        ledger = UnitLedger(corpus, ShareScheme())
        columns, rows = indicator_tables(ledger, None)["researcher_scores"]
        assert columns == ["researcher_id", "indicator", "period", "value", "n_pubs",
                           "staff"]
        want = []
        for r in corpus.researchers:
            for period in corpus.periods:
                if presence(r, period, "prorata") <= 0:
                    continue
                for ind in ("P", "FP", "AQ", "FSS"):
                    try:
                        sc = ledger.researcher_score(r.researcher_id, ind, period)
                        cells = [sc.value, sc.n_pubs, sc.staff]
                    except NoPublications:
                        cells = [None, 0, None]
                    want.append([r.researcher_id, ind, period.label, *cells])
        assert rows and rows == want


def test_a_late_period_ending_in_200008_scores_as_the_oracle():
    """A mistyped end year scores every unit and researcher as the oracle's
    comparison with the period's bounds does."""
    corpus = synth_corpus(GenConfig(seed=5, n_universities=3, n_sds=2))
    corpus = Corpus(corpus.taxonomy, corpus.researchers, corpus.publications,
                    corpus.authorships, (corpus.early, Period("P2", 2004, 200008)))
    ledger = UnitLedger(corpus, ShareScheme())
    oracle = Oracle(corpus)
    units, researchers = oracle.unit_scores(), oracle.researcher_scores()
    checked = 0
    for period in corpus.periods:
        for (u, s) in corpus.units():
            for ind in ("P", "FP", "AQ", "FSS"):
                want = units[(u, s, ind, period.label)]
                try:
                    sc = ledger.unit_score(u, s, ind, period)
                except (ZeroStaff, NoPublications):
                    assert want is None, (u, s, ind, period)
                    continue
                assert sc.value == pytest.approx(want, rel=1e-12, abs=0), (u, s, ind, period)
                assert sc.staff == units[(u, s, "staff", period.label)]
                checked += 1
        for r in corpus.researchers:
            for ind in ("P", "FP", "AQ", "FSS"):
                want = researchers[(r.researcher_id, ind, period.label)]
                try:
                    got = ledger.researcher_score(r.researcher_id, ind, period).value
                except (ZeroStaff, NoPublications):
                    got = None
                assert got == (None if want is None else pytest.approx(want, rel=1e-12, abs=0))
                checked += 1
    assert checked and corpus.late.length_years == 198005


class TestInvariants:
    def test_fp_never_exceeds_p(self):
        corpus = synth_corpus(GenConfig(seed=2))
        ledger = UnitLedger(corpus, ShareScheme())
        for (u, s) in corpus.units():
            for period in corpus.periods:
                try:
                    p = ledger.unit_score(u, s, "P", period).value
                    fp = ledger.unit_score(u, s, "FP", period).value
                except ZeroStaff:
                    continue
                assert fp <= p + 1e-12


def standardized_scores(ledger):
    """pub_id -> standardized citation score, as the staffed researchers'
    tallies hold it in their (pub_id, share, std) terms."""
    corpus = ledger.corpus
    return {pid: std for sds in corpus.taxonomy.sds_list for period in corpus.periods
            for tally in ledger.staffed_researchers(sds, period).values()
            for pid, _, std in tally.terms}


class TestLedger:
    def test_passed_ledger_must_match_the_inputs(self):
        corpus = synth_corpus(GenConfig(seed=3, n_universities=2, n_sds=2))
        baselines = build_baselines(corpus)
        ledger = UnitLedger(corpus, ShareScheme(), baselines)
        u, s = corpus.units()[0]
        period = corpus.early
        assert (unit_indicator(corpus, u, s, "FSS", period, ShareScheme(),
                               baselines, ledger=ledger)
                == unit_indicator(corpus, u, s, "FSS", period, ShareScheme(),
                                  baselines))
        with pytest.raises(ValueError):
            unit_indicator(corpus, u, s, "FSS", period, ShareScheme(3, 1, 1),
                           baselines, ledger=ledger)
        with pytest.raises(ValueError):
            unit_indicator(corpus, u, s, "FSS", period, ShareScheme(),
                           baselines, basis="mean", ledger=ledger)

    def test_fallback_events_name_the_unit_publications(self):
        # CAT_X/2001 has median 0, so p1's citations fall back
        pubs = [P("p1", 2001, "CAT_X", 4, 1), P("p2", 2001, "CAT_X", 0, 1),
                P("p3", 2001, "CAT_X", 0, 1), P("p4", 2002, "CAT_X", 2, 1)]
        corpus = make_corpus([R("r1"), R("r2", univ="U2")], pubs,
                             [A("p1", "r1"), A("p2", "r1"), A("p4", "r1"),
                              A("p3", "r2", byline="U2")],
                             make_taxonomy({"S1": "A"}))
        ledger = UnitLedger(corpus, baselines=build_baselines(corpus))
        assert ledger.fallback_events == [("p1", "CAT_X", 2001)]

    def test_unknown_researcher_and_publication_are_rejected(self):
        # Corpus() rejects them, as load_corpus does, so no ledger sees them
        for authorship, message in [
                (A("ghost", "r1"), "authorship references unknown pub_id ghost"),
                (A("p1", "nobody"),
                 "authorship references unknown researcher_id nobody")]:
            with pytest.raises(DanglingReference) as err:
                make_corpus([R("r1")], [P("p1")], [A("p1", "r1"), authorship])
            assert str(err.value) == message

    def test_researcher_of_an_unknown_sds_is_rejected(self):
        # in load_corpus's words, naming the smallest such researcher id
        with pytest.raises(DanglingReference) as err:
            make_corpus([R("r2", "S8"), R("r1", "S9"), R("r0")], [P("p1")],
                        [A("p1", "r0")])
        assert str(err.value) == "researcher r1 references unknown SDS S9"

    def test_fallback_events_once_per_publication_in_pub_id_order(self):
        # CAT_X/2001 has median 0, so p2 and p5 fall back; each has two authors
        pubs = [P("p5", 2001, "CAT_X", 3, 2), P("p4", 2001, "CAT_X", 0, 1),
                P("p3", 2001, "CAT_X", 0, 1), P("p2", 2001, "CAT_X", 4, 2),
                P("p1", 2001, "CAT_X", 0, 1)]
        authorships = [A("p5", "r2", 2, "U2"), A("p5", "r1", 1), A("p4", "r1"),
                       A("p3", "r2", 1, "U2"), A("p2", "r2", 2, "U2"),
                       A("p2", "r1", 1), A("p1", "r1")]
        corpus = make_corpus([R("r1"), R("r2", univ="U2")], pubs, authorships)
        ledger = UnitLedger(corpus)
        assert ledger.fallback_events == [("p2", "CAT_X", 2001), ("p5", "CAT_X", 2001)]

    @pytest.mark.parametrize("basis", ["median", "mean"])
    @pytest.mark.parametrize("external", [False, True], ids=["corpus", "external"])
    def test_standardization_is_a_walk_in_authorship_order(self, basis, external):
        """The ledger's per-publication scores and fallback_events equal
        standardize_citations called on each publication of a period, in
        authorships_by_pub order."""
        # CAT_Z/2001 has median 0 and mean 2, CAT_V/2001 median 0 and no
        # positive year, CAT_W/2001 only zeros; p9 is in no period
        pubs = [P("p1", 2001, "CAT_Z", 0), P("p2", 2001, "CAT_Z", 6),
                P("p3", 2001, "CAT_Z", 0), P("p4", 2002, "CAT_Z", 4),
                P("p5", 2001, "CAT_V", 0), P("p6", 2001, "CAT_V", 5),
                P("p7", 2001, "CAT_V", 0), P("p8", 2001, "CAT_W", 0),
                P("p9", 1999, "CAT_Z", 7), P("pa", 2004, "CAT_X", 3),
                P("pb", 2004, "CAT_X", 1), P("pc", 2001, "CAT_Z", 8)]
        authorships = [A(p.pub_id, "r1") for p in pubs] + [A("pc", "r2", 2, "U2")]
        corpus = make_corpus([R("r1", years=range(1999, 2009)),
                              R("r2", univ="U2")], pubs, authorships)
        baselines = build_baselines(corpus)
        if external:
            # a zero stratum that was positive, and a positive one that was zero
            baselines = baselines.merge(BaselineTable({
                ("CAT_X", 2004): BaselineEntry(0.0, 0.0, 2, "external"),
                ("CAT_Z", 2001): BaselineEntry(3.0, 3.0, 4, "external")}))
        ledger = UnitLedger(corpus, ShareScheme(), baselines, basis)
        events, expected = [], {}
        for pid in corpus.authorships_by_pub:
            pub = corpus.publication_by_id[pid]
            if any(pub.year in p.years for p in corpus.periods):
                expected[pid] = standardize_citations(pub, baselines, basis, events)
        # a mean is zero only when every count is, unless a table says so
        assert bool(events) == (basis == "median" or external)
        assert ledger.fallback_events == events
        assert standardized_scores(ledger) == expected

    def test_a_missing_stratum_fails_as_the_walk_does(self):
        pubs = [P("p1", 2001, "CAT_X", 2), P("p2", 2002, "CAT_Y", 3),
                P("p3", 2003, "CAT_Z", 1)]
        corpus = make_corpus([R("r1")], pubs, [A(p.pub_id, "r1") for p in pubs])
        baselines = BaselineTable({("CAT_X", 2001): BaselineEntry(1.0, 1.0, 1, "external")})
        with pytest.raises(MissingBaseline, match=r"^no baseline for \(CAT_Y, 2002\)$"):
            UnitLedger(corpus, ShareScheme(), baselines)
        with pytest.raises(ValueError, match="basis must be"):
            UnitLedger(corpus, ShareScheme(), build_baselines(corpus), basis="n_pubs")

    def test_a_misspelled_option_raises(self):
        """An unknown staff mode is not read as prorata, and an unknown basis
        fails even when no publication is standardized."""
        corpus = synth_corpus(GenConfig(seed=3, n_universities=2, n_sds=2))
        with pytest.raises(ValueError, match="^staff_mode must be 'prorata' or "
                                             "'headcount', got 'headcont'$"):
            UnitLedger(corpus, staff_mode="headcont")
        with pytest.raises(ValueError,
                           match="^basis must be 'median' or 'mean', got 'medain'$"):
            UnitLedger(corpus, basis="medain", sds_scope=[])

    @pytest.mark.parametrize("staff_mode", ["prorata", "headcount"])
    def test_staffed_researchers_are_the_researchers_on_staff(self, staff_mode):
        corpus = synth_corpus(GenConfig(seed=5, n_universities=3, n_sds=3))
        ledger = UnitLedger(corpus, staff_mode=staff_mode)
        for sds in corpus.taxonomy.sds_list:
            for period in corpus.periods:
                staffed = ledger.staffed_researchers(sds, period)
                present = {r.researcher_id: w for r in corpus.researchers
                           if r.sds == sds and (w := presence(r, period, staff_mode)) > 0}
                assert list(staffed) == sorted(present)
                for rid, tally in staffed.items():
                    assert tally.staff == present[rid]
                    for ind in ("P", "FP", "AQ", "FSS"):
                        try:
                            sc = ledger.researcher_score(rid, ind, period)
                        except NoPublications:
                            assert tally.values[ind] is None
                            continue
                        assert (tally.values[ind], tally.n_pubs) == (sc.value, sc.n_pubs)

    def test_a_tally_is_finished_on_its_first_read(self, monkeypatch):
        """Building a ledger takes no sum; every unit and researcher tally
        takes its sums once, at its first read, however often it is read."""
        corpus = synth_corpus(GenConfig(seed=3, n_universities=2, n_sds=2))
        sums = Counter()
        original = _Tally.finish

        def spy(tally, years):
            sums[id(tally)] += tally.values is None
            return original(tally, years)

        monkeypatch.setattr(_Tally, "finish", spy)
        ledger = UnitLedger(corpus)
        assert not sums
        for _ in range(2):
            for sds in corpus.taxonomy.sds_list:
                for period in corpus.periods:
                    ledger.staffed_universities(sds, period)
                    ledger.staffed_researchers(sds, period)
        n_tallies = len(corpus.periods) * (len(corpus.units()) + len(corpus.researchers))
        assert len(sums) == n_tallies and set(sums.values()) == {1}

    def test_each_stratum_falls_back_once(self, monkeypatch):
        """The ledger asks for a stratum's fallback divisor once, however many
        of its publications fall back, and scores them as the walk does; a
        category that falls back in two years is asked once for each."""
        # CAT_Z/2001, CAT_Z/2003 and CAT_V/2001 have median 0; CAT_Z/2002 has a
        # positive median and CAT_V no positive year
        pubs = [P(f"z{i}", 2001, "CAT_Z", c) for i, c in enumerate((0, 0, 0, 5, 6))]
        pubs += [P(f"w{i}", 2003, "CAT_Z", c) for i, c in enumerate((0, 0, 2))]
        pubs += [P(f"v{i}", 2001, "CAT_V", c) for i, c in enumerate((0, 0, 0, 3, 7))]
        pubs += [P("z9", 2002, "CAT_Z", 4)]
        corpus = make_corpus([R("r1")], pubs, [A(p.pub_id, "r1") for p in pubs])
        baselines = build_baselines(corpus)
        events, expected = [], {}
        for pid in corpus.authorships_by_pub:
            expected[pid] = standardize_citations(corpus.publication_by_id[pid],
                                                  baselines, "median", events)
        calls = Counter()
        original = BaselineTable.smallest_positive

        def spy(table, category, basis):
            calls[category] += 1
            return original(table, category, basis)

        monkeypatch.setattr(BaselineTable, "smallest_positive", spy)
        ledger = UnitLedger(corpus, ShareScheme(), baselines)
        assert calls == {"CAT_V": 1, "CAT_Z": 2}
        assert ledger.fallback_events == events == [
            ("v3", "CAT_V", 2001), ("v4", "CAT_V", 2001), ("w2", "CAT_Z", 2003),
            ("z3", "CAT_Z", 2001), ("z4", "CAT_Z", 2001)]
        assert standardized_scores(ledger) == expected
        assert expected["w2"] == expected["z9"] / 2 == 0.5  # divided by 4, CAT_Z's smallest


def _outcome(call):
    """A call's value, or the class and message of the package error it raises."""
    try:
        return call()
    except BiblioRankError as exc:
        return type(exc), str(exc)


def cross_scope(corpus):
    """The corpus with one more author on each publication that has a free
    byline position: a researcher of another UDA and university. The
    generator draws coauthors from one unit only, so without this no byline
    spans two UDAs."""
    tax = corpus.taxonomy
    researchers = {r.researcher_id: r for r in corpus.researchers}
    added = []
    for i, (pid, group) in enumerate(corpus.authorships_by_pub.items()):
        taken = {a.author_position for a in group}
        free = [p for p in range(1, corpus.publication_by_id[pid].n_authors_total + 1)
                if p not in taken]
        if not free:
            continue
        author = researchers[group[0].researcher_id]
        others = [r for r in corpus.researchers
                  if tax.sds_to_uda[r.sds] != tax.sds_to_uda[author.sds]
                  and r.university_id != author.university_id]
        mate = others[i % len(others)]
        added.append(Authorship(pid, mate.researcher_id, free[-1], mate.university_id))
    out = Corpus(tax, corpus.researchers, corpus.publications,
                 corpus.authorships + tuple(added), corpus.periods)
    assert added and not validate(out)
    return out


class TestScopedLedger:
    """A ledger over one UDA's SDS codes reads as the whole-corpus ledger
    does within them, and refuses every other SDS."""

    @pytest.mark.parametrize("shape", ["drilldown", "life_science"])
    @pytest.mark.parametrize("across", [False, True], ids=["generated", "cross_scope"])
    def test_scope_changes_no_value(self, shape, across):
        corpus = synth_corpus(GenConfig(seed=SEED, **SHAPES[shape]))
        if across:
            corpus = cross_scope(corpus)
        full = UnitLedger(corpus)
        decided_outside = 0
        for uda in corpus.taxonomy.uda_list:
            codes = corpus.taxonomy.sds_in_uda(uda)
            scoped = UnitLedger(corpus, sds_scope=codes)
            for u in corpus.universities:
                args = argparse.Namespace(university=u, uda=uda, indicator="FSS",
                                          min_staff=1.0)
                assert drilldown_tables(scoped, args) == drilldown_tables(full, args)
                for sds in codes:
                    for period in corpus.periods:
                        assert (_outcome(lambda: scoped.unit_score(u, sds, "P", period).staff)
                                == _outcome(lambda: full.unit_score(u, sds, "P", period).staff))
                        for ind in ("P", "FP", "AQ", "FSS"):
                            assert (_outcome(lambda: scoped.unit_score(u, sds, ind, period))
                                    == _outcome(lambda: full.unit_score(u, sds, ind, period)))
            in_scope = {r.researcher_id for r in corpus.researchers if r.sds in codes}
            pids = {a.pub_id for a in corpus.authorships if a.researcher_id in in_scope}
            assert scoped.fallback_events == [e for e in full.fallback_events
                                              if e[0] in pids]
            # a life-science author in scope whose byline has one university
            # in scope and several in all: authors outside the scope make
            # the byline weights apply
            for pid in pids:
                group = corpus.authorships_by_pub[pid]
                mine = [a for a in group if a.researcher_id in in_scope]
                decided_outside += (
                    len({a.byline_university_id for a in mine}) == 1
                    < len({a.byline_university_id for a in group})
                    and any(corpus.taxonomy.is_life_science(sds) for sds in codes))
        assert bool(decided_outside) == across

    def test_staffed_researchers_in_scope_are_the_whole_ledgers(self):
        corpus = synth_corpus(GenConfig(seed=SEED, **SHAPES["drilldown"]))
        full = UnitLedger(corpus)

        def read(ledger, sds, period):
            return {rid: (t.staff, t.n_pubs, t.values)
                    for rid, t in ledger.staffed_researchers(sds, period).items()}

        for uda in corpus.taxonomy.uda_list:
            codes = corpus.taxonomy.sds_in_uda(uda)
            scoped = UnitLedger(corpus, sds_scope=codes)
            for sds in corpus.taxonomy.sds_list:
                for period in corpus.periods:
                    if sds in codes:
                        assert read(scoped, sds, period) == read(full, sds, period)
                        continue
                    with pytest.raises(ValueError,
                                       match=f"^SDS {sds} is outside the ledger's scope$"):
                        scoped.staffed_researchers(sds, period)

    def test_an_sds_outside_the_scope_raises(self):
        corpus = synth_corpus(GenConfig(seed=SEED, **SHAPES["drilldown"]))
        uda, other = corpus.taxonomy.uda_list[:2]
        ledger = UnitLedger(corpus, sds_scope=corpus.taxonomy.sds_in_uda(uda))
        sds = corpus.taxonomy.sds_in_uda(other)[0]
        univ = corpus.universities[0]
        researcher = next(r.researcher_id for r in corpus.researchers if r.sds == sds)
        period = corpus.early
        # the whole-corpus ledger has a staffed unit there
        assert UnitLedger(corpus).unit_score(univ, sds, "P", period).staff > 0
        for call in (lambda: ledger.unit_score(univ, sds, "FSS", period),
                     lambda: ledger.unit_score(univ, sds, "P", period).staff,
                     lambda: ledger.staffed_universities(sds, period),
                     lambda: uda_scores(ledger, other, period),
                     lambda: ledger.researcher_score(researcher, "P", period)):
            with pytest.raises(ValueError,
                               match=f"^SDS {sds} is outside the ledger's scope$"):
                call()
        with pytest.raises(UnknownSDS):
            ledger.unit_score(univ, "NOPE", "FSS", period)
        with pytest.raises(UnknownSDS):
            UnitLedger(corpus, sds_scope=["NOPE"])

    def test_names_are_checked_before_the_scope_and_the_period_first(self):
        """A unit score checks its period, then its names, then the scope."""
        corpus = synth_corpus(GenConfig(seed=SEED, **SHAPES["drilldown"]))
        uda, other = corpus.taxonomy.uda_list[:2]
        ledger = UnitLedger(corpus, sds_scope=corpus.taxonomy.sds_in_uda(uda))
        outside = corpus.taxonomy.sds_in_uda(other)[0]
        with pytest.raises(UnknownUniversity, match="^university NOPE is not in the corpus$"):
            ledger.unit_score("NOPE", outside, "FSS", corpus.early)
        for led in (ledger, UnitLedger(corpus)):
            with pytest.raises(ValueError, match="^unknown period 'ODD'$"):
                led.unit_score(corpus.universities[0], "NOPE", "FSS",
                               Period("ODD", 1990, 1991))


@pytest.mark.parametrize("shape", ["national", "drilldown"])
@pytest.mark.parametrize("staff_mode", ["prorata", "headcount"])
def test_model_staff_is_the_ledgers_unit_staff(shape, staff_mode):
    corpus = synth_corpus(GenConfig(seed=SEED, **SHAPES[shape]))
    ledger = UnitLedger(corpus, staff_mode=staff_mode)
    for period in corpus.periods:
        staffed = {(u, sds): tally.staff for sds in corpus.taxonomy.sds_list
                   for u, tally in ledger.staffed_universities(sds, period).items()}
        assert staffed.keys() <= set(corpus.units())
        for unit in corpus.units():
            want = staffed.get(unit, 0.0)
            assert staff(corpus, *unit, period, staff_mode) == want, unit


@pytest.mark.parametrize("mode", ["headcont", "bogus", "Prorata", ""])
def test_every_staff_reader_refuses_a_misspelled_mode(mode):
    """presence, staff and a ledger with no researcher name a bad staff mode
    instead of reading it as prorata, also for a researcher with no active
    year in the period."""
    corpus = synth_corpus(GenConfig(seed=3))
    unit = corpus.units()[0]
    assert staff(corpus, *unit, corpus.early, "headcount") == 2.0
    assert staff(corpus, *unit, corpus.early, "prorata") == 1.6666666666666665
    message = f"^staff_mode must be 'prorata' or 'headcount', got '{mode}'$"
    with pytest.raises(ValueError, match=message):
        staff(corpus, *unit, corpus.early, mode)
    absent = R("r0", years=())
    assert presence(absent, corpus.early, "headcount") == 0.0
    for researcher in (corpus.researchers[0], absent):
        with pytest.raises(ValueError, match=message):
            presence(researcher, corpus.early, mode)
    with pytest.raises(ValueError, match=message):
        UnitLedger(corpus, staff_mode=mode, sds_scope=[])
