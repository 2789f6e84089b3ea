import math
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank.aggregate import (national_weighted_average, sds_unit_scores,
                                  uda_score, uda_scores)
from bibliorank.baseline import build_baselines
from bibliorank.errors import (EmptyIntersection, NoStaffInUda, UnknownResearcher,
                               UnknownSDS, UnknownUDA, UnknownUniversity)
from bibliorank.indicators import (ShareScheme, UnitLedger, researcher_indicator,
                                   unit_indicator)
from bibliorank.model import Period, Taxonomy, presence, staff
from bibliorank.oracle import Oracle
from bibliorank.rankshift import (COMPARED, QuintileAssignment, RankList,
                                  ShiftTable, assign_quintiles, classify_shifts,
                                  compare_drilldowns, period_rankings,
                                  quintile_shift, rank_list, sds_drilldown,
                                  sds_rank_list, shift_stats, transition_matrix,
                                  uda_rank_list, university_shift_table)
from bibliorank.synthgen import GenConfig, make_corpus as synth_corpus

from conftest import make_corpus, read_fixture


def ranked(values, min_staff=0.0):
    scores = {u: (v, 100.0) for u, v in values.items()}
    return rank_list(scores, period="E", min_staff=min_staff)


def assignment(quintiles):
    return QuintileAssignment("", "", "", dict(quintiles),
                              tuple(list(quintiles.values()).count(q + 1)
                                    for q in range(5)))


class TestRankList:
    def test_distinct_values(self):
        rl = ranked({"a": 3.0, "b": 2.0, "c": 1.0})
        assert [(e.university_id, e.rank) for e in rl.entries] == \
            [("a", 1), ("b", 2), ("c", 3)]

    def test_competition_ranking(self):
        rl = ranked({"a": 3.0, "b": 3.0, "c": 1.0})
        assert [(e.university_id, e.rank) for e in rl.entries] == \
            [("a", 1), ("b", 1), ("c", 3)]

    def test_staff_threshold(self):
        rl = rank_list({"a": (3.0, 6.0), "b": (9.0, 5.9)}, min_staff=6.0)
        assert [e.university_id for e in rl.entries] == ["a"]

    def test_no_eligible(self):
        rl = rank_list({"a": (3.0, 1.0), "b": (None, 9.0)}, min_staff=6.0)
        assert rl.entries == ()
        assert assign_quintiles(rl).sizes == (0, 0, 0, 0, 0)

    def test_scale_invariance(self):
        values = {f"u{i}": float(i * 7 % 13) for i in range(10)}
        base = ranked(values)
        for k in (2.0, 0.5, 1e6):
            scaled = ranked({u: v * k for u, v in values.items()})
            assert [(e.university_id, e.rank) for e in scaled.entries] == \
                [(e.university_id, e.rank) for e in base.entries]


class TestQuintiles:
    def test_fifty_units(self):
        rl = ranked({f"u{i:02d}": float(100 - i) for i in range(50)})
        assert assign_quintiles(rl).sizes == (10, 10, 10, 10, 10)

    def test_remainder_to_top(self):
        rl = ranked({f"u{i}": float(10 - i) for i in range(7)})
        assert assign_quintiles(rl).sizes == (2, 2, 1, 1, 1)

    def test_three_distinct(self):
        rl = ranked({"a": 3.0, "b": 2.0, "c": 1.0})
        out = assign_quintiles(rl)
        assert out.entries == {"a": 1, "b": 2, "c": 3}
        assert out.sizes == (1, 1, 1, 0, 0)

    def test_tie_block_never_straddles(self):
        # 10 units, targets (2,2,2,2,2); units 2-4 tied -> all land in quintile 2
        values = {f"u{i}": 10.0 - i for i in range(10)}
        values["u2"] = values["u3"] = values["u4"] = 7.5
        out = assign_quintiles(ranked(values))
        assert out.entries["u2"] == out.entries["u3"] == out.entries["u4"] == 2
        assert sum(out.sizes) == 10
        assert out.sizes == (2, 3, 1, 2, 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_oracle_on_tie_heavy_lists(self, data):
        """Placing entries by rank gives the oracle's value-block quintiles."""
        pool = data.draw(st.lists(st.floats(0, 10), min_size=3, max_size=3))
        n = data.draw(st.integers(1, 40))
        values = {f"u{i:02d}": data.draw(st.sampled_from(pool)) for i in range(n)}
        out = assign_quintiles(ranked(values))
        assert out.entries == Oracle(make_corpus([], [], []))._quintiles(values)
        counts = Counter(out.entries.values())
        assert out.sizes == tuple(counts[q] for q in range(1, 6))


class TestShiftStats:
    def test_identical_lists(self):
        rl = ranked({"a": 3.0, "b": 2.0, "c": 1.0})
        stats = shift_stats(rl, rl)
        assert stats.n_changed == 0
        assert stats.max_abs_shift == stats.mean_abs_shift == 0
        assert stats.median_abs_shift == 0

    def test_pairwise_swaps(self):
        early = ranked({"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0})
        late = ranked({"b": 4.0, "a": 3.0, "d": 2.0, "c": 1.0})
        stats = shift_stats(early, late)
        assert stats.n_total == 4 and stats.n_changed == 4
        assert stats.max_abs_shift == 1
        assert stats.mean_abs_shift == 1.0
        assert stats.median_abs_shift == 1.0

    def test_entries_and_exits(self):
        early = ranked({"a": 2.0, "b": 1.0})
        late = ranked({"a": 2.0, "c": 1.0})
        stats = shift_stats(early, late)
        assert stats.n_total == 1
        assert stats.entries == ("c",) and stats.exits == ("b",)

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersection):
            shift_stats(ranked({"a": 1.0}), ranked({"b": 1.0}))
        with pytest.raises(EmptyIntersection):
            transition_matrix(assign_quintiles(ranked({"a": 1.0})),
                              assign_quintiles(ranked({"b": 1.0})))


class TestQuintileShift:
    def test_bottom_to_top(self):
        assert quintile_shift(5, 1) == 4

    def test_no_move(self):
        assert quintile_shift(3, 3) == 0

    def test_top_to_bottom(self):
        assert quintile_shift(1, 5) == -4


class TestTransitionMatrix:
    def test_identity(self):
        a = assignment({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5})
        m = transition_matrix(a, a)
        assert m.trace == 5 and m.grand_total == 5
        assert m.pct_changed == 0.0

    def test_two_university_swap(self):
        early = assignment({"a": 1, "b": 2})
        late = assignment({"a": 2, "b": 1})
        m = transition_matrix(early, late)
        assert m.counts[0][1] == 1 and m.counts[1][0] == 1
        assert m.trace == 0

    def test_marginals(self):
        early = assignment({c: 1 + i % 5 for i, c in enumerate("abcdefghij")})
        late = assignment({c: 1 + (i * 3) % 5 for i, c in enumerate("abcdefghij")})
        m = transition_matrix(early, late)
        for q in range(5):
            assert m.row_totals[q] == sum(
                1 for v in early.entries.values() if v == q + 1)
            assert m.col_totals[q] == sum(
                1 for v in late.entries.values() if v == q + 1)
        assert sum(m.row_totals) == m.grand_total

    def test_reference_biology_matrix(self):
        rows = read_fixture("biology_transition_matrix.csv")
        counts = [[int(r[f"q{j}"]) for j in range(1, 6)] for r in rows]
        trace = sum(counts[i][i] for i in range(5))
        total = sum(sum(row) for row in counts)
        assert trace == 31 and total - trace == 19 and total == 50
        assert all(sum(row) == 10 for row in counts)
        assert all(sum(counts[i][j] for i in range(5)) == 10 for j in range(5))


class TestShiftTable:
    def make_table(self):
        cells = {
            "u1": {"A": -1, "B": 2},
            "u2": {"A": 0, "B": None},
            "u3": {"A": 1, "B": -1},
        }
        return ShiftTable(columns=["A", "B"], cells=cells)

    def test_row_totals(self):
        t = self.make_table()
        assert t.row_total("u1") == 1
        assert t.row_total("u2") == 0
        assert t.row_total("u3") == 0

    def test_column_pct(self):
        t = self.make_table()
        assert t.column_pct_changed("A") == pytest.approx(100 * 2 / 3)
        assert t.column_pct_changed("B") == pytest.approx(100.0)

    def test_balance_shares(self):
        shares = self.make_table().balance_shares()
        assert shares["positive"] == pytest.approx(100 / 3)
        assert shares["nil"] == pytest.approx(200 / 3)
        assert shares["negative"] == 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1, digest window: a university with no numeric cell "
        "counts as nil and unchanged, and the fix moves perfbench/digests.json"))
    def test_a_university_without_a_shift_is_not_counted(self):
        """A university ranked in both periods of no UDA has no shift, so the
        balance shares and the share of changers are over the others."""
        t = ShiftTable(columns=["A", "B"], cells={"u1": {"A": 1, "B": None},
                                                  "u2": {"A": 0, "B": 0},
                                                  "u3": {"A": None, "B": None}})
        assert t.balance_shares() == {"negative": 0.0, "positive": 50.0, "nil": 50.0}
        assert t.overall_pct_changed() == 50.0


class TestClassify:
    def test_all_up(self):
        assert classify_shifts(2, 3, 1) == ("all-up",)

    def test_all_down(self):
        assert classify_shifts(-2, -1, -3) == ("all-down",)

    def test_quality_up_quantity_down(self):
        assert classify_shifts(-3, -2, 3) == ("quality-up-quantity-down",)

    def test_no_flags(self):
        assert classify_shifts(0, 0, 0) == ()


# the names a call may use besides the one unknown name it is given
Known = namedtuple("Known", "univ sds uda researcher period")
ODD = Period("ODD", 1990, 1991)
# the message of each kind of unknown name, the last part of a case's id
MESSAGES = {"uda": "UDA NOPE is not in the taxonomy",
            "sds": "SDS NOPE is not in the taxonomy",
            "university": "university NOPE is not in the corpus",
            "researcher": "researcher NOPE is not in the corpus",
            "period": "unknown period 'ODD'",
            "indicator": "unknown indicator 'NOPE'"}


def _unit_indicator(ledger, k, univ=None, sds=None):
    return unit_indicator(ledger.corpus, univ or k.univ, sds or k.sds, "FSS", k.period,
                          ledger.scheme, ledger.baselines, ledger=ledger)


# (id, call(ledger, known), error): each call names exactly one unknown name
UNKNOWN_NAMES = [
    ("uda_scores-uda",
     lambda led, k: uda_scores(led, "NOPE", k.period), UnknownUDA),
    ("uda_rank_list-uda",
     lambda led, k: uda_rank_list(led, "NOPE", "FSS", k.period), UnknownUDA),
    ("period_rankings-uda",
     lambda led, k: period_rankings(uda_rank_list, led, "NOPE", "FSS"), UnknownUDA),
    ("uda_score-uda",
     lambda led, k: uda_score(led, k.univ, "NOPE", "FSS", k.period), UnknownUDA),
    ("sds_drilldown-uda",
     lambda led, k: sds_drilldown(led, k.univ, "NOPE", "FSS"), UnknownUDA),
    ("national_weighted_average-uda",
     lambda led, k: national_weighted_average(led, "FSS", k.period, "NOPE"), UnknownUDA),
    ("uda_score-university",
     lambda led, k: uda_score(led, "NOPE", k.uda, "FSS", k.period), UnknownUniversity),
    ("sds_drilldown-university",
     lambda led, k: sds_drilldown(led, "NOPE", k.uda, "FSS"), UnknownUniversity),
    ("unit_score-university",
     lambda led, k: led.unit_score("NOPE", k.sds, "FSS", k.period), UnknownUniversity),
    ("ledger.staff-university",
     lambda led, k: led.unit_score("NOPE", k.sds, "P", k.period).staff, UnknownUniversity),
    ("model.staff-university",
     lambda led, k: staff(led.corpus, "NOPE", k.sds, k.period), UnknownUniversity),
    ("unit_indicator-university",
     lambda led, k: _unit_indicator(led, k, univ="NOPE"), UnknownUniversity),
    ("sds_unit_scores-sds",
     lambda led, k: sds_unit_scores(led, "NOPE", "FSS", k.period), UnknownSDS),
    ("sds_rank_list-sds",
     lambda led, k: sds_rank_list(led, "NOPE", "FSS", k.period), UnknownSDS),
    ("period_rankings-sds",
     lambda led, k: period_rankings(sds_rank_list, led, "NOPE", "FSS"), UnknownSDS),
    ("staffed_universities-sds",
     lambda led, k: led.staffed_universities("NOPE", k.period), UnknownSDS),
    ("staffed_researchers-sds",
     lambda led, k: led.staffed_researchers("NOPE", k.period), UnknownSDS),
    ("unit_score-sds",
     lambda led, k: led.unit_score(k.univ, "NOPE", "FSS", k.period), UnknownSDS),
    ("ledger.staff-sds",
     lambda led, k: led.unit_score(k.univ, "NOPE", "P", k.period).staff, UnknownSDS),
    ("model.staff-sds",
     lambda led, k: staff(led.corpus, k.univ, "NOPE", k.period), UnknownSDS),
    ("unit_indicator-sds",
     lambda led, k: _unit_indicator(led, k, sds="NOPE"), UnknownSDS),
    ("researcher_score-researcher",
     lambda led, k: led.researcher_score("NOPE", "P", k.period), UnknownResearcher),
    ("researcher_indicator-researcher",
     lambda led, k: researcher_indicator(led.corpus, "NOPE", "P", k.period, led.scheme,
                                         led.baselines, ledger=led), UnknownResearcher),
    ("unit_score-period",
     lambda led, k: led.unit_score(k.univ, k.sds, "FSS", ODD), ValueError),
    ("ledger.staff-period",
     lambda led, k: led.unit_score(k.univ, k.sds, "P", ODD).staff, ValueError),
    ("uda_scores-period",
     lambda led, k: uda_scores(led, k.uda, ODD), ValueError),
    ("staffed_universities-period",
     lambda led, k: led.staffed_universities(k.sds, ODD), ValueError),
    ("staffed_researchers-period",
     lambda led, k: led.staffed_researchers(k.sds, ODD), ValueError),
    ("sds_unit_scores-period",
     lambda led, k: sds_unit_scores(led, k.sds, "FSS", ODD), ValueError),
    ("uda_rank_list-period",
     lambda led, k: uda_rank_list(led, k.uda, "FSS", ODD), ValueError),
    ("researcher_score-period",
     lambda led, k: led.researcher_score(k.researcher, "P", ODD), ValueError),
    ("national_weighted_average-period",
     lambda led, k: national_weighted_average(led, "FSS", ODD), ValueError),
    ("national_weighted_average-scoped-period",
     lambda led, k: national_weighted_average(led, "FSS", ODD, k.uda), ValueError),
    ("model.staff-period",
     lambda led, k: staff(led.corpus, k.univ, k.sds, ODD), ValueError),
    ("unit_score-indicator",
     lambda led, k: led.unit_score(k.univ, k.sds, "NOPE", k.period), ValueError),
    ("uda_rank_list-indicator",
     lambda led, k: uda_rank_list(led, k.uda, "NOPE", k.period), ValueError),
]


class TestCorpusDriven:
    def setup_method(self):
        self.corpus = synth_corpus(GenConfig(seed=4, n_universities=8, n_sds=4,
                                             turnover_rate=0.1))
        self.baselines = build_baselines(self.corpus)
        self.scheme = ShareScheme()
        self.ledger = UnitLedger(self.corpus, self.scheme, self.baselines)

    def test_shift_table_consistency(self):
        table = university_shift_table(
            self.corpus.universities,
            {uda: period_rankings(uda_rank_list, self.ledger, uda, "FSS", 1.0)
             for uda in self.corpus.taxonomy.uda_list})
        for u in table.universities:
            numeric = [v for v in table.cells[u].values() if v is not None]
            assert all(abs(v) <= 4 for v in numeric)
            assert table.row_total(u) == sum(numeric)
        shares = table.balance_shares()
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_shift_table_matches_rank_machinery(self):
        table = university_shift_table(
            self.corpus.universities,
            {uda: period_rankings(uda_rank_list, self.ledger, uda, "P", 1.0)
             for uda in self.corpus.taxonomy.uda_list})
        for uda in self.corpus.taxonomy.uda_list:
            assigns = []
            for period in self.corpus.periods:
                rl = uda_rank_list(self.ledger, uda, "P", period, min_staff=1.0)
                assigns.append(assign_quintiles(rl))
            for u in self.corpus.universities:
                if u in assigns[0].entries and u in assigns[1].entries:
                    assert table.cells[u][uda] == quintile_shift(
                        assigns[0].entries[u], assigns[1].entries[u])
                else:
                    assert table.cells[u][uda] is None

    def test_pct_changed_equals_off_diagonal_share(self):
        for uda in self.corpus.taxonomy.uda_list:
            assigns = [assign_quintiles(uda_rank_list(
                self.ledger, uda, "FSS", period, min_staff=1.0))
                for period in self.corpus.periods]
            m = transition_matrix(*assigns)
            both = set(assigns[0].entries) & set(assigns[1].entries)
            changed = sum(1 for u in both
                          if assigns[0].entries[u] != assigns[1].entries[u])
            assert m.pct_changed == pytest.approx(changed / len(both))

    def test_uda_rank_list_looks_the_uda_up_once(self, monkeypatch):
        """One sds_in_uda call per UDA and period, for the rank lists of all
        four indicators, and the staff threshold reads one fsum over every
        presence of the university in the UDA."""
        expected, excluded = {}, 0
        for uda in self.corpus.taxonomy.uda_list:
            codes = self.corpus.taxonomy.sds_in_uda(uda)
            for period in self.corpus.periods:
                for ind in ("P", "FP", "AQ", "FSS"):
                    values = {}
                    for u in self.corpus.universities:
                        try:
                            values[u] = uda_score(self.ledger, u, uda, ind, period).value
                        except NoStaffInUda:
                            continue
                    staffs = {u: math.fsum(presence(r, period, "prorata")
                                           for r in self.corpus.researchers
                                           if r.university_id == u and r.sds in codes)
                              for u in values}
                    want = expected[(uda, ind, period)] = rank_list(
                        {u: (v, staffs[u]) for u, v in values.items()},
                        uda, ind, period.label, 3.5)
                    excluded += len(values) - len(want.entries)
        assert excluded  # so the staff values decide the lists
        ledger = UnitLedger(self.corpus, self.scheme, self.baselines)
        calls = []
        original = Taxonomy.sds_in_uda
        monkeypatch.setattr(Taxonomy, "sds_in_uda",
                            lambda tax, uda: calls.append(uda) or original(tax, uda))
        for (uda, ind, period), want in expected.items():
            assert uda_rank_list(ledger, uda, ind, period, 3.5) == want
        assert calls == [uda for uda in self.corpus.taxonomy.uda_list
                         for _ in self.corpus.periods]

    def test_drilldown_against_direct_recomputation(self):
        uda = self.corpus.taxonomy.uda_list[0]
        univ = min(u for u, s in self.corpus.units()
                   if self.corpus.taxonomy.sds_to_uda[s] == uda)
        shifts = sds_drilldown(self.ledger, univ, uda, "FSS", min_staff=1.0)
        for sds, shift in shifts.items():
            assigns = [assign_quintiles(sds_rank_list(
                self.ledger, sds, "FSS", period, min_staff=1.0))
                for period in self.corpus.periods]
            assert shift == (assigns[0].entries[univ] - assigns[1].entries[univ])

    @pytest.mark.parametrize("min_staff", [1.0, 3.5])
    def test_sds_rank_list_ranks_the_sds_unit_scores(self, min_staff):
        """Each SDS rank list ranks the values and staffs of sds_unit_scores,
        and is empty exactly when that list has no eligible university."""
        refused = 0
        for sds in self.corpus.taxonomy.sds_list:
            for period in self.corpus.periods:
                for ind in ("P", "FP", "AQ", "FSS"):
                    scores = {u: (s.value, s.staff) for (u, _), s
                              in sds_unit_scores(self.ledger, sds, ind, period).items()
                              if s is not None}
                    want = rank_list(scores, sds, ind, period.label, min_staff)
                    refused += not want.entries
                    assert sds_rank_list(self.ledger, sds, ind, period,
                                         min_staff) == want
        assert bool(refused) == (min_staff > 1.0)

    def test_indicator_comparison_flags(self):
        uda = self.corpus.taxonomy.uda_list[0]
        univ = min(u for u, s in self.corpus.units()
                   if self.corpus.taxonomy.sds_to_uda[s] == uda)
        rows = compare_drilldowns({ind: sds_drilldown(self.ledger, univ, uda, ind,
                                                      min_staff=1.0)
                                   for ind in COMPARED})
        for sds, row in rows.items():
            assert row["flags"] == classify_shifts(row["P"], row["FP"], row["AQ"])

    @pytest.mark.parametrize("name, call, error", UNKNOWN_NAMES,
                             ids=[case[0] for case in UNKNOWN_NAMES])
    def test_unknown_name_is_rejected(self, name, call, error):
        uda = self.corpus.taxonomy.uda_list[0]
        univ, sds = min((u, s) for u, s in self.corpus.units()
                        if self.corpus.taxonomy.sds_to_uda[s] == uda)
        known = Known(univ, sds, uda, self.corpus.researchers[0].researcher_id,
                      self.corpus.early)
        with pytest.raises(error, match=f"^{MESSAGES[name.rsplit('-', 1)[1]]}$"):
            call(self.ledger, known)

