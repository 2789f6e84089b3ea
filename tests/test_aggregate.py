import math

import pytest

from bibliorank.aggregate import (national_weighted_average, percent_variation,
                                  rescale_sds, sds_unit_scores, uda_score,
                                  uda_scores)
from bibliorank.baseline import build_baselines
from bibliorank.errors import (AllAbsent, EmptyScope, NoPublications, NoStaffInUda,
                               UnknownUDA, UnknownUniversity, ZeroBase)
from bibliorank.indicators import INDICATORS, ShareScheme, UnitLedger
from bibliorank.model import presence
from bibliorank.oracle import Oracle
from bibliorank.rankshift import uda_rank_list
from bibliorank.synthgen import GenConfig, make_corpus as synth_corpus

from conftest import A, EARLY, LATE, P, R, make_corpus, make_taxonomy, read_fixture
from test_cli_digests import SEED, SHAPES


def score(unit, value, staff):
    return (value, staff)


class TestRescale:
    def test_single_unit(self):
        out = rescale_sds({("U1", "S1"): score(("U1", "S1"), 2.0, 3.0)})
        assert out[("U1", "S1")] == 1.0

    def test_two_equal_staff_units(self):
        out = rescale_sds({
            ("U1", "S1"): score(("U1", "S1"), 2.0, 5.0),
            ("U2", "S1"): score(("U2", "S1"), 4.0, 5.0),
        })
        assert out[("U1", "S1")] == pytest.approx(2 / 3)
        assert out[("U2", "S1")] == pytest.approx(4 / 3)

    def test_identical_values(self):
        out = rescale_sds({
            ("U1", "S1"): score(("U1", "S1"), 0.7, 1.0),
            ("U2", "S1"): score(("U2", "S1"), 0.7, 9.0),
        })
        assert all(v == pytest.approx(1.0) for v in out.values())

    def test_staff_weighting(self):
        out = rescale_sds({
            ("U1", "S1"): score(("U1", "S1"), 1.0, 3.0),
            ("U2", "S1"): score(("U2", "S1"), 5.0, 1.0),
        })
        # weighted mean (3*1 + 1*5)/4 = 2
        assert out[("U1", "S1")] == pytest.approx(0.5)
        assert out[("U2", "S1")] == pytest.approx(2.5)

    def test_absent_units_dropped(self):
        out = rescale_sds({
            ("U1", "S1"): score(("U1", "S1"), 2.0, 1.0),
            ("U2", "S1"): score(("U2", "S1"), None, 1.0),
        })
        assert ("U2", "S1") not in out

    def test_all_absent(self):
        with pytest.raises(AllAbsent):
            rescale_sds({("U1", "S1"): score(("U1", "S1"), None, 1.0)})

    def test_weighted_mean_is_one(self):
        scores = {("U%d" % i, "S1"): score(("U%d" % i, "S1"), float(i), i + 0.5)
                  for i in range(1, 8)}
        out = rescale_sds(scores)
        num = sum(scores[u][1] * out[u] for u in out)
        den = sum(scores[u][1] for u in out)
        assert num / den == pytest.approx(1.0, abs=1e-9)


def two_sds_corpus():
    """U1 active in S1 and S2 of UDA A; U2 provides the national context."""
    tax = make_taxonomy({"S1": "A", "S2": "A"})
    researchers = (
        [R(f"a{i}", "S1", "U1") for i in range(6)]
        + [R(f"b{i}", "S2", "U1") for i in range(2)]
        + [R(f"c{i}", "S1", "U2") for i in range(4)]
        + [R(f"d{i}", "S2", "U2") for i in range(4)]
    )
    pubs, auths = [], []
    # S1: U1 produces 18 pubs (P=1.0), U2 produces 6 (P=0.5)
    def emit(prefix, rid, count):
        for i in range(count):
            pid = f"{prefix}{i}"
            pubs.append(P(pid, 2001 + i % 3, "CAT_X", 1, 1))
            auths.append(A(pid, rid))
    emit("pa", "a0", 18)
    emit("pc", "c0", 6)
    # S2: U1 produces 3 pubs (P=0.5), U2 produces 9 (P=0.75)
    emit("pb", "b0", 3)
    emit("pd", "d0", 9)
    return make_corpus(researchers, pubs, auths, tax)


class TestUdaScore:
    def setup_method(self):
        self.corpus = two_sds_corpus()
        self.baselines = build_baselines(self.corpus)
        self.scheme = ShareScheme()

    def test_single_sds_university(self):
        tax = make_taxonomy({"S1": "A"})
        corpus = make_corpus([R("r1")], [P("p1"), ], [A("p1", "r1")], tax)
        ledger = UnitLedger(corpus, self.scheme, build_baselines(corpus))
        sc = uda_score(ledger, "U1", "A", "P", EARLY)
        rescaled = rescale_sds({unit: (s.value, s.staff) for unit, s
                                in sds_unit_scores(ledger, "S1", "P", EARLY).items()})
        assert sc.value == pytest.approx(rescaled[("U1", "S1")])

    def test_hand_weighted_mean(self):
        # S1 national weighted mean: (6*1.0 + 4*0.5)/10 = 0.8 -> U1 rescaled 1.25
        # S2 national weighted mean: (2*0.5 + 4*0.75)/6 = 2/3 -> U1 rescaled 0.75
        # U1 staff in UDA A: S1=6, S2=2 -> weights 0.75, 0.25
        sc = uda_score(UnitLedger(self.corpus, self.scheme, self.baselines),
                       "U1", "A", "P", EARLY)
        assert sc.value == pytest.approx(0.75 * 1.25 + 0.25 * 0.75)
        assert sc.covered_staff == pytest.approx(8.0)

    def test_all_rescaled_one_gives_one(self):
        tax = make_taxonomy({"S1": "A", "S2": "A"})
        researchers = [R("r1", "S1", "U1"), R("r2", "S2", "U1")]
        pubs = [P("p1"), P("p2")]
        auths = [A("p1", "r1"), A("p2", "r2")]
        corpus = make_corpus(researchers, pubs, auths, tax)
        sc = uda_score(UnitLedger(corpus, self.scheme, build_baselines(corpus)),
                       "U1", "A", "P", EARLY)
        assert sc.value == pytest.approx(1.0)

    def test_no_staff_in_uda(self):
        with pytest.raises(NoStaffInUda):
            uda_score(UnitLedger(self.corpus, self.scheme, self.baselines),
                      "U1", "A", "P", LATE)

    def test_convexity(self):
        sc = uda_score(UnitLedger(self.corpus, self.scheme, self.baselines),
                       "U1", "A", "P", EARLY)
        assert 0.75 <= sc.value <= 1.25

    def test_errors_and_messages(self):
        # U1 is staffed in S1 without publications, so its AQ is undefined
        corpus = make_corpus([R("r1"), R("r2", univ="U2")], [P("p1")],
                             [A("p1", "r2", byline="U2")],
                             make_taxonomy({"S1": "A"}))
        ledger = UnitLedger(corpus, self.scheme, build_baselines(corpus))
        with pytest.raises(UnknownUniversity,
                           match="^university NOPE is not in the corpus$"):
            uda_score(ledger, "NOPE", "A", "P", EARLY)
        with pytest.raises(NoStaffInUda, match="^U1 has no staff in UDA A$"):
            uda_score(ledger, "U1", "A", "P", LATE)
        with pytest.raises(NoStaffInUda,
                           match="^U1 has no scored SDS in UDA A for AQ$"):
            uda_score(ledger, "U1", "A", "AQ", EARLY)
        with pytest.raises(UnknownUDA, match="^UDA NOPE is not in the taxonomy$"):
            uda_score(ledger, "U1", "NOPE", "P", EARLY)

    def test_staff_at_an_integer_boundary(self):
        # U1's early presences are 1/3, 1/3, 1 in S1 and 2/3, 2/3, 1 in S2:
        # four researchers' worth, but the per-SDS sums round below 4
        tax = make_taxonomy({"S1": "A", "S2": "A"})
        researchers = [R("a1", "S1", years=(2001,)), R("a2", "S1", years=(2002,)),
                       R("a3", "S1"), R("b1", "S2", years=(2001, 2002)),
                       R("b2", "S2", years=(2002, 2003)), R("b3", "S2")]
        corpus = make_corpus(researchers, [P("p1"), P("p2")],
                             [A("p1", "a3"), A("p2", "b3")], tax)
        ledger = UnitLedger(corpus, self.scheme, build_baselines(corpus))
        rolled = uda_scores(ledger, "A", EARLY)
        # covered_staff adds the per-SDS staff sums
        assert rolled["U1"].scores["P"].covered_staff == 3.9999999999999996
        # uda_rank_list sums every presence at once and ranks U1 at 4 ...
        ranked = uda_rank_list(ledger, "A", "P", EARLY, min_staff=4.0)
        assert [e.university_id for e in ranked.entries] == ["U1"]
        # ... while the oracle adds the per-SDS sums and does not
        assert ("A", "P", "E") not in Oracle(corpus, min_staff=4.0).uda_rank_tables()


class TestNationalWeightedAverage:
    def test_single_sds_gives_mean(self):
        tax = make_taxonomy({"S1": "A"})
        researchers = [R("r1"), R("r2")]
        pubs = [P(f"p{i}", 2001 + i % 3) for i in range(6)]
        auths = [A(p.pub_id, "r1") for p in pubs[:3]] + \
                [A(p.pub_id, "r2") for p in pubs[3:]]
        corpus = make_corpus(researchers, pubs, auths, tax)
        avg = national_weighted_average(
            UnitLedger(corpus, ShareScheme(), build_baselines(corpus)), "P", EARLY)
        assert avg == pytest.approx(1.0)

    def test_staff_weighted_combination(self):
        # S1: 1 researcher with P=2.0; S2: 3 researchers with P=1.0 each
        tax = make_taxonomy({"S1": "A", "S2": "A"})
        researchers = [R("r1", "S1")] + [R(f"s{i}", "S2") for i in range(3)]
        pubs, auths = [], []
        for i in range(6):
            pubs.append(P(f"x{i}", 2001 + i % 3))
            auths.append(A(f"x{i}", "r1"))
        for j in range(3):
            for i in range(3):
                pubs.append(P(f"y{j}{i}", 2001 + i))
                auths.append(A(f"y{j}{i}", f"s{j}"))
        corpus = make_corpus(researchers, pubs, auths, tax)
        avg = national_weighted_average(
            UnitLedger(corpus, ShareScheme(), build_baselines(corpus)), "P", EARLY)
        assert avg == pytest.approx((1 * 2.0 + 3 * 1.0) / 4)

    def test_uda_scope(self):
        # UDA A: S1 with 1 researcher at P=2.0; UDA B: S2 with 3 at P=1.0 each
        tax = make_taxonomy({"S1": "A", "S2": "B"})
        researchers = [R("r1", "S1")] + [R(f"s{i}", "S2") for i in range(3)]
        pubs = [P(f"x{i}", 2001 + i % 3) for i in range(6)]
        auths = [A(f"x{i}", "r1") for i in range(6)]
        for j in range(3):
            for i in range(3):
                pubs.append(P(f"y{j}{i}", 2001 + i))
                auths.append(A(f"y{j}{i}", f"s{j}"))
        corpus = make_corpus(researchers, pubs, auths, tax)
        ledger = UnitLedger(corpus, ShareScheme(), build_baselines(corpus))
        assert national_weighted_average(ledger, "P", EARLY, scope="A") == 2.0
        assert national_weighted_average(ledger, "P", EARLY, scope="B") == 1.0
        assert national_weighted_average(ledger, "P", EARLY) == 1.25
        with pytest.raises(UnknownUDA):
            national_weighted_average(ledger, "P", EARLY, scope="C")

    def test_empty_scope(self):
        corpus = make_corpus([R("r1")], [], [], make_taxonomy({"S1": "A"}))
        with pytest.raises(EmptyScope):
            national_weighted_average(
                UnitLedger(corpus, ShareScheme(), build_baselines(make_corpus(
                    [R("r1")], [P("p1")], [A("p1", "r1")],
                    make_taxonomy({"S1": "A"})))), "P", LATE)


def naive_national_average(ledger, indicator, period, scope):
    """national_weighted_average from its definition: per SDS, the mean
    researcher score over its researchers present in the period, weighted by
    the sum of their presences."""
    corpus = ledger.corpus
    codes = (corpus.taxonomy.sds_list if scope is None
             else corpus.taxonomy.sds_in_uda(scope))
    per_sds = []
    for sds in codes:
        members = [(r, w) for r in corpus.researchers if r.sds == sds
                   and (w := presence(r, period, ledger.staff_mode)) > 0]
        values = []
        for r, _ in members:
            try:
                values.append(ledger.researcher_score(r.researcher_id, indicator,
                                                      period).value)
            except NoPublications:
                continue
        if values:
            per_sds.append((math.fsum(w for _, w in members),
                            math.fsum(values) / len(values)))
    return (math.fsum(w * m for w, m in per_sds)
            / math.fsum(w for w, _ in per_sds))


@pytest.mark.parametrize("shape", ["national", "life_science"])
@pytest.mark.parametrize("staff_mode", ["prorata", "headcount"])
def test_national_weighted_average_is_its_naive_formula(shape, staff_mode):
    corpus = synth_corpus(GenConfig(seed=SEED, **SHAPES[shape]))
    ledger = UnitLedger(corpus, staff_mode=staff_mode)
    checked = 0
    for scope in [None, *corpus.taxonomy.uda_list]:
        for period in corpus.periods:
            for ind in INDICATORS:
                want = naive_national_average(ledger, ind, period, scope)
                assert national_weighted_average(ledger, ind, period, scope) == want
                checked += 1
    assert checked == (1 + len(corpus.taxonomy.uda_list)) * 2 * 4


class TestPercentVariation:
    def test_national_average_row(self):
        assert round(percent_variation(1.513, 1.825), 1) == 20.6

    def test_medicine_impact_row(self):
        assert round(percent_variation(1.021, 1.658), 1) == 62.4

    def test_no_change(self):
        assert percent_variation(1.3, 1.3) == 0.0

    def test_zero_base(self):
        with pytest.raises(ZeroBase):
            percent_variation(0.0, 1.0)

    def test_antisymmetry_identity(self):
        a, b = 1.21, 2.47
        assert percent_variation(a, b) == pytest.approx(
            -percent_variation(b, a) * b / a)
        assert (percent_variation(a, b) > 0) != (percent_variation(b, a) > 0)

    @pytest.mark.parametrize("fixture", ["uda_output_per_researcher.csv",
                                         "uda_standardized_impact.csv"])
    def test_reference_tables(self, fixture):
        for row in read_fixture(fixture):
            got = percent_variation(float(row["early"]), float(row["late"]))
            assert abs(round(got, 1) - float(row["printed_var_pct"])) <= 0.05, row
