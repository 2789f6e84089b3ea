"""Acceptance suite: one test per exit criterion, each printing a pass line.

Criteria 1-4 replay the bundled reference tables; 5-7 are randomized
property and equivalence runs; 8 checks end-to-end determinism of the CLI.
"""
import filecmp
import random
import time

import pytest

from bibliorank.aggregate import percent_variation, sds_unit_scores
from bibliorank.baseline import build_baselines
from bibliorank.cli import main as cli_main
from bibliorank.errors import ZeroStaff
from bibliorank.indicators import (INDICATORS, ShareScheme, UnitLedger,
                                   fractional_share)
from bibliorank.model import Authorship, Corpus, Publication
from bibliorank.oracle import Oracle
from bibliorank.rankshift import (QuintileAssignment, ShiftTable, assign_quintiles,
                                  classify_shifts, sds_rank_list, transition_matrix,
                                  uda_rank_list)
from bibliorank.synthgen import GenConfig, generate, make_corpus

from conftest import read_fixture

UDA_COLUMNS = ["MATH", "PHYS", "CHEM", "EARTH", "BIO", "MED", "AGR", "CIV", "IND"]


def report(criterion, description):
    print(f"PASS criterion {criterion}: {description}")


def scale_citations(corpus, k):
    pubs = [Publication(p.pub_id, p.year, p.subject_category, p.citations * k,
                        p.n_authors_total) for p in corpus.publications]
    return Corpus(corpus.taxonomy, corpus.researchers, pubs,
                  corpus.authorships, corpus.periods)


def test_criterion_1_percent_variation_fixtures():
    start = time.perf_counter()
    for name in ("uda_output_per_researcher.csv", "uda_standardized_impact.csv"):
        for row in read_fixture(name):
            got = round(percent_variation(float(row["early"]), float(row["late"])), 1)
            assert abs(got - float(row["printed_var_pct"])) <= 0.05, (name, row)
    # spot values, including the Agricultural row matching the printed table
    assert round(percent_variation(1.513, 1.825), 1) == 20.6
    assert round(percent_variation(1.021, 1.658), 1) == 62.4
    assert round(percent_variation(0.846, 1.256), 1) == 48.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"percent-variation fixtures reproduced ({elapsed:.3f}s)")


def test_criterion_2_university_shift_matrix():
    start = time.perf_counter()
    rows = read_fixture("university_quintile_shift_matrix.csv")
    cells = {}
    printed_totals = {}
    for r in rows:
        u = r["university_id"]
        cells[u] = {c: (int(r[c]) if r[c] != "" else None) for c in UDA_COLUMNS}
        printed_totals[u] = int(r["printed_total"])
    table = ShiftTable(columns=UDA_COLUMNS, cells=cells)
    assert len(cells) == 63
    for u, printed in printed_totals.items():
        assert table.row_total(u) == printed, u
    assert table.row_total("Univ_42") == -7
    assert table.row_total("Univ_04") == 6
    assert table.row_total("Univ_35") == 6
    shares = table.balance_shares()
    assert round(shares["negative"], 1) == 39.7
    assert round(shares["positive"], 1) == 42.9
    assert round(shares["nil"], 1) == 17.5
    for row in read_fixture("university_quintile_shift_summary.csv"):
        printed = float(row["printed_pct_changed"])
        if row["column"] == "TOTAL":
            got = table.overall_pct_changed()
        else:
            got = table.column_pct_changed(row["column"])
        assert abs(round(got, 1) - printed) <= 0.05, row
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"63x9 shift matrix totals and shares exact ({elapsed:.3f}s)")


def test_criterion_3_transition_matrix_fixture():
    """transition_matrix of two quintile assignments that place 50
    universities as the Biology table does reproduces its counts."""
    rows = read_fixture("biology_transition_matrix.csv")
    counts = tuple(tuple(int(r[f"q{j}"]) for j in range(1, 6)) for r in rows)
    # counts[i][j] universities move from quintile i + 1 to quintile j + 1
    moves = [(i + 1, j + 1) for i, row in enumerate(counts)
             for j, n in enumerate(row) for _ in range(n)]
    early, late = ({f"U{k:02d}": move[t] for k, move in enumerate(moves)} for t in (0, 1))
    matrix = transition_matrix(
        QuintileAssignment("BIO", "FSS", "P1", early, (10,) * 5),
        QuintileAssignment("BIO", "FSS", "P2", late, (10,) * 5))
    assert matrix.counts == counts
    assert matrix.row_totals == matrix.col_totals == (10,) * 5
    assert (matrix.trace, matrix.grand_total) == (31, 50)
    assert matrix.pct_changed == 0.38 == (50 - 31) / 50
    report(3, "transition matrix trace 31 / off-diagonal 19 / marginals 10")


def test_criterion_4_drilldown_and_comparison_fixtures():
    shifts = {r["sds"]: int(r["quintile_shift"])
              for r in read_fixture("engineering_sds_quintile_shifts.csv")}
    assert len(shifts) == 25
    assert sum(1 for v in shifts.values() if v == 0) == 7
    assert max(shifts.values()) == 2
    assert min(shifts.values()) == -4

    rows = {r["sds"]: (int(r["P"]), int(r["FP"]), int(r["AQ"]))
            for r in read_fixture("engineering_sds_indicator_shifts.csv")}
    all_up = [s for s, t in rows.items() if "all-up" in classify_shifts(*t)]
    assert all_up == ["ING-IND/35"]
    aq_up_fp_down = sorted(s for s, t in rows.items()
                           if "quality-up-quantity-down" in classify_shifts(*t))
    assert aq_up_fp_down == ["ING-INF/02", "ING-INF/03", "ING-INF/04"]
    report(4, "drilldown counts and indicator-shift flags exact")


def test_criterion_5_share_sums_and_fp_bound():
    rng = random.Random(20260823)
    for _ in range(1000):
        n = rng.randint(1, 25)
        pub = Publication("p", 2001, "C", 0, n)
        scheme = ShareScheme(first_weight=rng.uniform(1e-6, 5.0),
                             last_weight=rng.uniform(1e-6, 5.0),
                             middle_weight=rng.uniform(1e-6, 5.0))
        life = rng.random() < 0.5
        total = sum(fractional_share(Authorship("p", "r", pos, "U"), pub,
                                     scheme, life)
                    for pos in range(1, n + 1))
        assert abs(total - 1.0) <= 1e-9
    checked = 0
    for seed in range(3):
        corpus = make_corpus(GenConfig(seed=seed))
        ledger = UnitLedger(corpus, ShareScheme())
        for (u, s) in corpus.units():
            for period in corpus.periods:
                try:
                    p = ledger.unit_score(u, s, "P", period).value
                    fp = ledger.unit_score(u, s, "FP", period).value
                except ZeroStaff:
                    continue
                assert fp <= p + 1e-12
                checked += 1
    assert checked > 0
    report(5, f"1000 share sums within 1e-9; FP <= P on {checked} units")


def _rank_state(corpus, baselines, scheme, min_staff=1.0):
    """All rank orderings and quintile assignments, as comparable structures."""
    state = {}
    ledger = UnitLedger(corpus, scheme, baselines)
    for uda in corpus.taxonomy.uda_list:
        for ind in INDICATORS:
            for period in corpus.periods:
                rl = uda_rank_list(ledger, uda, ind, period, min_staff=min_staff)
                state[("uda", uda, ind, period.label)] = (
                    tuple((e.university_id, e.rank) for e in rl.entries),
                    tuple(sorted(assign_quintiles(rl).entries.items())))
    return state


def test_criterion_6_citation_scaling_invariance():
    scheme = ShareScheme()
    for seed in range(100):
        cfg = GenConfig(seed=seed, n_universities=5, n_sds=2, sds_per_uda=2,
                        citation_mean=2.0)
        corpus = make_corpus(cfg)
        baselines = build_baselines(corpus)
        # guard: invariance only holds where the last-resort divisor (a whole
        # category with zero medians but cited publications) never fires
        by_cat = {}
        for (cat, _), entry in baselines.entries.items():
            by_cat.setdefault(cat, []).append(entry.median)
        for cat, medians in by_cat.items():
            if all(m == 0 for m in medians):
                assert not any(p.citations > 0 for p in corpus.publications
                               if p.subject_category == cat)
        base_state = _rank_state(corpus, baselines, scheme)
        ledger = UnitLedger(corpus, scheme, baselines)
        base_values = {}
        for sds in corpus.taxonomy.sds_list:
            for ind in ("AQ", "FSS"):
                for period in corpus.periods:
                    scores = sds_unit_scores(ledger, sds, ind, period)
                    for unit, sc in scores.items():
                        base_values[(unit, ind, period.label)] = (
                            None if sc is None else sc.value)
        for k in (2, 10):
            scaled = scale_citations(corpus, k)
            scaled_baselines = build_baselines(scaled)
            assert _rank_state(scaled, scaled_baselines, scheme) == base_state
            scaled_ledger = UnitLedger(scaled, scheme, scaled_baselines)
            for sds in scaled.taxonomy.sds_list:
                for ind in ("AQ", "FSS"):
                    for period in scaled.periods:
                        scores = sds_unit_scores(scaled_ledger, sds, ind,
                                                 period)
                        for unit, sc in scores.items():
                            want = base_values[(unit, ind, period.label)]
                            if want is None:
                                assert sc is None
                            else:
                                assert sc.value == pytest.approx(want, abs=1e-9)
    report(6, "AQ/FSS values, ranks and quintiles invariant under k in {2,10}")


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    scheme = ShareScheme()
    for seed in range(100):
        cfg = GenConfig(seed=1000 + seed,
                        n_universities=3 + seed % 8,  # up to 10 universities
                        n_sds=3, sds_per_uda=3,
                        staff_min=1, staff_max=3,
                        pubs_per_researcher_year=0.8)
        corpus = make_corpus(cfg)
        ledger = UnitLedger(corpus, scheme, build_baselines(corpus))
        orc = Oracle(corpus, min_staff=1.0)
        unit_expected = orc.unit_scores()

        for sds in corpus.taxonomy.sds_list:
            for ind in INDICATORS:
                for period in corpus.periods:
                    scores = sds_unit_scores(ledger, sds, ind, period)
                    for (u, s), sc in scores.items():
                        want = unit_expected[(u, s, ind, period.label)]
                        got = None if sc is None else sc.value
                        if want is None:
                            assert got is None, (seed, u, s, ind)
                        else:
                            assert got == pytest.approx(want, abs=1e-9), \
                                (seed, u, s, ind)

        uda_expected = orc.uda_scores(unit_expected)
        uda_tables = orc.uda_rank_tables(unit_expected, uda_expected)
        for uda in corpus.taxonomy.uda_list:
            for ind in INDICATORS:
                for period in corpus.periods:
                    key = (uda, ind, period.label)
                    rl = uda_rank_list(ledger, uda, ind, period, min_staff=1.0)
                    if not rl.entries:
                        assert key not in uda_tables, (seed, key)
                        continue
                    want_ranks, want_quintiles = uda_tables[key]
                    assert {e.university_id: e.rank
                            for e in rl.entries} == want_ranks, (seed, key)
                    for e in rl.entries:
                        want = uda_expected[(e.university_id, uda, ind,
                                             period.label)]
                        assert e.value == pytest.approx(want, abs=1e-9)
                    assert assign_quintiles(rl).entries == want_quintiles

        shifts_expected = orc.quintile_shifts(uda_tables)
        for (uda, ind), want in shifts_expected.items():
            assigns = [assign_quintiles(uda_rank_list(
                ledger, uda, ind, period, min_staff=1.0))
                for period in corpus.periods]
            got = {u: assigns[0].entries[u] - assigns[1].entries[u]
                   for u in assigns[0].entries if u in assigns[1].entries}
            assert got == want, (seed, uda, ind)

        sds_tables = orc.sds_rank_tables(unit_expected)
        for (sds, ind, label), (want_ranks, _) in sds_tables.items():
            period = {p.label: p for p in corpus.periods}[label]
            rl = sds_rank_list(ledger, sds, ind, period, min_staff=1.0)
            assert {e.university_id: e.rank for e in rl.entries} == want_ranks

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"oracle equivalence over 100 seeds ({elapsed:.1f}s)")


def test_criterion_8_cli_determinism(tmp_path):
    demo = tmp_path / "demo"
    generate(GenConfig(seed=42, n_universities=8, n_sds=4, staff_min=2,
                       staff_max=5, turnover_rate=0.1), demo)

    def run(out):
        common = ["--input", str(demo), "--out", str(out), "--min-staff", "1"]
        assert cli_main(["indicators", *common]) == 0
        assert cli_main(["rank", *common]) == 0
        assert cli_main(["compare", *common]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files
    for name in files:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name
    report(8, f"CLI byte-identical across reruns ({len(files)} files)")
